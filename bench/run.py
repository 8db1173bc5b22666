#!/usr/bin/env python3
"""agecnn benchmark: the CLI as a user runs it, on seeded synthetic inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Every command runs as a child process, one at a time. With
``--trace 0`` the children are ``python -m agecnn`` and the end-to-end
metrics are reported. With ``--trace 1`` each command runs once plain and
once under traced_cli.py, which calls ``agecnn.cli.main`` with every
layer's public functions wrapped, and the per-layer table is reported. Both
modes check every output. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable run header and metric table. Scratch files
go to ``.agecnn_bench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import per_layer
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".agecnn_bench")

# Input directories kept per workload; older seeds are pruned to bound disk use.
KEEP_INPUT_SEEDS = 3
# Surgeries a run times for setup_s; the first also makes the model the passes use.
SETUP_REPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    why: str
    profile: str
    head: str
    train: int
    val: int
    predict: int
    epochs: int
    batch: int
    lr: float

    @property
    def trains(self):
        return self.epochs > 0


# Images are of odd sizes around 256, so predict always rescales and takes
# three crops. A mini-profile workload was dropped as unsteady: its
# run-to-run spread (IQR over median) reached 28-36%, above the largest
# bound a metric may have.
WORKLOADS = {w.name: w for w in (
    Workload("vgg-predict", 2,
             "vgg-face-age predict on non-256 images: eval-mode conv at batch 3 and "
             "checkpoint load; no backward, SGD or save",
             profile="vgg-face-age", head="4096,5000,5000,8", train=0, val=0,
             predict=2, epochs=0, batch=0, lr=0.0),
    Workload("vgg-finetune", 3,
             "vgg-face-age fine-tune then predict: train-mode trunk recomputed each epoch, "
             "sgd_step over a 27.8M-parameter head and a 260 MB checkpoint save",
             profile="vgg-face-age", head="1024,1024,1024,8", train=4, val=2,
             predict=4, epochs=2, batch=4, lr=0.01),
)}

# Gated end-to-end metrics: every workload reports each of them, so every
# workload ends with a predict, and train time is gated through
# commands_wall_s (vgg-predict has no train).
END_TO_END = {
    "setup_s": "s",
    "commands_wall_s": "s",
    "images_per_s": "1/s",
    "predict_wall_s": "s",
    "predict_images_per_s": "1/s",
    "predict_first_row_s": "s",
    "predict_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Reported where the workload supports them, but not gated.
END_TO_END_EXTRA = {
    "train_wall_s": "s",
    "train_images_per_s": "1/s",
    "predict_latency_p95_ms": "ms",
    "predict_latency_samples": "count",
    "ops_failed_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a failed check of the program)."""


# ---------------------------------------------------------------------------
# program import and run header
# ---------------------------------------------------------------------------

def import_program():
    """Import agecnn from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "agecnn", "cli.py")):
        raise BenchError(f"no agecnn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import agecnn
    if not os.path.abspath(agecnn.__file__).startswith(SRC + os.sep):
        raise BenchError(f"agecnn imported from {agecnn.__file__}, not from {SRC}")
    return agecnn


def _blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _mem_available_mb():
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
        top, commit = out.stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"
    # A checkout that is not a repository may sit inside another one.
    return commit if os.path.realpath(top) == os.path.realpath(ROOT) else "unknown"


def run_header(workload, seed, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_available_mb": _mem_available_mb(),
    }


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """One CLI command: exit code, wall time, timestamped stdout lines, peak RSS."""

    argv: list
    code: int
    wall_s: float
    lines: list      # (seconds since start, text)
    rss_mb: float
    stderr: str


def run_child(argv, cwd, spans_path=None):
    """Run ``python -m agecnn argv`` and read its rows as they arrive.

    With ``spans_path`` the command runs under traced_cli.py instead, which
    wraps the traced functions and writes the spans there at exit.
    PYTHONUNBUFFERED makes rows arrive as they are printed, not at exit.
    Peak RSS comes from wait4 on this child alone: RUSAGE_CHILDREN would keep
    the maximum over every child reaped so far.
    """
    launcher = ["-m", "agecnn"] if spans_path is None else [
        os.path.join(HERE, "traced_cli.py"), spans_path]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *launcher, *argv], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            lines = []
            for raw in iter(proc.stdout.readline, b""):
                lines.append((time.perf_counter() - start,
                              raw.decode("utf-8", "replace").rstrip("\n")))
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Leave no child behind, whatever interrupted the read.
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(argv, proc.returncode, wall, lines, usage.ru_maxrss / 1024.0, stderr)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts attempted and failed operations: commands plus predicted images."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, why):
        self.failed += count
        self.problems.append(why)

    def command(self, out, wants_wrote):
        self.attempted += 1
        if out.code != 0:
            self.fail(1, f"{out.argv[0]} exited {out.code}: {out.stderr.strip()[-300:]}")
            return False
        last = out.lines[-1][1] if out.lines else ""
        if last != f"wrote {wants_wrote}":
            self.fail(1, f"{out.argv[0]}: last line {last!r}, expected 'wrote {wants_wrote}'")
            return False
        return True

    def train(self, out, out_path, epochs):
        if not self.command(out, out_path):
            return
        rows = [text for _, text in out.lines[:-1]]
        if len(rows) != epochs:
            self.fail(1, f"train printed {len(rows)} epoch lines, expected {epochs}")
            return
        for i, row in enumerate(rows, start=1):
            cells = row.split(",")
            try:
                ok = (len(cells) == 5 and int(cells[0]) == i
                      and all(math.isfinite(float(c)) for c in cells[1:]))
            except ValueError:
                ok = False
            if not ok:
                self.fail(1, f"bad or non-finite epoch line {row!r}")

    def predict(self, out, names, labels):
        """One row per listed image: path, argmax label, 8 probabilities summing to 1."""
        self.attempted += 1 + len(names)
        if out.code != 0:
            self.fail(1, f"predict exited {out.code}: {out.stderr.strip()[-300:]}")
        rows = [text for _, text in out.lines]
        if len(rows) != len(names):
            self.fail(abs(len(names) - len(rows)),
                      f"predict printed {len(rows)} rows for {len(names)} images")
        for name, row in zip(names, rows):
            cells = row.split(",")
            try:
                probs = [float(c) for c in cells[2:]]
            except ValueError:
                probs = []
            top = max(probs) if probs else None
            if (len(cells) != 10 or cells[0] != name or len(probs) != 8
                    or abs(sum(probs) - 1.0) > 1e-5 or cells[1] not in labels
                    or probs[labels.index(cells[1])] != top):
                self.fail(1, f"bad predict row {row!r}")


def settle(path):
    """Flush a checkpoint a command just wrote, outside any timed window.

    Otherwise its writeback competes with the next command's reads.
    """
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
        os.fsync(fh.fileno())


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def predict_digest(out):
    return hashlib.sha256("".join(t + "\n" for _, t in out.lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# one pass over a workload's commands
# ---------------------------------------------------------------------------

def commands(w, seed, paths):
    seed_args = ["--seed", str(seed)]
    surgery = ["surgery", "--in", paths["donor"], "--profile", w.profile, "--head", w.head,
               "--out", "model.acnn", *seed_args]
    train = None
    final = "model.acnn"
    if w.trains:
        final = "trained.acnn"
        train = ["train", "--model", "model.acnn", "--train", paths["train"],
                 "--val", paths["val"], "--epochs", str(w.epochs),
                 "--batch-size", str(w.batch), "--lr", str(w.lr), "--out", final, *seed_args]
    predict = ["predict", "--model", final, "--images", paths["images"], *seed_args]
    return surgery, train, predict, final


def image_names(paths):
    with open(os.path.join(paths["dir"], paths["images"]), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


@dataclass
class Pass:
    """Timings and digests of one train (optional) + predict pass."""

    train: Outcome | None
    predict: Outcome
    checkpoint_sha256: str
    predict_sha256: str


def run_pass(run, w, seed, paths, gate, labels, names):
    _, train_argv, predict_argv, final = commands(w, seed, paths)
    train = None
    if train_argv is not None:
        train = run(train_argv)
        gate.train(train, final, w.epochs)
        settle(os.path.join(paths["dir"], final))
    predict = run(predict_argv)
    gate.predict(predict, names, labels)
    ckpt = os.path.join(paths["dir"], final)
    digest = sha256_file(ckpt) if os.path.exists(ckpt) else "missing"
    return Pass(train, predict, digest, predict_digest(predict))


def check_outputs(agecnn, gate, passes, paths, final, digest_file):
    """Reload the output checkpoint (CRC checked) and compare digests across repeats."""
    gate.attempted += 1
    try:
        agecnn.load(os.path.join(paths["dir"], final))
    except (agecnn.EngineError, OSError) as e:
        gate.fail(1, f"{final} does not reload: {e}")
    digests = {"checkpoint_sha256": passes[0].checkpoint_sha256,
               "predict_sha256": passes[0].predict_sha256}
    gate.attempted += 1
    if any(p.checkpoint_sha256 != digests["checkpoint_sha256"]
           or p.predict_sha256 != digests["predict_sha256"] for p in passes):
        gate.fail(1, "checkpoint or predict output differs between repeats of one seed")
    # Earlier runs of this seed in this checkout must have produced the same bytes.
    if os.path.exists(digest_file):
        with open(digest_file, encoding="utf-8") as fh:
            if json.load(fh) != digests:
                gate.fail(1, f"digests differ from an earlier run of this seed ({digest_file})")
    else:
        with open(digest_file, "w", encoding="utf-8") as fh:
            json.dump(digests, fh)
    return digests


# ---------------------------------------------------------------------------
# end-to-end mode
# ---------------------------------------------------------------------------

def latency_summary(gaps_ms):
    """p50 always; p95 only with at least ten samples beyond it."""
    out = {"predict_latency_samples": len(gaps_ms)}
    if gaps_ms:
        out["predict_latency_p50_ms"] = statistics.median(gaps_ms)
    if len(gaps_ms) >= 2:
        p95 = statistics.quantiles(gaps_ms, n=20, method="inclusive")[18]
        if sum(g > p95 for g in gaps_ms) >= 10:
            out["predict_latency_p95_ms"] = p95
    return out


def end_to_end(agecnn, w, seed, seconds, paths, gate):
    labels = list(agecnn.AGE_LABELS)
    names = image_names(paths)
    surgery_argv, _, _, final = commands(w, seed, paths)
    run = lambda argv: run_child(argv, paths["dir"])  # noqa: E731

    def setup():
        out = run(surgery_argv)
        gate.command(out, "model.acnn")
        settle(os.path.join(paths["dir"], "model.acnn"))
        setups.append(out)

    # A pass is train (if the workload trains), then predict. Passes repeat
    # while the next one should still end within `seconds` of pass time; a
    # pass longer than that runs once. The surgeries timed for setup_s are
    # interleaved with the first passes: a shared box drifts in speed over
    # seconds, so where the samples fall matters as much as how many there are.
    setups, passes = [], []
    setup()
    pass_s = 0.0
    while True:
        t = time.perf_counter()
        passes.append(run_pass(run, w, seed, paths, gate, labels, names))
        pass_s += time.perf_counter() - t
        if len(setups) < SETUP_REPS and not gate.failed:
            setup()
        if gate.failed or pass_s * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setups) < SETUP_REPS and not gate.failed:
        setup()
    digests = check_outputs(agecnn, gate, passes, paths, final,
                            os.path.join(paths["dir"], "digests.json"))

    med = statistics.median
    train_images = w.train * w.epochs
    per_pass = []
    gaps = []
    for p in passes:
        rows = [t for t, _ in p.predict.lines]
        gaps.extend(1e3 * (b - a) for a, b in zip(rows, rows[1:]))
        train_s = p.train.wall_s if p.train else 0.0
        per_pass.append({
            "commands_wall_s": train_s + p.predict.wall_s,
            "images_per_s": (train_images + len(names)) / (train_s + p.predict.wall_s),
            "predict_wall_s": p.predict.wall_s,
            "predict_images_per_s": len(names) / p.predict.wall_s,
            "predict_first_row_s": rows[0] if rows else p.predict.wall_s,
            **({"train_wall_s": train_s, "train_images_per_s": train_images / train_s}
               if p.train else {}),
        })
    metrics = {key: med(d[key] for d in per_pass) for key in per_pass[0]}
    metrics["setup_s"] = med(o.wall_s for o in setups)
    metrics["peak_rss_mb"] = max(o.rss_mb for o in setups + [x for p in passes
                                                               for x in (p.train, p.predict) if x])
    metrics.update(latency_summary(gaps))
    metrics["ops_failed_ratio"] = gate.failed / max(gate.attempted, 1)
    extra = {"passes": len(passes), "setup_reps": len(setups), **digests,
             "setup_walls_s": [o.wall_s for o in setups], "per_pass": per_pass}
    return metrics, extra


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------

def traced(agecnn, w, seed, paths, gate):
    """One untraced and one traced pass, each command in a fresh child.

    Both passes start every command cold, so their wall times compare fairly
    for trace.overhead_pct.
    """
    labels = list(agecnn.AGE_LABELS)
    names = image_names(paths)
    surgery_argv, _, _, final = commands(w, seed, paths)
    results = os.path.join(WORK, "results")
    span_files = []

    def run_traced(argv):
        span_files.append(os.path.join(results, f"{w.name}-{argv[0]}.spans.json"))
        return run_child(argv, paths["dir"], span_files[-1])

    passes = []
    for run in (lambda argv: run_child(argv, paths["dir"]), run_traced):
        surgery = run(surgery_argv)
        gate.command(surgery, "model.acnn")
        settle(os.path.join(paths["dir"], "model.acnn"))
        passes.append((surgery, run_pass(run, w, seed, paths, gate, labels, names)))
    digests = check_outputs(agecnn, gate, [p for _, p in passes], paths, final,
                            os.path.join(paths["dir"], "digests.json"))
    if gate.failed:
        return {}, digests

    tracer = Tracer.load(span_files)
    missing = tracer.unfired(per_layer.expected(w))
    if missing:
        raise BenchError(f"wrappers that never fired on {w.name}: {', '.join(missing)}")

    def wall(pair):
        surgery, p = pair
        return surgery.wall_s + p.predict.wall_s + (p.train.wall_s if p.train else 0.0)

    metrics = per_layer.metrics(tracer, w)
    metrics["trace.overhead_pct"] = 100.0 * (wall(passes[1]) / wall(passes[0]) - 1)
    metrics["tensor.gemm_gflops"] = per_layer.gemm_gflops()
    return metrics, {"spans": [os.path.relpath(f, ROOT) for f in span_files],
                     "span_count": len(tracer.spans), **digests}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _prune_inputs(keep_dir, name):
    dirs = [os.path.join(WORK, d) for d in os.listdir(WORK) if d.startswith(name + "-")]
    dirs = sorted((d for d in dirs if d != keep_dir), key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_INPUT_SEEDS - 1:]:
        shutil.rmtree(d, ignore_errors=True)


def _remove_outputs(paths):
    for name in ("model.acnn", "trained.acnn"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(paths["dir"], name))


def _print_table(header, metrics, units):
    for key, value in header.items():
        print(f"# {key}: {value}")
    for key in sorted(metrics):
        print(f"{key:<36} {metrics[key]:>16.6g} {units.get(key, '')}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    agecnn = import_program()
    import inputs  # needs agecnn on the path

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    header = run_header(w, args.seed, args.seconds, args.trace)
    paths = inputs.generate(w, args.seed, WORK)
    _prune_inputs(paths["dir"], w.name)
    gate = Gate()
    try:
        if args.trace:
            metrics, extra = traced(agecnn, w, args.seed, paths, gate)
            units = per_layer.UNITS
            wanted = list(units)
        else:
            metrics, extra = end_to_end(agecnn, w, args.seed, args.seconds, paths, gate)
            units = {**END_TO_END, **END_TO_END_EXTRA}
            wanted = list(END_TO_END)
    finally:
        _remove_outputs(paths)

    absent = [k for k in wanted if k not in metrics]
    if absent and not gate.failed:
        raise BenchError(f"metrics not measured: {', '.join(absent)}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted if k in metrics},
    }
    record = {"header": header, "extra": extra, "problems": gate.problems,
              "all_metrics": metrics, "result": result}
    out_path = os.path.join(WORK, "results", f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    _print_table({**header, **{k: v for k, v in extra.items() if k != "per_pass"}},
                 metrics, units)
    for problem in gate.problems:
        print(f"! {problem}")
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind like on an error, so that no child outlives the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        sys.exit(2)
