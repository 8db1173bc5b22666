"""Same seed, same bytes at any core count and any OPENBLAS_NUM_THREADS.

Each case runs ``train``, ``eval`` and ``predict`` in a fresh interpreter
pinned to one or two CPUs (the pool size follows the affinity), with
``OPENBLAS_NUM_THREADS`` unset, 1 or 2. Every case must print the same
lines and write the same checkpoint and report bytes. The crop-path
network's first fc (4900 inputs, 256 outputs) is a product that OpenBLAS
0.3.31 rounds differently at one and at two threads. The mini case first
runs a ``surgery`` whose head (12.6M values, in seven blocks of at most
``network.DRAW_BLOCK``) is drawn a round of two blocks at a time, one on
each worker where the pool has two, each block from its own keyed stream.
The mini-conv case trains ``conv2_2`` with the head: its forward, ReLU and
max pooling run in train mode on the pool, and so does its backward.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from agecnn import NetworkSpec, Rng, build_profile, init_params, load_manifest, make_mask, save
from agecnn.layers import conv, dropout, fc, maxpool, relu, softmax_loss

from conftest import write_dataset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs each argv of a JSON list through cli.main and prints the exit codes.
CHILD = """
import json, sys
from agecnn import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print("exit codes", codes)
"""


def _cpu_sets():
    cpus = sorted(os.sched_getaffinity(0))
    return [{cpus[0]}] + ([set(cpus[:2])] if len(cpus) > 1 else [])


def _model(tmp_path, kind):
    if kind.startswith("mini"):
        spec = build_profile("mini")
        head = {"fc3", "fc4", "fc5"}
        mask = make_mask(spec, head | {"conv2_2"} if kind == "mini-conv" else head)
    else:
        spec = NetworkSpec("crop", (3, 224, 224), (
            conv("c1", 25), relu("r1"), maxpool("p1", window=16, stride=16),
            fc("f1", 256), relu("r2"), dropout("d1", 0.5), fc("f2", 8), softmax_loss()))
        mask = make_mask(spec, {"f1", "f2"})
    path = str(tmp_path / "model.acnn")
    save(spec, init_params(spec, Rng(0), std=0.02), mask, path)
    return path


def _run_case(tmp_path, commands, cpus, threads):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    files = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
             for name in ("surgery.acnn", "trained.acnn", "report.csv")
             if (tmp_path / name).exists()}
    return done.stdout, done.stderr, files


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control")
@pytest.mark.parametrize("kind", ["mini", "mini-conv", "crop-path"])
def test_same_bytes_at_any_core_and_blas_thread_count(kind, tmp_path):
    size = 40 if kind == "crop-path" else 32
    os.mkdir(tmp_path / "train")
    os.mkdir(tmp_path / "val")
    train = write_dataset(str(tmp_path / "train"), 5, Rng(7), size=size)
    val = write_dataset(str(tmp_path / "val"), 2, Rng(8), size=size)
    (tmp_path / "images.txt").write_text(
        "".join(r.path + "\n" for r in load_manifest(val).records))
    model = _model(tmp_path, kind)
    surgery = [["surgery", "--in", model, "--profile", "mini", "--head", "4096,2048,8",
                "--seed", "5", "--out", "surgery.acnn"]] if kind == "mini" else []
    commands = surgery + [
        ["train", "--model", model, "--train", train, "--val", val, "--epochs", "2",
         "--batch-size", "4", "--lr", "0.001", "--seed", "3", "--out", "trained.acnn"],
        ["eval", "--model", "trained.acnn", "--test", val, "--csv-out", "report.csv"],
        ["predict", "--model", "trained.acnn", "--images", "images.txt"],
    ]
    outcomes = {(tuple(sorted(cpus)), threads): _run_case(tmp_path, commands, cpus, threads)
                for cpus in _cpu_sets() for threads in (None, "1", "2")}
    first = next(iter(outcomes.values()))
    assert first[0].endswith(f"exit codes {[0] * len(commands)}\n"), first
    assert len(first[2]) == 2 + bool(surgery)
    lines = first[0].splitlines()
    assert len([line for line in lines if line.startswith(str(tmp_path / "val"))]) == 2
    for case, outcome in outcomes.items():
        assert outcome == first, case
