"""Command-line front end: head surgery, training, prediction, evaluation,
checkpoint inspection.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Results go to
standard output, diagnostics to the error stream. Tunable flags may also be
set in an optional ``key=value`` config file (``--config``); explicit flags
win over the file, the file wins over built-in defaults. All randomness
derives from the single ``--seed`` value through per-role, per-epoch streams,
so reruns and resumed runs are bit-reproducible.

Every command runs at one BLAS thread (``tensor.set_blas_threads``; the
caller's count is restored on return) on the one ``network.WorkerPool`` of
``network.pool_size()`` workers that ``main`` opens for it: every layer call
in either mode, every backward call and the momentum step share its workers,
so its bytes do not depend on the core count or on ``OPENBLAS_NUM_THREADS``. Where
numpy carries no OpenBLAS whose thread count can be set, the pool has one
worker and BLAS is left alone.
Each ``checkpoint.load`` and ``checkpoint.save`` also runs one CRC helper
thread for its own duration. Every body byte goes to it in file order: it
folds each into the CRC and, in a save, writes each first, so no output bit
depends on it. In ``surgery`` the fresh head is drawn on the pool, one
block of a new weight to each worker a round, each block from its own
stream keyed by (seed, weight, block) (``network.DrawnWeight``), so its
bytes are the same at any worker count. A thread that cannot start is a ResourceError: one
line, exit 1, and no file left. SIGINT and SIGTERM end a command with one
line, ``<command>: stopped by SIGINT`` (exit 130) or ``... SIGTERM`` (143),
after its temp files are removed; ``main`` handles SIGTERM only when it runs
on the main thread, and restores the handler it found.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import signal
import sys
import threading

import numpy as np

from . import checkpoint, data, network, optim, predict
from .data import AGE_LABELS, NUM_CLASSES
from .errors import ConfigError, EngineError, InputError, ParseError
from .metrics import evaluate, render_csv, render_report
from .tensor import Rng, argmax, set_blas_threads

# rng stream roles; the epoch number is appended for per-epoch streams.
_ROLE_SURGERY = 0
_ROLE_BATCH = 1
_ROLE_DROPOUT = 2

# The words a config file may give as a boolean flag's value.
_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def _read_config(path, flags):
    """The values a key=value file sets, by key. Each value is parsed by the
    type and choices of its key's flag action in ``flags``."""
    out = {}
    for lineno, line in enumerate(data.read_lines(path, ConfigError), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in flags:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        action = flags[key]
        bad = f"{path}: line {lineno}: bad value {value!r} for {key}"
        try:
            if isinstance(action, argparse.BooleanOptionalAction):
                out[key] = _BOOLEANS[value.lower()]
            else:
                out[key] = (action.type or str)(value)
        except (KeyError, ValueError):
            raise ConfigError(bad) from None
        if action.choices is not None and out[key] not in action.choices:
            raise ConfigError(f"{bad}; choose from {', '.join(action.choices)}")
    return out


def _parse_head(text):
    if not text.strip():
        raise ConfigError("head widths must not be empty")
    try:
        widths = [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad head widths {text!r}; expected comma-separated integers") from None
    if max(widths) > 0xFFFFFFFF:
        raise ConfigError(f"head width {max(widths)} does not fit a checkpoint extent "
                          f"(at most {0xFFFFFFFF})")
    return widths


def _parse_means(text):
    """The three channel means of a --means value, or None if it is not given."""
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected three channel means, got {text!r}")
    try:
        means = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad channel means {text!r}") from None
    if not all(math.isfinite(m) for m in means):
        raise ConfigError(f"channel means must be finite, got {text!r}")
    return means


def _add_view_flags(p):
    """Flags of the commands that score images; returns the --average action."""
    p.add_argument("--means", help="R,G,B channel means subtracted from inputs")
    return p.add_argument("--average", choices=predict.AVERAGES, default=predict.AVERAGES[0],
                          help="space an image's views are averaged in (default: %(default)s)")


def build_parser():
    """The parser, the subparser of each command by name, and the flag action
    of each config key. A tunable's default is declared here or read from the
    code it configures."""
    sgd = optim.SgdConfig()
    parser = argparse.ArgumentParser(
        prog="agecnn",
        description="Train and run an 8-bucket age classifier on a frozen "
                    "convolutional trunk.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file supplying flag defaults")
    config_flags = [common.add_argument("--seed", type=int, default=0,
                                        help="master random seed (default: %(default)s)")]

    p = sub.add_parser("surgery", parents=[common],
                       help="replace a trunk file's head with fresh layers")
    p.add_argument("--in", dest="in_path", required=True, help="donor weight file")
    p.add_argument("--profile", required=True, help="network profile (vgg-face-age or mini)")
    p.add_argument("--head", default="4096,5000,5000,8",
                   help="fc widths, comma separated (default: %(default)s)")
    config_flags.append(p.add_argument("--dropout", type=float, default=network.DROPOUT_RATE,
                                       help="head dropout rate (default: %(default)s)"))
    p.add_argument("--out", required=True, help="output weight file")

    p = sub.add_parser("train", parents=[common], help="fine-tune the unfrozen layers")
    p.add_argument("--model", required=True, help="input weight file")
    p.add_argument("--train", dest="train_manifest", required=True, help="training manifest CSV")
    p.add_argument("--val", dest="val_manifest", required=True, help="validation manifest CSV")
    p.add_argument("--out", required=True, help="output checkpoint file")
    config_flags += [
        p.add_argument("--epochs", type=int, help="number of epochs to run"),
        p.add_argument("--lr", type=float, default=sgd.lr0,
                       help="initial learning rate (default: %(default)s)"),
        p.add_argument("--momentum", type=float, default=sgd.momentum,
                       help="momentum coefficient (default: %(default)s)"),
        p.add_argument("--weight-decay", type=float, default=sgd.weight_decay,
                       help="L2 coefficient (default: %(default)s)"),
        p.add_argument("--batch-size", type=int, default=sgd.batch_size,
                       help="mini-batch size (default: %(default)s)"),
        p.add_argument("--lr-factor", type=float, default=sgd.lr_factor,
                       help="plateau decay factor (default: %(default)s)"),
        p.add_argument("--patience", type=int, default=sgd.patience,
                       help="epochs without improvement before decay (default: %(default)s)"),
        p.add_argument("--min-lr", type=float, default=sgd.min_lr,
                       help="learning-rate floor (default: %(default)s)"),
        p.add_argument("--improvement-eps", type=float, default=sgd.improvement_epsilon,
                       help="minimum accuracy gain that counts as improvement "
                            "(default: %(default)s)"),
        p.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=True,
                       help="shuffle training order each epoch (default: %(default)s)"),
        _add_view_flags(p),
    ]

    p = sub.add_parser("predict", parents=[common], help="classify a list of images")
    p.add_argument("--model", required=True, help="weight file")
    p.add_argument("--images", required=True, help="text file, one image path per line")
    _add_view_flags(p)

    p = sub.add_parser("eval", parents=[common], help="score a model against a labeled manifest")
    p.add_argument("--model", required=True, help="weight file")
    p.add_argument("--test", dest="test_manifest", required=True, help="test manifest CSV")
    p.add_argument("--csv-out", help="CSV report path (default <test manifest>.report.csv)")
    _add_view_flags(p)

    p = sub.add_parser("inspect", parents=[common], help="describe a weight file or profile")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="weight file to describe")
    group.add_argument("--profile", help="profile name to describe without a file")

    return parser, sub.choices, {action.dest: action for action in config_flags}


def _shape_text(shape):
    return "x".join(str(e) for e in shape)


def _check_classes(spec):
    """Raise ConfigError unless the network scores exactly the NUM_CLASSES age buckets."""
    out = spec.shapes[-1]
    if out != (NUM_CLASSES,):
        raise ConfigError(f"network {spec.name!r} outputs {_shape_text(out)} scores, "
                          f"expected one per age bucket ({NUM_CLASSES})")


def _load_manifest(path):
    """A manifest that holds at least one record; an empty one is an InputError."""
    manifest = data.load_manifest(path)
    if not manifest.records:
        raise InputError(f"{path}: manifest has no records")
    return manifest


def _check_out(path):
    """Give ``--out`` save's checks now, so that a bad path fails before any work."""
    if not path:
        raise OSError("--out is an empty path")
    fd, tmp = checkpoint.temp_beside(path)
    os.close(fd)
    os.unlink(tmp)


def cmd_surgery(args, pool):
    _check_out(args.out)
    head = _parse_head(args.head)
    spec = network.build_profile(args.profile)
    trunk_params = checkpoint.import_trunk(args.in_path, spec)
    rng = Rng(args.seed).derive(_ROLE_SURGERY)
    new_spec, new_params, mask = network.head_replace(
        spec, head, trunk_params, rng, dropout_rate=args.dropout, draw_on_write=True)
    _check_classes(new_spec)
    checkpoint.save(new_spec, new_params, mask, args.out, pool=pool)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args, pool):
    if args.epochs is None:
        print("the train command needs --epochs", file=sys.stderr)
        return 2
    if args.epochs < 0:
        print(f"--epochs must be >= 0, got {args.epochs}", file=sys.stderr)
        return 2
    means = _parse_means(args.means)
    cfg = optim.SgdConfig(
        lr0=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
        batch_size=args.batch_size, lr_factor=args.lr_factor, patience=args.patience,
        min_lr=args.min_lr, improvement_epsilon=args.improvement_eps)

    _check_out(args.out)
    spec, params, mask, state = checkpoint.load(args.model)
    _check_classes(spec)
    train_manifest = _load_manifest(args.train_manifest)
    val_manifest = _load_manifest(args.val_manifest)
    pre = data.Preprocessing.for_input(spec.input_shape, means)
    root = Rng(args.seed)
    if args.epochs > 0 and state is None:
        state = optim.init_state(params, mask, cfg)
    # The frozen prefix never changes, so the val views go through it once,
    # where what it outputs per view is smaller than the view.
    split = network.frozen_prefix(spec, mask)
    val_features = None
    if args.epochs > 0 and split and math.prod(spec.shapes[split]) < math.prod(spec.input_shape):
        val_features = predict.manifest_features(spec, params, val_manifest, means, split, pool)
    for _ in range(args.epochs):
        lr_used = state.lr
        stream = data.batches(train_manifest, cfg.batch_size, shuffle=args.shuffle,
                              rng=root.derive(_ROLE_BATCH, state.epoch),
                              preprocessing=pre)
        params, state, mean_loss = optim.train_epoch(
            spec, params, mask, state, cfg, stream,
            root.derive(_ROLE_DROPOUT, state.epoch), pool)
        preds, truths = predict.predict_manifest(
            spec, params, val_manifest, average=args.average, channel_means=means,
            features=val_features, pool=pool)
        report = evaluate(preds, truths)
        state = optim.plateau_update(state, report.exact_accuracy, cfg)
        print(f"{state.epoch},{lr_used:.8g},{mean_loss:.6f},"
              f"{report.exact_accuracy:.6f},{report.one_off_accuracy:.6f}")
    checkpoint.save(spec, params, mask, args.out, state=state, pool=pool)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args, pool):
    means = _parse_means(args.means)
    spec, params, _, _ = checkpoint.load(args.model)
    _check_classes(spec)
    failures = 0
    paths = [line.strip() for line in data.read_lines(args.images, ParseError) if line.strip()]
    rows = csv.writer(sys.stdout, lineterminator="\n")
    for path in paths:
        try:
            probs = predict.predict_file(spec, params, path, average=args.average,
                                         channel_means=means, pool=pool)
        except (EngineError, OSError) as e:
            shown = path if path.isprintable() else repr(path)
            print(f"{shown}: {e}", file=sys.stderr)
            failures += 1
            continue
        rows.writerow([path, AGE_LABELS[argmax(probs)], *(f"{p:.6f}" for p in probs)])
    return 1 if failures else 0


def cmd_eval(args, pool):
    means = _parse_means(args.means)
    spec, params, _, _ = checkpoint.load(args.model)
    _check_classes(spec)
    manifest = _load_manifest(args.test_manifest)
    csv_path = args.csv_out or args.test_manifest + ".report.csv"
    # The report file is opened before any image is scored, so that an
    # unwritable path fails at once, and is in place only once it is whole.
    with checkpoint.atomic_open(csv_path) as fh:
        preds, truths = predict.predict_manifest(spec, params, manifest,
                                                 average=args.average, channel_means=means,
                                                 pool=pool)
        report = evaluate(preds, truths)
        print(render_report(report), end="")
        fh.write(render_csv(report).encode("utf-8"))
    print(f"wrote {csv_path}", file=sys.stderr)
    return 0


def cmd_inspect(args, pool):
    if args.model is not None:
        spec, params, mask, state = checkpoint.load(args.model)
    else:
        spec = network.build_profile(args.profile)
        mask = None
        state = None
    param_shapes = network.param_shapes(spec)
    print(f"network: {spec.name}")
    print(f"input: {_shape_text(spec.input_shape)}")
    if state is not None:
        print(f"optimizer: lr={state.lr:.8g} epoch={state.epoch}")
    print(f"{'layer':<12} {'kind':<12} {'output':<14} {'params':>10} {'trainable':>10}")
    total = frozen = 0
    for layer, shape in zip(spec.layers, spec.shapes[1:]):
        count = sum(math.prod(s) for s in param_shapes.get(layer.name, {}).values())
        if layer.has_params:
            trainable = "-" if mask is None else ("yes" if mask[layer.name] else "no")
            if mask is not None and not mask[layer.name]:
                frozen += count
        else:
            trainable = ""
        total += count
        print(f"{layer.name:<12} {layer.kind:<12} {_shape_text(shape):<14} "
              f"{count:>10} {trainable:>10}")
    print(f"total params: {total} (trainable {total - frozen}, frozen {frozen})")
    return 0


class _Terminated(BaseException):
    """SIGTERM, raised on the main thread wherever it is running."""


def _terminate(signum, frame):
    raise _Terminated


_COMMANDS = {
    "surgery": cmd_surgery,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser, commands, config_flags = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # File values become the running command's defaults, so explicit
        # flags still win; a key the command has no flag for goes unread.
        try:
            commands[args.command].set_defaults(**_read_config(args.config, config_flags))
        except (ConfigError, OSError) as e:
            print(str(e), file=sys.stderr)
            return 2
        args = parser.parse_args(argv)
    blas_before = set_blas_threads(1)
    # SIGTERM unwinds the command as SIGINT does, so it too leaves no temp file
    on_main = threading.current_thread() is threading.main_thread()
    term_before = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        # overflow and NaN are found and reported as typed errors, so NumPy's
        # floating-point warnings would only repeat them as engine internals
        with np.errstate(all="ignore"), \
                network.WorkerPool(1 if blas_before is None else network.pool_size()) as pool:
            return _COMMANDS[args.command](args, pool)
    except (EngineError, OSError, MemoryError) as e:
        print(str(e) or repr(e), file=sys.stderr)
        return 1
    except (KeyboardInterrupt, _Terminated) as e:
        stop = signal.SIGINT if isinstance(e, KeyboardInterrupt) else signal.SIGTERM
        print(f"{args.command}: stopped by {stop.name}", file=sys.stderr)
        return 128 + stop
    finally:
        if blas_before is not None:
            set_blas_threads(blas_before)
        if on_main:  # None: a handler not set from Python, which cannot be restored
            signal.signal(signal.SIGTERM, signal.SIG_DFL if term_before is None else term_before)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
