"""Command-line front end: head surgery, training, prediction, evaluation,
checkpoint inspection.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Results go to
standard output, diagnostics to the error stream. Tunable flags may also be
set in an optional ``key=value`` config file (``--config``); explicit flags
win over the file, the file wins over built-in defaults. All randomness
derives from the single ``--seed`` value through per-role, per-epoch streams,
so reruns and resumed runs are bit-reproducible.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import checkpoint, data, network, optim, predict
from .data import AGE_LABELS
from .errors import ConfigError, EngineError, ParseError
from .metrics import evaluate, render_csv, render_report
from .tensor import Rng, argmax

# rng stream roles; the epoch number is appended for per-epoch streams.
_ROLE_SURGERY = 0
_ROLE_BATCH = 1
_ROLE_DROPOUT = 2

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_bool(text):
    low = text.lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


_CONFIG_KEYS = {
    "lr": float, "momentum": float, "weight_decay": float, "batch_size": int,
    "lr_factor": float, "patience": int, "min_lr": float,
    "improvement_eps": float, "dropout": float, "seed": int,
    "shuffle": _parse_bool, "average": str, "epochs": int,
}

_DEFAULTS = {
    "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-3, "batch_size": 256,
    "lr_factor": 0.1, "patience": 1, "min_lr": 1e-5, "improvement_eps": 1e-4,
    "dropout": 0.6, "seed": 0, "shuffle": True, "average": "probability",
    "epochs": None,
}


def _read_config(path):
    out = {}
    for lineno, line in enumerate(data.read_lines(path, ConfigError), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError:
            raise ConfigError(
                f"{path}: line {lineno}: bad value {value.strip()!r} for {key}") from None
    return out


def _resolve(args, filecfg, key):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in filecfg:
        return filecfg[key]
    return _DEFAULTS[key]


def _parse_head(text):
    try:
        widths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad head widths {text!r}; expected e.g. 4096,5000,5000,8") from None
    if not widths:
        raise ConfigError("head widths must not be empty")
    return widths


def _parse_means(text):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"expected three channel means, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad channel means {text!r}") from None


def _add_common(p):
    p.add_argument("--config", help="key=value file supplying flag defaults")
    p.add_argument("--seed", type=int, help="master random seed (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agecnn",
        description="Train and run an 8-bucket age classifier on a frozen "
                    "convolutional trunk.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surgery", help="replace a trunk file's head with fresh layers")
    p.add_argument("--in", dest="in_path", required=True, help="donor weight file")
    p.add_argument("--profile", required=True, help="network profile (vgg-face-age or mini)")
    p.add_argument("--head", help="fc widths, comma separated (default 4096,5000,5000,8)")
    p.add_argument("--dropout", type=float, help="head dropout rate (default 0.6)")
    p.add_argument("--out", required=True, help="output weight file")
    _add_common(p)

    p = sub.add_parser("train", help="fine-tune the unfrozen layers")
    p.add_argument("--model", required=True, help="input weight file")
    p.add_argument("--train", dest="train_manifest", required=True, help="training manifest CSV")
    p.add_argument("--val", dest="val_manifest", required=True, help="validation manifest CSV")
    p.add_argument("--epochs", type=int, help="number of epochs to run")
    p.add_argument("--out", required=True, help="output checkpoint file")
    p.add_argument("--lr", type=float, help="initial learning rate (default 0.1)")
    p.add_argument("--momentum", type=float, help="momentum coefficient (default 0.9)")
    p.add_argument("--weight-decay", type=float, help="L2 coefficient (default 1e-3)")
    p.add_argument("--batch-size", type=int, help="mini-batch size (default 256)")
    p.add_argument("--lr-factor", type=float, help="plateau decay factor (default 0.1)")
    p.add_argument("--patience", type=int, help="epochs without improvement before decay (default 1)")
    p.add_argument("--min-lr", type=float, help="learning-rate floor (default 1e-5)")
    p.add_argument("--improvement-eps", type=float,
                   help="minimum accuracy gain that counts as improvement (default 1e-4)")
    p.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=None,
                   help="shuffle training order each epoch (default on)")
    p.add_argument("--means", help="R,G,B channel means subtracted from inputs")
    p.add_argument("--average", choices=("probability", "score"),
                   help="validation averaging space (default probability)")
    _add_common(p)

    p = sub.add_parser("predict", help="classify a list of images")
    p.add_argument("--model", required=True, help="weight file")
    p.add_argument("--images", required=True, help="text file, one image path per line")
    p.add_argument("--means", help="R,G,B channel means subtracted from inputs")
    p.add_argument("--average", choices=("probability", "score"),
                   help="averaging space (default probability)")
    _add_common(p)

    p = sub.add_parser("eval", help="score a model against a labeled manifest")
    p.add_argument("--model", required=True, help="weight file")
    p.add_argument("--test", dest="test_manifest", required=True, help="test manifest CSV")
    p.add_argument("--csv-out", help="CSV report path (default <test manifest>.report.csv)")
    p.add_argument("--means", help="R,G,B channel means subtracted from inputs")
    p.add_argument("--average", choices=("probability", "score"),
                   help="averaging space (default probability)")
    _add_common(p)

    p = sub.add_parser("inspect", help="describe a weight file or profile")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="weight file to describe")
    group.add_argument("--profile", help="profile name to describe without a file")
    _add_common(p)

    return parser


def _shape_text(shape):
    return "x".join(str(e) for e in shape)


def cmd_surgery(args, filecfg):
    seed = _resolve(args, filecfg, "seed")
    rate = _resolve(args, filecfg, "dropout")
    head = _parse_head(args.head) if args.head else [4096, 5000, 5000, 8]
    spec = network.build_profile(args.profile, dropout_rate=rate)
    trunk_params = checkpoint.import_trunk(args.in_path, spec)
    rng = Rng(seed).derive(_ROLE_SURGERY)
    new_spec, new_params, mask = network.head_replace(
        spec, head, trunk_params, rng, dropout_rate=rate)
    checkpoint.save(new_spec, new_params, mask, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args, filecfg):
    epochs = _resolve(args, filecfg, "epochs")
    if epochs is None:
        print("the train command needs --epochs", file=sys.stderr)
        return 2
    if epochs < 0:
        print(f"--epochs must be >= 0, got {epochs}", file=sys.stderr)
        return 2
    seed = _resolve(args, filecfg, "seed")
    shuffle = _resolve(args, filecfg, "shuffle")
    average = _resolve(args, filecfg, "average")
    means = _parse_means(args.means) if args.means else None
    cfg = optim.SgdConfig(
        lr0=_resolve(args, filecfg, "lr"),
        momentum=_resolve(args, filecfg, "momentum"),
        weight_decay=_resolve(args, filecfg, "weight_decay"),
        batch_size=_resolve(args, filecfg, "batch_size"),
        lr_factor=_resolve(args, filecfg, "lr_factor"),
        patience=_resolve(args, filecfg, "patience"),
        min_lr=_resolve(args, filecfg, "min_lr"),
        improvement_epsilon=_resolve(args, filecfg, "improvement_eps"))

    spec, params, mask, state = checkpoint.load(args.model)
    train_manifest = data.load_manifest(args.train_manifest)
    val_manifest = data.load_manifest(args.val_manifest)
    pre = data.Preprocessing.for_input(spec.input_shape, means)
    root = Rng(seed)
    if epochs > 0 and state is None:
        state = optim.init_state(params, mask, cfg)
    # The frozen prefix never changes, so the val views go through it once,
    # where what it outputs per view is smaller than the view.
    split = network.frozen_prefix(spec, mask)
    val_features = None
    if epochs > 0 and split and (math.prod(network.infer_shapes(spec)[split - 1][1])
                                 < math.prod(spec.input_shape)):
        val_features = predict.manifest_features(spec, params, val_manifest, means, split)
    for _ in range(epochs):
        lr_used = state.lr
        stream = data.batches(train_manifest, cfg.batch_size, shuffle=shuffle,
                              rng=root.derive(_ROLE_BATCH, state.epoch),
                              preprocessing=pre)
        params, state, mean_loss = optim.train_epoch(
            spec, params, mask, state, cfg, stream,
            root.derive(_ROLE_DROPOUT, state.epoch))
        preds, truths = predict.predict_manifest(spec, params, val_manifest, average=average,
                                                 channel_means=means, features=val_features)
        report = evaluate(preds, truths)
        state = optim.plateau_update(state, report.exact_accuracy, cfg)
        print(f"{state.epoch},{lr_used:.8g},{mean_loss:.6f},"
              f"{report.exact_accuracy:.6f},{report.one_off_accuracy:.6f}")
    checkpoint.save(spec, params, mask, args.out, state=state)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args, filecfg):
    average = _resolve(args, filecfg, "average")
    means = _parse_means(args.means) if args.means else None
    spec, params, _, _ = checkpoint.load(args.model)
    failures = 0
    paths = [line.strip() for line in data.read_lines(args.images, ParseError) if line.strip()]
    for path in paths:
        try:
            probs = predict.predict_file(spec, params, path, average=average,
                                         channel_means=means)
        except (EngineError, OSError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            failures += 1
            continue
        label = AGE_LABELS[argmax(probs)]
        cells = ",".join(f"{p:.6f}" for p in probs)
        print(f"{path},{label},{cells}")
    return 1 if failures else 0


def cmd_eval(args, filecfg):
    average = _resolve(args, filecfg, "average")
    means = _parse_means(args.means) if args.means else None
    spec, params, _, _ = checkpoint.load(args.model)
    manifest = data.load_manifest(args.test_manifest)
    preds, truths = predict.predict_manifest(spec, params, manifest,
                                             average=average, channel_means=means)
    report = evaluate(preds, truths)
    print(render_report(report), end="")
    csv_path = args.csv_out or args.test_manifest + ".report.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(report))
    print(f"wrote {csv_path}", file=sys.stderr)
    return 0


def cmd_inspect(args, filecfg):
    if args.model:
        spec, params, mask, state = checkpoint.load(args.model)
    else:
        spec = network.build_profile(args.profile)
        mask = None
        state = None
    shapes = network.infer_shapes(spec)
    param_shapes = network.param_shapes(spec)
    print(f"network: {spec.name}")
    print(f"input: {_shape_text(spec.input_shape)}")
    if state is not None:
        print(f"optimizer: lr={state.lr:.8g} epoch={state.epoch}")
    print(f"{'layer':<12} {'kind':<12} {'output':<14} {'params':>10} {'trainable':>10}")
    total = frozen = 0
    for layer, (_, shape) in zip(spec.layers, shapes):
        count = sum(int(np.prod(s)) for s in param_shapes.get(layer.name, {}).values())
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


_COMMANDS = {
    "surgery": cmd_surgery,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        filecfg = _read_config(args.config) if args.config else {}
    except (ConfigError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, filecfg)
    except (EngineError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
