"""Where the traced run hooks into agecnn, and the per-layer table it yields.

Layers are the package's modules: cli, checkpoint, network, layers, optim,
data, predict, metrics and tensor. Each wrapper is installed on the module
whose code makes the call (see spans.py for why), under a span name of the
form ``<home module>.<function>[@<calling module>]``.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from spans import Tracer

KINDS = ("conv", "relu", "lrn", "maxpool", "fc", "dropout")
MODES = ("train", "eval")
# Every conv and fc layer of the vgg-face-age profile and its replaced heads.
LAYERS = tuple(f"conv{b}_{i}" for b, n in ((1, 2), (2, 2), (3, 3), (4, 3), (5, 3))
               for i in range(1, n + 1)) + tuple(f"fc{i}" for i in range(6, 10))
# The bare-GEMM ceiling is timed at conv1_2's im2col shape for batch 3:
# (3*224*224 x 64*9) patches times (64*9 x 64) weights.
GEMM_SHAPE = (3 * 224 * 224, 64 * 9, 64)

UNITS = {
    **{f"layers.fwd_ms.{k}.{m}": "ms" for k in KINDS for m in MODES},
    **{f"layers.fwd_calls.{k}": "count" for k in KINDS},
    **{f"layers.bwd_ms.{k}": "ms" for k in KINDS},
    **{f"layers.fwd_ms.{name}": "ms" for name in LAYERS},
    **{f"layers.gflops.{name}": "GFLOP/s" for name in LAYERS},
    "tensor.gemm_gflops": "GFLOP/s",
    "cli.surgery_ms": "ms",
    "cli.train_ms": "ms",
    "cli.predict_ms": "ms",
    "network.forward_ms": "ms",
    "network.backward_ms": "ms",
    "network.eval_scores_ms": "ms",
    "network.trunk_images": "count",
    "network.cache_mb": "MB",
    "network.head_replace_ms": "ms",
    "checkpoint.import_trunk_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.save_mb_per_s": "MB/s",
    "checkpoint.load_ms": "ms",
    "checkpoint.load_mb_per_s": "MB/s",
    "optim.sgd_step_ms": "ms",
    "optim.sgd_gb_per_s": "GB/s",
    "optim.train_epoch_ms": "ms",
    "predict.per_image_ms": "ms",
    "predict.validation_ms": "ms",
    "predict.validation_share": "ratio",
    "data.decode_ms": "ms",
    "data.resize_ms": "ms",
    "data.batch_wait_ms": "ms",
    "data.decode_calls": "count",
    "metrics.evaluate_ms": "ms",
    "trace.overhead_pct": "%",
}

_COMMON = (
    "cli.main", "layers.forward_layer", "tensor.pad2d@layers", "tensor.argmax@cli",
    "tensor.gaussian_fill@network", "network.head_replace", "network.eval_scores",
    "checkpoint.import_trunk", "checkpoint.save", "checkpoint.load",
    "predict.predict_file", "predict.predict_proba", "data.decode_image@predict",
    "data.resize_bilinear@predict",
)
_TRAIN = (
    "layers.backward_layer", "network.forward@optim", "network.backward@optim",
    "optim.init_state", "optim.train_epoch", "optim.sgd_step", "optim.plateau_update",
    "data.load_manifest", "data.batches", "data.batch_wait", "data.decode_image@data",
    "predict.predict_manifest", "metrics.evaluate@cli", "tensor.argmax@predict",
    "data.resize_bilinear@data",
)


def expected(w):
    """Span names that must fire on workload ``w``; a silent zero is an error."""
    names = list(_COMMON)
    if w.trains:
        names += _TRAIN
    return names


def _owner_nbytes(arrays):
    """Bytes of the distinct buffers behind ``arrays`` (views counted once)."""
    seen = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        seen[id(a)] = a.nbytes
    return sum(seen.values())


def _cache_bytes(args, kwargs, result):
    _, caches = result
    return {"bytes": _owner_nbytes(v for c in caches for v in c.data.values()
                                   if isinstance(v, np.ndarray))}


def _file_bytes(index):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(
        args[index] if len(args) > index else kwargs["path"])}


def _sgd_bytes(args, kwargs, result):
    # params, grads and velocity are read; params and velocity are written
    grads = args[1]
    return {"bytes": 5 * sum(g.nbytes for group in grads.values() for g in group.values())}


def install():
    """Wrap every traced function of the package; returns the Tracer."""
    from agecnn import checkpoint, cli, data, layers, network, optim, predict

    t = Tracer()
    t.wrap(cli, "main", "cli.main", lambda a, k, r: {"command": a[0][0]})
    t.wrap(layers, "forward_layer", "layers.forward_layer", lambda a, k, r: {
        "kind": a[0].kind, "layer": a[0].name, "mode": a[3] if len(a) > 3 else k.get("mode", "train"),
        "n": int(a[1].shape[0])})
    t.wrap(layers, "backward_layer", "layers.backward_layer",
           lambda a, k, r: {"kind": a[0].kind, "layer": a[0].name})
    t.wrap(layers, "pad2d", "tensor.pad2d@layers")
    t.wrap(cli, "argmax", "tensor.argmax@cli")
    t.wrap(predict, "argmax", "tensor.argmax@predict")
    t.wrap(network, "gaussian_fill", "tensor.gaussian_fill@network")
    t.wrap(network, "head_replace", "network.head_replace")
    t.wrap(network, "eval_scores", "network.eval_scores")
    t.wrap(optim, "forward", "network.forward@optim", _cache_bytes)
    t.wrap(optim, "backward", "network.backward@optim")
    t.wrap(checkpoint, "import_trunk", "checkpoint.import_trunk")
    t.wrap(checkpoint, "save", "checkpoint.save", _file_bytes(3))
    t.wrap(checkpoint, "load", "checkpoint.load", _file_bytes(0))
    t.wrap(optim, "init_state", "optim.init_state")
    t.wrap(optim, "train_epoch", "optim.train_epoch")
    t.wrap(optim, "sgd_step", "optim.sgd_step", _sgd_bytes)
    t.wrap(optim, "plateau_update", "optim.plateau_update")
    t.wrap(data, "load_manifest", "data.load_manifest")
    t.wrap_iterator(data, "batches", "data.batches", "data.batch_wait")
    t.wrap(data, "decode_image", "data.decode_image@data")
    t.wrap(predict, "decode_image", "data.decode_image@predict")
    t.wrap(data, "resize_bilinear", "data.resize_bilinear@data")
    t.wrap(predict, "resize_bilinear", "data.resize_bilinear@predict")
    t.wrap(predict, "predict_manifest", "predict.predict_manifest")
    t.wrap(predict, "predict_file", "predict.predict_file")
    t.wrap(predict, "predict_proba", "predict.predict_proba")
    t.wrap(cli, "evaluate", "metrics.evaluate@cli")
    return t


def layer_flops(w):
    """Forward FLOPs per image of each conv and fc layer, from static shapes."""
    from agecnn import network
    spec = network.replace_head_spec(network.build_profile(w.profile),
                                     [int(x) for x in w.head.split(",")])
    out_shapes = dict(network.infer_shapes(spec))
    flops = {}
    for name, shapes in network.param_shapes(spec).items():
        weight = shapes["weight"]
        if len(weight) == 4:  # conv: cout x cin x k x k, at every output pixel
            _, oh, ow = out_shapes[name]
            flops[name] = 2 * math.prod(weight) * oh * ow
        else:                 # fc: fin x fout
            flops[name] = 2 * math.prod(weight)
    return flops


def gemm_gflops(reps=3):
    """Median rate of the bare conv1_2 GEMM: the ceiling for layers.gflops.*."""
    m, k, n = GEMM_SHAPE
    a = np.full((m, k), 0.5, dtype=np.float32)
    b = np.full((n, k), 0.25, dtype=np.float32)
    (a @ b.T).sum()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        a @ b.T
        times.append(time.perf_counter() - start)
    return 2 * m * k * n / statistics.median(times) / 1e9


def metrics(tracer, w):
    """The per-layer table from the traced run's spans.

    Times are totals over the whole run (surgery, train and predict), except
    predict.per_image_ms, the median over the predict command's images.
    """
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}

    def command_of(span):
        while span.parent in by_id:
            span = by_id[span.parent]
            if span.name == "cli.main":
                return span.info["command"]
        return None

    def named(*names):
        return [s for s in spans if s.name in names]

    def total_ms(*names):
        return sum(s.ms for s in named(*names))

    m = {k: 0.0 for k in UNITS}
    flops = layer_flops(w)
    first_conv = next(iter(flops))
    layer_flop_total = {}
    for s in named("layers.forward_layer"):
        kind, layer = s.info["kind"], s.info["layer"]
        if kind in KINDS:
            m[f"layers.fwd_ms.{kind}.{s.info['mode']}"] += s.ms
            m[f"layers.fwd_calls.{kind}"] += 1
        if layer in flops:
            m[f"layers.fwd_ms.{layer}"] += s.ms
            layer_flop_total[layer] = layer_flop_total.get(layer, 0) + flops[layer] * s.info["n"]
        if layer == first_conv:
            m["network.trunk_images"] += s.info["n"]
    for layer, total in layer_flop_total.items():
        m[f"layers.gflops.{layer}"] = total / (m[f"layers.fwd_ms.{layer}"] / 1e3) / 1e9
    for s in named("layers.backward_layer"):
        if s.info["kind"] in KINDS:
            m[f"layers.bwd_ms.{s.info['kind']}"] += s.ms

    for s in named("cli.main"):
        m[f"cli.{s.info['command']}_ms"] += s.ms
    m["network.forward_ms"] = total_ms("network.forward@optim")
    m["network.backward_ms"] = total_ms("network.backward@optim")
    m["network.eval_scores_ms"] = total_ms("network.eval_scores")
    m["network.cache_mb"] = max((s.info["bytes"] for s in named("network.forward@optim")),
                                default=0) / 2**20
    m["network.head_replace_ms"] = total_ms("network.head_replace")
    m["checkpoint.import_trunk_ms"] = total_ms("checkpoint.import_trunk")
    for op in ("save", "load"):
        done = named(f"checkpoint.{op}")
        ms = sum(s.ms for s in done)
        m[f"checkpoint.{op}_ms"] = ms
        if ms:
            m[f"checkpoint.{op}_mb_per_s"] = sum(s.info["bytes"] for s in done) / 2**20 / (ms / 1e3)
    steps = named("optim.sgd_step")
    m["optim.sgd_step_ms"] = sum(s.ms for s in steps)
    if steps:
        m["optim.sgd_gb_per_s"] = (sum(s.info["bytes"] for s in steps) / 1e9
                                   / (m["optim.sgd_step_ms"] / 1e3))
    m["optim.train_epoch_ms"] = total_ms("optim.train_epoch")
    per_image = [s.ms for s in named("predict.predict_file") if command_of(s) == "predict"]
    m["predict.per_image_ms"] = statistics.median(per_image) if per_image else 0.0
    m["predict.validation_ms"] = total_ms("predict.predict_manifest")
    if m["cli.train_ms"]:
        m["predict.validation_share"] = m["predict.validation_ms"] / m["cli.train_ms"]
    decodes = named("data.decode_image@data", "data.decode_image@predict")
    m["data.decode_ms"] = sum(s.ms for s in decodes)
    m["data.decode_calls"] = len(decodes)
    m["data.resize_ms"] = total_ms("data.resize_bilinear@data", "data.resize_bilinear@predict")
    m["data.batch_wait_ms"] = total_ms("data.batch_wait")
    m["metrics.evaluate_ms"] = total_ms("metrics.evaluate@cli")
    return m
