"""Sequential network assembly: profiles, head surgery and the two layer walks:
``forward`` in train mode, keeping the caches ``backward`` reads under a
per-layer freeze mask, and ``eval_layers``, the only eval-mode walk, cache-free
in micro-batches (scoring, and the frozen prefix used as a feature extractor).

Both walks, and ``backward``, run on a ``WorkerPool``: a CLI command's one
pool, or, given none, a one-worker pool (``layers.SERIAL`` for ``forward``
and ``backward``, one for the call for ``eval_layers``). Train mode runs
each layer call on the pool itself, eval mode on the buffer plan the pool's
``plan`` makes. Inside each layer call the pool's threads share the layer's
pieces (conv bands and filter blocks, row ranges of ReLU, LRN and max
pooling, fc's blocks of ``layers.FC_COLUMNS`` columns), which depend only on
the shapes and are the same in both modes. So a sample's output through the
layers before the first fc is the same at every batch size, micro-batch size
and worker count, in either mode. A row's fc bits depend on its place in the
GEMM of its micro-batch, so fc outputs are the same only for the same row
groups.

A NetworkSpec decides its shapes when it is built: construction walks the
layer kinds' shape rules once, stores every layer's input and output shape,
and raises ShapeError naming the first layer that does not fit. Everything
else reads those stored shapes.

A ParamSet is a plain dict ``{layer_name: {"weight": array, "bias": array}}``
covering exactly the parameterized (conv/fc) layers of its NetworkSpec; one
rule (``check_group``) checks it, and the optimizer's velocity and an
imported trunk likewise. A FreezeMask is ``{layer_name: bool}`` over the same
keys, True = trainable.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .errors import ConfigError, ParameterError, ShapeError, StateError
from .layers import WorkerPool, pool_for_call, started  # noqa: F401  (checkpoint and cli use them)
from .tensor import DTYPE, Rng, gaussian_fill


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer stack plus the input shape contract (C, H, W).

    ``shapes`` is computed at construction: ``shapes[i]`` is the per-sample
    input shape of ``layers[i]`` and ``shapes[-1]`` the network's output.
    """

    name: str
    input_shape: tuple
    layers: tuple
    shapes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(e) for e in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if any(e < 1 for e in self.input_shape):
            raise ConfigError(
                f"network {self.name!r}: input extents must be >= 1, got {self.input_shape}")
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError(f"network {self.name!r}: duplicate layer names")
        loss_idx = [i for i, l in enumerate(self.layers) if l.kind == "softmax_loss"]
        if len(loss_idx) != 1 or loss_idx[0] != len(self.layers) - 1:
            raise ConfigError(
                f"network {self.name!r}: exactly one softmax_loss layer is required, last")
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(L.KINDS[layer.kind].out_shape(layer, shapes[-1]))
        object.__setattr__(self, "shapes", tuple(shapes))

    def parameterized(self):
        return [l for l in self.layers if l.has_params]


def _trunk_layers(blocks):
    """VGG-style trunk: per block, 3x3/s1/p1 convs + relus, then a 2x2/s2 pool.

    ``blocks`` is a list of channel lists; normed blocks get an
    across-channel normalization right after their first conv's relu.
    """
    out = []
    for b, (channels, normed) in enumerate(blocks, start=1):
        for i, ch in enumerate(channels, start=1):
            out.append(L.conv(f"conv{b}_{i}", ch))
            out.append(L.relu(f"relu{b}_{i}"))
            if normed and i == 1:
                out.append(L.lrn(f"norm{b}", n=3))
        out.append(L.maxpool(f"pool{b}"))
    return out


def _head_layers(first_index, widths, in_features, rate):
    """FC head: every layer but the last is followed by relu and dropout."""
    out = []
    fin = in_features
    for j, width in enumerate(widths):
        idx = first_index + j
        out.append(L.fc(f"fc{idx}", width, in_features=fin))
        fin = width
        if j < len(widths) - 1:
            out += [L.relu(f"relu{idx}"), L.dropout(f"drop{idx}", rate)]
    out.append(L.softmax_loss("prob"))
    return out


# Dropout rate after every head fc layer but the last.
DROPOUT_RATE = 0.6


def build_profile(name: str) -> NetworkSpec:
    """Construct a shipped profile by name (``vgg_face_age`` or ``mini``),
    its head dropout at DROPOUT_RATE; ``replace_head_spec`` builds a head at
    another rate."""
    key = name.replace("-", "_")
    if key == "vgg_face_age":
        blocks = [([64, 64], True), ([128, 128], True),
                  ([256, 256, 256], False), ([512, 512, 512], False), ([512, 512, 512], False)]
        trunk = _trunk_layers(blocks)
        head = _head_layers(6, [4096, 5000, 5000, 8], 512 * 7 * 7, DROPOUT_RATE)
        return NetworkSpec("vgg_face_age", (3, 224, 224), trunk + head)
    if key == "mini":
        blocks = [([8, 8], True), ([16, 16], True)]
        trunk = _trunk_layers(blocks)
        head = _head_layers(3, [32, 16, 8], 16 * 8 * 8, DROPOUT_RATE)
        return NetworkSpec("mini", (3, 32, 32), trunk + head)
    raise ConfigError(f"unknown profile {name!r}; known: vgg-face-age, mini")


def infer_shapes(spec: NetworkSpec):
    """Per-layer output shapes (batch dimension excluded), in layer order,
    as a list of (layer_name, shape) tuples."""
    return [(layer.name, shape) for layer, shape in zip(spec.layers, spec.shapes[1:])]


def param_shapes(spec: NetworkSpec):
    """Expected weight/bias shapes per parameterized layer, from its input shape."""
    return {layer.name: L.KINDS[layer.kind].param_shapes(layer, shape)
            for layer, shape in zip(spec.layers, spec.shapes) if layer.has_params}


# Standard deviation of every freshly drawn weight (init_params, head_replace).
INIT_STD = 0.01


# Values in each block of a fresh head weight (8 MB of float32). Block b of
# head_replace's l-th new weight is drawn from its own stream, rng.derive(l,
# b), so a value depends only on the seed, its weight and its block.
DRAW_BLOCK = 2**21


class DrawnWeight:
    """A fresh weight, normal(0, std^2), drawn block by block as it is
    consumed instead of held whole: ``checkpoint.save`` draws its blocks a
    round of ``pool.workers`` at a time on the save's worker pool, into
    reused buffers, and its helper thread writes each round while the next
    is drawn.

    The weight's values, in row-major order, fall in blocks of DRAW_BLOCK
    (the last shorter). Block b is ``gaussian_fill`` of its size from
    ``rng.derive(b)``, its own stream, so the blocks may be drawn in any
    order, on any thread and more than once, with the same values each time.
    """

    def __init__(self, shape, std: float, rng: Rng):
        self.shape = tuple(shape)
        self.size = math.prod(self.shape)
        self._std, self._rng = std, rng

    def block(self, b, out):
        """Draw block ``b`` into ``out``, a float32 array of that block's
        size, and return it."""
        return gaussian_fill(out.shape, 0.0, self._std, self._rng.derive(b), out=out)

    def fill(self, out):
        """Draw every block, in order, into ``out``, a C-contiguous float32
        array of the weight's size, and return it."""
        flat = out.reshape(-1)
        for b, lo in enumerate(range(0, self.size, DRAW_BLOCK)):
            self.block(b, flat[lo:lo + DRAW_BLOCK])
        return out


def init_params(spec: NetworkSpec, rng: Rng, std: float = INIT_STD):
    """Fresh ParamSet: weights ~ normal(0, std^2), biases zero."""
    return {name: {"weight": gaussian_fill(shapes["weight"], 0.0, std, rng),
                   "bias": np.zeros(shapes["bias"], DTYPE)}
            for name, shapes in param_shapes(spec).items()}


def check_group(spec: NetworkSpec, what: str, group, names):
    """Check that ``group`` holds, for exactly the layers ``names``, a weight
    and a bias shaped as the spec says; ``what`` names the group in errors.

    Raises ConfigError for a missing or unexpected layer or tensor, and
    ShapeError naming the layer and tensor whose shape differs.
    """
    expected = param_shapes(spec)
    if set(group) != set(names):
        raise ConfigError(f"{what}: missing layers {sorted(set(names) - set(group))}, "
                          f"unexpected layers {sorted(set(group) - set(names))}")
    for name in names:
        if set(group[name]) != set(expected[name]):
            raise ConfigError(f"{what} for layer {name!r}: tensors {sorted(group[name])}, "
                              f"expected {sorted(expected[name])}")
        for tname, shape in expected[name].items():
            got = group[name][tname].shape
            if tuple(got) != shape:
                raise ShapeError(f"{what} for layer {name!r}: {tname} shape {got}, "
                                 f"expected {shape}")


def make_mask(spec: NetworkSpec, trainable=True):
    """Freeze mask over the parameterized layers.

    trainable may be a bool applied to every layer, or a collection of layer
    names to leave trainable with the rest frozen.
    """
    names = [l.name for l in spec.parameterized()]
    if isinstance(trainable, bool):
        return {name: trainable for name in names}
    wanted = set(trainable)
    unknown = wanted - set(names)
    if unknown:
        raise ConfigError(f"mask names not in the network: {sorted(unknown)}")
    return {name: name in wanted for name in names}


def trunk_and_head(spec: NetworkSpec):
    """Split at the first fc layer; validates the trailing head structure."""
    fc_idx = next((i for i, l in enumerate(spec.layers) if l.kind == "fc"), None)
    if fc_idx is None:
        raise ConfigError(f"network {spec.name!r} has no fc head to replace")
    head = spec.layers[fc_idx:]
    for l in head[:-1]:
        if l.kind not in ("fc", "relu", "dropout"):
            raise ConfigError(
                f"network {spec.name!r}: layer {l.name!r} ({l.kind}) interrupts the fc head")
    return spec.layers[:fc_idx], head


def replace_head_spec(spec: NetworkSpec, head_widths,
                      dropout_rate: float = DROPOUT_RATE) -> NetworkSpec:
    """Spec-level head surgery: drop the trailing fc stack, append a new one.

    New fc layers are numbered from (number of pooling stages + 1), matching
    the shipped profiles' naming.
    """
    if not head_widths:
        raise ConfigError("head_widths must not be empty")
    trunk, _ = trunk_and_head(spec)
    in_features = math.prod(spec.shapes[len(trunk)])
    first_index = sum(1 for l in trunk if l.kind == "maxpool") + 1
    head = _head_layers(first_index, list(head_widths), in_features, dropout_rate)
    return NetworkSpec(spec.name, spec.input_shape, list(trunk) + head)


def head_replace(spec: NetworkSpec, head_widths, params, rng: Rng,
                 dropout_rate: float = DROPOUT_RATE, draw_on_write: bool = False):
    """Replace the fc head; trunk weights pass through untouched.

    Returns (new_spec, new_params, freeze_mask): new fc weights are drawn from
    normal(0, INIT_STD^2) with zero biases, the mask freezes every trunk
    parameter and marks every new fc trainable. ``params`` must cover the
    trunk's parameterized layers (a partial set from a trunk import is fine);
    old head entries are dropped. The l-th new weight is made as a
    DrawnWeight on ``rng.derive(l)``; ``rng`` itself is not drawn from. With
    ``draw_on_write`` it is returned as one, drawn only as
    ``checkpoint.save`` writes it, so the head is never held whole; without,
    it is filled at once into a float32 array. The values, and the saved
    file's bytes, are the same either way.
    """
    new_spec = replace_head_spec(spec, head_widths, dropout_rate)
    trunk, _ = trunk_and_head(new_spec)
    trunk_names = {l.name for l in trunk}
    new_params, mask, fresh = {}, {}, itertools.count()
    for name, shapes in param_shapes(new_spec).items():
        mask[name] = name not in trunk_names
        if mask[name]:
            drawn = DrawnWeight(shapes["weight"], INIT_STD, rng.derive(next(fresh)))
            weight = drawn if draw_on_write else drawn.fill(np.empty(drawn.shape, DTYPE))
            new_params[name] = {"weight": weight, "bias": np.zeros(shapes["bias"], DTYPE)}
        elif name in params:
            new_params[name] = params[name]
        else:
            raise ConfigError(f"missing trunk parameters for layer {name!r}")
    return new_spec, new_params, mask


# Rows per forward call when layers run cache-free in eval mode
# (eval_layers). Every op before the first fc is per-sample, so its outputs
# do not depend on this; fc's do (see the module docstring). The walk's
# buffer plan grows with it: the two activation buffers hold this many rows,
# and they alone, while conv's slab and patch band are one sample's band of
# rows (layers.BAND_BYTES) and LRN's squares one piece. At 3, predict's
# three crops of one image are one call, and the vgg-face-age trunk's plan is
# about 103.5 MiB on two workers.
MICRO_BATCH = 3


def check_mask(spec: NetworkSpec, mask):
    """Raise ConfigError unless the mask's keys are exactly the parameterized layers."""
    if set(mask) != {l.name for l in spec.parameterized()}:
        raise ConfigError("freeze mask must cover exactly the parameterized layers")


def frozen_prefix(spec: NetworkSpec, mask) -> int:
    """Number of leading layers a training step runs as a fixed feature extractor.

    The prefix ends at the earliest trainable layer, and before the first
    dropout (its train mode draws from the rng) or the loss layer. Its layers
    hold only frozen parameters and give the same output in train and eval
    mode, and backward never reads their caches.
    """
    check_mask(spec, mask)
    return next(i for i, l in enumerate(spec.layers)
                if (l.has_params and mask[l.name]) or l.kind in ("dropout", "softmax_loss"))


def _check_batch(spec, batch, start, stop):
    if not 0 <= start <= stop <= len(spec.layers):
        raise ParameterError(f"layer range [{start}, {stop}) is not within network "
                             f"{spec.name!r}'s {len(spec.layers)} layers")
    if batch.shape[1:] != spec.shapes[start]:
        where = ("input contract" if start == 0 else "output" if start == len(spec.layers)
                 else f"input of layer {spec.layers[start].name!r}")
        raise ShapeError(f"batch shape {batch.shape} does not match {where} {spec.shapes[start]}")


def _layer_params(layer, params):
    if not layer.has_params:
        return None
    if params is None or layer.name not in params:
        raise StateError(f"no parameters supplied for layer {layer.name!r}")
    return params[layer.name]


def forward(spec: NetworkSpec, params, batch, rng: Rng = None, start: int = 0, pool=L.SERIAL):
    """Apply layers[start:] in train mode, on ``pool``'s workers. Returns
    (scores, cache list of those layers).

    With ``start`` > 0, ``batch`` is the output of the layers before it
    (``eval_layers``, the one eval-mode walk). The loss layer passes the
    pre-softmax scores through; labels arrive at backward time.
    """
    _check_batch(spec, batch, start, len(spec.layers))
    x = batch
    caches = []
    for layer in spec.layers[start:]:
        x, cache = L.forward_layer(layer, x, _layer_params(layer, params), "train", rng, pool)
        caches.append(cache)
    return x, caches


# Most workers a pool gets: the engine's speed-ups were measured on 2 cores.
MAX_WORKERS = 2


def pool_size() -> int:
    """Workers for a WorkerPool here: the CPUs this process may run on, at most MAX_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(MAX_WORKERS, cpus or 1))


def eval_layers(spec: NetworkSpec, params, batch, start: int, stop: int, pool=None):
    """Eval-mode output of layers [start, stop), MICRO_BATCH rows per call.

    The walk runs on the plan of ``pool`` (a WorkerPool, or a one-worker pool
    that lasts the call), sized from the layers' shapes at the rows of its
    largest micro-batch; the pool's workers share each layer's pieces. Each
    micro-batch is copied into the plan, every layer call writes into it and
    returns no cache, and the last layer's output is copied into a new result
    array. ``start`` == ``stop`` returns ``batch``; a range outside
    0 <= start <= stop <= len(spec.layers) raises ParameterError.
    """
    _check_batch(spec, batch, start, stop)
    if start == stop:
        return batch
    with pool_for_call(pool) as pool:
        layers, dtype = spec.layers[start:stop], np.result_type(batch, DTYPE)
        plan = pool.plan(layers, spec.shapes[start:stop + 1], min(MICRO_BATCH, len(batch)), dtype)
        out = np.empty(batch.shape[:1] + spec.shapes[stop], dtype)
        for row in range(0, batch.shape[0], MICRO_BATCH):
            part = batch[row:row + MICRO_BATCH]
            x = plan.copy_in(part)
            for layer in layers:
                x, _ = L.forward_layer(layer, x, _layer_params(layer, params), "eval", None, plan)
            out[row:row + MICRO_BATCH] = x
        return out


def eval_scores(spec: NetworkSpec, params, batch, pool=None):
    """Eval-mode pre-softmax scores (all layers except the final loss layer)."""
    return eval_layers(spec, params, batch, 0, len(spec.layers) - 1, pool)


def backward(spec: NetworkSpec, params, caches, labels, mask, *, consume=None, pool=L.SERIAL):
    """Gradients of the mean log loss for the mask's trainable layers only, on
    ``pool``'s workers (fc's pieces; conv backward runs on the calling thread).

    ``caches`` are the train-mode caches of the last len(caches) layers (see
    forward's ``start``); they must reach down to the earliest trainable
    layer. The chain still propagates through frozen layers whenever an
    earlier layer is trainable; below the earliest trainable layer nothing is
    computed.

    Returns ``{layer_name: {"weight": ..., "bias": ...}}``. Given ``consume``,
    each trainable layer's gradients go instead to ``consume(layer_name,
    grads)`` as soon as that layer's backward returns them, top layer first,
    and backward keeps no reference to them (it returns ``{}``). The layer's
    parameters are not read again by then, so the consumer may update them.
    """
    check_mask(spec, mask)
    start = len(spec.layers) - len(caches)
    if not 0 <= start < len(spec.layers):
        raise StateError(f"expected 1 to {len(spec.layers)} caches, got {len(caches)}")
    # the loss cache, read here; backward_layer checks every other cache it reads
    if caches[-1].name != spec.layers[-1].name:
        raise StateError(f"loss cache {caches[-1].name!r} is stale or from another network")

    trainable_idx = [i for i, l in enumerate(spec.layers) if l.has_params and mask[l.name]]
    grads = {}
    consume = consume or grads.__setitem__
    if not trainable_idx:
        return grads
    earliest = min(trainable_idx)
    if earliest < start:
        raise StateError(f"caches start at layer {spec.layers[start].name!r}, above the "
                         f"trainable layer {spec.layers[earliest].name!r}")

    scores = caches[-1].data["scores"]
    _, _, loss_cache = L.softmax_log_loss(scores, labels)
    d, _ = L.softmax_log_loss_backward(loss_cache)
    for i in range(len(spec.layers) - 2, earliest - 1, -1):
        layer = spec.layers[i]
        need_params = layer.has_params and mask[layer.name]
        need_input = i > earliest
        d, dp = L.backward_layer(layer, caches[i - start], d, need_params, need_input, pool)
        if need_params:
            consume(layer.name, dp)
        del dp  # before the next layer's backward makes its gradients
    return grads
