"""Forward and backward computation for every layer kind in the profiles.

Each kind is one entry of ``KINDS``: its hyperparameters, range rule, shape
rule, parameter shapes, scratch needs, forward and backward. Convolution
multiplies the weights by a patch matrix cut from the flat padded input, one
band of output rows of one sample at a time, and max pooling is a running
maximum over strided window views; the direct summation forms live in the
test suite as oracles. Backward passes are exact analytic gradients of the
forward maps and are finite-difference checked.

The eval walk runs on a ``BufferPlan``, sized from the layers' shapes: two
ping-pong activation buffers, conv's padded plane, patch band and GEMM band,
and LRN's prefix buffer. Conv, LRN and max pooling write into the activation
buffer their input is not in, ReLU works in place, eval dropout is the
identity and fc allocates its (small) output. For the ``vgg-face-age`` trunk at
3 rows the plan is about 134 MB, and 23 MB more per further worker; the patch
band is at most ``BAND_BYTES``.

On a plan, conv, ReLU, LRN and max pooling cut their work into pieces that
depend only on the shapes, never on the number of workers, and the plan's
workers take the pieces in turn (``BufferPlan.run``). Each piece writes its
own part of the output with the same operations a whole-batch call makes, so
the bits do not depend on who ran which piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import LabelError, ParameterError, ShapeError, StateError
from .tensor import DTYPE, Rng, pad2d


@dataclass(frozen=True)
class LayerKind:
    """One layer kind. Shapes are per sample (batch axis excluded).

    ``hypers`` maps each hyperparameter name to ``int`` or ``float``; integral
    ones round-trip through checkpoints as integers, the rest as f64. Names in
    ``optional`` may be absent or None. ``param_shapes`` is None for kinds
    without weight/bias tensors.
    """

    forward: Callable  # (spec, x, {"weight", "bias"} or None, mode, rng, plan) -> (y, cache)
    backward: Callable  # (cache, d_out, need_param_grads, need_input_grad) -> (d_in, d_params)
    hypers: dict = field(default_factory=dict)
    optional: tuple = ()
    check: Callable = lambda spec: None  # raises ParameterError
    out_shape: Callable = lambda spec, shape: shape  # raises ShapeError if the input misfits
    param_shapes: Optional[Callable] = None  # (spec, in_shape) -> {"weight": ..., "bias": ...}
    scratch: Callable = lambda spec, shape, rows: {}  # BufferPlan elements wanted, by name


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a sequential network: a kind plus its hyperparameters.

    Hyperparameters are cast to the types their kind declares; a missing,
    unknown, non-finite or non-integral (where integral) value is rejected.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = KINDS.get(self.kind)
        if entry is None:
            raise ParameterError(f"unknown layer kind {self.kind!r} for layer {self.name!r}")
        where = f"{self.kind} layer {self.name!r}"
        unknown = sorted(set(self.params) - set(entry.hypers))
        if unknown:
            raise ParameterError(f"{where}: unknown hyperparameters {unknown}")
        typed = {}
        for key, typ in entry.hypers.items():
            value = self.params.get(key)
            if value is None and key in entry.optional:
                continue
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                number = math.nan
            if not math.isfinite(number) or (typ is int and not number.is_integer()):
                raise ParameterError(
                    f"{where}: {key} must be a finite {typ.__name__}, got {value!r}")
            typed[key] = typ(number)
        object.__setattr__(self, "params", typed)
        entry.check(self)

    @property
    def has_params(self) -> bool:
        return KINDS[self.kind].param_shapes is not None


def conv(name, out_channels, kernel=3, stride=1, pad=1) -> LayerSpec:
    return LayerSpec(name, "conv", {"out_channels": out_channels, "kernel": kernel,
                                    "stride": stride, "pad": pad})


def relu(name) -> LayerSpec:
    return LayerSpec(name, "relu")


def lrn(name, n=5, k=2.0, alpha=1e-4, beta=0.75) -> LayerSpec:
    return LayerSpec(name, "lrn", {"n": n, "k": k, "alpha": alpha, "beta": beta})


def maxpool(name, window=2, stride=2) -> LayerSpec:
    return LayerSpec(name, "maxpool", {"window": window, "stride": stride})


def fc(name, out_features, in_features=None) -> LayerSpec:
    return LayerSpec(name, "fc", {"out_features": out_features, "in_features": in_features})


def dropout(name, rate) -> LayerSpec:
    return LayerSpec(name, "dropout", {"rate": rate})


def softmax_loss(name="prob") -> LayerSpec:
    return LayerSpec(name, "softmax_loss")


@dataclass
class LayerCache:
    """Values one train-mode forward call keeps for the matching backward call."""

    name: str
    kind: str
    data: dict


# Scratch buffers each worker of a plan owns a copy of (conv's patch band and
# GEMM band, LRN's prefix for one piece); the others are shared, each piece
# writing its own rows.
PER_WORKER = ("band", "gemm", "prefix")


# Elements a BufferPlan aligns each buffer to: 64 bytes of float32.
_ALIGN = 16


def _in_order(piece, count):
    for i in range(count):
        piece(i, 0)


class BufferPlan:
    """The buffers an eval-mode run of layers writes into, sized from its shapes.

    ``shapes`` are the per-sample input shape of ``layers[0]`` followed by each
    layer's output shape; ``rows`` is the most samples one call carries. Two
    ping-pong activation buffers each hold the largest of those shapes, and
    each scratch buffer the largest request any layer's kind makes for it.
    ``pool`` (a ``network.WorkerPool``) runs the layers' pieces on its
    workers, each with its own copy of the ``PER_WORKER`` buffers; without
    one, the pieces run in order on the calling thread.
    """

    def __init__(self, layers, shapes, rows, dtype=DTYPE, pool=None):
        sizes = {}
        for layer, shape in zip(layers, shapes):
            for name, size in KINDS[layer.kind].scratch(layer, shape, rows).items():
                sizes[name] = max(sizes.get(name, 0), size)
        act = rows * max(math.prod(shape) for shape in shapes)
        self.workers = 1 if pool is None else pool.workers
        self.run = _in_order if pool is None else pool.run
        copies = {name: self.workers if name in PER_WORKER else 1 for name in sizes}
        # One block, carved into 64-byte aligned buffers: a large block is
        # mapped on its own, so freeing the plan hands all of it back to the
        # system, where buffers below the allocator's mapping threshold would
        # stay in the heap.
        lengths = [act, act] + [sizes[name] for name in sizes for _ in range(copies[name])]
        starts = np.cumsum([0] + [-(-n // _ALIGN) * _ALIGN for n in lengths])
        self.block = np.empty(starts[-1], dtype)
        bufs = iter([self.block[a:a + n] for a, n in zip(starts, lengths)])
        self.acts = (next(bufs), next(bufs))
        self.scratch = {name: [next(bufs) for _ in range(copies[name])] for name in sizes}

    @property
    def nbytes(self) -> int:
        return self.block.nbytes

    def other(self, x, shape):
        """A ``shape`` view of the activation buffer that ``x`` does not live in."""
        buf = self.acts[1] if np.may_share_memory(x, self.acts[0]) else self.acts[0]
        return buf[:math.prod(shape)].reshape(shape)

    def take(self, name, shape, worker=0):
        """A ``shape`` view of scratch buffer ``name`` (worker ``worker``'s copy)."""
        return self.scratch[name][worker][:math.prod(shape)].reshape(shape)


# Most elements one piece of an eval-mode ReLU, LRN or max-pooling call
# covers (1 MB of float32), so a layer splits into pieces of similar cost.
PIECE_ELEMENTS = 2**18


def _piece_rows(extent, per_row):
    """Rows of one piece of an output of ``extent`` rows, ``per_row`` elements each."""
    return max(1, min(extent, PIECE_ELEMENTS // per_row))


def _row_pieces(n, extent, per_row):
    """(sample, first row, end row) pieces of an n-sample output of ``extent``
    rows, ``per_row`` elements each, at most about PIECE_ELEMENTS per piece."""
    step = _piece_rows(extent, per_row)
    return [(i, top, min(top + step, extent)) for i in range(n) for top in range(0, extent, step)]


def out_extent(extent, window, stride, pad, what) -> int:
    """Output spatial extent (extent + 2*pad - window) / stride + 1.

    The division must be exact and the result positive.
    """
    span = extent + 2 * pad - window
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"{what}: window {window} stride {stride} pad {pad} does not tile extent {extent}")
    out = span // stride + 1
    if out < 1:
        raise ShapeError(f"{what}: non-positive output extent for input extent {extent}")
    return out


def _tap_slices(kh, kw, wp, oh, stride, top=0):
    """Slices of a sample's flat padded plane, one per kernel offset (u, v), row-major.

    Slice (u, v) covers output rows [top, top + OH): it starts at
    (top*s + u)*Wp + v and takes OH*Wp values at step ``stride``; value
    i*Wp + j is x_padded[(top + i)*s + u, j*s + v]. Values with j >= OW wrap
    past the row's end and are dropped. The last slice of the last row runs
    past the plane, into a zero tail that ends at its stop.
    """
    span = (oh * wp - 1) * stride + 1
    first = top * stride * wp
    return [slice(first + u * wp + v, first + u * wp + v + span, stride)
            for u in range(kh) for v in range(kw)]


def _flat_patches(x, kh, kw, stride, pad):
    """Patch matrix of NxCxHxW input, built transposed: (C*kh*kw, N*OH*Wp), for backward.

    The input is padded once and laid out channel-major, each sample's padded
    plane flat; row (c, u, v) holds, per sample, the (u, v) tap slice of
    channel c.
    """
    n, c = x.shape[:2]
    xp = pad2d(x, pad)
    hp, wp = xp.shape[2:]
    oh = (hp - kh) // stride + 1
    taps = _tap_slices(kh, kw, wp, oh, stride)
    flat = np.empty((c, n, taps[-1].stop), dtype=x.dtype)
    flat[:, :, :hp * wp].reshape(c, n, hp, wp)[...] = xp.transpose(1, 0, 2, 3)
    flat[:, :, hp * wp:] = 0
    cols = np.empty((c, kh * kw, n, oh * wp), dtype=x.dtype)
    for k, tap in enumerate(taps):
        cols[:, k] = flat[:, :, tap]
    return cols.reshape(c * kh * kw, n * oh * wp)


# ---------------------------------------------------------------------------
# conv
# ---------------------------------------------------------------------------

# Bytes of one patch band: conv lowers and multiplies as many output rows of
# a sample at a time as fit here (at least one), so its scratch does not grow
# with the batch or the image height. The band depends only on the layer's
# shape, so both modes and every batch size run the same GEMMs on a sample:
# BLAS may round a column differently when the GEMM's N axis is cut
# elsewhere, so the cut must not move with the batch.
BAND_BYTES = 16 * 2**20


def _lowering(cin, h, wd, kh, kw, stride, pad):
    """(Wp, OH, OW, flat plane length, band rows) of conv's banded lowering."""
    wp = wd + 2 * pad
    oh = out_extent(h, kh, stride, pad, "conv")
    ow = out_extent(wd, kw, stride, pad, "conv")
    plane = _tap_slices(kh, kw, wp, oh, stride)[-1].stop
    rows = BAND_BYTES // (cin * kh * kw * wp * np.dtype(DTYPE).itemsize)
    return wp, oh, ow, plane, max(1, min(oh, rows))


def _conv_scratch(spec, shape, rows):
    cin, h, wd = shape
    k, cout = spec.params["kernel"], spec.params["out_channels"]
    wp, oh, _, plane, band = _lowering(cin, h, wd, k, k, spec.params["stride"],
                                       spec.params["pad"])
    block = max(hi - lo for lo, hi in _filter_blocks(cout, -(-oh // band)))
    return {"plane": rows * cin * plane, "band": cin * k * k * band * wp,
            "gemm": block * band * wp}


def _filter_blocks(cout, bands):
    """The (first, end) filter rows each GEMM of a band covers.

    A sample whose output is one band splits its filters in two, so that two
    workers can share a layer of few samples; a filter row's K-sum runs the
    same BLAS kernel either way. No block is a single row, which BLAS would
    send to gemv.
    """
    if bands > 1 or cout < 4:
        return [(0, cout)]
    return [(0, cout // 2), (cout // 2, cout)]


def conv2d_forward(x, w, b, stride, pad, plan=None):
    """y[n,o,i,j] = b[o] + sum_{c,u,v} w[o,c,u,v] * x_padded[n,c,i*s+u,j*s+v].

    The input is padded into a flat plane per sample and channel, with a zero
    tail. Each band of a sample's output rows, and each block of filters
    (``_filter_blocks``), is one GEMM: weights times the band's patch matrix
    (one strided slice of the plane per kernel offset), with the bias added
    as the band is written to y. These pieces depend only on the shapes.
    ``plan`` (eval mode) supplies the plane, each worker's band and GEMM band
    and y, and runs the pieces on its workers; without it they are allocated
    and run in order.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv expects 4-D input and weights, got {x.shape} / {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv channel mismatch: input has {cin}, weights expect {cin_w}")
    if b.shape != (cout,):
        raise ShapeError(f"conv bias shape {b.shape} does not match {cout} filters")
    wp, oh, ow, length, rows = _lowering(cin, h, wd, kh, kw, stride, pad)
    hp, taps = h + 2 * pad, kh * kw
    tops = range(0, oh, rows)
    blocks = _filter_blocks(cout, len(tops))
    band_size = cin * taps * rows * wp
    gemm_size = max(hi - lo for lo, hi in blocks) * rows * wp
    if plan is None:
        dtype = np.result_type(x, w)
        plane = np.empty((n, cin, length), x.dtype)
        bands = [(np.empty(band_size, x.dtype), np.empty(gemm_size, dtype))]
        y = np.empty((n, cout, oh, ow), np.result_type(dtype, b))
        run = _in_order
    else:
        plane = plan.take("plane", (n, cin, length))
        bands = [(plan.take("band", (band_size,), worker), plan.take("gemm", (gemm_size,), worker))
                 for worker in range(plan.workers)]
        y = plan.other(x, (n, cout, oh, ow))
        run = plan.run
    pad2d(x, pad, out=plane[:, :, :hp * wp].reshape(n, cin, hp, wp))
    plane[:, :, hp * wp:] = 0
    w2 = w.reshape(cout, -1)
    pieces = [(i, top, block) for i in range(n) for top in tops for block in blocks]

    def piece(j, worker):
        (i, top, (lo, hi)), (band, gemm) = pieces[j], bands[worker]
        r = min(rows, oh - top)
        cols = band[:cin * taps * r * wp].reshape(cin, taps, r * wp)
        for k, tap in enumerate(_tap_slices(kh, kw, wp, r, stride, top)):
            cols[:, k] = plane[i, :, tap]
        out = np.matmul(w2[lo:hi], cols.reshape(cin * taps, r * wp),
                        out=gemm[:(hi - lo) * r * wp].reshape(hi - lo, r * wp))
        np.add(out.reshape(hi - lo, r, wp)[:, :, :ow], b[lo:hi, None, None],
               out=y[i, lo:hi, top:top + r])

    run(piece, len(pieces))
    cache = {"x": x, "w": w, "stride": stride, "pad": pad}
    return y, cache


def conv2d_backward(cache, d_out, need_param_grads=True, need_input_grad=True):
    x, w = cache["x"], cache["w"]
    stride, pad = cache["stride"], cache["pad"]
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh, ow = d_out.shape[2:]
    hp, wp = h + 2 * pad, wd + 2 * pad
    # d_out in the patch matrix's column layout, zero on the wrapped columns
    dy = np.zeros((cout, n, oh, wp), dtype=d_out.dtype)
    dy[:, :, :, :ow] = d_out.transpose(1, 0, 2, 3)
    dy = dy.reshape(cout, -1)
    d_params = {}
    if need_param_grads:
        # Patch matrix is recomputed here rather than cached: frozen-trunk
        # training never pays for it, and it can dwarf the activations.
        cols = _flat_patches(x, kh, kw, stride, pad)
        d_params["weight"] = (dy @ cols.T).reshape(w.shape)
        d_params["bias"] = dy.sum(axis=1)
    d_in = None
    if need_input_grad:
        # fold: each tap's rows are added back into the slice they were cut from
        dcols = (w.reshape(cout, -1).T @ dy).reshape(cin, kh * kw, n, oh * wp)
        taps = _tap_slices(kh, kw, wp, oh, stride)
        flat = np.zeros((cin, n, taps[-1].stop), dtype=dcols.dtype)
        for k, tap in enumerate(taps):
            flat[:, :, tap] += dcols[:, k]
        img = flat[:, :, :hp * wp].reshape(cin, n, hp, wp)
        d_in = np.ascontiguousarray(img[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3))
    return d_in, d_params


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def relu_forward(x, plan=None):
    """max(x, 0); with ``plan`` (eval mode) in place, in pieces on its workers."""
    if plan is None:
        return np.maximum(x, 0), {"x": x}
    if not x.flags.c_contiguous:
        return np.maximum(x, 0, out=x), None
    flat = x.reshape(-1)
    starts = range(0, flat.size, PIECE_ELEMENTS)

    def piece(j, worker):
        part = flat[starts[j]:starts[j] + PIECE_ELEMENTS]
        np.maximum(part, 0, out=part)

    plan.run(piece, len(starts))
    return x, None


def relu_backward(cache, d_out):
    return d_out * (cache["x"] > 0), {}


# ---------------------------------------------------------------------------
# lrn (across-channel local response normalization)
# ---------------------------------------------------------------------------

def _channel_window_sum(t, n, prefix=None, out=None):
    """Sliding sum of width n along the channel axis; zero and total padding clip the window.

    ``prefix`` (C + n channels) holds the padded cumulative sum and ``out``
    the result; either is allocated when not given. ``out`` may be ``t``.
    """
    c = t.shape[1]
    half = n // 2
    if prefix is None:
        prefix = np.empty(t.shape[:1] + (c + n,) + t.shape[2:], dtype=t.dtype)
    prefix[:, :half + 1] = 0
    np.cumsum(t, axis=1, out=prefix[:, half + 1:half + 1 + c])
    prefix[:, half + 1 + c:] = prefix[:, half + c:half + 1 + c]
    return np.subtract(prefix[:, n:], prefix[:, :c], out=out)


def _lrn_scratch(spec, shape, rows):
    c, h, w = shape
    return {"prefix": (c + spec.params["n"]) * _piece_rows(h, c * w) * w}


def lrn_forward(x, n, k, alpha, beta, plan=None):
    """y[c] = x[c] / (k + (alpha/n) * sum_{c' in window(c)} x[c']^2)^beta.

    With ``plan`` (eval mode) the same steps write into the activation buffer
    x is not in, in pieces of rows whose window sums use their worker's prefix
    buffer, and nothing is kept for backward.
    """
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"lrn window n must be odd and >= 1, got {n}")
    if plan is None:
        denom_base = k + (alpha / n) * _channel_window_sum(x * x, n)
        scale = denom_base ** (-beta)
        y = x * scale
        cache = {"x": x, "denom_base": denom_base, "scale": scale,
                 "n": n, "alpha": alpha, "beta": beta}
        return y, cache
    y = plan.other(x, x.shape)
    c, w = x.shape[1], x.shape[3]
    pieces = _row_pieces(x.shape[0], x.shape[2], c * w)

    def piece(j, worker):
        i, top, end = pieces[j]
        part, out = x[i:i + 1, :, top:end], y[i:i + 1, :, top:end]
        prefix = plan.take("prefix", (1, c + n, end - top, w), worker)
        _channel_window_sum(np.multiply(part, part, out=out), n, prefix, out)
        np.multiply(out, alpha / n, out=out)
        np.add(out, k, out=out)
        out **= -beta
        np.multiply(part, out, out=out)

    plan.run(piece, len(pieces))
    return y, None


def lrn_backward(cache, d_out):
    x, base, scale = cache["x"], cache["denom_base"], cache["scale"]
    n, alpha, beta = cache["n"], cache["alpha"], cache["beta"]
    # d_in[j] = d_out[j]*S[j]^-b - (2ab/n) * x[j] * sum_{c in win(j)} d_out[c]*x[c]*S[c]^(-b-1)
    # Window membership is symmetric, so the inner sum is the same sliding sum.
    inner = _channel_window_sum(d_out * x * scale / base, n)
    return d_out * scale - (2.0 * alpha * beta / n) * x * inner, {}


# ---------------------------------------------------------------------------
# maxpool
# ---------------------------------------------------------------------------

def _window_views(x, window, stride, oh, ow):
    """Strided views of x, one per window offset (u, v) in row-major order."""
    for u in range(window):
        for v in range(window):
            yield x[:, :, u:u + stride * (oh - 1) + 1:stride, v:v + stride * (ow - 1) + 1:stride]


def _running_max(views, y):
    """Write the elementwise maximum of ``views`` to y, first view first."""
    views = iter(views)
    y[...] = next(views)
    for view in views:
        np.maximum(y, view, out=y)
    return y


def maxpool_forward(x, window, stride, mode="train", plan=None):
    """Window-wise maximum, written to the activation buffer x is not in given ``plan``.

    A train-mode cache records, per output, the first window offset (row-major)
    attaining the maximum, the tie rule of argmax; backward routes by it.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool expects a 4-D tensor, got shape {x.shape}")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"maxpool window {window} exceeds input {h}x{w}")
    oh = out_extent(h, window, stride, 0, "maxpool")
    ow = out_extent(w, window, stride, 0, "maxpool")
    if plan is not None:
        y = plan.other(x, (n, c, oh, ow))
        pieces = _row_pieces(n, oh, c * ow)

        def piece(j, worker):
            i, top, end = pieces[j]
            _running_max(_window_views(x[i:i + 1, :, top * stride:], window, stride,
                                       end - top, ow), y[i:i + 1, :, top:end])

        plan.run(piece, len(pieces))
        return y, {}
    views = list(_window_views(x, window, stride, oh, ow))
    y = _running_max(views, np.empty(views[0].shape, x.dtype))
    if mode == "eval":
        return y, {}
    # idx counts the leading offsets whose value falls short of the maximum
    idx = np.zeros(y.shape, dtype=np.min_scalar_type(len(views) - 1))
    short = np.ones(y.shape, dtype=bool)
    for view in views[:-1]:
        short &= view < y
        idx += short
    return y, {"idx": idx, "x_shape": x.shape, "window": window, "stride": stride}


def maxpool_backward(cache, d_out):
    idx, window, stride = cache["idx"], cache["window"], cache["stride"]
    d_in = np.zeros(cache["x_shape"], dtype=d_out.dtype)
    oh, ow = idx.shape[2:]
    for k, view in enumerate(_window_views(d_in, window, stride, oh, ow)):
        np.add(view, d_out, out=view, where=idx == k)
    return d_in, {}


# ---------------------------------------------------------------------------
# fc
# ---------------------------------------------------------------------------

# Output columns of one fc GEMM. Each block of columns is its own product, in
# both modes, so a layer wider than this is cut the same way on any number of
# workers; blocks this wide keep BLAS off its small-matrix kernels, whose
# bits differ, at the profiles' widths.
FC_COLUMNS = 512


def fc_forward(x, w, b, plan=None):
    """y = flatten(x) . w + b with w laid out in_features x out_features.

    The product runs in blocks of FC_COLUMNS output columns, on ``plan``'s
    workers if it is given.
    """
    orig_shape = x.shape
    x2 = x.reshape(orig_shape[0], -1) if x.ndim != 2 else x
    if x2.shape[1] != w.shape[0]:
        raise ShapeError(
            f"fc feature mismatch: input flattens to {x2.shape[1]}, weights expect {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"fc bias shape {b.shape} does not match {w.shape[1]} outputs")
    # BLAS sends a one-row product to gemv, which rounds unlike a batch's gemm
    rows = x2 if x2.shape[0] != 1 else np.concatenate([x2, x2])
    prod = np.empty((rows.shape[0], w.shape[1]), np.result_type(rows, w))
    starts = range(0, w.shape[1], FC_COLUMNS)

    def piece(j, worker):
        block = slice(starts[j], starts[j] + FC_COLUMNS)
        np.matmul(rows, w[:, block], out=prod[:, block])

    (_in_order if plan is None else plan.run)(piece, len(starts))
    y = prod[:x2.shape[0]] + b
    return y, {"x2": x2, "w": w, "orig_shape": orig_shape}


def fc_backward(cache, d_out, need_param_grads=True, need_input_grad=True):
    x2, w = cache["x2"], cache["w"]
    d_params = {}
    if need_param_grads:
        d_params["weight"] = x2.T @ d_out
        d_params["bias"] = d_out.sum(axis=0)
    d_in = None
    if need_input_grad:
        d_in = (d_out @ w.T).reshape(cache["orig_shape"])
    return d_in, d_params


# ---------------------------------------------------------------------------
# dropout (inverted: scaling happens at train time, eval is the identity)
# ---------------------------------------------------------------------------

def dropout_forward(x, p, mode, rng: Optional[Rng] = None):
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {p}")
    if mode == "eval":
        return x, {}
    if rng is None:
        raise ParameterError("dropout in train mode needs an rng")
    keep = rng.uniform(x.shape) >= p
    mask = keep.astype(x.dtype) / (1.0 - p)
    return x * mask, {"mask": mask}


def dropout_backward(cache, d_out):
    return d_out * cache["mask"], {}


# ---------------------------------------------------------------------------
# softmax + log loss
# ---------------------------------------------------------------------------

def softmax(scores):
    """Row-wise softmax with max subtraction; accumulation runs at 64-bit."""
    if scores.ndim != 2:
        raise ShapeError(f"softmax expects 2-D scores, got shape {scores.shape}")
    shifted = scores.astype(np.float64) - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs.astype(scores.dtype)


def softmax_log_loss(scores, labels):
    """Mean negative log-probability of the true labels.

    Returns (loss, probs, cache); the cache carries what the backward pass
    needs. The gradient wrt scores is (probs - one_hot) / N.
    """
    n, k = scores.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise LabelError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelError(f"labels must lie in [0, {k})")
    probs = softmax(scores)
    picked = probs[np.arange(n), labels].astype(np.float64)
    loss = float(-np.mean(np.log(picked)))
    cache = {"probs": probs, "labels": labels}
    return loss, probs, cache


def softmax_log_loss_backward(cache):
    probs, labels = cache["probs"], cache["labels"]
    n = probs.shape[0]
    d_scores = probs.copy()
    d_scores[np.arange(n), labels] -= 1.0
    return d_scores * (1.0 / n), {}


# ---------------------------------------------------------------------------
# the kind table and dispatch
# ---------------------------------------------------------------------------

def _require(rule, text):
    """A check raising ParameterError unless ``rule(params)`` holds."""
    def check(spec):
        if not rule(spec.params):
            raise ParameterError(f"{spec.kind} layer {spec.name!r}: {text}")
    return check


def _window_out_shape(spec, shape, channels, window, stride, pad):
    """CxHxW after a window slides over H and W; channels None keeps C."""
    if len(shape) != 3:
        raise ShapeError(f"layer {spec.name!r}: {spec.kind} needs a CxHxW input, got {shape}")
    what = f"layer {spec.name!r}"
    return (channels or shape[0], out_extent(shape[1], window, stride, pad, what),
            out_extent(shape[2], window, stride, pad, what))


def _fc_out_shape(spec, shape):
    flat = math.prod(shape)
    want = spec.params.get("in_features", flat)
    if flat != want:
        raise ShapeError(
            f"layer {spec.name!r}: input flattens to {flat} features, expected {want}")
    return (spec.params["out_features"],)


KINDS = {
    "conv": LayerKind(
        hypers={"out_channels": int, "kernel": int, "stride": int, "pad": int},
        check=_require(lambda p: min(p["out_channels"], p["kernel"], p["stride"]) >= 1
                       and p["pad"] >= 0, "extents must be >= 1 and pad >= 0"),
        out_shape=lambda s, shape: _window_out_shape(
            s, shape, s.params["out_channels"], s.params["kernel"], s.params["stride"],
            s.params["pad"]),
        param_shapes=lambda s, shape: {
            "weight": (s.params["out_channels"], shape[0], s.params["kernel"], s.params["kernel"]),
            "bias": (s.params["out_channels"],)},
        scratch=_conv_scratch,
        forward=lambda s, x, w, mode, rng, plan: conv2d_forward(
            x, w["weight"], w["bias"], s.params["stride"], s.params["pad"], plan),
        backward=conv2d_backward),
    "relu": LayerKind(
        forward=lambda s, x, w, mode, rng, plan: relu_forward(x, plan),
        backward=lambda cache, d, *flags: relu_backward(cache, d)),
    "lrn": LayerKind(
        hypers={"n": int, "k": float, "alpha": float, "beta": float},
        check=_require(lambda p: p["n"] >= 1 and p["n"] % 2 == 1,
                       "window n must be odd and >= 1"),
        scratch=_lrn_scratch,
        forward=lambda s, x, w, mode, rng, plan: lrn_forward(x, **s.params, plan=plan),
        backward=lambda cache, d, *flags: lrn_backward(cache, d)),
    "maxpool": LayerKind(
        hypers={"window": int, "stride": int},
        check=_require(lambda p: min(p["window"], p["stride"]) >= 1,
                       "window/stride must be >= 1"),
        out_shape=lambda s, shape: _window_out_shape(
            s, shape, None, s.params["window"], s.params["stride"], 0),
        forward=lambda s, x, w, mode, rng, plan: maxpool_forward(x, **s.params, mode=mode,
                                                               plan=plan),
        backward=lambda cache, d, *flags: maxpool_backward(cache, d)),
    "fc": LayerKind(
        hypers={"out_features": int, "in_features": int},
        optional=("in_features",),
        check=_require(lambda p: p["out_features"] >= 1, "out_features must be >= 1"),
        out_shape=_fc_out_shape,
        param_shapes=lambda s, shape: {"weight": (math.prod(shape), s.params["out_features"]),
                                       "bias": (s.params["out_features"],)},
        forward=lambda s, x, w, mode, rng, plan: fc_forward(x, w["weight"], w["bias"], plan),
        backward=fc_backward),
    "dropout": LayerKind(
        hypers={"rate": float},
        check=_require(lambda p: 0.0 <= p["rate"] < 1.0, "rate must be in [0, 1)"),
        forward=lambda s, x, w, mode, rng, plan: dropout_forward(x, s.params["rate"], mode, rng),
        backward=lambda cache, d, *flags: dropout_backward(cache, d)),
    # Forward and backward pass scores through: the loss needs labels, so
    # network takes it from softmax_log_loss / softmax_log_loss_backward.
    "softmax_loss": LayerKind(
        forward=lambda s, x, w, mode, rng, plan: (x, {"scores": x}),
        backward=lambda cache, d, *flags: (d, {})),
}


def forward_layer(spec: LayerSpec, x, params=None, mode="train", rng=None, plan=None):
    """Run one layer forward, after the shape rule NetworkSpec applies.

    Returns (output, LayerCache), or (output, None) in eval mode. An eval-mode
    call given a BufferPlan writes into its buffers and may overwrite ``x``.
    """
    kind = KINDS[spec.kind]
    kind.out_shape(spec, x.shape[1:])
    if plan is not None and mode != "eval":
        raise StateError(f"layer {spec.name!r}: a buffer plan serves eval mode only")
    y, data = kind.forward(spec, x, params, mode, rng, plan)
    if mode == "eval":
        return y, None
    data["_out_shape"] = y.shape
    return y, LayerCache(spec.name, spec.kind, data)


def backward_layer(spec: LayerSpec, cache: LayerCache, d_out,
                   need_param_grads=True, need_input_grad=True):
    """Run one layer backward from its forward cache. Returns (d_in, d_params)."""
    if cache.name != spec.name or cache.kind != spec.kind:
        raise StateError(
            f"cache from layer {cache.name!r}/{cache.kind} fed to {spec.name!r}/{spec.kind}")
    if d_out.shape != cache.data["_out_shape"]:
        raise ShapeError(
            f"layer {spec.name!r}: upstream gradient shape {d_out.shape} does not match "
            f"forward output {cache.data['_out_shape']}")
    return KINDS[spec.kind].backward(cache.data, d_out, need_param_grads, need_input_grad)
