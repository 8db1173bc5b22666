"""Forward and backward computation for every layer kind in the profiles.

Each kind is one entry of ``KINDS``: its hyperparameters, range rule, shape
rule, parameter shapes, scratch needs, forward and backward. Convolution
multiplies by a patch matrix, one band of output rows of one sample at a
time, in both directions; the patches are cut from a slab into which the
band's input rows alone are padded. Max pooling is a running maximum over
strided window views; in train mode the same piece records which offset
attained it. Direct-sum oracles live in the test suite, and the exact
analytic gradients are finite-difference checked.

Every kernel has one body and one runner. The body cuts its work into pieces
fixed by the shapes alone (conv's bands and filter blocks, row ranges of at
most about ``PIECE_ELEMENTS``, fc's blocks of ``FC_COLUMNS``), each written
with the same operations a whole-batch call makes, and hands the list of
them to its plan's ``run``, which calls the piece function once for each, so
no bit depends on the mode, the batch or who ran a piece. A piece takes its
scratch from its plan (``take``) when it runs; no kernel reads the worker
count. A plan says its mode. Train mode runs on a ``WorkerPool``: its workers
share the pieces, which write into new arrays and take new scratch, so no
two pieces share a buffer and a worker that runs no piece holds none, and
the body keeps what backward reads. A call given no pool runs on
``SERIAL``, a one-worker pool that starts no thread and keeps no buffer
plan. Eval mode runs only on a ``BufferPlan``, which
``network.eval_layers`` gets from its pool's ``plan``: the pieces write into
its buffers and the pool's workers share them. A buffer plan holds two
ping-pong activation buffers, the only buffers that grow with the rows, and
per worker the scratch each kind's ``scratch`` rule sizes: conv's slab,
patch band and GEMM band, and LRN's squares. Conv, LRN and max pooling
write into the activation buffer their input is not in, ReLU works in
place, eval dropout is the identity and fc allocates its (small) output.
For the ``vgg-face-age`` trunk at 3 rows the plan is about 88.5 MiB, and
15 MiB more per further worker.

Backward runs on the same pool. Fc's weight gradient is one piece per block
of ``FC_COLUMNS`` input rows and its input gradient one more piece, each the
bits of the whole product. Conv's weight gradient is one piece, which sums
every (sample, band) GEMM in a fixed order, since a cut of those GEMMs into
filter blocks rounds unlike the whole at some shapes; each sample's input
gradient is one more piece, which takes its plane when it runs.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import LabelError, ParameterError, ResourceError, ShapeError, StateError
from .tensor import DTYPE, Rng, pad2d


@dataclass(frozen=True)
class LayerKind:
    """One layer kind. Shapes are per sample (batch axis excluded).

    ``hypers`` maps each hyperparameter name to ``int`` or ``float``; integral
    ones round-trip through checkpoints as integers, the rest as f64. Names in
    ``optional`` may be absent or None. ``param_shapes`` is None for kinds
    without weight/bias tensors.
    """

    forward: Callable  # (spec, x, {"weight", "bias"} or None, rng, plan) -> (y, cache)
    backward: Callable  # (cache, d_out, need_param_grads, need_input_grad, plan) -> (d_in, d_params)
    hypers: dict = field(default_factory=dict)
    optional: tuple = ()
    check: Callable = lambda spec: None  # raises ParameterError
    out_shape: Callable = lambda spec, shape: shape  # raises ShapeError if the input misfits
    param_shapes: Optional[Callable] = None  # (spec, in_shape) -> {"weight": ..., "bias": ...}
    scratch: Callable = lambda spec, shape: {}  # BufferPlan {name: elements}, one per worker


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


def started(name, start, *args):
    """``start(*args)``, a call that may start the thread ``name``. A thread
    that cannot start (RuntimeError) raises ResourceError naming it."""
    try:
        return start(*args)
    except RuntimeError as e:
        raise ResourceError(f"could not start the {name} thread: {e}") from None


class WorkerPool:
    """Threads that share each layer call's pieces. A pool is the plan that
    train mode runs on, and it makes and keeps the buffer plan of eval mode.

    The calling thread is worker 0; ``workers - 1`` helper threads join it in
    ``run``. Every pool has an executor of ``max(1, workers - 1)`` threads,
    which starts a thread only when ``run`` first submits to it, so a
    one-worker pool, which never submits, starts none. In train mode a
    kernel's outputs (``other``) are new arrays, which its cache may keep,
    and so is each piece's scratch (``take``), taken when the piece runs: a
    call holds one per running piece, at most one per worker. ``plan`` makes
    every ``BufferPlan``: it keeps the last one and hands it out again for
    the same layers, shapes and dtype at no more rows, so a loop that scores
    one image per call plans its buffers once (``SERIAL``, the pool of a
    call given none, keeps none).
    ``release`` frees the kept plan and leaves the helpers running; leaving
    the ``with`` block (``close``) frees the plan and stops the helpers.
    """

    mode = "train"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ParameterError(f"a worker pool needs at least one worker, got {workers}")
        self.workers = workers
        self._helpers = futures.ThreadPoolExecutor(max(1, workers - 1), "agecnn-worker")
        self._kept = None

    def run(self, piece, pieces):
        """Call ``piece(p, worker)`` once for each item p of the sequence
        ``pieces``; return when all are done.

        Each worker takes the next item in turn, so which worker runs a piece
        varies from run to run; a piece writes only its own part of the result.
        With one worker or at most one piece no helper is asked: worker 0 runs all.
        Helpers run their pieces under the caller's NumPy error state
        (``np.errstate``), which a thread does not inherit. A helper thread
        that cannot start raises ResourceError.
        """
        todo = iter(pieces)  # shared: each next() happens under the GIL
        errstate = np.geterr()

        def drain(worker):
            with np.errstate(**errstate):
                for p in todo:
                    piece(p, worker)

        helpers = []
        try:
            for w in range(1, min(self.workers, len(pieces))):
                helpers.append(started("agecnn-worker", self._helpers.submit, drain, w))
            drain(0)
        finally:
            for _ in todo:  # after a failure, a helper that starts late finds nothing left
                pass
            futures.wait(helpers)
        for helper in helpers:
            helper.result()

    def other(self, x, shape, dtype):
        """A new ``shape`` array of ``dtype``: a train-mode output."""
        return np.empty(shape, dtype)

    def take(self, name, shape, worker, dtype):
        """A new ``shape`` array of ``dtype``: the scratch ``name`` of a piece
        running on worker ``worker``, its own for as long as it holds it."""
        return np.empty(shape, dtype)

    def plan(self, layers, shapes, rows, dtype) -> "BufferPlan":
        """A plan for ``rows`` rows of ``layers``: the kept one if it fits, else a new one."""
        key = (layers, shapes, np.dtype(dtype))
        if self._kept is None or self._kept[0] != key or self._kept[1] < rows:
            self._kept = None  # free the old plan before the new one is built
            self._kept = (key, rows, BufferPlan(layers, shapes, rows, dtype, self))
        return self._kept[2]

    def release(self):
        """Free the kept plan; the next ``plan`` call builds a new one."""
        self._kept = None

    def close(self):
        self.release()
        self._helpers.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Serial(WorkerPool):
    """The pool of every call given none. It has one worker, so it runs every
    piece on the calling thread and starts no thread, and it keeps no plan,
    so a buffer plan lives only as long as the call that asked for it."""

    def plan(self, layers, shapes, rows, dtype) -> "BufferPlan":
        return BufferPlan(layers, shapes, rows, dtype, self)


SERIAL = _Serial()

# Elements a BufferPlan aligns each buffer to: 64 bytes of float32.
_ALIGN = 16


class BufferPlan:
    """The buffers an eval-mode run of layers writes into, sized from its shapes.

    ``shapes`` are the per-sample input shape of ``layers[0]`` followed by each
    layer's output shape; ``rows`` is the most samples one call carries. Two
    ping-pong activation buffers each hold ``rows`` of the largest of those
    shapes, and each worker of ``pool`` has its own copy of each scratch
    buffer, sized to the largest request any layer's kind makes for it.
    ``pool``, the ``WorkerPool`` whose ``plan`` makes this one, runs the
    layers' pieces on its workers. Every buffer has the plan's dtype, whatever
    ``dtype`` a kernel asks ``other`` or ``take`` for.
    """

    mode = "eval"

    def __init__(self, layers, shapes, rows, dtype, pool):
        sizes = {}
        for layer, shape in zip(layers, shapes):
            for name, size in KINDS[layer.kind].scratch(layer, shape).items():
                sizes[name] = max(sizes.get(name, 0), size)
        act = rows * max(math.prod(shape) for shape in shapes)
        self.run = pool.run
        # One block, carved into 64-byte aligned buffers: a large block is
        # mapped on its own, so freeing the plan hands all of it back to the
        # system, where buffers below the allocator's mapping threshold would
        # stay in the heap.
        lengths = [act, act] + [sizes[name] for name in sizes for _ in range(pool.workers)]
        starts = np.cumsum([0] + [-(-n // _ALIGN) * _ALIGN for n in lengths])
        self.block = np.empty(starts[-1], dtype)
        bufs = iter([self.block[a:a + n] for a, n in zip(starts, lengths)])
        self.ping_pong = (next(bufs), next(bufs))
        self.scratch = {name: [next(bufs) for _ in range(pool.workers)] for name in sizes}

    @property
    def nbytes(self) -> int:
        return self.block.nbytes

    def other(self, x, shape, dtype):
        """A ``shape`` view of the activation buffer that ``x`` does not live in."""
        buf = self.ping_pong[1] if np.may_share_memory(x, self.ping_pong[0]) else self.ping_pong[0]
        return buf[:math.prod(shape)].reshape(shape)

    def copy_in(self, x):
        """A copy of ``x`` in the activation buffer it does not live in."""
        y = self.other(x, x.shape, x.dtype)
        y[...] = x
        return y

    def take(self, name, shape, worker, dtype):
        """A ``shape`` view of worker ``worker``'s copy of scratch buffer ``name``."""
        return self.scratch[name][worker][:math.prod(shape)].reshape(shape)


# Most elements one piece of a ReLU, LRN or max-pooling call covers (1 MB of
# float32), so a layer splits into pieces of similar cost.
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


# ---------------------------------------------------------------------------
# conv
# ---------------------------------------------------------------------------

# Bytes of one patch band: conv lowers and multiplies as many output rows of
# a sample at a time as fit here (at least one), so its scratch does not grow
# with the batch or the image height. The band depends only on the layer's
# shape, so both modes and every batch size run the same GEMMs on a sample:
# BLAS may round a column differently when the GEMM's N axis is cut
# elsewhere, so the cut must not move with the batch. 4 MiB is one core's L2
# on the 2-core Xeon this was tuned on, so a band stays in cache between
# ``_patches`` writing it and the GEMM packing it: the vgg-face-age trunk's
# conv ran 613 ms at 3 rows on 2 workers against 664 at 16 MiB (median of
# 20; 3, 6 and 8 MiB were slower). Its forward bytes were the same at every
# budget from 2 to 16 MiB; backward's sums over bands are not.
BAND_BYTES = 4 * 2**20


_ConvGeometry = namedtuple("_ConvGeometry", "wp oh ow plane bands blocks band gemm slab")


def _conv_geometry(cin, h, wd, cout, kh, kw, stride, pad):
    """Conv's banded lowering of one sample, from the shapes alone; forward,
    backward and the plan's scratch all read it. ``wp`` is the padded row
    width, ``plane`` a channel's flat padded plane with its zero tail (the
    input gradient's, in backward), ``bands`` the (first output row, rows)
    of each band, ``blocks`` the (first, end) filter rows of each GEMM of a
    band, and ``band``, ``gemm`` and ``slab`` the elements of a band's
    patches, of one GEMM and of the padded input rows the band reads
    (``_patches``)."""
    wp = wd + 2 * pad
    oh = out_extent(h, kh, stride, pad, "conv")
    rows = max(1, min(oh, BAND_BYTES // (cin * kh * kw * wp * np.dtype(DTYPE).itemsize)))
    bands = [(top, min(rows, oh - top)) for top in range(0, oh, rows)]
    blocks = _filter_blocks(cout, len(bands))
    return _ConvGeometry(wp, oh, out_extent(wd, kw, stride, pad, "conv"),
                         _tap_slices(kh, kw, wp, oh, stride)[-1].stop, bands, blocks,
                         cin * kh * kw * rows * wp, max(hi - lo for lo, hi in blocks) * rows * wp,
                         cin * _slab_rows(kh, kw, wp, rows, stride) * wp)


def _slab_rows(kh, kw, wp, r, stride):
    """Padded rows the patches of ``r`` output rows read, from the band's
    first to the end of its last tap slice, whose wrapped columns run on
    into the next row."""
    return -(-_tap_slices(kh, kw, wp, r, stride)[-1].stop // wp)


def _conv_scratch(spec, shape):
    """A slab, a patch band and a GEMM band: one band's worth, at any batch size."""
    k = spec.params["kernel"]
    g = _conv_geometry(*shape, spec.params["out_channels"], k, k, spec.params["stride"],
                       spec.params["pad"])
    return {"slab": g.slab, "band": g.band, "gemm": g.gemm}


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


def _patches(x, kh, kw, stride, pad, top, r, slab, band):
    """Patch matrix (C*kh*kw, r*Wp) of output rows [top, top + r) of one
    sample ``x`` (C x H x W): pad2d pads the rows they read into ``slab``,
    which then equals the same range of the sample's flat padded plane, zero
    tail included, and one tap slice per kernel offset is cut from there
    into ``band``. Forward and backward both multiply by it."""
    cin, wp = x.shape[0], x.shape[2] + 2 * pad
    rows = _slab_rows(kh, kw, wp, r, stride)
    padded = pad2d(x, pad, top * stride, slab[:cin * rows * wp].reshape(cin, rows, wp))
    padded = padded.reshape(cin, rows * wp)
    cols = band[:cin * kh * kw * r * wp].reshape(cin, kh * kw, r * wp)
    for k, tap in enumerate(_tap_slices(kh, kw, wp, r, stride)):
        cols[:, k] = padded[:, tap]
    return cols.reshape(cin * kh * kw, r * wp)


def conv2d_forward(x, w, b, stride, pad, plan=SERIAL):
    """y[n,o,i,j] = b[o] + sum_{c,u,v} w[o,c,u,v] * x_padded[n,c,i*s+u,j*s+v].

    Each band of a sample's output rows, and each block of filters
    (``_filter_blocks``), is one piece and one GEMM: weights times the band's
    patch matrix (``_patches``), with the bias added as the band is written
    to y. The piece first pads the input rows its band reads into its slab
    (``tensor.pad2d``), so no padded copy of the whole input exists. These
    pieces, and every buffer's size, come from the shapes alone
    (``_conv_geometry``). ``plan`` supplies y and runs the pieces on its
    workers; each piece takes its slab, its band and a GEMM band the size of
    its filter block from ``plan`` when it runs.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv expects 4-D input and weights, got {x.shape} / {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv channel mismatch: input has {cin}, weights expect {cin_w}")
    if b.shape != (cout,):
        raise ShapeError(f"conv bias shape {b.shape} does not match {cout} filters")
    g = _conv_geometry(cin, h, wd, cout, kh, kw, stride, pad)
    oh, ow, wp = g.oh, g.ow, g.wp
    dtype = np.result_type(x, w)
    y = plan.other(x, (n, cout, oh, ow), np.result_type(dtype, b))
    w2 = w.reshape(cout, -1)

    def piece(p, worker):
        i, top, r, (lo, hi) = p
        slab, band = (plan.take(k, (getattr(g, k),), worker, x.dtype) for k in ("slab", "band"))
        cols = _patches(x[i], kh, kw, stride, pad, top, r, slab, band)
        out = np.matmul(w2[lo:hi], cols, out=plan.take("gemm", (hi - lo, r * wp), worker, dtype))
        np.add(out.reshape(hi - lo, r, wp)[:, :, :ow], b[lo:hi, None, None],
               out=y[i, lo:hi, top:top + r])

    plan.run(piece, [(i, top, r, blk) for i in range(n) for top, r in g.bands for blk in g.blocks])
    return y, {"x": x, "w": w, "stride": stride, "pad": pad}


def conv2d_backward(cache, d_out, need_param_grads=True, need_input_grad=True, plan=SERIAL):
    """Gradients through the forward's bands, as pieces on ``plan``'s workers.

    With dy_band a band's output gradient, zero on the wrapped columns, the
    first piece sums dW += dy_band @ patches.T in sample-then-band order, the
    patches cut again into a slab and a band, as forward cuts them. Each
    sample's input gradient is one more piece: W.T @ dy_band is added back,
    tap by tap, into the slices of the piece's input-gradient plane they came
    from. So each sum runs in one order on any pool. Each piece takes its
    scratch when it runs: one slab and one band, and an input-gradient plane
    per running piece, at most one per worker.
    """
    x, w = cache["x"], cache["w"]
    stride, pad = cache["stride"], cache["pad"]
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    g = _conv_geometry(cin, h, wd, cout, kh, kw, stride, pad)
    wp, w2 = g.wp, w.reshape(cout, -1)

    def dy_band(i, top, r):
        return np.pad(d_out[i, :, top:top + r], ((0, 0), (0, 0), (0, wp - g.ow))).reshape(cout, -1)

    def weight_grad(worker):
        slab, band = (plan.take(k, (getattr(g, k),), worker, x.dtype) for k in ("slab", "band"))
        for i in range(n):
            for top, r in g.bands:
                cols = _patches(x[i], kh, kw, stride, pad, top, r, slab, band)
                np.add(dw, dy_band(i, top, r) @ cols.T, out=dw)

    def input_grad(i, worker):
        d_plane = plan.take("plane", (cin, g.plane), worker, d_in.dtype)
        d_plane[...] = 0
        for top, r in g.bands:
            d_cols = (w2.T @ dy_band(i, top, r)).reshape(cin, kh * kw, r * wp)
            for k, tap in enumerate(_tap_slices(kh, kw, wp, r, stride, top)):
                d_plane[:, tap] += d_cols[:, k]
        d_in[i] = d_plane[:, :(h + 2 * pad) * wp].reshape(cin, -1, wp)[:, pad:pad + h, pad:pad + wd]

    pieces, d_in, d_params = [], None, {}
    if need_param_grads:
        dw = np.zeros(w2.shape, np.result_type(d_out, x))
        d_params = {"weight": dw.reshape(w.shape), "bias": d_out.sum(axis=(0, 2, 3))}
        pieces.append(weight_grad)
    if need_input_grad:
        d_in = np.empty(x.shape, np.result_type(w, d_out))
        pieces += [functools.partial(input_grad, i) for i in range(n)]
    plan.run(lambda piece, worker: piece(worker), pieces)
    return d_in, d_params


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def relu_forward(x, plan=SERIAL):
    """max(x, 0) in flat pieces of PIECE_ELEMENTS: in place in eval mode, else
    into a new array y, which the cache keeps for backward. The next layer's
    cache holds y too, so x, a conv's or an fc's output, dies once the
    caller drops it."""
    y = x if plan.mode == "eval" else plan.other(x, x.shape, x.dtype)
    flat, out = x.reshape(-1), y.reshape(-1)
    plan.run(lambda part, worker: np.maximum(flat[part], 0, out=out[part]),
             [slice(lo, lo + PIECE_ELEMENTS) for lo in range(0, flat.size, PIECE_ELEMENTS)])
    return y, {"y": y}


def relu_backward(cache, d_out):
    """d_out where the output is positive, else 0: y > 0 exactly where x > 0,
    NaN and -0.0 included."""
    return d_out * (cache["y"] > 0), {}


# ---------------------------------------------------------------------------
# lrn (across-channel local response normalization)
# ---------------------------------------------------------------------------

def _channel_window_sum(t, n, out):
    """Sliding sum of width n along the channel axis into ``out``; zero padding clips the window.

    Each window is rounded from its own terms only: the centre channel, then
    the one 1 below, 1 above, 2 below, and so on. A window wider than the
    channels stops at the last distance that still reaches one. ``out`` must
    not overlap ``t``.
    """
    out[...] = t
    for s in range(1, min(n // 2, t.shape[1] - 1) + 1):
        np.add(out[:, s:], t[:, :-s], out=out[:, s:])
        np.add(out[:, :-s], t[:, s:], out=out[:, :-s])
    return out


def _lrn_scratch(spec, shape):
    c, h, w = shape
    return {"squares": c * _piece_rows(h, c * w) * w}


def lrn_forward(x, n, k, alpha, beta, plan=SERIAL):
    """y[c] = x[c] / (k + (alpha/n) * sum_{c' in window(c)} x[c']^2)^beta, in pieces of rows.

    Each piece squares its rows into its worker's ``squares`` scratch. In
    eval mode its steps run in place in the activation buffer x is not in (a
    buffer plan's three ``other`` calls give the same buffer); in train mode
    the base k + (alpha/n) * sum and its power ``scale`` go to arrays of their
    own, kept for backward.
    """
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"lrn window n must be odd and >= 1, got {n}")
    y, base, scale = (plan.other(x, x.shape, x.dtype) for _ in range(3))

    def piece(p, worker):
        i, top, end = p
        rows = np.s_[i:i + 1, :, top:end]
        part, b, s = x[rows], base[rows], scale[rows]
        squares = plan.take("squares", part.shape, worker, x.dtype)
        _channel_window_sum(np.multiply(part, part, out=squares), n, b)
        np.multiply(b, alpha / n, out=b)
        np.add(b, k, out=b)
        np.power(b, -beta, out=s)
        np.multiply(part, s, out=y[rows])

    plan.run(piece, _row_pieces(x.shape[0], x.shape[2], x.shape[1] * x.shape[3]))
    return y, {"x": x, "denom_base": base, "scale": scale, "n": n, "alpha": alpha, "beta": beta}


def lrn_backward(cache, d_out):
    x, base, scale = cache["x"], cache["denom_base"], cache["scale"]
    n, alpha, beta = cache["n"], cache["alpha"], cache["beta"]
    # d_in[j] = d_out[j]*S[j]^-b - (2ab/n) * x[j] * sum_{c in win(j)} d_out[c]*x[c]*S[c]^(-b-1)
    # Window membership is symmetric, so the inner sum is the same sliding sum.
    terms = d_out * x * scale / base
    inner = _channel_window_sum(terms, n, np.empty_like(terms))
    return d_out * scale - (2.0 * alpha * beta / n) * x * inner, {}


# ---------------------------------------------------------------------------
# maxpool
# ---------------------------------------------------------------------------

def _window_views(x, window, stride, oh, ow):
    """Strided views of x, one per window offset (u, v) in row-major order."""
    for u in range(window):
        for v in range(window):
            yield x[:, :, u:u + stride * (oh - 1) + 1:stride, v:v + stride * (ow - 1) + 1:stride]


def maxpool_forward(x, window, stride, plan=SERIAL):
    """Window-wise maximum, in pieces of output rows; in eval mode into the
    activation buffer x is not in. In train mode each piece also records, per
    output of its rows, the first window offset (row-major) attaining the
    maximum, the tie rule of argmax, into the cache's ``idx``; backward routes
    by it."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool expects a 4-D tensor, got shape {x.shape}")
    n, c, h, w = x.shape
    oh = out_extent(h, window, stride, 0, "maxpool")
    ow = out_extent(w, window, stride, 0, "maxpool")
    y = plan.other(x, (n, c, oh, ow), x.dtype)
    idx = None if plan.mode == "eval" else np.zeros(y.shape, np.min_scalar_type(window**2 - 1))

    def piece(p, worker):
        i, top, end = p
        out = y[i:i + 1, :, top:end]
        views = list(_window_views(x[i:i + 1, :, top * stride:], window, stride, end - top, ow))
        out[...] = views[0]
        for view in views[1:]:
            np.maximum(out, view, out=out)
        if idx is not None:  # the count of leading offsets that fall short of the maximum
            short, at = np.ones(out.shape, bool), idx[i:i + 1, :, top:end]
            for view in views[:-1]:
                short &= view < out
                at += short

    plan.run(piece, _row_pieces(n, oh, c * ow))
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

# Output columns of one fc GEMM, and input rows of one dW block. Each block
# is its own product, in both modes, so a layer wider than this is cut the
# same way on any number of workers; blocks this wide keep BLAS off its
# small-matrix kernels, whose bits differ, at the profiles' widths.
FC_COLUMNS = 512


def _fc_blocks(extent):
    """The slices of FC_COLUMNS that cut range(extent)."""
    return [slice(start, start + FC_COLUMNS) for start in range(0, extent, FC_COLUMNS)]


def fc_forward(x, w, b, plan=SERIAL):
    """y = flatten(x) . w + b with w laid out in_features x out_features.

    The product runs in blocks of FC_COLUMNS output columns, on ``plan``'s
    workers.
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
    plan.run(lambda cols, worker: np.matmul(rows, w[:, cols], out=prod[:, cols]),
             _fc_blocks(w.shape[1]))
    y = prod[:x2.shape[0]] + b
    return y, {"x2": x2, "w": w, "orig_shape": orig_shape}


def fc_backward(cache, d_out, need_param_grads=True, need_input_grad=True, plan=SERIAL):
    """Gradients as pieces on ``plan``'s workers: d_in = d_out @ w.T whole, and
    dW = x.T @ d_out in blocks of FC_COLUMNS input rows. A row block of dW
    rounds as the whole product does; a column block of d_in does not at
    small batches, so d_in is one piece."""
    x2, w = cache["x2"], cache["w"]
    products = []
    if need_input_grad:
        d_in = np.empty(x2.shape, np.result_type(d_out, w))
        products.append((d_out, w.T, d_in))
    if need_param_grads:
        dw = np.empty(w.shape, np.result_type(x2, d_out))
        products += [(x2[:, r].T, d_out, dw[r]) for r in _fc_blocks(w.shape[0])]
    plan.run(lambda product, worker: np.matmul(*product), products)  # each (a, b, out)
    d_params = {"weight": dw, "bias": d_out.sum(axis=0)} if need_param_grads else {}
    return d_in.reshape(cache["orig_shape"]) if need_input_grad else None, d_params


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
        forward=lambda s, x, w, rng, plan: conv2d_forward(
            x, w["weight"], w["bias"], s.params["stride"], s.params["pad"], plan),
        backward=conv2d_backward),
    "relu": LayerKind(
        forward=lambda s, x, w, rng, plan: relu_forward(x, plan),
        backward=lambda cache, d, *flags: relu_backward(cache, d)),
    "lrn": LayerKind(
        hypers={"n": int, "k": float, "alpha": float, "beta": float},
        check=_require(lambda p: p["n"] >= 1 and p["n"] % 2 == 1 and p["k"] > 0
                       and p["alpha"] >= 0, "window n must be odd and >= 1, k > 0, alpha >= 0"),
        out_shape=lambda s, shape: _window_out_shape(s, shape, None, 1, 1, 0),
        scratch=_lrn_scratch,
        forward=lambda s, x, w, rng, plan: lrn_forward(x, **s.params, plan=plan),
        backward=lambda cache, d, *flags: lrn_backward(cache, d)),
    "maxpool": LayerKind(
        hypers={"window": int, "stride": int},
        check=_require(lambda p: min(p["window"], p["stride"]) >= 1,
                       "window/stride must be >= 1"),
        out_shape=lambda s, shape: _window_out_shape(
            s, shape, None, s.params["window"], s.params["stride"], 0),
        forward=lambda s, x, w, rng, plan: maxpool_forward(x, **s.params, plan=plan),
        backward=lambda cache, d, *flags: maxpool_backward(cache, d)),
    "fc": LayerKind(
        hypers={"out_features": int, "in_features": int},
        optional=("in_features",),
        check=_require(lambda p: p["out_features"] >= 1, "out_features must be >= 1"),
        out_shape=_fc_out_shape,
        param_shapes=lambda s, shape: {"weight": (math.prod(shape), s.params["out_features"]),
                                       "bias": (s.params["out_features"],)},
        forward=lambda s, x, w, rng, plan: fc_forward(x, w["weight"], w["bias"], plan),
        backward=fc_backward),
    "dropout": LayerKind(
        hypers={"rate": float},
        check=_require(lambda p: 0.0 <= p["rate"] < 1.0, "rate must be in [0, 1)"),
        forward=lambda s, x, w, rng, plan: dropout_forward(x, s.params["rate"], plan.mode, rng),
        backward=lambda cache, d, *flags: dropout_backward(cache, d)),
    # Forward and backward pass scores through: the loss needs labels, so
    # network takes it from softmax_log_loss / softmax_log_loss_backward.
    "softmax_loss": LayerKind(
        forward=lambda s, x, w, rng, plan: (x, {"scores": x}),
        backward=lambda cache, d, *flags: (d, {})),
}


def forward_layer(spec: LayerSpec, x, params=None, mode="train", rng=None, plan=SERIAL):
    """Run one layer forward, after the shape rule NetworkSpec applies.

    ``plan`` must run ``mode``, from which the kernels learn their mode. Train
    mode runs on a WorkerPool and returns (output, LayerCache). Eval mode
    needs a BufferPlan, and ``network.eval_layers`` is the walk that gives it
    one: the call writes into the plan's buffers, may overwrite ``x``, and
    returns (output, None), dropping any cache the kernel returns.
    """
    kind = KINDS[spec.kind]
    kind.out_shape(spec, x.shape[1:])
    if plan.mode != mode:
        raise StateError(f"layer {spec.name!r}: {mode} mode was given a plan for {plan.mode} mode "
                         "(eval mode runs in network.eval_layers, train mode on a WorkerPool)")
    y, data = kind.forward(spec, x, params, rng, plan)
    if mode == "eval":
        return y, None
    data["_out_shape"] = y.shape
    return y, LayerCache(spec.name, spec.kind, data)


def backward_layer(spec: LayerSpec, cache: LayerCache, d_out,
                   need_param_grads=True, need_input_grad=True, plan=SERIAL):
    """Run one layer backward from its forward cache, on ``plan`` (a
    WorkerPool) where the kind has pieces. Returns (d_in, d_params)."""
    if cache.name != spec.name or cache.kind != spec.kind:
        raise StateError(
            f"cache from layer {cache.name!r}/{cache.kind} fed to {spec.name!r}/{spec.kind}")
    if d_out.shape != cache.data["_out_shape"]:
        raise ShapeError(
            f"layer {spec.name!r}: upstream gradient shape {d_out.shape} does not match "
            f"forward output {cache.data['_out_shape']}")
    return KINDS[spec.kind].backward(cache.data, d_out, need_param_grads, need_input_grad, plan)
