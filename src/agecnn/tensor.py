"""Dense float32 tensors and the primitive numeric operations layers build on.

Tensors are plain numpy arrays in row-major order. Activations use the
N x C x H x W layout (batch, channels, height, width); convolution weights use
OutC x InC x kH x kW. Arrays are treated as immutable once written: operations
return new arrays and never modify their inputs in place. There are two
exceptions. The momentum step (``optim.sgd_step``, and ``optim.train_epoch``
through it, one layer at a time as backward hands over its gradients)
updates the trainable tensors and their velocities in place, in row blocks
of about 1 MB, at least one row, which a worker pool's workers share, each
block through scratch it takes when it runs: one block of scratch per
running block, at most one per worker. Eval mode runs only in the eval walk
(``network.eval_layers``), on a worker pool's buffer plan: its layers write
into the plan's buffers, ReLU in place, and the walk returns a new array.
Train mode runs on the pool itself and writes into new arrays.

Matrix products go to the OpenBLAS library bundled with numpy. OpenBLAS may
round a product differently at another thread count, so the CLI runs every
command at one BLAS thread (``set_blas_threads``) and spreads a layer's work
over its own worker threads (``network.WorkerPool``), in pieces that do not
depend on the worker count. Same seed, same bytes then holds at any core
count and any ``OPENBLAS_NUM_THREADS``, on one CPU kernel family. Normal
draws (``gaussian_fill``) are made in float32 straight into their tensor. A
fresh head's draw is spread like a layer's work: each block of a weight
comes from its own keyed stream (``Rng.derive``; see
``network.DrawnWeight``), so no block waits for another.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from .errors import ParameterError, ShapeError

DTYPE = np.float32


class Rng:
    """Deterministic, seedable random stream (PCG64 behind numpy Generator).

    The same seed always reproduces the same stream, independent of platform.
    ``derive`` builds statistically independent child streams from integer
    keys, so one top-level seed can drive every random component of a run.
    """

    def __init__(self, seed, _key=None):
        if _key is None:
            seed = int(seed)
            if seed < 0 or seed >= 2**64:
                raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
            _key = (seed,)
        self.key = _key
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_key)))

    def derive(self, *subkeys: int) -> "Rng":
        """Child stream keyed by (this stream's key, *subkeys)."""
        return Rng(None, _key=self.key + tuple(int(k) for k in subkeys))

    def normal(self, shape, mean=0.0, std=1.0) -> np.ndarray:
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int) -> int:
        """One integer drawn uniformly from [low, high)."""
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def gaussian_fill(shape, mean: float, std: float, rng: Rng, out=None) -> np.ndarray:
    """Float32 tensor of the given shape, elements i.i.d. normal(mean, std^2):
    a new one, or ``out`` (a C-contiguous float32 array of that shape) filled
    in place and returned.

    numpy's float32 normal is drawn straight into the result, then scaled by
    std and shifted by mean in place, in float32; std = 0 gives mean
    everywhere. Deterministic given the rng's seed. The draw takes the rng's
    next values in row-major order, so filling the consecutive pieces of a
    tensor one after another, with nothing else drawn from the rng between
    them, gives the values one fill of the whole makes.
    """
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    if out is None:
        out = np.empty(shape, DTYPE)
    elif out.shape != tuple(shape) or out.dtype != DTYPE or not out.flags.c_contiguous:
        raise ShapeError(f"gaussian_fill of {tuple(shape)} cannot fill an array of "
                         f"{out.shape} {out.dtype}")
    flat = out.reshape(-1)
    rng._gen.standard_normal(dtype=DTYPE, out=flat)
    # as Python floats the scalars are cast to float32, not the product to float64
    flat *= float(std)
    flat += float(mean)
    return out


def pad2d(x: np.ndarray, pad: int, first: int, out: np.ndarray) -> np.ndarray:
    """Rows [first, first + R) of one CxHxW sample padded by ``pad`` zeros on
    each side, written into ``out`` (C x R x (W + 2*pad)), which is returned.

    Padded row p holds image row p - pad. Every element whose source lies
    outside ``x`` is zero: the border columns, the top and bottom pad, and
    rows past the bottom pad.
    """
    if pad < 0:
        raise ParameterError(f"pad must be >= 0, got {pad}")
    if x.ndim != 3 or out.ndim != 3 or out.shape[::2] != (x.shape[0], x.shape[2] + 2 * pad):
        raise ShapeError(f"pad2d of {x.shape} by {pad} cannot fill an array of {out.shape}")
    h, w = x.shape[1:]
    lo, hi = (min(max(row - pad, 0), h) for row in (first, first + out.shape[1]))  # image rows
    a = max(lo + pad - first, 0)  # out's row of image row lo
    b = a + hi - lo
    out[:, :a] = 0
    out[:, b:] = 0
    out[:, a:b, :pad] = 0
    out[:, a:b, pad + w:] = 0
    out[:, a:b, pad:pad + w] = x[:, lo:hi]
    return out


def argmax(v: np.ndarray) -> int:
    """Index of the maximum of a 1-D tensor; ties break to the lowest index."""
    if v.ndim != 1 or v.shape[0] < 1:
        raise ShapeError(f"argmax expects a nonempty 1-D tensor, got shape {v.shape}")
    return int(np.argmax(v))


# The thread-count entry points of numpy's bundled OpenBLAS (scipy-openblas,
# 64-bit integer interface).
_BLAS_SET = "scipy_openblas_set_num_threads64_"
_BLAS_GET = "scipy_openblas_get_num_threads64_"


def _blas_controls():
    """(set, get) of numpy's bundled OpenBLAS thread count, or None if absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        set_fn, get_fn = getattr(lib, _BLAS_SET, None), getattr(lib, _BLAS_GET, None)
        if set_fn is not None and get_fn is not None:
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return set_fn, get_fn
    return None


def set_blas_threads(count: int):
    """Set the thread count of numpy's bundled OpenBLAS; returns the count before.

    Returns None, and changes nothing, when numpy carries no OpenBLAS with
    that control (another BLAS, or another build); matrix products then run
    at whatever thread count the library chose.
    """
    controls = _blas_controls()
    if controls is None:
        return None
    set_fn, get_fn = controls
    before = get_fn()
    set_fn(int(count))
    return before
