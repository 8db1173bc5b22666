"""Dense float32 tensors and the primitive numeric operations layers build on.

Tensors are plain numpy arrays in row-major order. Activations use the
N x C x H x W layout (batch, channels, height, width); convolution weights use
OutC x InC x kH x kW. Arrays are treated as immutable once written: operations
return new arrays and never modify their inputs in place. There are two
exceptions. The momentum step (``optim.sgd_step``, and ``optim.train_epoch``
through it, one layer at a time as backward hands over its gradients)
updates the trainable tensors and their velocities in place, in chunks of
1 MB through one chunk of scratch. Eval mode runs only in the eval walk
(``network.eval_layers``), on a worker pool's buffer plan: its layers write
into the plan's buffers, ReLU in place, and the walk returns a new array.

Matrix products go to the OpenBLAS library bundled with numpy. OpenBLAS may
round a product differently at another thread count, so the CLI runs every
command at one BLAS thread (``set_blas_threads``) and spreads a layer's work
over its own worker threads (``network.WorkerPool``), in pieces that do not
depend on the worker count. Same seed, same bytes then holds at any core
count and any ``OPENBLAS_NUM_THREADS``, on one CPU kernel family.
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


# Elements gaussian_fill draws per call. The stream is consumed in order, so
# blocked draws equal one full draw, without a float64 copy of the tensor.
_FILL_BLOCK = 65536


def gaussian_fill(shape, mean: float, std: float, rng: Rng) -> np.ndarray:
    """New float32 tensor of the given shape, elements i.i.d. normal(mean, std^2).

    std = 0 degenerates to a constant fill with mean. Deterministic given the
    rng's seed: equal to one float64 draw of the whole shape, cast to float32.
    """
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    out = np.empty(shape, DTYPE)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _FILL_BLOCK):
        flat[start:start + _FILL_BLOCK] = rng.normal(min(_FILL_BLOCK, flat.size - start),
                                                     mean, std)
    return out


def pad2d(t: np.ndarray, pad: int, out: np.ndarray = None) -> np.ndarray:
    """Zero border of width pad on the two trailing (spatial) axes of NxCxHxW.

    With ``out``, an array of the padded shape, the result is written there
    and ``out`` is returned.
    """
    if t.ndim != 4:
        raise ShapeError(f"pad2d expects a 4-D tensor, got shape {t.shape}")
    if pad < 0:
        raise ParameterError(f"pad must be >= 0, got {pad}")
    if out is None:
        return t if pad == 0 else np.pad(t, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = t.shape
    if out.shape != (n, c, h + 2 * pad, w + 2 * pad):
        raise ShapeError(f"pad2d of {t.shape} by {pad} cannot fill an array of {out.shape}")
    out[:, :, :pad] = 0
    out[:, :, pad + h:] = 0
    out[:, :, pad:pad + h, :pad] = 0
    out[:, :, pad:pad + h, pad + w:] = 0
    out[:, :, pad:pad + h, pad:pad + w] = t
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
