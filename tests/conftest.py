"""Shared test helpers: finite-difference gradient checking and synthetic data."""

import contextlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from agecnn import AGE_LABELS, Rng, layers, write_ppm
from agecnn.layers import KINDS, BufferPlan, forward_layer
from agecnn.network import WorkerPool
from agecnn.tensor import DTYPE

FD_H = 1e-3


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_max_rel_err(f, tensors, analytic, h=FD_H, samples=None, seed=0):
    """Max relative error between analytic grads and central differences.

    f: callable of no arguments returning a float; it must read the arrays in
    ``tensors`` live so in-place perturbation is visible. ``tensors`` and
    ``analytic`` are parallel lists of float64 arrays. With ``samples`` set,
    only that many coordinates per tensor are probed (seeded choice).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, g in zip(tensors, analytic):
        flat_t = t.reshape(-1)
        flat_g = np.asarray(g, dtype=np.float64).reshape(-1)
        if samples is None or flat_t.size <= samples:
            idxs = range(flat_t.size)
        else:
            idxs = rng.choice(flat_t.size, size=samples, replace=False)
        for i in idxs:
            keep = flat_t[i]
            flat_t[i] = keep + h
            up = f()
            flat_t[i] = keep - h
            down = f()
            flat_t[i] = keep
            fd = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(flat_g[i], fd))
    return worst


def traced_peak(fn):
    """(peak bytes traced by tracemalloc while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def eval_layer(spec, x, params=None):
    """One layer in eval mode on a plan run by a one-worker pool, as
    forward_layer's (output, cache), the output copied out of the plan into
    an array of its own."""
    shapes = (x.shape[1:], KINDS[spec.kind].out_shape(spec, x.shape[1:]))
    with WorkerPool(1) as pool:
        plan = BufferPlan(shapes, len(x), np.result_type(x, DTYPE), pool)
        y, cache = forward_layer(spec, plan.copy_in(x), params, "eval", None, plan)
        return y.copy(), cache


@contextlib.contextmanager
def nan_plans(pool):
    """Enter ``pool`` while every ``layers.BufferPlan`` made starts as NaN.

    ``network.eval_layers`` makes one plan per walk, so each walk starts on a
    block of NaN: an activation element that an eval-mode kind reads before
    it writes it turns up in the result."""
    made = layers.BufferPlan

    class NanPlan(made):
        def __init__(self, *args):
            super().__init__(*args)
            self.block.fill(np.nan)

    layers.BufferPlan = NanPlan
    try:
        with pool:
            yield pool
    finally:
        layers.BufferPlan = made


# Bytes with a meaning in a manifest, PPM header or config file: separators,
# quotes, comments, NUL.
SPECIAL_BYTES = b',\n\r\t ="#\0'


def mutations(data, seed, count, head=None):
    """``count`` seeded mutants of ``data``, each 1 to 3 edits: a bit flip,
    1 to 4 inserted special or random bytes, or a deleted run of 1 to 8
    bytes. With ``head``, every other mutant is edited in its first ``head`` bytes only."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, (head if head and i % 2 else len(buf)) + 1))
            op = int(rng.integers(0, 3))
            if op == 0 and pos < len(buf):
                buf[pos] ^= 1 << int(rng.integers(0, 8))
            elif op == 1:
                pool = SPECIAL_BYTES if rng.integers(0, 2) else bytes(range(256))
                buf[pos:pos] = bytes(pool[int(j)] for j in
                                     rng.integers(0, len(pool), int(rng.integers(1, 5))))
            else:
                del buf[pos:pos + int(rng.integers(1, 9))]
        yield bytes(buf)


def to64(params):
    """Deep float64 copy of a {layer: {tensor: array}} set."""
    return {l: {t: np.asarray(a, dtype=np.float64).copy() for t, a in group.items()}
            for l, group in params.items()}


# A file left open, or an exception lost in a finalizer or on a thread,
# fails the test. test_acceptance.py is exempt: it leaks two file handles
# of its own.
STRICT_WARNINGS = ("error::ResourceWarning",
                   "error::pytest.PytestUnraisableExceptionWarning",
                   "error::pytest.PytestUnhandledThreadExceptionWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name != "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings(*STRICT_WARNINGS))


@pytest.fixture(autouse=True)
def no_engine_thread_left():
    """Fail a test that leaves a checkpoint helper or a pool worker running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith(("checkpoint-", "agecnn-worker"))]
    assert left == [], f"threads left running: {left}"


@pytest.fixture
def rng():
    return Rng(1234)


def banded_image(rng, cls, size=32, bright=180.0, noise=40.0):
    """Synthetic 3xSxS image; class c carries a bright band at rows 4c..4c+3."""
    img = rng.uniform((3, size, size)) * noise
    img[:, 4 * cls:4 * cls + 4, :] += bright
    return img.astype(np.float32)


def write_dataset(directory, count, rng, size=32):
    """Write `count` banded PPMs plus a manifest; returns the manifest path."""
    rows = []
    for i in range(count):
        cls = i % len(AGE_LABELS)
        path = os.path.join(directory, f"img{i:03d}.ppm")
        write_ppm(path, banded_image(rng, cls, size=size))
        rows.append(f"img{i:03d}.ppm,{AGE_LABELS[cls]},{i % 5},m")
    manifest = os.path.join(directory, "data.csv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("path,label,fold,gender\n")
        fh.write("\n".join(rows) + "\n")
    return manifest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance verdict lines after capture has been released."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
