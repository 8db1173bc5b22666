"""Exact / 1-off accuracy and 8x8 confusion-matrix reporting.

The confusion matrix is indexed [truth][prediction]. 1-off accuracy credits
predictions landing on the true label or either immediate neighbor on the
ordered age scale; the ends do not wrap, so labels 0 and 7 each have a single
neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AGE_LABELS, NUM_CLASSES
from .errors import InputError


def confusion(preds, truths) -> np.ndarray:
    """Tally (truth, prediction) pairs into an int64 count matrix."""
    if len(preds) != len(truths):
        raise InputError(f"got {len(preds)} predictions for {len(truths)} truths")
    m = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for p, t in zip(preds, truths):
        if not (0 <= p < NUM_CLASSES) or not (0 <= t < NUM_CLASSES):
            raise InputError(f"label pair ({t}, {p}) outside [0, {NUM_CLASSES})")
        m[t, p] += 1
    return m


def exact_accuracy(m) -> float:
    total = int(m.sum())
    if total == 0:
        raise InputError("empty confusion matrix")
    return float(np.trace(m)) / total


def one_off_accuracy(m) -> float:
    total = int(m.sum())
    if total == 0:
        raise InputError("empty confusion matrix")
    n = m.shape[0]
    rows, cols = np.indices((n, n))
    return float(m[np.abs(rows - cols) <= 1].sum()) / total


def row_normalize(m) -> np.ndarray:
    """Scale each row to sum 100; all-zero rows stay zero."""
    m = np.asarray(m, dtype=np.float64)
    sums = m.sum(axis=1, keepdims=True)
    return np.divide(m * 100.0, sums, out=np.zeros_like(m), where=sums > 0)


@dataclass(frozen=True)
class EvalReport:
    exact_accuracy: float
    one_off_accuracy: float
    matrix: np.ndarray
    normalized: np.ndarray


def evaluate(preds, truths) -> EvalReport:
    m = confusion(preds, truths)
    return EvalReport(exact_accuracy=exact_accuracy(m),
                      one_off_accuracy=one_off_accuracy(m),
                      matrix=m,
                      normalized=row_normalize(m))


def render_report(report: EvalReport) -> str:
    """Fixed-width text table of row percentages plus an accuracy footer."""
    width = max(8, max(len(s) for s in AGE_LABELS) + 3)
    head = " " * width + "".join(f"{s:>{width}}" for s in AGE_LABELS)
    lines = [head]
    for i, row in enumerate(report.normalized):
        cells = "".join(f"{v:>{width}.2f}" for v in row)
        lines.append(f"{AGE_LABELS[i]:>{width}}" + cells)
    lines.append(f"exact={report.exact_accuracy * 100:.2f}% "
                 f"one_off={report.one_off_accuracy * 100:.2f}%")
    return "\n".join(lines) + "\n"


def render_csv(report: EvalReport) -> str:
    """Machine-readable twin of the text table: raw counts plus accuracies."""
    lines = ["truth," + ",".join(AGE_LABELS)]
    for i, row in enumerate(report.matrix):
        lines.append(AGE_LABELS[i] + "," + ",".join(str(int(v)) for v in row))
    lines.append(f"exact,{report.exact_accuracy:.6f}")
    lines.append(f"one_off,{report.one_off_accuracy:.6f}")
    return "\n".join(lines) + "\n"
