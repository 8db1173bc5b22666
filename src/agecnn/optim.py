"""SGD with momentum and coupled L2 decay, plateau learning-rate schedule,
and the one-epoch training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ParameterError, ShapeError, StateError
from .layers import PIECE_ELEMENTS, softmax_log_loss
from .network import WorkerPool, backward, eval_layers, forward, frozen_prefix


@dataclass(frozen=True)
class SgdConfig:
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-3
    batch_size: int = 256
    lr_factor: float = 0.1
    patience: int = 1
    min_lr: float = 1e-5
    improvement_epsilon: float = 1e-4

    def __post_init__(self):
        # The chained comparisons also reject NaN and infinity.
        if not 0.0 < self.lr0 < math.inf:
            raise ParameterError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ParameterError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ParameterError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.min_lr < math.inf:
            raise ParameterError(f"min_lr must be finite and >= 0, got {self.min_lr}")
        if not 0.0 <= self.improvement_epsilon < math.inf:
            raise ParameterError(
                f"improvement_epsilon must be finite and >= 0, got {self.improvement_epsilon}")


@dataclass(frozen=True)
class OptState:
    """Velocity tensors for the trainable parameters plus schedule bookkeeping."""

    velocity: dict
    lr: float
    best_accuracy: float = float("-inf")
    epochs_since_improvement: int = 0
    epoch: int = 0


def init_state(params, mask, cfg: SgdConfig) -> OptState:
    """Zero velocities mirroring every trainable tensor; lr starts at lr0."""
    velocity = {}
    for name, tensors in params.items():
        if mask.get(name):
            velocity[name] = {t: np.zeros_like(a) for t, a in tensors.items()}
    return OptState(velocity=velocity, lr=cfg.lr0)


def sgd_step(params, grads, mask, state: OptState, cfg: SgdConfig):
    """One update, in place: v <- mu*v - lr*(g + lambda*w); w <- w + v.

    The one exception to ``tensor``'s immutability rule: once the gradients are checked,
    each trainable tensor and its velocity are overwritten and the same ``params`` and
    ``state`` come back. Decay spares biases; frozen tensors are never written.
    ``grads`` covers exactly the layers ``mask`` marks trainable, so a mask that
    marks one layer steps that layer alone, as ``train_epoch`` does while
    backward hands over each layer's gradients. Each tensor is updated in
    chunks of ``layers.PIECE_ELEMENTS`` elements through one chunk of scratch.
    """
    trainable = [name for name in params if mask.get(name)]
    if set(grads) != set(trainable):
        raise StateError(
            f"gradients cover {sorted(grads)}, trainable layers are {sorted(trainable)}")
    for name in trainable:
        for what, group in (("gradient", grads[name]), ("velocity", state.velocity.get(name, {}))):
            if set(group) != set(params[name]):
                raise StateError(f"layer {name!r}: {what} tensors {sorted(group)}, "
                                 f"expected {sorted(params[name])}")
            for tname, w in params[name].items():
                if group[tname].shape != w.shape:
                    raise ShapeError(f"layer {name!r}: {tname} {what} shape "
                                     f"{group[tname].shape}, expected {w.shape}")
    for name in trainable:
        for tname, w in params[name].items():
            lam = cfg.weight_decay if tname == "weight" else 0.0
            _momentum_update(w, state.velocity[name][tname], grads[name][tname],
                             state.lr, cfg.momentum, lam)
    return params, state


def _momentum_update(w, v, g, lr, mu, lam):
    """v <- mu*v - lr*(g + lam*w); w <- w + v, in chunks of PIECE_ELEMENTS elements.

    Each chunk runs the float operations of ``v *= mu; v -= lr * (g + lam * w);
    w += v`` in the same order, at the same precision, through one chunk of
    scratch, so the bytes do not depend on the chunking.
    """
    if w.flags.c_contiguous and v.flags.c_contiguous:
        w, v, g = w.reshape(-1), v.reshape(-1), g.reshape(-1)
        size = PIECE_ELEMENTS
    else:  # flat views would be copies: a strided tensor is one chunk
        size = len(w)
    scratch = np.empty(w[:size].shape, np.result_type(g, w, lam, lr))
    for start in range(0, len(w), size):
        part = slice(start, start + size)
        wc, vc = w[part], v[part]
        t = scratch[:len(wc)]
        vc *= mu
        np.multiply(lam, wc, out=t)
        np.add(g[part], t, out=t)
        np.multiply(lr, t, out=t)
        vc -= t
        wc += vc


def plateau_update(state: OptState, epoch_val_accuracy: float, cfg: SgdConfig) -> OptState:
    """Divide lr by 1/lr_factor after `patience` epochs without improvement.

    Improvement means accuracy > best + improvement_epsilon. The lr never
    increases and never drops below min_lr.
    """
    if epoch_val_accuracy > state.best_accuracy + cfg.improvement_epsilon:
        return replace(state, best_accuracy=epoch_val_accuracy, epochs_since_improvement=0)
    stalled = state.epochs_since_improvement + 1
    if stalled >= cfg.patience:
        return replace(state, lr=max(state.lr * cfg.lr_factor, cfg.min_lr),
                       epochs_since_improvement=0)
    return replace(state, epochs_since_improvement=stalled)


def _step(spec, params, mask, state, cfg, x, labels, split, rng, workers):
    # the prefix's pool and plan are gone before the caches are made, and
    # the caches live only as long as this step
    with WorkerPool(workers) as pool:
        features = eval_layers(spec, params, x, 0, split, pool)
    scores, caches = forward(spec, params, features, "train", rng, start=split)
    loss, _, _ = softmax_log_loss(scores, labels)
    if not np.isfinite(loss):
        raise StateError(f"epoch {state.epoch + 1}: batch loss is {loss}; "
                         "training diverged (try a lower learning rate)")
    # each layer steps as soon as backward has its gradients, which then die
    backward(spec, params, caches, labels, mask,
             consume=lambda name, g: sgd_step(params, {name: g}, {name: True}, state, cfg))
    return loss


def train_epoch(spec, params, mask, state: OptState, cfg: SgdConfig, train_batches, rng,
                workers: int = 1):
    """One pass over the batch stream: forward, loss, backward, sgd_step.

    The frozen prefix (``network.frozen_prefix``) runs as a fixed feature
    extractor, in eval mode and micro-batches with no caches kept, on a
    ``network.WorkerPool`` of ``workers`` that lasts one step's prefix;
    forward keeps train-mode caches for the layers from there on only. Each step
    updates ``params`` and the velocity in place, one layer at a time: backward
    hands each trainable layer's gradients to ``sgd_step`` as soon as it has
    them and keeps none, so one layer's gradients are alive at a time. Returns
    (params, state', mean per-example loss). A non-finite batch loss raises
    StateError before that batch's step, and a non-finite trainable tensor
    after the last step raises StateError too. The final short batch is
    processed like any other; the mean weights batches by true example count.
    """
    split = frozen_prefix(spec, mask)
    total_loss = 0.0
    total_n = 0
    for x, labels in train_batches:
        n = x.shape[0]
        loss = _step(spec, params, mask, state, cfg, x, labels, split, rng, workers)
        # drop the batch before the stream builds the next one
        del x
        total_loss += loss * n
        total_n += n
    if total_n == 0:
        raise InputError("train_epoch received an empty batch stream")
    for name, tensors in params.items():
        if mask.get(name) and not all(np.isfinite(t).all() for t in tensors.values()):
            raise StateError(f"epoch {state.epoch + 1}: layer {name!r} has non-finite "
                             "weights; training diverged (try a lower learning rate)")
    return params, replace(state, epoch=state.epoch + 1), total_loss / total_n
