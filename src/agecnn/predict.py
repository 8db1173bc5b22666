"""Prediction: three fixed crops per image, averaged class probabilities.

When a network's training pipeline rescales (``data.Preprocessing.for_input``),
an image of any size is stretched to the FRAME_SIZE square and read at three
CROP_SIZE views at (row, col) offsets center (16,16), bottom_left (32,0) and
upper_right (0,32); their softmax vectors are averaged elementwise (a flag
switches to averaging raw scores before a single softmax). Other networks
(small profiles such as mini) take the image as it is as a single view, and
an image of the wrong size fails as ShapeError.

Each image is scored on its own, its views in one call of the one eval-mode
walk, ``network.eval_layers``: ``predict_proba`` scores one image, and
``predict_manifest`` (``eval`` and validation) each record of a manifest in
turn. Validation in ``train`` computes the outputs of frozen leading layers
once per image (``manifest_features``) and starts each epoch's walk there.
Every scorer takes a ``network.WorkerPool``, the CLI command's one pool,
whose workers share each layer call, or, given none, ``layers.SERIAL``; each
image's walk plans its own buffers. The pool changes no output bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as net
from .data import CROP_SIZE, FRAME_SIZE, Preprocessing, decode_image, resize_bilinear
from .errors import ConfigError, IntegrityError, ShapeError
from .layers import SERIAL, softmax
from .tensor import DTYPE, argmax

# (row, col) offsets of the three views inside the FRAME_SIZE frame.
_MARGIN = FRAME_SIZE - CROP_SIZE
CENTER_OFFSET = (_MARGIN // 2, _MARGIN // 2)
BOTTOM_LEFT_OFFSET = (_MARGIN, 0)
UPPER_RIGHT_OFFSET = (0, _MARGIN)


@dataclass(frozen=True)
class CropTriple:
    center: np.ndarray
    bottom_left: np.ndarray
    upper_right: np.ndarray

    def stack(self) -> np.ndarray:
        return np.stack([self.center, self.bottom_left, self.upper_right])


def _window(img, offset):
    r, c = offset
    return img[:, r:r + CROP_SIZE, c:c + CROP_SIZE]


def three_crops(img) -> CropTriple:
    """The three fixed CROP_SIZE views of a 3xFRAME_SIZExFRAME_SIZE image."""
    if img.shape != (3, FRAME_SIZE, FRAME_SIZE):
        raise ShapeError(f"three_crops expects 3x{FRAME_SIZE}x{FRAME_SIZE}, got shape {img.shape}")
    return CropTriple(center=_window(img, CENTER_OFFSET),
                      bottom_left=_window(img, BOTTOM_LEFT_OFFSET),
                      upper_right=_window(img, UPPER_RIGHT_OFFSET))


def average_probabilities(per_view: np.ndarray) -> np.ndarray:
    """Elementwise mean over view axis 0 of per-view probability vectors."""
    if per_view.ndim != 2:
        raise ShapeError(f"expected a VxK matrix of vectors, got shape {per_view.shape}")
    return per_view.mean(axis=0)


# Spaces an image's views are averaged in; the first is the default.
AVERAGES = ("probability", "score")


def _check_average(average):
    if average not in AVERAGES:
        raise ConfigError(f"average must be one of {AVERAGES}, got {average!r}")


def _views(spec, img, channel_means, image=None):
    """The rows one image (3xHxW, values 0..255) is scored on: three crops, or
    itself. A shape error names ``image``, if given."""
    where = f"{image}: " if image else ""
    if img.ndim != 3 or img.shape[0] != spec.input_shape[0]:
        raise ShapeError(
            f"{where}expected a {spec.input_shape[0]}xHxW image, got shape {img.shape}")
    frame = Preprocessing.for_input(spec.input_shape, channel_means).rescale_to
    if frame:
        views = three_crops(resize_bilinear(img, frame, frame)).stack()
    elif img.shape == spec.input_shape:
        views = img[None].astype(DTYPE)
    else:
        raise ShapeError(f"{where}image shape {img.shape} does not match input contract "
                         f"{spec.input_shape}")
    if channel_means is not None:
        views = views - np.asarray(channel_means, dtype=DTYPE)[None, :, None, None]
    return views


def _average(scores, average, image):
    """One image's class-probability vector from its per-view scores; one that
    is not finite raises IntegrityError naming ``image``, so no row shows it."""
    if average == "probability":
        probs = average_probabilities(softmax(scores))
    else:
        probs = softmax(scores.mean(axis=0, keepdims=True))[0]
    if not np.isfinite(probs).all():
        raise IntegrityError(f"non-finite class scores for {image} (the model's weights "
                             "hold a NaN or overflow)")
    return probs


def predict_proba(spec, params, img, average: str = AVERAGES[0],
                  channel_means=None, pool=SERIAL) -> np.ndarray:
    """Class-probability vector for one image (3xHxW, values 0..255).

    average: 'probability' averages softmaxed per-view outputs; 'score'
    averages raw scores across views, then softmaxes once.
    """
    _check_average(average)
    return _average(net.eval_scores(spec, params, _views(spec, img, channel_means), pool),
                    average, "this image")


def predict_file(spec, params, path, average: str = AVERAGES[0],
                 channel_means=None, pool=SERIAL) -> np.ndarray:
    return predict_proba(spec, params, decode_image(path), average=average,
                         channel_means=channel_means, pool=pool)


@dataclass(frozen=True)
class ViewFeatures:
    """Outputs of layers [0, stop), one array of view rows per record (at stop 0, its views)."""

    rows: tuple
    stop: int


def _record_views(spec, manifest, channel_means):
    """Each record's views, its image decoded only when the caller asks for them."""
    return (_views(spec, decode_image(rec.path), channel_means, rec.path)
            for rec in manifest.records)


def manifest_features(spec, params, manifest, channel_means, stop, pool=SERIAL) -> ViewFeatures:
    """Eval-mode outputs of layers [0, stop) for each record's views.

    Each image is decoded and run on its own; only its outputs are kept.
    """
    views = _record_views(spec, manifest, channel_means)
    return ViewFeatures(tuple(net.eval_layers(spec, params, v, 0, stop, pool) for v in views),
                        stop)


def predict_manifest(spec, params, manifest, average: str = AVERAGES[0],
                     channel_means=None, features=None, pool=SERIAL):
    """Predicted and true label indices for every record of a manifest.

    Each record is scored as ``predict_proba`` scores one image. ``features``
    is an earlier ``manifest_features`` result for this manifest whose layers
    are unchanged since; only the layers from its ``stop`` on then run, and
    its channel means apply.
    """
    _check_average(average)
    features = features or ViewFeatures(_record_views(spec, manifest, channel_means), 0)
    stop = len(spec.layers) - 1
    return ([argmax(_average(net.eval_layers(spec, params, rows, features.stop, stop, pool),
                             average, rec.path))
             for rows, rec in zip(features.rows, manifest.records)],
            [rec.label for rec in manifest.records])
