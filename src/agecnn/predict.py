"""Single-image prediction: three fixed crops, averaged class probabilities.

When a network's training pipeline rescales (``data.Preprocessing.for_input``),
an image of any size is stretched to the FRAME_SIZE square and read at three
CROP_SIZE views at (row, col) offsets center (16,16), bottom_left (32,0) and
upper_right (0,32). The views run through the network in one eval-mode
forward; their softmax vectors are averaged elementwise (a flag switches to
averaging raw scores before a single softmax). Other networks (small profiles
such as mini) take the image as it is in one direct forward, and an image of
the wrong size fails there as ShapeError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as net
from .data import CROP_SIZE, FRAME_SIZE, Preprocessing, decode_image, resize_bilinear
from .errors import ConfigError, ShapeError
from .layers import softmax
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


def predict_proba(spec, params, img, average: str = "probability",
                  channel_means=None) -> np.ndarray:
    """Class-probability vector for one image (3xHxW, values 0..255).

    average: 'probability' averages softmaxed per-view outputs; 'score'
    averages raw scores across views, then softmaxes once.
    """
    if average not in ("probability", "score"):
        raise ConfigError(f"average must be 'probability' or 'score', got {average!r}")
    if img.ndim != 3 or img.shape[0] != spec.input_shape[0]:
        raise ShapeError(
            f"expected a {spec.input_shape[0]}xHxW image, got shape {img.shape}")

    frame = Preprocessing.for_input(spec.input_shape, channel_means).rescale_to
    if frame:
        views = three_crops(resize_bilinear(img, frame, frame)).stack()
    else:
        views = img[None].astype(DTYPE)

    if channel_means is not None:
        views = views - np.asarray(channel_means, dtype=DTYPE)[None, :, None, None]

    scores = net.eval_scores(spec, params, views)
    if average == "probability":
        return average_probabilities(softmax(scores))
    return softmax(scores.mean(axis=0, keepdims=True))[0]


def predict_label(spec, params, img, average: str = "probability",
                  channel_means=None) -> int:
    """Index of the most probable class; ties go to the lowest index."""
    return argmax(predict_proba(spec, params, img, average=average,
                                channel_means=channel_means))


def predict_file(spec, params, path, average: str = "probability",
                 channel_means=None) -> np.ndarray:
    return predict_proba(spec, params, decode_image(path), average=average,
                         channel_means=channel_means)


def predict_manifest(spec, params, manifest, average: str = "probability",
                     channel_means=None):
    """Predicted and true label indices for every record of a manifest."""
    preds, truths = [], []
    for rec in manifest.records:
        probs = predict_file(spec, params, rec.path, average=average,
                             channel_means=channel_means)
        preds.append(argmax(probs))
        truths.append(rec.label)
    return preds, truths
