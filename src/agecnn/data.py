"""Dataset manifests, the 8-bucket age taxonomy, PPM image decode, bilinear
rescaling, and random-crop batch assembly.

Manifest files are plain CSV with a ``path,label,fold,gender`` header; fold
and gender are optional and not stored, but a fold must be an integer. Image
paths resolve against the manifest's directory unless absolute. Images decode
to float32 tensors of shape 3xHxW, channel order R,G,B, values in [0, 255].
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormatError, ParameterError, ParseError, ShapeError
from .tensor import DTYPE, Rng

# The one input rule (Preprocessing.for_input): a network with a CROP_SIZE
# square input sees faces rescaled to a FRAME_SIZE square, then cropped.
FRAME_SIZE = 256
CROP_SIZE = 224

AGE_LABELS = ("0-2", "4-6", "8-13", "15-20", "25-32", "38-43", "48-53", "60-")
NUM_CLASSES = len(AGE_LABELS)

_LABEL_INDEX = {s: i for i, s in enumerate(AGE_LABELS)}


def label_of(range_string: str) -> int:
    """Index of an age-range string in the fixed 8-label taxonomy."""
    try:
        return _LABEL_INDEX[range_string]
    except KeyError:
        raise ParseError(f"unknown age label {range_string!r}; "
                         f"expected one of {', '.join(AGE_LABELS)}") from None


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: int


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple

    def __len__(self):
        return len(self.records)


def read_lines(path, error):
    """Lines of a UTF-8 text file, endings kept; undecodable bytes raise ``error``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from None


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest CSV; blank lines are skipped, bad rows name their line."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    header = None
    reader = csv.reader(read_lines(path, ParseError))
    try:
        rows = list(reader)
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}: row {reader.line_num}: {e}") from None
    for lineno, row in enumerate(rows, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if header is None:
            header = [cell.strip().lower() for cell in row]
            if header[:2] != ["path", "label"]:
                raise ParseError(
                    f"{path}: row {lineno}: header must start with 'path,label'")
            continue
        if len(row) < 2:
            raise ParseError(f"{path}: row {lineno}: expected at least path and label")
        img = row[0].strip()
        if not img:
            raise ParseError(f"{path}: row {lineno}: empty image path")
        try:
            label = label_of(row[1].strip())
        except ParseError as e:
            raise ParseError(f"{path}: row {lineno}: {e}") from None
        if len(row) > 2 and row[2].strip():
            try:
                int(row[2].strip())
            except ValueError:
                raise ParseError(f"{path}: row {lineno}: bad fold {row[2]!r}") from None
        if not os.path.isabs(img):
            img = os.path.join(base, img)
        records.append(ManifestRecord(img, label))
    if header is None:
        raise ParseError(f"{path}: empty manifest (missing header)")
    return DatasetManifest(tuple(records))


# ---------------------------------------------------------------------------
# PPM (P6, maxval 255) decode / encode
# ---------------------------------------------------------------------------

def _ppm_token(fh, path):
    # Tokens are separated by whitespace; '#' starts a comment running to EOL.
    # The single delimiter after the last header token is consumed here, which
    # leaves the stream positioned at the first raw sample byte.
    tok = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise FormatError(f"{path}: truncated PPM header")
        if ch == b"#" and not tok:
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


# Largest PPM width and height read_ppm accepts. It bounds what one image can
# cost: at 4096x4096 the decode holds 50 MB of bytes and 201 MB of float32,
# and resizing to the FRAME_SIZE frame widens 2 x 256 of its rows.
MAX_PPM_EXTENT = 4096


def read_ppm(path) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) into a float32 3xHxW tensor.

    A width or height above MAX_PPM_EXTENT is a FormatError, raised before
    any pixel data is read.
    """
    if "\0" in os.fspath(path):
        # open() would raise ValueError, which no caller treats as bad input
        raise FormatError(f"{path!r}: image path holds a NUL byte")
    with open(path, "rb") as fh:
        if fh.read(2) != b"P6":
            raise FormatError(f"{path}: not a binary PPM (P6) file")
        try:
            width = int(_ppm_token(fh, path))
            height = int(_ppm_token(fh, path))
            maxval = int(_ppm_token(fh, path))
        except ValueError:
            raise FormatError(f"{path}: malformed PPM header") from None
        if width < 1 or height < 1:
            raise FormatError(f"{path}: bad PPM dimensions {width}x{height}")
        if maxval != 255:
            raise FormatError(f"{path}: unsupported PPM maxval {maxval} (need 255)")
        # checked before reading, so a forged header cannot ask for gigabytes
        size = 3 * width * height
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError(f"{path}: truncated PPM pixel data ({width}x{height} claimed)")
        if max(width, height) > MAX_PPM_EXTENT:
            raise FormatError(f"{path}: PPM dimensions {width}x{height} exceed the "
                              f"{MAX_PPM_EXTENT}x{MAX_PPM_EXTENT} limit")
        raw = fh.read(size)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return pixels.transpose(2, 0, 1).astype(DTYPE)


def write_ppm(path, img) -> None:
    """Encode a 3xHxW tensor (values clipped and rounded to 0..255) as P6."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"write_ppm expects 3xHxW, got shape {img.shape}")
    h, w = img.shape[1], img.shape[2]
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())


def decode_image(path) -> np.ndarray:
    return read_ppm(path)


# ---------------------------------------------------------------------------
# resize and crop
# ---------------------------------------------------------------------------

def _sample_grid(src, dst):
    # Corner-aligned sampling: index i maps to i*(src-1)/(dst-1); a single
    # output sample takes the source center.
    if dst == 1:
        return np.array([0.5 * (src - 1)])
    return np.arange(dst) * ((src - 1) / (dst - 1))


def resize_bilinear(img, out_h, out_w) -> np.ndarray:
    """Bilinear resample of a CxHxW image; same-size inputs pass through."""
    if img.ndim != 3:
        raise ShapeError(f"resize expects CxHxW, got shape {img.shape}")
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img
    ys = _sample_grid(h, out_h)
    xs = _sample_grid(w, out_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    # widen only the rows the output samples, not the whole image
    above = img[:, y0].astype(np.float64)
    below = img[:, y1].astype(np.float64)
    top = above[:, :, x0] * (1 - fx) + above[:, :, x1] * fx
    bot = below[:, :, x0] * (1 - fx) + below[:, :, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(DTYPE)


def random_crop(img, size: int, rng: Rng) -> np.ndarray:
    """Uniform random size x size crop; the row offset is drawn before the column."""
    c, h, w = img.shape
    if size > h or size > w:
        raise ShapeError(f"crop size {size} exceeds image {h}x{w}")
    r = rng.integers(0, h - size + 1)
    col = rng.integers(0, w - size + 1)
    return img[:, r:r + size, col:col + size]


def random_crop_224(img, rng: Rng) -> np.ndarray:
    """Random 224x224 crop of a 3x256x256 image; offsets are uniform on [0,32]^2."""
    if img.shape != (3, FRAME_SIZE, FRAME_SIZE):
        raise ShapeError(f"random_crop_224 expects 3x{FRAME_SIZE}x{FRAME_SIZE}, got shape {img.shape}")
    return random_crop(img, CROP_SIZE, rng)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preprocessing:
    """Per-image pipeline: optional rescale, optional random crop, optional mean shift.

    ``rescale_to``/``crop_to`` of None (or 0) skip that stage, which is the
    path for datasets already at the network's input size. A crop is always
    random: fixed views belong to prediction (``predict.three_crops``).
    """

    rescale_to: Optional[int] = FRAME_SIZE
    crop_to: Optional[int] = CROP_SIZE
    random_crop: bool = True
    channel_means: Optional[tuple] = None

    def __post_init__(self):
        if self.crop_to and not self.random_crop:
            raise ParameterError(f"crop_to={self.crop_to} needs random_crop=True")

    @classmethod
    def for_input(cls, input_shape, channel_means) -> "Preprocessing":
        """The training pipeline of a network with this (C, H, W) input."""
        if tuple(input_shape[1:]) == (CROP_SIZE, CROP_SIZE):
            return cls(FRAME_SIZE, CROP_SIZE, True, channel_means)
        return cls(None, None, False, channel_means)


def apply_preprocessing(img, pre: Preprocessing, rng: Optional[Rng] = None):
    if pre.rescale_to:
        img = resize_bilinear(img, pre.rescale_to, pre.rescale_to)
    if pre.crop_to:
        if rng is None:
            raise ParameterError("random cropping needs an rng")
        img = random_crop(img, pre.crop_to, rng)
    if pre.channel_means is not None:
        img = img - np.asarray(pre.channel_means, dtype=DTYPE)[:, None, None]
    return img


def batches(manifest: DatasetManifest, batch_size: int, shuffle: bool = False,
            rng: Optional[Rng] = None, preprocessing: Preprocessing = Preprocessing()):
    """Yield (float32 Nx3xHxW tensor, label list) batches over the manifest.

    Record order follows the manifest, or a seeded permutation when shuffling;
    the final batch may be short. Each image is written straight into its
    batch's array, so while a batch is out only that array is held.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    n = len(manifest)
    if shuffle:
        if rng is None:
            raise ParameterError("shuffling needs an rng")
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        group = [manifest.records[int(idx)] for idx in order[start:start + batch_size]]
        for i, rec in enumerate(group):
            img = apply_preprocessing(decode_image(rec.path), preprocessing, rng)
            if i == 0:
                x = np.empty((len(group),) + img.shape, img.dtype)
            elif img.shape != x.shape[1:]:
                raise ShapeError(
                    f"{rec.path}: image shape {img.shape} differs from batch {x.shape[1:]}")
            x[i] = img
        yield x, [rec.label for rec in group]
        # a batch the consumer has dropped is not kept alive while the next is built
        del x
