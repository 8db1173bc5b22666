"""Binary checkpoint files: network spec + parameters + freeze mask + optimizer state.

Format (all integers little-endian, magic `ACNN`, version 1):

    offset  field
    0       magic, 4 bytes `ACNN`
    4       u32 version = 1
    8       u32 CRC-32 of every byte from offset 12 to end of file
    12      body (below)

Body:
    str     network name            (str = u16 byte length + UTF-8 bytes)
    u8      input rank, then u32 per input extent
    u32     layer count
    per layer:
        str name, str kind
        u16 hyperparameter count, then per entry: str name + f64 value
        u16 tensor count, then per tensor:
            str tensor name ("weight"/"bias"), u8 rank, u32 per extent,
            raw float32 values, row-major
    u8      freeze-mask flag; if 1: u32 entry count, then per entry:
            str layer name + u8 trainable
    u8      optimizer-state flag; if 1:
            f64 lr, f64 best accuracy, u32 epochs since improvement, u32 epoch,
            u32 velocity layer count, then per layer:
            str layer name, u16 tensor count, per tensor as above

Layer names key the chunks, so replacing the fully connected head of a
network does not invalidate files holding its convolutional trunk. The CRC
covers the whole body, so any single corrupted byte past the version field is
rejected, and the checksum outranks every other finding: a body whose parse
fails is read to its end, and if its CRC does not match, the load raises
"checksum mismatch" rather than the parse error. Both directions make one pass
over the file. The writer streams the body straight to disk and fills in the
header's CRC field last; the reader parses the fields in order and reads each
tensor's values from the file straight into its own array. Tensor values move
in pieces of PIECE_BYTES, and every body byte, in file order, is handed to one
helper thread that folds it into the CRC while the calling thread moves the
next piece. The pieces are views of the tensors, never copies, and the CRC is
compared before the content checks run and before any array is returned, so
the bytes checked are the bytes returned. Files are written to a temp path and
renamed into place (os.replace), so readers never observe a partial file, and
a reader holding the file open keeps reading the old one.
"""

from __future__ import annotations

import math
import os
import queue
import struct
import tempfile
import threading
import zlib

import numpy as np

from . import network as net
from .errors import ConfigError, FormatError, IntegrityError, ParameterError, ShapeError
from .layers import LayerSpec
from .optim import OptState

MAGIC = b"ACNN"
VERSION = 1
HEADER_SIZE = 12
MAX_RANK = 4  # conv weights; no tensor of any network has more axes
PIECE_BYTES = 8 << 20  # tensor values move to and from the file in pieces this size

_TENSOR_ORDER = ("weight", "bias")


def _check_content(spec, params, mask, state):
    """Params, freeze mask and any optimizer velocity must match the spec; the
    velocity covers exactly the trainable layers. Raises ConfigError or ShapeError."""
    net.validate_params(spec, params)
    net.check_mask(spec, mask)
    if state is not None:
        net.check_group(spec, "velocity", state.velocity, [n for n in mask if mask[n]])


class _Crc:
    """CRC-32 of the bytes given to it, folded in order on one helper thread.

    The helper runs nothing but ``zlib.crc32``, which releases the GIL on large
    pieces, so the calling thread reads or writes the next piece meanwhile. A
    fed piece must not change until ``value`` returns. Small fields are
    gathered and go to the helper as one piece before the next fed one. As a
    context manager it stops the helper on every exit path.
    """

    def __init__(self):
        self._pieces = queue.SimpleQueue()
        self._fields = bytearray()
        self._value = 0
        self._helper = threading.Thread(target=self._fold, name="checkpoint-crc", daemon=True)

    def __enter__(self):
        self._helper.start()
        return self

    def __exit__(self, *exc):
        self.value()

    def _fold(self):
        crc = 0
        while (piece := self._pieces.get()) is not None:
            crc = zlib.crc32(piece, crc)
        self._value = crc

    def add(self, field):
        self._fields += field

    def feed(self, piece):
        self._put_fields()
        self._pieces.put(piece)

    def _put_fields(self):
        if self._fields:
            self._pieces.put(self._fields)
            self._fields = bytearray()

    def value(self):
        """The CRC of all bytes given; stops the helper, so give nothing after."""
        if self._helper.is_alive():
            self._put_fields()
            self._pieces.put(None)
            self._helper.join()
        return self._value


def _pieces(array):
    """Views of a C-contiguous array's bytes, PIECE_BYTES each (the last shorter)."""
    flat = array.reshape(-1).view(np.uint8)
    return [flat[lo:lo + PIECE_BYTES] for lo in range(0, flat.size, PIECE_BYTES)]


class _Writer:
    """Mirror of _Reader: appends to an open file and gives all it wrote to a _Crc."""

    def __init__(self, fh, crc):
        self.fh = fh
        self.crc = crc

    def raw(self, data):
        self.fh.write(data)
        self.crc.add(data)

    def pack(self, fmt, *values):
        self.raw(struct.pack("<" + fmt, *values))

    def string(self, s):
        b = s.encode("utf-8")
        if len(b) > 0xFFFF:
            raise ParameterError(f"name too long to serialize: {s[:32]!r}...")
        self.pack("H", len(b))
        self.raw(b)

    def tensor_group(self, group):
        self.pack("H", len(_TENSOR_ORDER))
        for name in _TENSOR_ORDER:
            t = np.ascontiguousarray(group[name], dtype="<f4")
            self.string(name)
            self.pack(f"B{t.ndim}I", t.ndim, *t.shape)
            for piece in _pieces(t):
                self.fh.write(piece)
                self.crc.feed(piece)


def _write(fh, spec, params, mask, state):
    fh.write(MAGIC + struct.pack("<II", VERSION, 0))
    with _Crc() as crc:
        _write_body(_Writer(fh, crc), spec, params, mask, state)
    fh.seek(8)
    fh.write(struct.pack("<I", crc.value()))


def _write_body(out, spec, params, mask, state):
    out.string(spec.name)
    out.pack(f"B{len(spec.input_shape)}I", len(spec.input_shape), *spec.input_shape)
    out.pack("I", len(spec.layers))
    for layer in spec.layers:
        out.string(layer.name)
        out.string(layer.kind)
        hypers = sorted(layer.params.items())
        out.pack("H", len(hypers))
        for k, v in hypers:
            out.string(k)
            out.pack("d", float(v))
        if layer.has_params:
            out.tensor_group(params[layer.name])
        else:
            out.pack("H", 0)
    masked = [l.name for l in spec.parameterized()]
    out.pack("BI", 1, len(masked))
    for name in masked:
        out.string(name)
        out.pack("B", 1 if mask[name] else 0)
    if state is None:
        out.pack("B", 0)
    else:
        out.pack("BddII", 1, state.lr, state.best_accuracy,
                 state.epochs_since_improvement, state.epoch)
        trainable = [n for n in masked if mask[n]]
        out.pack("I", len(trainable))
        for name in trainable:
            out.string(name)
            out.tensor_group(state.velocity[name])


def save(spec, params, mask, path, state: OptState | None = None) -> None:
    """Write a checkpoint; identical inputs always produce identical bytes."""
    _check_content(spec, params, mask, state)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            _write(fh, spec, params, mask, state)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Parses the body of an open file in order and gives every byte it read,
    short reads included, to a _Crc."""

    def __init__(self, fh, size, path, crc):
        self.fh = fh
        self.size = size
        self.path = path
        self.crc = crc

    def checksum(self, to_end=False):
        """CRC of the body bytes read so far; with ``to_end``, of the rest of
        the file too, read and folded on the calling thread."""
        crc = self.crc.value()
        while to_end and (piece := self.fh.read(PIECE_BYTES)):
            crc = zlib.crc32(piece, crc)
        return crc

    def raw(self, n):
        piece = self.fh.read(n)
        self.crc.add(piece)
        if len(piece) != n:
            raise FormatError(f"{self.path}: truncated file")
        return piece

    def unpack(self, fmt):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def string(self):
        (n,) = self.unpack("H")
        try:
            return str(self.raw(n), "utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(f"{self.path}: undecodable name bytes") from None

    def tensor(self):
        name = self.string()
        (rank,) = self.unpack("B")
        if rank > MAX_RANK:
            raise IntegrityError(f"{self.path}: tensor {name!r} has rank {rank} > {MAX_RANK}")
        shape = self.unpack(f"{rank}I")
        if 4 * math.prod(shape) > self.size - self.fh.tell():
            raise IntegrityError(
                f"{self.path}: tensor {name!r} of shape {shape} overruns the file")
        # the one copy: from the file into the tensor's own float32 array
        data = np.empty(shape, "<f4")
        for piece in _pieces(data):
            got = self.fh.readinto(piece)
            self.crc.feed(piece[:got])
            if got != piece.size:
                raise FormatError(f"{self.path}: truncated file")
        return name, data

    def tensor_group(self):
        (count,) = self.unpack("H")
        return dict(self.tensor() for _ in range(count))


def _parse(cur, path):
    name = cur.string()
    (rank,) = cur.unpack("B")
    input_shape = cur.unpack(f"{rank}I")
    (layer_count,) = cur.unpack("I")
    layers, params = [], {}
    for _ in range(layer_count):
        lname = cur.string()
        kind = cur.string()
        hypers = {}
        for _ in range(cur.unpack("H")[0]):
            key = cur.string()
            (hypers[key],) = cur.unpack("d")
        try:
            # LayerSpec casts each value to the type its kind declares.
            layer = LayerSpec(lname, kind, hypers)
        except ParameterError as e:
            raise IntegrityError(f"{path}: bad layer record {lname!r}: {e}") from None
        layers.append(layer)
        group = cur.tensor_group()
        if group:
            params[lname] = group
    try:
        spec = net.NetworkSpec(name, input_shape, tuple(layers))
    except (ConfigError, ParameterError, ShapeError) as e:
        raise IntegrityError(f"{path}: invalid network record: {e}") from None

    mask = None
    if cur.unpack("B")[0]:
        mask = {}
        for _ in range(cur.unpack("I")[0]):
            # the name must be consumed before the flag byte
            mname = cur.string()
            mask[mname] = bool(cur.unpack("B")[0])
    state = None
    if cur.unpack("B")[0]:
        lr, best, stalled, epoch, vel_count = cur.unpack("ddIII")
        velocity = {}
        for _ in range(vel_count):
            vname = cur.string()
            velocity[vname] = cur.tensor_group()
        state = OptState(velocity=velocity, lr=lr, best_accuracy=best,
                         epochs_since_improvement=stalled, epoch=epoch)
    if cur.fh.tell() != cur.size:
        raise FormatError(f"{path}: {cur.size - cur.fh.tell()} unexpected trailing bytes")
    return spec, params, mask, state


def load(path):
    """Read a checkpoint back as (spec, params, mask, state-or-None)."""
    with open(path, "rb") as fh, _Crc() as crc:
        header = fh.read(HEADER_SIZE)
        if len(header) != HEADER_SIZE:
            raise FormatError(f"{path}: truncated file")
        magic, version, stored_crc = struct.unpack("<4sII", header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        cur = _Reader(fh, os.fstat(fh.fileno()).st_size, path, crc)
        try:
            spec, params, mask, state = _parse(cur, path)
        except (FormatError, IntegrityError):
            # a corrupt body reports as corrupt, whatever the parser tripped on
            if cur.checksum(to_end=True) != stored_crc:
                raise IntegrityError(f"{path}: checksum mismatch") from None
            raise
        if cur.checksum() != stored_crc:
            raise IntegrityError(f"{path}: checksum mismatch")
    if mask is None:
        mask = net.make_mask(spec, True)
    try:
        _check_content(spec, params, mask, state)
    except (ConfigError, ShapeError) as e:
        raise IntegrityError(f"{path}: {e}") from None
    return spec, params, mask, state


def import_trunk(path, target_spec):
    """Load from a file only the tensors for the target's convolutional trunk.

    Head tensors in the file are ignored, so a full model file doubles as a
    trunk donor. Every matching layer's shapes are cross-checked against the
    target spec; mismatches name the offending layer.
    """
    _, src_params, _, _ = load(path)
    trunk, _ = net.trunk_and_head(target_spec)
    found = [l.name for l in trunk if l.has_params and l.name in src_params]
    out = {name: src_params[name] for name in found}
    try:
        net.check_group(target_spec, "donor tensors", out, found)
    except (ConfigError, ShapeError) as e:
        raise IntegrityError(f"{path}: {e}") from None
    return out
