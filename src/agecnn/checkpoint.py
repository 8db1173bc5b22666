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
rejected before parsing. Files are written to a temp path and renamed into
place, so readers never observe a partial file.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
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

_TENSOR_ORDER = ("weight", "bias")


def _u8(v):
    return struct.pack("<B", v)


def _u16(v):
    return struct.pack("<H", v)


def _u32(v):
    return struct.pack("<I", v)


def _f64(v):
    return struct.pack("<d", v)


def _str(s):
    b = s.encode("utf-8")
    if len(b) > 0xFFFF:
        raise ParameterError(f"name too long to serialize: {s[:32]!r}...")
    return _u16(len(b)) + b


def _tensor_bytes(name, t):
    out = _str(name) + _u8(t.ndim)
    for e in t.shape:
        out += _u32(e)
    return out + np.ascontiguousarray(t, dtype="<f4").tobytes()


def _tensor_group_bytes(group):
    names = [n for n in _TENSOR_ORDER if n in group]
    names += sorted(n for n in group if n not in _TENSOR_ORDER)
    out = _u16(len(names))
    for n in names:
        out += _tensor_bytes(n, group[n])
    return out


def _body_bytes(spec, params, mask, state):
    body = bytearray()
    body += _str(spec.name)
    body += _u8(len(spec.input_shape))
    for e in spec.input_shape:
        body += _u32(e)
    body += _u32(len(spec.layers))
    for layer in spec.layers:
        body += _str(layer.name) + _str(layer.kind)
        hypers = sorted(layer.params.items())
        body += _u16(len(hypers))
        for k, v in hypers:
            body += _str(k) + _f64(float(v))
        if layer.has_params:
            body += _tensor_group_bytes(params[layer.name])
        else:
            body += _u16(0)
    body += _u8(1)
    masked = [l.name for l in spec.layers if l.has_params]
    body += _u32(len(masked))
    for name in masked:
        body += _str(name) + _u8(1 if mask[name] else 0)
    if state is None:
        body += _u8(0)
    else:
        body += _u8(1)
        body += _f64(state.lr) + _f64(state.best_accuracy)
        body += _u32(state.epochs_since_improvement) + _u32(state.epoch)
        vel_names = [n for n in masked if n in state.velocity]
        body += _u32(len(vel_names))
        for name in vel_names:
            body += _str(name) + _tensor_group_bytes(state.velocity[name])
    return bytes(body)


def save(spec, params, mask, path, state: OptState | None = None) -> None:
    """Write a checkpoint; identical inputs always produce identical bytes."""
    net.validate_params(spec, params)
    if set(mask) != {l.name for l in spec.layers if l.has_params}:
        raise ConfigError("freeze mask does not cover the parameterized layers")
    body = _body_bytes(spec, params, mask, state)
    blob = MAGIC + _u32(VERSION) + _u32(zlib.crc32(body) & 0xFFFFFFFF) + body
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Cursor:
    def __init__(self, buf, path):
        self.buf = buf
        self.off = HEADER_SIZE
        self.path = path

    def take(self, n):
        if n < 0 or self.off + n > len(self.buf):
            raise FormatError(f"{self.path}: truncated file")
        piece = self.buf[self.off:self.off + n]
        self.off += n
        return piece

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def string(self):
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError(f"{self.path}: undecodable name bytes") from None

    def tensor(self):
        name = self.string()
        rank = self.u8()
        if rank > MAX_RANK:
            raise IntegrityError(f"{self.path}: tensor {name!r} has rank {rank} > {MAX_RANK}")
        shape = tuple(self.u32() for _ in range(rank))
        count = math.prod(shape)
        if 4 * count > len(self.buf) - self.off:
            raise IntegrityError(
                f"{self.path}: tensor {name!r} of shape {shape} overruns the file")
        raw = self.take(4 * count)
        data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        return name, data

    def tensor_group(self):
        return dict(self.tensor() for _ in range(self.u16()))


def _parse(buf, path):
    cur = _Cursor(buf, path)
    name = cur.string()
    rank = cur.u8()
    input_shape = tuple(cur.u32() for _ in range(rank))
    layer_count = cur.u32()
    layers, params = [], {}
    for _ in range(layer_count):
        lname = cur.string()
        kind = cur.string()
        hypers = {}
        for _ in range(cur.u16()):
            key = cur.string()
            hypers[key] = cur.f64()
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
    except (ConfigError, ParameterError) as e:
        raise IntegrityError(f"{path}: invalid network record: {e}") from None

    mask = None
    if cur.u8():
        mask = {}
        for _ in range(cur.u32()):
            # the name must be consumed before the flag byte
            mname = cur.string()
            mask[mname] = bool(cur.u8())
    state = None
    if cur.u8():
        lr = cur.f64()
        best = cur.f64()
        stalled = cur.u32()
        epoch = cur.u32()
        velocity = {}
        for _ in range(cur.u32()):
            vname = cur.string()
            velocity[vname] = cur.tensor_group()
        state = OptState(velocity=velocity, lr=lr, best_accuracy=best,
                         epochs_since_improvement=stalled, epoch=epoch)
    if cur.off != len(buf):
        raise FormatError(f"{path}: {len(buf) - cur.off} unexpected trailing bytes")
    return spec, params, mask, state


def load(path):
    """Read a checkpoint back as (spec, params, mask, state-or-None)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated file")
    if buf[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {buf[:4]!r}")
    version = struct.unpack("<I", buf[4:8])[0]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    stored_crc = struct.unpack("<I", buf[8:12])[0]
    if zlib.crc32(buf[HEADER_SIZE:]) & 0xFFFFFFFF != stored_crc:
        raise IntegrityError(f"{path}: checksum mismatch")

    spec, params, mask, state = _parse(buf, path)
    try:
        net.validate_params(spec, params)
    except (ConfigError, ShapeError) as e:
        raise IntegrityError(f"{path}: {e}") from None
    owned = {l.name for l in spec.layers if l.has_params}
    if mask is None:
        mask = {name: True for name in owned}
    elif set(mask) != owned:
        raise IntegrityError(f"{path}: freeze mask does not cover the parameterized layers")
    if state is not None:
        shapes = net.param_shapes(spec)
        for lname, group in state.velocity.items():
            if lname not in owned:
                raise IntegrityError(f"{path}: velocity for unknown layer {lname!r}")
            for tname, t in group.items():
                want = shapes[lname].get(tname)
                if want is None or t.shape != want:
                    raise IntegrityError(
                        f"{path}: velocity shape {t.shape} for {lname}.{tname} "
                        f"does not match parameter shape {want}")
    return spec, params, mask, state


def import_trunk(path, target_spec):
    """Load from a file only the tensors for the target's convolutional trunk.

    Head tensors in the file are ignored, so a full model file doubles as a
    trunk donor. Every matching layer's shapes are cross-checked against the
    target spec; mismatches name the offending layer.
    """
    _, src_params, _, _ = load(path)
    trunk, _ = net.trunk_and_head(target_spec)
    shapes = net.param_shapes(target_spec)
    out = {}
    for layer in trunk:
        if not layer.has_params or layer.name not in src_params:
            continue
        group = src_params[layer.name]
        for tname, want in shapes[layer.name].items():
            have = group.get(tname)
            if have is None or have.shape != want:
                raise IntegrityError(
                    f"{path}: layer {layer.name!r} tensor {tname!r} has shape "
                    f"{None if have is None else have.shape}, target needs {want}")
        out[layer.name] = {tname: group[tname] for tname in shapes[layer.name]}
    return out
