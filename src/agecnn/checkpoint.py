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
"checksum mismatch" rather than the parse error.

Both directions make one pass over the file and keep one rule for body
bytes: every one goes to one helper thread (``_Crc``), in file order, as it
comes. In save the helper is the only thread that writes the body: the
calling thread makes the bytes (packs each field, cuts each tensor into
pieces) and touches the file only for the 12-byte header before the body
and the CRC after it; the helper writes each piece, folds it into the CRC
and hands it back. A tensor's pieces take one route per source. An array
(from ``load``, ``init_params``, ``init_state`` or the SGD step) is
C-contiguous little-endian float32, and its pieces are views of its own
memory, PIECE_BYTES each; ``save`` refuses any other array before it makes a
file. A ``network.DrawnWeight`` (surgery's fresh head) is drawn on the save's
worker pool, one block (``network.DRAW_BLOCK`` values) to a piece, each from
its own keyed stream, a round of ``pool.workers`` blocks at a time into a
ring of at most DRAW_BUFFERS reused buffers, while the helper writes the
rounds before; its bytes do not depend on the pool or on PIECE_BYTES. In
load the calling thread parses the fields in order and reads each tensor's
values from the file straight into its own array, and the helper folds
every byte read, the rest of a file whose parse failed included. The CRC is
compared before the content checks run and before any array is returned, so
the bytes checked are the bytes returned. Files are written by
``atomic_open``, as eval's report is: to a temp path, renamed into place
(os.replace), so readers never observe a partial file, and a reader holding
it keeps the old one.
"""

from __future__ import annotations

import contextlib
import errno
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
DRAW_BUFFERS = 4  # most ring buffers a DrawnWeight is drawn into; a round of two
                  # blocks is drawn while the helper writes the two before

_TENSOR_ORDER = ("weight", "bias")


def _check_content(spec, params, mask, state):
    """Params, freeze mask and any optimizer velocity must match the spec, the
    velocity cover exactly the trainable layers, and each tensor be a
    C-contiguous <f4 array or a DrawnWeight. Raises ConfigError or ShapeError."""
    net.check_group(spec, "params", params, [l.name for l in spec.parameterized()])
    net.check_mask(spec, mask)
    groups = {"params": params}
    if state is not None:
        net.check_group(spec, "velocity", state.velocity, [n for n in mask if mask[n]])
        groups["velocity"] = state.velocity
    for what, group in groups.items():
        for name, tensors in group.items():
            for tname, t in tensors.items():
                if isinstance(t, net.DrawnWeight) or (
                        isinstance(t, np.ndarray) and t.dtype == "<f4" and t.flags.c_contiguous):
                    continue
                got = (f"a {type(t).__name__}" if not isinstance(t, np.ndarray) else
                       f"dtype {t.dtype.str}" if t.dtype != "<f4" else "not C-contiguous")
                raise ConfigError(f"{what} for layer {name!r}: {tname} is {got}, expected "
                                  "C-contiguous <f4; cast with np.ascontiguousarray(a, np.float32)")


class _Crc:
    """CRC-32 of the bytes given to it, folded in order on one helper thread.

    Every body byte goes through ``give``, in file order, as it comes. Given
    a file (save), the helper is the only thread that writes the body: it
    writes each piece, folds it, then hands it back through the piece's
    ``release``. Without one (load), it only folds. The helper runs little
    but ``fh.write`` and ``zlib.crc32``, which release the GIL on large
    pieces, so the calling thread reads or makes the next piece meanwhile.
    A given piece must not change until it is handed back. As a context
    manager it stops the helper on every exit path; a helper that cannot
    start raises ResourceError.

    A write that fails on the helper is raised on the calling thread by
    ``check`` or ``value``. The helper writes and folds nothing after it, but
    still releases every later piece, so a caller waiting for a released
    buffer never waits forever.
    """

    def __init__(self, fh=None):
        self._fh = fh
        self._pieces = queue.SimpleQueue()
        self._value = 0
        self._failure = None
        self._helper = threading.Thread(target=self._fold, name="checkpoint-crc", daemon=True)

    def __enter__(self):
        net.started("checkpoint-crc", self._helper.start)
        return self

    def __exit__(self, *exc):
        self._stop()

    def _fold(self):
        crc = 0
        while (job := self._pieces.get()) is not None:
            crc = self._take(crc, *job)
            del job  # a piece read or drawn is freed, not held until the next one
        self._value = crc

    def _take(self, crc, piece, release):
        if self._failure is None:
            try:
                if self._fh is not None:
                    self._fh.write(piece)
                crc = zlib.crc32(piece, crc)
            except Exception as e:  # raised on the calling thread by check()
                self._failure = e
        if release is not None:
            release()
        return crc

    def give(self, piece, release=None):
        """Have the helper write ``piece`` (given a file) and fold it, then
        call ``release()``, if given."""
        self._pieces.put((piece, release))

    def _stop(self):
        if self._helper.is_alive():
            self._pieces.put(None)
            self._helper.join()

    def check(self):
        """Raise the helper's failed write, if one failed."""
        if self._failure is not None:
            raise self._failure

    def value(self):
        """The CRC of all bytes given; stops the helper, so give nothing after."""
        self._stop()
        self.check()
        return self._value


def _pieces(array):
    """Views of a C-contiguous array's bytes, PIECE_BYTES each (the last shorter)."""
    flat = array.reshape(-1).view(np.uint8)
    return [flat[lo:lo + PIECE_BYTES] for lo in range(0, flat.size, PIECE_BYTES)]


class _Writer:
    """Mirror of _Reader: makes the body's bytes in file order and gives them
    to a _Crc, whose helper writes them. DrawnWeights are drawn on ``pool``."""

    def __init__(self, crc, pool):
        self.crc = crc
        self.pool = pool

    def pack(self, fmt, *values):
        self.crc.give(struct.pack("<" + fmt, *values))

    def string(self, s):
        b = s.encode("utf-8")
        if len(b) > 0xFFFF:
            raise ParameterError(f"name too long to serialize: {s[:32]!r}...")
        self.pack("H", len(b))
        self.crc.give(b)

    def tensor_group(self, group):
        self.pack("H", len(_TENSOR_ORDER))
        for name in _TENSOR_ORDER:
            t = group[name]
            self.string(name)
            self.pack(f"B{len(t.shape)}I", len(t.shape), *t.shape)
            if isinstance(t, net.DrawnWeight):
                self.draw(t)
            else:
                for piece in _pieces(t):
                    self.crc.give(piece)

    def draw(self, t):
        """Give a DrawnWeight as float32 pieces in row-major order, one of its
        blocks (``network.DRAW_BLOCK`` values) to a piece, drawn a round of
        ``pool.workers`` blocks at a time on the pool into at most
        DRAW_BUFFERS reused buffers, while the helper writes and folds the
        rounds before."""
        step = max(1, min(net.DRAW_BLOCK, t.size))
        count = -(-t.size // step)
        free = queue.SimpleQueue()
        buffers = min(DRAW_BUFFERS, count)
        for _ in range(buffers):
            free.put(np.empty(step, "<f4"))

        def make(j, worker):
            t.block(first + j, pieces[j])

        per_round = min(self.pool.workers, buffers)
        for first in range(0, count, per_round):
            made = []
            for _ in range(min(per_round, count - first)):
                made.append(free.get())
                self.crc.check()
            pieces = [buf[:t.size - i * step] for i, buf in enumerate(made, first)]
            self.pool.run(make, len(pieces))
            for buf, piece in zip(made, pieces):
                self.crc.give(piece.view(np.uint8), lambda buf=buf: free.put(buf))
        for _ in range(buffers):
            free.get()  # every buffer is handed back before the next tensor makes its own
        self.crc.check()


def _write(fh, spec, params, mask, state, pool):
    fh.write(MAGIC + struct.pack("<II", VERSION, 0))
    with _Crc(fh) as crc:
        _write_body(_Writer(crc, pool), spec, params, mask, state)
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


def temp_beside(path):
    """(fd, path) of a new temp file beside ``path``, which ``atomic_open``
    renames onto it. A directory at ``path`` is refused, and an OSError of
    making the temp file names ``path``. An empty path, whose directory would
    be the working directory's parent, is refused."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "an empty path names no file", path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


@contextlib.contextmanager
def atomic_open(path):
    """A binary file open on a temp file beside ``path`` (``temp_beside``,
    so a bad path fails before anything is written), renamed onto ``path``
    (os.replace) if the ``with`` block ends cleanly and removed if it
    raises. An OSError of the rename names ``path``."""
    fd, tmp = temp_beside(path)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise OSError(e.errno, e.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def save(spec, params, mask, path, state: OptState | None = None, pool=None) -> None:
    """Write a checkpoint; identical inputs always produce identical bytes.

    Each tensor is a C-contiguous little-endian float32 array, written from
    its own memory, or a ``network.DrawnWeight``, drawn on the workers of
    ``pool`` (a ``network.WorkerPool``, or a one-worker pool for the call)
    with the same bytes at any pool size and on every save. Any other tensor
    is a ConfigError before a file is made.
    """
    _check_content(spec, params, mask, state)
    with atomic_open(path) as fh, net.pool_for_call(pool) as pool:
        _write(fh, spec, params, mask, state, pool)


class _Reader:
    """Parses the body of an open file in order and gives every byte it read,
    short reads included, to a _Crc."""

    def __init__(self, fh, size, path, crc):
        self.fh = fh
        self.size = size
        self.path = path
        self.crc = crc

    def checksum(self):
        """CRC of the whole body: the bytes read so far and the rest of the
        file, read one piece at a time and each folded on the helper before
        the next is read. After a whole parse no byte is left to read, since
        ``_parse`` refuses trailing bytes."""
        folded = threading.Semaphore(0)
        for _ in range(self.fh.tell(), self.size, PIECE_BYTES):
            self.crc.give(self.fh.read(PIECE_BYTES), folded.release)
            folded.acquire()
        return self.crc.value()

    def raw(self, n):
        piece = self.fh.read(n)
        self.crc.give(piece)
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
            self.crc.give(piece[:got])
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
            if cur.checksum() != stored_crc:
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
