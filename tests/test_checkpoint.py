import collections
import errno
import hashlib
import itertools
import os
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from agecnn import (ConfigError, FormatError, IntegrityError, NetworkSpec,
                    OptState, Rng, SgdConfig, ShapeError, build_profile,
                    head_replace, import_trunk, init_params, init_state, load, make_mask,
                    save, train_epoch)
from agecnn import checkpoint, network
from agecnn.checkpoint import HEADER_SIZE, MAGIC, VERSION
from agecnn.cli import main
from agecnn.network import eval_scores, param_shapes

from conftest import traced_peak, write_dataset


def mini_fixture(seed=0):
    spec = build_profile("mini")
    params = init_params(spec, Rng(seed))
    mask = make_mask(spec, True)
    return spec, params, mask


def sample_state(params, mask, lr=0.01, best=0.25, stalled=1, epoch=3):
    velocity = {name: {t: (Rng(99).normal(a.shape) * 0.01).astype(np.float32)
                       for t, a in group.items()}
                for name, group in params.items() if mask[name]}
    return OptState(velocity=velocity, lr=lr, best_accuracy=best,
                    epochs_since_improvement=stalled, epoch=epoch)


def str_size(s):
    return 2 + len(s.encode("utf-8"))


def packed_str(s):
    """A str as the format lays it out: u16 byte length, then UTF-8 bytes."""
    b = s.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def saved_body(path, spec, params, mask, state=None):
    """Body bytes (everything after the header) of a file written by save."""
    save(spec, params, mask, path, state=state)
    return read_bytes(path)[HEADER_SIZE:]


def write_forged(path, body):
    """Write a body under a valid header, its CRC recomputed to match."""
    write_bytes(path, MAGIC + struct.pack("<II", VERSION, zlib.crc32(body)) + body)


def mutated_bodies(body, count, rng):
    """Forged bodies, taking turns: a byte flipped anywhere, a truncation, 1 to 8
    random bytes inserted, and a byte flipped among the first 600 (the network
    record: names, hyperparameters and the first tensor headers)."""
    for i in range(count):
        bad = bytearray(body)
        kind = i % 4
        if kind == 1:
            del bad[rng.integers(0, len(bad)):]
        elif kind == 2:
            at = rng.integers(0, len(bad) + 1)
            bad[at:at] = bytes(rng.integers(0, 256) for _ in range(rng.integers(1, 9)))
        else:
            bad[rng.integers(0, len(bad) if kind == 0 else 600)] ^= rng.integers(1, 256)
        yield bytes(bad)


def tensor_size(name, shape):
    return str_size(name) + 1 + 4 * len(shape) + 4 * int(np.prod(shape))


def expected_size(spec, state_present=False, state=None):
    """File size computed independently from the documented layout."""
    size = HEADER_SIZE
    size += str_size(spec.name)
    size += 1 + 4 * len(spec.input_shape)
    size += 4
    shapes = param_shapes(spec)
    for layer in spec.layers:
        size += str_size(layer.name) + str_size(layer.kind)
        size += 2
        for k in layer.params:
            size += str_size(k) + 8
        size += 2
        if layer.has_params:
            for tname, tshape in shapes[layer.name].items():
                size += tensor_size(tname, tshape)
    masked = [l.name for l in spec.layers if l.has_params]
    size += 1 + 4 + sum(str_size(n) + 1 for n in masked)
    size += 1
    if state_present:
        size += 8 + 8 + 4 + 4 + 4
        for name, group in state.velocity.items():
            size += str_size(name)
            size += 2
            for tname, t in group.items():
                size += tensor_size(tname, t.shape)
    return size


def assert_params_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert set(a[name]) == set(b[name])
        for tname in a[name]:
            assert a[name][tname].dtype == b[name][tname].dtype == np.float32
            assert np.array_equal(a[name][tname], b[name][tname])


class TestRoundtrip:
    def test_params_bit_identical(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        spec2, params2, mask2, state2 = load(path)
        assert spec2.name == spec.name
        assert spec2.input_shape == spec.input_shape
        assert [(l.name, l.kind, l.params) for l in spec2.layers] == \
               [(l.name, l.kind, l.params) for l in spec.layers]
        assert_params_equal(params, params2)
        assert mask2 == mask
        assert state2 is None

    def test_mixed_mask_roundtrips(self, tmp_path):
        spec, params, mask = mini_fixture()
        mask = {name: name.startswith("fc") for name in mask}
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        _, _, mask2, _ = load(path)
        assert mask2 == mask

    def test_state_roundtrips_including_negative_infinity(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask, best=float("-inf"))
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path, state=state)
        _, _, _, state2 = load(path)
        assert state2.lr == state.lr
        assert state2.best_accuracy == float("-inf")
        assert state2.epochs_since_improvement == state.epochs_since_improvement
        assert state2.epoch == state.epoch
        assert set(state2.velocity) == set(state.velocity)
        for name in state.velocity:
            for tname in state.velocity[name]:
                assert np.array_equal(state2.velocity[name][tname],
                                      state.velocity[name][tname])

    def test_save_twice_identical_bytes(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        a, b = str(tmp_path / "a.acnn"), str(tmp_path / "b.acnn")
        save(spec, params, mask, a, state=state)
        save(spec, params, mask, b, state=state)
        assert read_bytes(a) == read_bytes(b)

    def test_load_save_cycle_preserves_bytes(self, tmp_path):
        spec, params, mask = mini_fixture()
        a, b = str(tmp_path / "a.acnn"), str(tmp_path / "b.acnn")
        save(spec, params, mask, a, state=sample_state(params, mask))
        spec2, params2, mask2, state2 = load(a)
        save(spec2, params2, mask2, b, state=state2)
        assert read_bytes(a) == read_bytes(b)

    def test_custom_spec_roundtrips(self, tmp_path):
        from agecnn.layers import conv, fc, relu, softmax_loss
        spec = NetworkSpec("odd", (2, 6, 6), (
            conv("c", 4, kernel=3, stride=1, pad=1), relu("r"),
            fc("f", 3), softmax_loss()))
        params = init_params(spec, Rng(5))
        mask = make_mask(spec, True)
        path = str(tmp_path / "odd.acnn")
        save(spec, params, mask, path)
        spec2, params2, _, _ = load(path)
        assert spec2.input_shape == (2, 6, 6)
        assert_params_equal(params, params2)


class TestSizeArithmetic:
    def test_stateless_file_size(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        assert os.path.getsize(path) == expected_size(spec)

    def test_stateful_file_size(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path, state=state)
        assert os.path.getsize(path) == expected_size(spec, True, state)

    def test_header_layout(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        buf = read_bytes(path)
        assert buf[:4] == MAGIC == b"ACNN"
        assert struct.unpack("<I", buf[4:8])[0] == VERSION == 1
        crc = struct.unpack("<I", buf[8:12])[0]
        assert crc == zlib.crc32(buf[12:]) & 0xFFFFFFFF


class TestSaveValidation:
    def test_bad_params_rejected(self, tmp_path):
        spec, params, mask = mini_fixture()
        params["conv1_1"]["weight"] = params["conv1_1"]["weight"][:, :2]
        with pytest.raises(Exception):
            save(spec, params, mask, str(tmp_path / "m.acnn"))

    def test_incomplete_mask_rejected(self, tmp_path):
        spec, params, mask = mini_fixture()
        del mask["fc5"]
        with pytest.raises(ConfigError):
            save(spec, params, mask, str(tmp_path / "m.acnn"))

    def test_no_temp_files_left_behind(self, tmp_path):
        spec, params, mask = mini_fixture()
        save(spec, params, mask, str(tmp_path / "m.acnn"))
        assert sorted(os.listdir(tmp_path)) == ["m.acnn"]

    def test_empty_path_refused_before_a_temp_file(self, tmp_path, monkeypatch):
        # an empty path's directory would be the working directory's parent
        spec, params, mask = mini_fixture()
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        with pytest.raises(FileNotFoundError, match="an empty path names no file"):
            save(spec, params, mask, "")
        assert os.listdir(tmp_path) == ["work"] and os.listdir(tmp_path / "work") == []

    @pytest.mark.parametrize("cut", [lambda v: v.pop("fc5"), lambda v: v["fc5"].pop("bias")],
                             ids=["layer", "bias"])
    def test_partial_velocity_rejected(self, tmp_path, cut):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        cut(state.velocity)
        with pytest.raises(ConfigError):
            save(spec, params, mask, str(tmp_path / "m.acnn"), state=state)
        assert os.listdir(tmp_path) == []

    def test_misshaped_velocity_rejected(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        state.velocity["fc5"]["bias"] = np.zeros(3, np.float32)
        with pytest.raises(ShapeError, match="fc5"):
            save(spec, params, mask, str(tmp_path / "m.acnn"), state=state)
        assert os.listdir(tmp_path) == []

    def test_velocity_for_frozen_layer_rejected(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        mask["fc5"] = False
        with pytest.raises(ConfigError):
            save(spec, params, mask, str(tmp_path / "m.acnn"), state=state)

    @pytest.mark.parametrize("group, layer, tensor, make, got", [
        ("params", "conv1_1", "weight", lambda a: a.astype(np.float64), "dtype <f8"),
        ("params", "fc3", "weight", lambda a: a.astype(np.float16), "dtype <f2"),
        ("params", "conv2_1", "bias", lambda a: a.astype(">f4"), "dtype >f4"),
        ("params", "fc4", "weight", np.asfortranarray, "not C-contiguous"),
        ("params", "conv1_2", "weight", lambda a: np.repeat(a, 2, axis=1)[:, ::2],
         "not C-contiguous"),
        ("params", "fc5", "weight", lambda a: np.asmatrix(a.astype(np.float64)), "dtype <f8"),
        ("velocity", "fc4", "weight", lambda a: a.astype(np.float64), "dtype <f8")],
        ids=["float64", "float16", "big-endian", "fortran", "strided", "float64-matrix",
             "velocity-float64"])
    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_array_not_c_contiguous_float32_refused(self, tmp_path, group, layer, tensor,
                                                    make, got):
        # save writes arrays from their own memory and casts none
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        tensors = (params if group == "params" else state.velocity)[layer]
        tensors[tensor] = make(tensors[tensor])
        with pytest.raises(ConfigError) as info:
            save(spec, params, mask, str(tmp_path / "m.acnn"), state=state)
        assert str(info.value) == (
            f"{group} for layer {layer!r}: {tensor} is {got}, expected C-contiguous <f4; "
            "cast with np.ascontiguousarray(a, np.float32)")
        assert os.listdir(tmp_path) == []


class TestLoadRejections:
    def _saved(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        return path, read_bytes(path)

    def test_bad_magic(self, tmp_path):
        path, buf = self._saved(tmp_path)
        write_bytes(path, b"NOPE" + buf[4:])
        with pytest.raises(FormatError):
            load(path)

    def test_bad_version(self, tmp_path):
        path, buf = self._saved(tmp_path)
        write_bytes(path, buf[:4] + struct.pack("<I", 2) + buf[8:])
        with pytest.raises(FormatError):
            load(path)

    def test_truncations_rejected(self, tmp_path):
        path, buf = self._saved(tmp_path)
        for cut in (0, 3, 11, 12, len(buf) // 2, len(buf) - 1):
            write_bytes(path, buf[:cut])
            with pytest.raises((FormatError, IntegrityError)):
                load(path)

    def test_file_cut_in_place_during_the_pass(self, tmp_path, monkeypatch):
        # A file cut in place (save replaces, never cuts) after the reader has
        # parsed two tensors: the rest reads short, and the bytes read do not
        # match the stored CRC.
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path, state=sample_state(params, mask))
        size = os.path.getsize(path)
        real_tensor, parsed = checkpoint._Reader.tensor, []

        def tensor_then_cut(reader):
            parsed.append(real_tensor(reader))
            if len(parsed) == 2:
                os.truncate(path, size // 2)
            return parsed[-1]

        monkeypatch.setattr(checkpoint._Reader, "tensor", tensor_then_cut)
        got = []
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            got.append(load(path))
        assert len(parsed) >= 2 and got == []

    def test_header_fuzz_sweep(self, tmp_path):
        # every single-byte header corruption must be rejected cleanly
        path, buf = self._saved(tmp_path)
        for off in range(HEADER_SIZE):
            bad = bytearray(buf)
            bad[off] ^= 0xFF
            write_bytes(path, bytes(bad))
            if off < 8:
                with pytest.raises(FormatError):
                    load(path)
            else:
                with pytest.raises(IntegrityError):
                    load(path)

    def test_body_fuzz_checksum_catches_everything(self, tmp_path):
        path, buf = self._saved(tmp_path)
        for off in range(HEADER_SIZE, len(buf), 997):
            bad = bytearray(buf)
            bad[off] ^= 0x01
            write_bytes(path, bytes(bad))
            with pytest.raises(IntegrityError):
                load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path, buf = self._saved(tmp_path)
        write_forged(path, buf[HEADER_SIZE:] + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            load(path)

    def test_extent_corruption_with_fixed_checksum(self, tmp_path):
        # even when the checksum is recomputed to match, a corrupted tensor
        # extent must surface as a clean rejection rather than a crash
        path, buf = self._saved(tmp_path)
        needle = struct.pack("<H", 6) + b"weight" + b"\x04" + struct.pack(
            "<4I", 8, 3, 3, 3)
        at = buf.index(needle)
        bad = bytearray(buf)
        extent_off = at + len(needle) - 16
        bad[extent_off:extent_off + 4] = struct.pack("<I", 9)
        bad[8:12] = struct.pack("<I", zlib.crc32(bytes(bad[12:])) & 0xFFFFFFFF)
        write_bytes(path, bytes(bad))
        with pytest.raises((FormatError, IntegrityError)):
            load(path)

    @pytest.mark.parametrize("old, new", [
        (packed_str("kernel") + struct.pack("<d", 3.0),
         packed_str("kernel") + struct.pack("<d", float("nan"))),
        (packed_str("kernel") + struct.pack("<d", 3.0),
         packed_str("kernel") + struct.pack("<d", float("inf"))),
        (packed_str("k") + struct.pack("<d", 2.0),
         packed_str("k") + struct.pack("<d", float("nan"))),
        (packed_str("k") + struct.pack("<d", 2.0),
         packed_str("k") + struct.pack("<d", 0.0)),
        (packed_str("alpha") + struct.pack("<d", 1e-4),
         packed_str("alpha") + struct.pack("<d", -2.0)),
        (packed_str("weight"), packed_str("weigxt")),
        # fc3's bias record: rank 1, extent 32
        (packed_str("bias") + struct.pack("<BI", 1, 32),
         packed_str("bias") + struct.pack("<B65I", 65, *[1] * 65)),
        # 2^64 elements, which an int64 element count wraps to 0
        (packed_str("bias") + struct.pack("<BI", 1, 32),
         packed_str("bias") + struct.pack("<B4I", 4, *[2 ** 16] * 4)),
        # the freeze mask's last entry, then the no-state flag
        (packed_str("fc5") + struct.pack("<BB", 1, 0),
         packed_str("fc9") + struct.pack("<BB", 1, 0)),
    ], ids=["integral-nan", "integral-inf", "lrn-k-nan", "lrn-k-zero", "lrn-alpha-negative",
            "renamed-weight", "rank-65", "count-wraps-int64", "mask-names-no-layer"])
    def test_forged_body_with_fixed_checksum(self, tmp_path, capsys, old, new):
        path = str(tmp_path / "forged.acnn")
        body = saved_body(path, *mini_fixture())
        assert old in body
        write_forged(path, body.replace(old, new, 1))
        with pytest.raises(IntegrityError):
            load(path)
        assert main(["inspect", "--model", path]) == 1
        assert "forged.acnn" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load(str(tmp_path / "absent.acnn"))


class TestForgedBodies:
    """Seeded mutations of a file with optimizer state, the CRC recomputed each
    time, so that every forged body reaches the parser and the content checks."""

    def test_every_failure_is_typed(self, tmp_path):
        path = str(tmp_path / "forged.acnn")
        spec, params, mask = mini_fixture()
        body = saved_body(path, spec, params, mask, sample_state(params, mask))
        outcomes = collections.Counter()
        for bad in mutated_bodies(body, 500, Rng(2024)):
            write_forged(path, bad)
            try:
                load(path)
                outcomes["loaded"] += 1
            except (FormatError, IntegrityError) as e:
                outcomes[type(e).__name__] += 1
        # Moves with the checks: a dropped check loads more, a reordered one
        # trades FormatError for IntegrityError.
        assert outcomes == {"loaded": 225, "IntegrityError": 228, "FormatError": 47}

    def test_no_mask_record_loads_all_trainable(self, tmp_path):
        path = str(tmp_path / "m.acnn")
        spec, params, _ = mini_fixture()
        frozen = make_mask(spec, {"fc5"})
        body = saved_body(path, spec, params, frozen)
        record = struct.pack("<BI", 1, len(frozen)) + b"".join(
            packed_str(name) + bytes([trainable]) for name, trainable in frozen.items())
        assert body.endswith(record + b"\x00")
        write_forged(path, body[:-len(record) - 1] + b"\x00\x00")
        _, loaded, mask, state = load(path)
        assert mask == make_mask(spec, True)
        assert state is None
        assert_params_equal(loaded, params)


class TestPartialVelocity:
    """Files whose optimizer state misses a trainable tensor, forged from valid
    files with the CRC recomputed, must fail at load rather than mid-training."""

    def _velocity_without_layer(self, path):
        # a file with fc5 frozen has no fc5 velocity; mark fc5 trainable again
        spec, params, mask = mini_fixture()
        mask["fc5"] = False
        body = saved_body(path, spec, params, mask, sample_state(params, mask))
        frozen = packed_str("fc5") + b"\x00"
        assert body.count(frozen) == 1
        return body.replace(frozen, packed_str("fc5") + b"\x01")

    def _velocity_without_bias(self, path):
        # fc5's velocity group ends the file; drop its bias record
        spec, params, mask = mini_fixture()
        body = saved_body(path, spec, params, mask, sample_state(params, mask))
        bias = packed_str("bias") + struct.pack("<BI", 1, 8)
        cut = len(bias) + 4 * 8
        assert body[-cut:].startswith(bias)
        group = packed_str("fc5") + struct.pack("<H", 2)
        at = body.rindex(group)
        return (body[:at] + packed_str("fc5") + struct.pack("<H", 1)
                + body[at + len(group):-cut])

    @pytest.mark.parametrize("forge", ["_velocity_without_layer", "_velocity_without_bias"],
                             ids=["layer", "bias"])
    def test_load_rejects_and_train_exits_1(self, tmp_path, capsys, forge):
        path = str(tmp_path / "forged.acnn")
        write_forged(path, getattr(self, forge)(path))
        with pytest.raises(IntegrityError):
            load(path)
        manifest = write_dataset(str(tmp_path), 4, Rng(3))
        assert main(["train", "--model", path, "--train", manifest, "--val", manifest,
                     "--epochs", "1", "--batch-size", "4",
                     "--out", str(tmp_path / "out.acnn")]) == 1
        assert "forged.acnn" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out.acnn")


class TestRepeatedKey:
    """``save`` writes each key once. A file forged to repeat one, with the
    CRC recomputed, is refused rather than read with the last value winning."""

    def _hyperparameter(self, path):
        # conv1_1's first hyperparameter entry, written twice
        spec, params, mask = mini_fixture()
        body = saved_body(path, spec, params, mask)
        head = packed_str("conv1_1") + packed_str("conv")
        at = body.index(head) + len(head)
        (count,) = struct.unpack_from("<H", body, at)
        (key_len,) = struct.unpack_from("<H", body, at + 2)
        entry = body[at + 2:at + 2 + 2 + key_len + 8]
        return body[:at] + struct.pack("<H", count + 1) + entry + body[at + 2:]

    def _mask(self, path):
        # frozen conv1_1 named again as trainable
        spec, params, mask = mini_fixture()
        mask["conv1_1"] = False
        body = saved_body(path, spec, params, mask)
        old = struct.pack("<BI", 1, len(mask)) + packed_str("conv1_1") + b"\x00"
        assert body.count(old) == 1
        return body.replace(old, struct.pack("<BI", 1, len(mask) + 1) + packed_str("conv1_1")
                            + b"\x01" + packed_str("conv1_1") + b"\x00")

    def _velocity(self, path):
        # fc5's velocity group, which ends the file, written twice
        spec, params, mask = mini_fixture()
        body = saved_body(path, spec, params, mask, sample_state(params, mask))
        group = body[body.rindex(packed_str("fc5") + struct.pack("<H", 2)):]
        count = struct.pack("<I", len(mask)) + packed_str("conv1_1") + struct.pack("<H", 2)
        at = body.rindex(count)
        return body[:at] + struct.pack("<I", len(mask) + 1) + body[at + 4:] + group

    @pytest.mark.parametrize("forge, layer", [("_hyperparameter", "conv1_1"),
                                              ("_mask", "conv1_1"), ("_velocity", "fc5")])
    def test_load_and_inspect_refuse(self, tmp_path, capsys, forge, layer):
        path = str(tmp_path / "forged.acnn")
        write_forged(path, getattr(self, forge)(path))
        with pytest.raises(IntegrityError, match=rf"forged\.acnn: .*'{layer}'.* twice"):
            load(path)
        capsys.readouterr()
        assert main(["inspect", "--model", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "forged.acnn" in err


class _FullDisk:
    """A file whose writes fail once ``limit`` bytes would be on disk, each
    failing write after a stall of ``stall`` seconds."""

    def __init__(self, fh, limit, stall=0.0):
        self.fh, self.limit, self.stall = fh, limit, stall

    def write(self, data):
        if self.fh.tell() + memoryview(data).nbytes > self.limit:
            time.sleep(self.stall)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestOnePass:
    """load reads each byte once and save writes each byte once; one helper
    thread folds the body into the CRC meanwhile, and is gone when they end."""

    def _fill_disk_after(self, monkeypatch, limit, stall=0.0):
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: _FullDisk(real_fdopen(fd, mode), limit, stall))

    def _crc_calls(self, monkeypatch):
        real_crc32, calls = zlib.crc32, []

        def recording_crc32(data, value=0):
            calls.append((bytes(data), threading.get_ident()))
            return real_crc32(data, value)

        monkeypatch.setattr(zlib, "crc32", recording_crc32)
        return calls

    @pytest.mark.parametrize("op", ["load", "save"])
    def test_every_body_byte_folded_once_off_the_calling_thread(
            self, tmp_path, monkeypatch, op):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        body = saved_body(path, spec, params, mask, sample_state(params, mask))
        calls = self._crc_calls(monkeypatch)
        if op == "load":
            load(path)
        else:
            save(spec, params, mask, path, state=sample_state(params, mask))
        assert b"".join(data for data, _ in calls) == body
        assert all(ident != threading.get_ident() for _, ident in calls)

    @pytest.mark.parametrize("field", ["rank", "name-length"])
    def test_byte_that_fails_the_parse_is_a_checksum_mismatch(self, tmp_path, field):
        path = str(tmp_path / "m.acnn")
        body = bytearray(saved_body(path, *mini_fixture()))
        weight = body.index(packed_str("weight"))
        if field == "rank":
            body[weight + len(packed_str("weight"))] = 9  # > MAX_RANK
        else:
            body[weight:weight + 2] = struct.pack("<H", 0xFFFF)
        with open(path, "r+b") as fh:
            fh.seek(HEADER_SIZE)
            fh.write(body)
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            load(path)

    @pytest.mark.parametrize("field", ["rank", "name-length"])
    def test_corrupt_body_folded_off_the_calling_thread(self, tmp_path, monkeypatch, field):
        # the save and the failed load above, with every CRC-32 call recorded
        calls = self._crc_calls(monkeypatch)
        self.test_byte_that_fails_the_parse_is_a_checksum_mismatch(tmp_path, field)
        body = read_bytes(tmp_path / "m.acnn")[HEADER_SIZE:]
        folded = b"".join(data for data, _ in calls)
        assert len(folded) == 2 * len(body) and folded.endswith(body)
        assert all(ident != threading.get_ident() for _, ident in calls)

    def _writes(self, monkeypatch):
        """(offset, size, thread name) of every write to a file save opens, as it comes."""
        real_fdopen, writes = os.fdopen, []

        class Recording(_FullDisk):
            def write(self, data):
                writes.append((self.fh.tell(), memoryview(data).nbytes,
                               threading.current_thread().name))
                return self.fh.write(data)

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: Recording(real_fdopen(fd, mode), None))
        return writes

    @pytest.mark.parametrize("op", ["save", "surgery"])
    def test_every_body_byte_written_by_the_helper(self, tmp_path, monkeypatch, op):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        writes = self._writes(monkeypatch)
        if op == "save":
            save(spec, params, mask, path, state=sample_state(params, mask))
        else:
            assert main(["surgery", "--in", path, "--profile", "mini",
                         "--head", "512,16,8", "--out", path]) == 0
        body = [(at, n) for at, n, name in writes if name == "checkpoint-crc"]
        assert [(at, n) for at, n, name in writes if name != "checkpoint-crc"] == [
            (0, HEADER_SIZE), (8, 4)]
        ends = list(itertools.accumulate((n for _, n in body), initial=HEADER_SIZE))
        assert [at for at, _ in body] == ends[:-1]
        assert ends[-1] == os.path.getsize(path)

    def test_no_helper_thread_outlives_a_call(self, tmp_path, monkeypatch):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        before = set(threading.enumerate())
        save(spec, params, mask, path)
        load(path)
        buf = read_bytes(path)
        write_bytes(path, buf[:len(buf) // 2])
        with pytest.raises(IntegrityError):
            load(path)
        self._fill_disk_after(monkeypatch, 4096)
        with pytest.raises(OSError):
            save(spec, params, mask, path)
        assert set(threading.enumerate()) == before

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        old = read_bytes(path)
        self._fill_disk_after(monkeypatch, len(old) // 2)
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            save(spec, params, mask, path, state=sample_state(params, mask))
        assert os.listdir(tmp_path) == ["m.acnn"]
        assert read_bytes(path) == old

    def _surgery_in_time(self, monkeypatch, donor):
        """(exit code, stderr lines) of a mini surgery run on its own thread,
        which must end within 30 s, leaving no checkpoint thread or file."""
        monkeypatch.setattr(network, "DRAW_BLOCK", 1024)  # 512 pieces of fc3
        codes = []
        run = threading.Thread(target=lambda: codes.append(main([
            "surgery", "--in", donor, "--profile", "mini", "--head", "512,16,8",
            "--out", os.path.join(os.path.dirname(donor), "model.acnn")])), daemon=True)
        run.start()
        run.join(timeout=30)
        assert not run.is_alive()
        assert [t.name for t in threading.enumerate() if t.name.startswith("checkpoint-")] == []
        assert os.listdir(os.path.dirname(donor)) == ["donor.acnn"]
        return codes

    def _donor(self, tmp_path):
        spec, params, mask = mini_fixture()
        donor = str(tmp_path / "donor.acnn")
        save(spec, params, mask, donor)
        return donor

    def test_surgery_write_failing_on_the_helper_exits_1(self, tmp_path, monkeypatch, capsys):
        donor = self._donor(tmp_path)
        # halfway through fc3's weight, stalling until every buffer is given out
        self._fill_disk_after(monkeypatch, 1 << 20, stall=0.2)
        assert self._surgery_in_time(monkeypatch, donor) == [1]
        assert capsys.readouterr().err.splitlines() == [
            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]

    def test_surgery_draw_failing_exits_1(self, tmp_path, monkeypatch, capsys):
        donor = self._donor(tmp_path)
        real_fill, calls = network.gaussian_fill, []

        def failing_fill(*args, **kwargs):
            calls.append(1)
            if len(calls) == 100:
                raise OSError("draw failed")
            return real_fill(*args, **kwargs)

        monkeypatch.setattr(network, "gaussian_fill", failing_fill)
        assert self._surgery_in_time(monkeypatch, donor) == [1]
        assert capsys.readouterr().err.splitlines() == ["draw failed"]


    def test_surgery_draw_failing_on_the_helper_exits_1(self, tmp_path, monkeypatch, capsys):
        donor = self._donor(tmp_path)
        monkeypatch.setattr(network, "pool_size", lambda: 2)
        real_fill = network.gaussian_fill

        def failing_fill(*args, **kwargs):
            if threading.current_thread().name.startswith("agecnn-worker"):
                raise OSError("draw failed on the helper")
            time.sleep(0.001)  # the helper takes the other draw of the round meanwhile
            return real_fill(*args, **kwargs)

        monkeypatch.setattr(network, "gaussian_fill", failing_fill)
        assert self._surgery_in_time(monkeypatch, donor) == [1]
        assert capsys.readouterr().err.splitlines() == ["draw failed on the helper"]


class TestDrawOnWrite:
    """save draws a DrawnWeight block by block as it writes it, and the file
    is the one an eager head_replace and save write, on any pool and at any
    PIECE_BYTES."""

    @pytest.mark.parametrize("piece_bytes, block", [(None, None), (4 * 1000, 333), (4 * 7, 5)],
                             ids=["shipped", "1000-values-by-333", "7-values-by-5"])
    def test_same_bytes_as_eager(self, tmp_path, monkeypatch, piece_bytes, block):
        # pieces of piece_bytes / 4 values, fresh weights in blocks of block values
        if piece_bytes is not None:
            monkeypatch.setattr(checkpoint, "PIECE_BYTES", piece_bytes)
            monkeypatch.setattr(network, "DRAW_BLOCK", block)
        spec, params, _ = mini_fixture()
        files = []
        for draw in (False, True):
            files.append(str(tmp_path / f"{draw}.acnn"))
            save(*head_replace(spec, [64, 24, 8], params, Rng(0).derive(0),
                               draw_on_write=draw), files[-1])
        assert read_bytes(files[0]) == read_bytes(files[1])

    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    @pytest.mark.parametrize("piece_bytes, block, head", [
        (None, None, [5000, 24, 8]),     # fc3: one round of two whole blocks, then a short one
        (4 * 7, 1000, [64, 24, 8]),      # fc3: 33 rounds of 1000-value blocks, the last short
    ], ids=["shipped", "1000-values"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bytes_and_rng_on_any_pool(self, tmp_path, monkeypatch, reverse, workers,
                                            piece_bytes, block, head):
        # the eager file is saved at the shipped PIECE_BYTES, the drawn one at
        # the case's; a tiny DRAW_BLOCK moves every value, so it holds for both
        if block is not None:
            monkeypatch.setattr(network, "DRAW_BLOCK", block)
        spec, params, _ = mini_fixture()
        eager_rng, drawn_rng = Rng(0).derive(0), Rng(0).derive(0)
        eager, drawn = (str(tmp_path / f"{name}.acnn") for name in ("eager", "drawn"))
        save(*head_replace(spec, head, params, eager_rng), eager)
        if piece_bytes is not None:
            monkeypatch.setattr(checkpoint, "PIECE_BYTES", piece_bytes)
        with network.WorkerPool(workers) as pool:
            if reverse:  # each call's pieces handed out last first
                run = pool.run
                pool.run = lambda piece, pieces: run(piece, pieces[::-1])
            save(*head_replace(spec, head, params, drawn_rng, draw_on_write=True), drawn,
                 pool=pool)
        assert read_bytes(eager) == read_bytes(drawn)
        # each block comes from a stream derived from the rng, not from the rng
        untouched = Rng(0).derive(0).normal((4,)).tobytes()
        assert drawn_rng.normal((4,)).tobytes() == eager_rng.normal((4,)).tobytes() == untouched

    def test_second_save_writes_the_same_bytes(self, tmp_path):
        spec, params, _ = mini_fixture()
        replaced = head_replace(spec, [64, 24, 8], params, Rng(0).derive(0), draw_on_write=True)
        files = [str(tmp_path / f"{i}.acnn") for i in range(2)]
        for path in files:
            save(*replaced, path)
        assert read_bytes(files[0]) == read_bytes(files[1])


class TestFormatGolden:
    """Pinned file digests: any change to hyperparameter encoding or layer order shows."""

    def _digest(self, tmp_path, spec, params, mask, state=None):
        path = str(tmp_path / "golden.acnn")
        save(spec, params, mask, path, state=state)
        with open(path, "rb") as fh:
            blob = fh.read()
        return hashlib.sha256(blob).hexdigest(), len(blob)

    def test_mini_init(self, tmp_path):
        assert self._digest(tmp_path, *mini_fixture()) == (
            "7fdf53d6943161ef53b6893313285d27765b569b7cc517ef4a3632cd1081ba6b", 152319)

    @pytest.mark.parametrize("piece_bytes", [None, 4 * 7],
                             ids=["float32-shipped", "float32-7-values"])
    def test_mini_init_converted(self, tmp_path, monkeypatch, piece_bytes):
        # float32 arrays are written as views of their memory; at 7 values
        # the pieces start and end mid-row
        if piece_bytes is not None:
            monkeypatch.setattr(checkpoint, "PIECE_BYTES", piece_bytes)
        spec, params, mask = mini_fixture()
        assert self._digest(tmp_path, spec, params, mask) == (
            "7fdf53d6943161ef53b6893313285d27765b569b7cc517ef4a3632cd1081ba6b", 152319)

    def test_mini_after_head_replace(self, tmp_path):
        spec, params, _ = mini_fixture()
        replaced = head_replace(spec, [32, 16, 8], params, Rng(0).derive(0))
        assert self._digest(tmp_path, *replaced) == (
            "2fb6bb688d10c964504b8701e4c58f2d50e2ed38f7e9355986c4dc890055e0de", 152319)

    def test_mini_after_head_replace_drawn_on_write(self, tmp_path):
        spec, params, _ = mini_fixture()
        replaced = head_replace(spec, [32, 16, 8], params, Rng(0).derive(0), draw_on_write=True)
        assert self._digest(tmp_path, *replaced) == (
            "2fb6bb688d10c964504b8701e4c58f2d50e2ed38f7e9355986c4dc890055e0de", 152319)

    def test_mini_with_optimizer_state(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        assert self._digest(tmp_path, spec, params, mask, state) == (
            "54b4b7951f147d62bf8c3a455b33c4afa3660598c68e2f166d5492a45c1c0b4a", 303680)


class TestMemory:
    """save streams the body to disk and holds no copy of it; load reads each
    tensor straight into its own array and holds no copy of the file (bounds:
    multiples of the file size)."""

    def test_traced_peaks(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        path = str(tmp_path / "m.acnn")
        save_peak, _ = traced_peak(lambda: save(spec, params, mask, path, state=state))
        load_peak, _ = traced_peak(lambda: load(path))
        size = os.path.getsize(path)
        assert save_peak < 0.5 * size
        assert load_peak < 1.3 * size

    def test_surgery_peak_does_not_grow_with_the_head(self, tmp_path, monkeypatch):
        # at 64 KB pieces both first fc weights (256 KB and 8 MB) span many pieces
        monkeypatch.setattr(checkpoint, "PIECE_BYTES", 64 << 10)
        monkeypatch.setattr(network, "DRAW_BLOCK", (64 << 10) // 4)
        spec, params, mask = mini_fixture()
        donor = str(tmp_path / "donor.acnn")
        save(spec, params, mask, donor)

        def surgery(width):
            return main(["surgery", "--in", donor, "--profile", "mini",
                         "--head", f"{width},16,8", "--out", str(tmp_path / "model.acnn")])

        assert surgery(64) == 0  # first-call set-up outside the traced runs
        peaks = {}
        for width in (64, 2048):
            peaks[width], code = traced_peak(lambda: surgery(width))
            assert code == 0
        assert abs(peaks[2048] - peaks[64]) < checkpoint.PIECE_BYTES
        assert peaks[2048] < 4 * 1024 * 2048  # fc3's weight is never held whole

    def test_one_piece_drawn_weight_makes_one_buffer(self, tmp_path):
        # fc3's 2 MB weight is one piece; a ring of four of it would be 8 MB
        spec, params, _ = mini_fixture()
        replaced = head_replace(spec, [512, 16, 8], params, Rng(0).derive(0), draw_on_write=True)
        weight = replaced[1]["fc3"]["weight"]
        assert weight.size <= network.DRAW_BLOCK
        peak, _ = traced_peak(lambda: save(*replaced, str(tmp_path / "m.acnn")))
        assert 4 * weight.size <= peak < 2 * 4 * weight.size

    @pytest.mark.parametrize("workers, bound", [(1, 3), (2, 5)])
    def test_drawn_weight_ring_is_two_rounds_of_the_pool(self, tmp_path, monkeypatch, workers,
                                                         bound):
        # fc3's 2 MB weight spans 16 blocks; the ring holds two rounds of one
        # block per worker, so its blocks, not the weight, bound the peak
        monkeypatch.setattr(network, "DRAW_BLOCK", 2**15)
        spec, params, _ = mini_fixture()
        replaced = head_replace(spec, [512, 16, 8], params, Rng(0).derive(0), draw_on_write=True)
        assert replaced[1]["fc3"]["weight"].size == 16 * network.DRAW_BLOCK
        block = 4 * network.DRAW_BLOCK
        with network.WorkerPool(workers) as pool:
            peak, _ = traced_peak(lambda: save(*replaced, str(tmp_path / "m.acnn"), pool=pool))
        assert peak < bound * block + (64 << 10)

    def test_loaded_tensors_are_plain_float32_arrays(self, tmp_path):
        # sgd_step updates params and velocity in place after a resume
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path, state=sample_state(params, mask))
        _, got, _, state = load(path)
        for group in [*got.values(), *state.velocity.values()]:
            for t in group.values():
                assert t.dtype == np.float32 and t.dtype.isnative
                assert t.flags.writeable and t.flags.aligned and t.flags.c_contiguous
                assert t.flags.owndata


class TestImportTrunk:
    def test_full_model_file_serves_as_trunk_donor(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        got = import_trunk(path, spec)
        conv_names = {l.name for l in spec.layers
                      if l.has_params and l.kind == "conv"}
        assert set(got) == conv_names
        assert not any(name.startswith("fc") for name in got)
        for name in got:
            for tname in got[name]:
                assert np.array_equal(got[name][tname], params[name][tname])

    def test_wrong_channel_count_names_layer(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        from agecnn.layers import conv, fc, maxpool, relu, softmax_loss
        other = NetworkSpec("wider", spec.input_shape, (
            conv("conv1_1", 12, kernel=3, stride=1, pad=1), relu("relu1_1"),
            maxpool("pool1"), fc("fc2", 8), softmax_loss()))
        with pytest.raises(IntegrityError) as err:
            import_trunk(path, other)
        assert "conv1_1" in str(err.value) and "weight" in str(err.value)

    def test_imported_trunk_evaluates_identically(self, tmp_path):
        spec, params, mask = mini_fixture()
        path = str(tmp_path / "m.acnn")
        save(spec, params, mask, path)
        merged = dict(init_params(spec, Rng(77)))
        merged.update(import_trunk(path, spec))
        for name in merged:
            if not name.startswith("fc"):
                merged[name] = params[name]
        head_src = init_params(spec, Rng(77))
        direct = {name: (params[name] if not name.startswith("fc")
                         else head_src[name]) for name in params}
        x = Rng(78).uniform((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(eval_scores(spec, merged, x),
                              eval_scores(spec, direct, x))


class TestResumeEquivalence:
    def test_resume_matches_uninterrupted_training(self, tmp_path):
        spec, params, mask = mini_fixture(seed=2)
        cfg = SgdConfig(lr0=0.01, batch_size=4)
        state = init_state(params, mask, cfg)

        def batch_stream(epoch):
            rng = Rng(500).derive(epoch)
            xs = rng.uniform((8, 3, 32, 32)).astype(np.float32)
            ys = np.arange(8) % 8
            return [(xs[:4], ys[:4]), (xs[4:], ys[4:])]

        p, s = params, state
        for epoch in range(2):
            p, s, _ = train_epoch(spec, p, mask, s, cfg, batch_stream(epoch),
                                  Rng(600).derive(epoch))
        path = str(tmp_path / "ck.acnn")
        save(spec, p, mask, path, state=s)

        # straight-through: one more epoch without the roundtrip
        p3, s3, _ = train_epoch(spec, p, mask, s, cfg, batch_stream(2),
                                Rng(600).derive(2))
        # resumed: reload then run the same epoch
        spec_r, p_r, mask_r, s_r = load(path)
        p4, s4, _ = train_epoch(spec_r, p_r, mask_r, s_r, cfg, batch_stream(2),
                                Rng(600).derive(2))
        for name in p3:
            for tname in p3[name]:
                assert p3[name][tname].tobytes() == p4[name][tname].tobytes()
        for name in s3.velocity:
            for tname in s3.velocity[name]:
                assert s3.velocity[name][tname].tobytes() == \
                    s4.velocity[name][tname].tobytes()
