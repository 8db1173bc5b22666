import collections
import errno
import hashlib
import os
import struct
import threading
import zlib

import numpy as np
import pytest

from agecnn import (ConfigError, FormatError, IntegrityError, NetworkSpec,
                    OptState, Rng, SgdConfig, ShapeError, build_profile, head_replace,
                    import_trunk, init_params, init_state, load, make_mask,
                    save, train_epoch)
from agecnn import checkpoint
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
    ], ids=["integral-nan", "integral-inf", "lrn-k-nan", "renamed-weight", "rank-65",
            "count-wraps-int64", "mask-names-no-layer"])
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


class _FullDisk:
    """A file whose writes fail once ``limit`` bytes would be on disk."""

    def __init__(self, fh, limit):
        self.fh, self.limit = fh, limit

    def write(self, data):
        if self.fh.tell() + memoryview(data).nbytes > self.limit:
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

    def _fill_disk_after(self, monkeypatch, limit):
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FullDisk(real_fdopen(fd, mode), limit))

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
        assert any(ident != threading.get_ident() for _, ident in calls)

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
            "4d607e0e0d78853675b0754554a985ba954ea54072946a12b4fbc52111544f36", 152319)

    def test_mini_after_head_replace(self, tmp_path):
        spec, params, _ = mini_fixture()
        replaced = head_replace(spec, [32, 16, 8], params, Rng(0).derive(0))
        assert self._digest(tmp_path, *replaced) == (
            "878cb40181d47b931de09254f2a4fb61cb6e6c96f77536d4f39535c435d31f30", 152319)

    def test_mini_with_optimizer_state(self, tmp_path):
        spec, params, mask = mini_fixture()
        state = sample_state(params, mask)
        assert self._digest(tmp_path, spec, params, mask, state) == (
            "cf6f41978dfd748d2d3cf0781fc3047105797e46a0330d74a3f7386bd074a0af", 303680)


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
