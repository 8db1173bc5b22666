"""Property tests at the input boundaries the CLI reads: checkpoint bodies and
PPM images, mutated; manifest rows, config files and argv, drawn. Each case
either loads, decodes or runs, or fails as an EngineError; through
``cli.main`` it exits 0, 1 or 2, a failure that exits 1 prints one line on
stderr, and argparse's own usage error (``SystemExit(2)``) is a typed
failure too. The argv drawn names only ``inspect``, ``predict`` and
``eval`` on the tiny files here, with bounded values. One more property
covers how ``save`` casts a tensor that is not ready bytes.

Hypothesis draws the cases with ``derandomize=True`` and no example
database, so every run tries the same cases in the same order.
"""

import contextlib
import io
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecnn import EngineError, NetworkSpec, OptState, Rng, init_params, load, make_mask, save
from agecnn import checkpoint
from agecnn.checkpoint import HEADER_SIZE, MAGIC, VERSION
from agecnn.cli import main
from agecnn.data import AGE_LABELS, load_manifest, read_ppm, write_ppm
from agecnn.layers import conv, dropout, fc, lrn, maxpool, relu, softmax_loss


def seeded(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


# A network with one layer of each kind, small enough that most of its
# checkpoint is structure (names, extents, hyperparameters, flags) rather
# than tensor values. Its input is the test image's size, so predict takes
# the image as it is.
IMAGE_SHAPE = (3, 6, 4)


def tiny_spec():
    return NetworkSpec("tiny", IMAGE_SHAPE, (
        conv("c1", 2), relu("r1"), lrn("n1", n=3), maxpool("p1"), fc("f1", 4), relu("r2"),
        dropout("d1", 0.5), fc("f2", 8), softmax_loss()))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of a saved tiny checkpoint (with velocity), an image of its
    input size and a listing naming it, and the checkpoint and image bytes."""
    root = tmp_path_factory.mktemp("properties")
    spec = tiny_spec()
    params = init_params(spec, Rng(0), std=0.3)
    mask = make_mask(spec, {"f1", "f2"})
    velocity = {name: {t: np.full(a.shape, 0.01, np.float32) for t, a in group.items()}
                for name, group in params.items() if mask[name]}
    state = OptState(velocity=velocity, lr=0.01, best_accuracy=0.25,
                     epochs_since_improvement=1, epoch=3)
    model, image = root / "model.acnn", root / "image.ppm"
    save(spec, params, mask, str(model), state=state)
    write_ppm(str(image), Rng(1).uniform(IMAGE_SHAPE) * 255)
    listing = root / "images.txt"
    listing.write_text(f"{image}\n")
    manifest = root / "test.csv"
    manifest.write_text(f"path,label\n{image.name},{AGE_LABELS[2]}\n")
    config = root / "test.cfg"
    config.write_text("seed = 3\naverage = score\n")
    return {"dir": root, "model": model.read_bytes(), "image": image.read_bytes(),
            "model_path": str(model), "image_path": str(image), "listing": str(listing),
            "manifest": str(manifest), "config": str(config)}


# Values a field may be forged to: the edges of a u32 count or extent, and
# the f64 values a hyperparameter or optimizer field must survive.
SPECIAL_U32 = (0, 1, 2, 3, 4, 255, 256, 0xFFFF, 0x10000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
SPECIAL_F64 = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 0.5, -1.0, 3.0,
               2.0 ** 31, 2.0 ** 53, 1e308, -1e308)
# Text a PPM header token or separator may be forged to.
SPECIAL_TEXT = (b"0", b"-1", b"+7", b"1_0", b"4097", b"256", b"1e3", b"9" * 24, b" ", b"\n",
                b"#", b"# x\n", b"\t\r", b"\xd9\xa3")


@st.composite
def mutated(draw, data, head):
    """``data`` after one edit: a bit flip, a cut, 1 to 8 inserted bytes or
    a special text, or a special u32, f64 or byte written over the bytes at
    one offset. Half the edits land in the first ``head`` bytes."""
    buf = bytearray(data)
    end = draw(st.sampled_from((min(head, len(buf)), len(buf))))
    at = draw(st.integers(0, max(0, end - 1)))
    edit = draw(st.sampled_from(("flip", "cut", "insert", "u32", "f64", "byte")))
    if edit == "flip":
        buf[at] ^= 1 << draw(st.integers(0, 7))
    elif edit == "cut":
        del buf[at:]
    elif edit == "insert":
        buf[at:at] = draw(st.binary(min_size=1, max_size=8) | st.sampled_from(SPECIAL_TEXT))
    elif edit == "u32":
        buf[at:at + 4] = struct.pack("<I", draw(st.sampled_from(SPECIAL_U32)))
    elif edit == "f64":
        buf[at:at + 8] = struct.pack("<d", draw(st.sampled_from(SPECIAL_F64)))
    else:
        buf[at] = draw(st.sampled_from((0, 1, 2, 5, 0x7F, 0x80, 0xFF)))
    return bytes(buf)


def forge(files, body):
    """Write ``body`` under a valid header with its CRC recomputed; return the path."""
    path = files["dir"] / "forged.acnn"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, zlib.crc32(body)) + body)
    return str(path)


def run_cli(argv):
    """(exit code, stdout, stderr lines) of one ``cli.main`` call; argparse's
    usage error gives its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue().splitlines()


def assert_typed_exit(code, err):
    """Exit 0, 1 or 2; an exit 1 prints exactly one stderr line."""
    assert code in (0, 1, 2), (code, err)
    assert code != 1 or len(err) == 1, err


def body_of(files):
    return files["model"][HEADER_SIZE:]


class TestCheckpointBody:
    """A CRC-valid body, mutated: the CRC cannot catch it, so the parser must."""

    @seeded(300)
    @given(data=st.data())
    def test_loads_or_raises_an_engine_error(self, files, data):
        path = forge(files, data.draw(mutated(body_of(files), head=400)))
        try:
            load(path)
        except EngineError:
            pass

    @seeded(60)
    @given(data=st.data())
    def test_cli_exits_1_with_one_line_or_succeeds(self, files, data):
        path = forge(files, data.draw(mutated(body_of(files), head=400)))
        code, out, err = run_cli(["inspect", "--model", path])
        assert (code, len(err)) in ((0, 0), (1, 1)), (code, err)
        assert code == 1 or out.startswith("network: ")


class TestPpm:
    """A P6 image, its header or body mutated."""

    @seeded(300)
    @given(data=st.data())
    def test_decodes_or_raises_an_engine_error(self, files, data):
        path = files["dir"] / "mutated.ppm"
        path.write_bytes(data.draw(mutated(files["image"], head=12)))
        try:
            img = read_ppm(str(path))
        except EngineError:
            return
        assert img.dtype == np.float32 and img.ndim == 3 and img.shape[0] == 3

    @seeded(60)
    @given(data=st.data())
    def test_predict_exits_1_with_one_line_or_writes_a_row(self, files, data):
        with open(files["image_path"], "wb") as fh:
            fh.write(data.draw(mutated(files["image"], head=12)))
        try:
            code, out, err = run_cli(["predict", "--model", files["model_path"],
                                      "--images", files["listing"]])
        finally:
            with open(files["image_path"], "wb") as fh:
                fh.write(files["image"])
        assert (code, len(err)) in ((0, 0), (1, 1)), (code, err)
        assert len(out.splitlines()) == 1 - code
        assert code == 0 or err[0].startswith(files["image_path"] + ": ")


class TestCast:
    """``save`` casts a tensor that is not C-contiguous little-endian float32
    piece by piece; the pieces, end to end, are the tensor's float32 bytes."""

    @staticmethod
    @st.composite
    def tensors(draw):
        shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
        dtype = np.dtype(draw(st.sampled_from(("f2", "f4", "f8"))))
        dtype = dtype.newbyteorder(draw(st.sampled_from("<>")))
        layout = draw(st.sampled_from(("C", "F", "transposed", "strided")))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # scales past float16's range and float32's, both ways
        scale = draw(st.sampled_from((1.0, 1e-6, 1e-42, 1e5, 1e40)))
        full = shape if layout != "strided" else tuple(2 * e + 1 for e in shape)
        with np.errstate(over="ignore"):
            a = (rng.normal(size=full) * scale).astype(dtype)
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "transposed":
            a = a.T
        elif layout == "strided":
            a = a[tuple(slice(None, None, -2) if i % 2 else slice(1, None, 2)
                        for i in range(a.ndim))]
        return a

    @seeded(200)
    @given(data=st.data())
    def test_pieces_are_the_float32_bytes(self, data):
        a = data.draw(self.tensors())
        cuts = sorted(data.draw(st.sets(st.integers(1, a.size), max_size=6)) | {a.size})
        with np.errstate(over="ignore"), \
                mock.patch.object(checkpoint, "CAST_ELEMENTS", data.draw(st.integers(1, 64))):
            want = np.asarray(a, "<f4").tobytes()
            pieces, lo = [], 0
            for hi in cuts:
                out = np.empty(hi - lo, "<f4")
                checkpoint._cast(out, a, lo)
                pieces.append(out.tobytes())
                lo = hi
        assert b"".join(pieces) == want


@st.composite
def mostly(draw, valid, forged):
    """A draw of ``valid`` (a strategy, or one value) three times in four,
    else one of the values ``forged``."""
    if not draw(st.integers(0, 3)):
        return draw(st.sampled_from(tuple(forged)))
    return draw(valid) if isinstance(valid, st.SearchStrategy) else valid


def with_bytes(draw, text):
    """``text`` encoded, and one time in four with 1 to 4 drawn bytes
    inserted, which may not be UTF-8."""
    text = text.encode("utf-8")
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.binary(min_size=1, max_size=4)) + text[at:]
    return text


# Cells a manifest row may hold beside the test image and its labels:
# missing or odd paths, forged labels and folds.
FORGED_CELLS = ("missing.ppm", "", " ", ".", "..", "model.acnn", "\x00", "a\nb", "é", "0-3",
                "60", "-", "-7", "1_0", "x", "9" * 5000, '"', '"q,"', "path", "label", "#")


@st.composite
def manifest_texts(draw, image):
    """A manifest: a header, then rows of a path, a label and maybe a fold
    and more cells, each cell now and then forged."""
    header = draw(mostly("path,label", ("PATH , Label,fold", "label,path", "path", "",
                                        "path,label,fold,gender")))
    row = st.tuples(
        mostly(st.sampled_from(("image.ppm", image)), FORGED_CELLS),
        mostly(st.sampled_from(AGE_LABELS), FORGED_CELLS),
        st.lists(mostly("1", FORGED_CELLS), max_size=2)).map(
            lambda r: ",".join((r[0], r[1], *r[2])))
    rows = draw(st.lists(mostly(row, FORGED_CELLS), max_size=3))
    return with_bytes(draw, "\n".join([header] + rows) + "\n")


class TestManifest:
    """Manifest rows drawn from valid and forged cells."""

    @seeded(300)
    @given(data=st.data())
    def test_loads_or_raises_an_engine_error(self, files, data):
        path = files["dir"] / "drawn.csv"
        path.write_bytes(data.draw(manifest_texts(files["image_path"])))
        try:
            manifest = load_manifest(str(path))
        except EngineError:
            return
        assert all(0 <= rec.label < len(AGE_LABELS) for rec in manifest.records)

    @seeded(100)
    @given(data=st.data())
    def test_eval_exits_typed(self, files, data):
        path = files["dir"] / "drawn.csv"
        path.write_bytes(data.draw(manifest_texts(files["image_path"])))
        code, out, err = run_cli(["eval", "--model", files["model_path"], "--test", str(path),
                                  "--csv-out", str(files["dir"] / "report.csv")])
        assert code in (0, 1), (code, err)
        assert_typed_exit(code, err)
        assert code == 1 or out.splitlines()[-1].startswith("exact=")


# Config lines: valid ones, and keys and values each key's parser may meet.
CONFIG_LINES = ("seed=3", "lr = 0.5", "shuffle=no", "average=score", "epochs=2", "dropout=0.1",
                "# comment", "", "   ", "seed=1 # trailing")
CONFIG_KEYS = ("seed", "dropout", "epochs", "lr", "momentum", "weight_decay", "weight-decay",
               "batch_size", "lr_factor", "patience", "min_lr", "improvement_eps", "shuffle",
               "average", "AVERAGE", "means", "model", "out", "", "x", "é")
CONFIG_VALUES = ("0", "1", "-1", "3", "0.5", "1e999", "nan", "-inf", "yes", "OFF", "true",
                 "probability", "score", "mean", "", " ", "1_0", "9" * 5000, "=", "a=b", "é")
FORGED_LINES = tuple(f"{key}{sep}{value}" for key in CONFIG_KEYS for sep in (" = ", "=", " ")
                     for value in CONFIG_VALUES)


@st.composite
def config_texts(draw):
    """A key=value file of valid and forged lines."""
    line = mostly(st.sampled_from(CONFIG_LINES), FORGED_LINES)
    return with_bytes(draw, "\n".join(draw(st.lists(line, max_size=4))))


class TestConfig:
    """``--config`` files drawn from every key and forged ones."""

    @seeded(200)
    @given(data=st.data())
    def test_predict_and_inspect_exit_typed(self, files, data):
        path = files["dir"] / "drawn.cfg"
        path.write_bytes(data.draw(config_texts()))
        command = data.draw(st.sampled_from((
            ["predict", "--model", files["model_path"], "--images", files["listing"]],
            ["inspect", "--profile", "mini"])))
        code, out, err = run_cli(command + ["--config", str(path)])
        assert code in (0, 2), (code, err)
        assert (code, len(err)) == (2, 1) or (not err and out), (code, err)


# Each command's flags; ``inspect`` takes ``--model`` or ``--profile``.
ARGV_FLAGS = {"inspect": (("model", "profile"), "seed", "config"),
              "predict": ("model", "images", "means", "average", "seed", "config"),
              "eval": ("model", "test", "csv-out", "means", "average", "seed", "config")}


@st.composite
def argvs(draw, files, command, forged):
    """A ``command`` line on the tiny files: the flag ``forged`` with a value
    drawn from valid and forged ones alike, each other flag present seven
    times in eight with a valid value, and one time in eight an unknown flag
    or a stray word."""
    d = files["dir"]
    values = {
        "model": (files["model_path"], files["image_path"], str(d / "missing.acnn"), str(d), ""),
        "profile": ("mini", "vgg-face-age", "vgg_face_age", "resnet", ""),
        "images": (files["listing"], files["model_path"], str(d / "missing.txt"), str(d)),
        "test": (files["manifest"], files["listing"], files["model_path"], str(d / "no.csv")),
        "csv-out": (str(d / "argv.csv"), str(d / "missing" / "argv.csv"), str(d), ""),
        "means": ("1,2,3", "0,0,0", "1,2", "nan,0,0", "1e999,0,0", "a,b,c", ",,,", ""),
        "average": ("probability", "score", "mean", ""),
        "seed": ("7", "0", "-1", "1e3", "x", "9" * 5000),
        "config": (files["config"], files["listing"], str(d / "missing.cfg"), str(d)),
    }
    argv = [command]
    for flag in ARGV_FLAGS[command]:
        if isinstance(flag, tuple):
            flag = forged if forged in flag else draw(st.sampled_from(flag))
        if flag == forged:
            argv += [f"--{flag}", draw(st.sampled_from(values[flag]))]
        elif draw(st.integers(0, 7)):
            argv += [f"--{flag}", values[flag][0]]
    if not draw(st.integers(0, 7)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--help-me", "-x", "stray", "--model", "--"))))
    return argv


class TestArgv:
    """Command lines over ``inspect``, ``predict`` and ``eval``, one flag of
    each forged in turn."""

    @pytest.mark.parametrize("command, forged", [
        (command, name) for command, flags in sorted(ARGV_FLAGS.items()) for flag in flags
        for name in (flag if isinstance(flag, tuple) else (flag,))])
    @seeded(30)
    @given(data=st.data())
    def test_exits_typed(self, files, command, forged, data):
        code, out, err = run_cli(data.draw(argvs(files, command, forged)))
        assert_typed_exit(code, err)
