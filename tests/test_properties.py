"""Property tests at the input boundaries the CLI reads: checkpoint bodies and
PPM images, mutated. Each case either loads or decodes, or fails as an
EngineError; through ``cli.main`` a failure exits 1 with one line on stderr.

Hypothesis draws the mutations with ``derandomize=True`` and no example
database, so every run tries the same cases in the same order.
"""

import contextlib
import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecnn import EngineError, NetworkSpec, OptState, Rng, init_params, load, make_mask, save
from agecnn.checkpoint import HEADER_SIZE, MAGIC, VERSION
from agecnn.cli import main
from agecnn.data import read_ppm, write_ppm
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
    return {"dir": root, "model": model.read_bytes(), "image": image.read_bytes(),
            "model_path": str(model), "image_path": str(image), "listing": str(listing)}


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
    """(exit code, stdout, stderr lines) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


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
