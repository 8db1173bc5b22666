import numpy as np
import pytest

from agecnn import ParameterError, Rng, ShapeError, argmax, gaussian_fill
from agecnn import tensor
from agecnn.tensor import pad2d


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).normal((100,))
        b = Rng(42).normal((100,))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal((50,)), Rng(2).normal((50,)))

    def test_derive_streams_are_stable_and_distinct(self):
        root = Rng(7)
        a = root.derive(1, 0).normal((20,))
        b = root.derive(1, 1).normal((20,))
        again = Rng(7).derive(1, 0).normal((20,))
        assert np.array_equal(a, again)
        assert not np.array_equal(a, b)

    def test_derive_does_not_disturb_parent(self):
        root = Rng(9)
        root.derive(3)
        direct = Rng(9).normal((10,))
        assert np.array_equal(root.normal((10,)), direct)

    def test_bad_seed_rejected(self):
        with pytest.raises(ParameterError):
            Rng(-1)
        with pytest.raises(ParameterError):
            Rng(2 ** 64)

    def test_integers_within_range(self):
        r = Rng(5)
        draws = [r.integers(0, 33) for _ in range(500)]
        assert min(draws) >= 0 and max(draws) <= 32

    def test_permutation_is_a_permutation(self):
        p = Rng(3).permutation(40)
        assert sorted(p.tolist()) == list(range(40))

    def test_known_reproducible_values(self):
        # frozen from one run; guards the generator choice staying fixed
        first = Rng(2024).integers(0, 1000)
        again = Rng(2024).integers(0, 1000)
        assert first == again


class TestGaussianFill:
    def test_zero_std_gives_mean(self):
        t = gaussian_fill((4, 4), 2.5, 0.0, Rng(1))
        assert np.allclose(t, 2.5)

    def test_same_seed_identical(self):
        a = gaussian_fill((64,), 0.0, 1.0, Rng(11))
        b = gaussian_fill((64,), 0.0, 1.0, Rng(11))
        assert np.array_equal(a, b)

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_fill((2,), 0.0, -0.1, Rng(1))

    def test_sample_statistics(self):
        # bounds computed from standard-error formulas: se_mean = 0.01/1000,
        # 3 se = 3e-5; std estimate within 2% at this sample size
        t = gaussian_fill((1000, 1000), 0.0, 0.01, Rng(77))
        assert abs(float(t.mean())) < 3e-5
        assert abs(float(t.std()) - 0.01) < 0.0002

    def test_result_is_float32(self):
        t = gaussian_fill((8,), 0.0, 1.0, Rng(4))
        assert t.dtype == np.float32

    @pytest.mark.parametrize("shape", [(1,), (3, 5, 11), (1000003,)],
                             ids=["1", "3x5x11", "1000003"])
    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (0.5, 2.0), (-3.0, 0.01), (2.5, 0.0)])
    def test_float32_draw_scaled_then_shifted(self, shape, mean, std):
        # the bytes of numpy's float32 normal from a twin stream, times std
        # plus mean, each step rounded to float32
        z = Rng(13)._gen.standard_normal(shape, dtype=np.float32)
        want = z * np.float32(std) + np.float32(mean)
        got = gaussian_fill(shape, mean, std, Rng(13))
        assert got.shape == want.shape and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_pieces_filled_in_order_equal_one_fill(self):
        # pieces of 10, 7 and 19 values: odd lengths, so a piece can end on
        # half of a 64-bit generator output
        want = gaussian_fill((4, 9), 0.0, 0.01, Rng(5)).reshape(-1)
        rng, got = Rng(5), np.empty(36, np.float32)
        for lo, hi in ((0, 10), (10, 17), (17, 36)):
            piece = got[lo:hi]
            assert gaussian_fill(piece.shape, 0.0, 0.01, rng, out=piece) is piece
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("out", [np.empty(5, np.float32), np.empty(6, np.float64),
                                     np.empty(12, np.float32)[::2]],
                             ids=["shape", "dtype", "strided"])
    def test_out_must_fit(self, out):
        with pytest.raises(ShapeError):
            gaussian_fill((6,), 0.0, 1.0, Rng(1), out=out)


def padded_rows(x, pad, first, rows):
    """Rows [first, first + rows) of np.pad's plane of x, zero rows below it."""
    c, h, w = x.shape
    plane = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    tail = np.zeros((c, max(0, first + rows - h - 2 * pad), w + 2 * pad), x.dtype)
    return np.concatenate([plane, tail], axis=1)[:, first:first + rows]


class TestPad2d:
    """pad2d(x, pad, first, out) writes every element of out: rows
    [first, first + R) of x's padded plane, zero past the bottom pad."""

    @staticmethod
    def filled(x, pad, first, rows):
        out = np.full((x.shape[0], rows, x.shape[2] + 2 * pad), np.nan, x.dtype)
        assert pad2d(x, pad, first, out) is out
        return out

    def test_pad_zero_is_identity(self):
        t = np.random.default_rng(1).normal(size=(2, 3, 3)).astype(np.float32)
        assert self.filled(t, 0, 0, 3).tobytes() == t.tobytes()

    def test_single_element(self):
        out = self.filled(np.full((1, 1, 1), 5.0, np.float32), 1, 0, 3)
        assert out.shape == (1, 3, 3)
        assert out[0, 1, 1] == 5.0
        assert float(out.sum()) == 5.0

    def test_sum_preserved(self):
        t = np.random.default_rng(2).normal(size=(3, 4, 5)).astype(np.float32)
        for pad in (1, 2, 3):
            assert np.isclose(self.filled(t, pad, 0, 4 + 2 * pad).sum(), t.sum(), atol=1e-4)

    def test_interior_equals_input(self):
        t = np.random.default_rng(3).normal(size=(2, 3, 4)).astype(np.float32)
        out = self.filled(t, 2, 0, 7)
        assert np.array_equal(out[:, 2:-2, 2:-2], t)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_out_form_fills_a_given_array(self, pad):
        # every window from the top pad to three rows past the bottom pad:
        # straddling a pad, wholly in one, or wholly past the bottom pad, as
        # a stride-2 conv's last band can reach
        t = np.random.default_rng(5).normal(size=(3, 4, 5)).astype(np.float32)
        end = 4 + 2 * pad + 3
        for first in range(end + 1):
            for rows in range(end - first + 1):
                got = self.filled(t, pad, first, rows)
                assert got.tobytes() == padded_rows(t, pad, first, rows).tobytes(), (first, rows)

    def test_out_form_checks_the_shape(self):
        t = np.ones((2, 3, 3), np.float32)
        for shape in ((2, 4, 4), (1, 4, 5), (1, 2, 4, 5)):
            with pytest.raises(ShapeError):
                pad2d(t, 1, 0, np.empty(shape, np.float32))
        with pytest.raises(ShapeError):
            pad2d(t[None], 1, 0, np.empty((2, 4, 5), np.float32))

    def test_negative_pad_rejected(self):
        with pytest.raises(ParameterError):
            pad2d(np.ones((1, 3, 3), np.float32), -1, 0, np.empty((1, 3, 1), np.float32))


class TestArgmax:
    def test_plain(self):
        assert argmax(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_low(self):
        assert argmax(np.array([0.5, 0.5])) == 0

    def test_single(self):
        assert argmax(np.array([3.0])) == 0

    def test_shift_invariant(self):
        v = np.random.default_rng(4).normal(size=17)
        assert argmax(v) == argmax(v + 100.0)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            argmax(np.array([]))

    def test_2d_rejected(self):
        with pytest.raises(ShapeError):
            argmax(np.zeros((2, 2)))


class TestBlasThreads:
    """set_blas_threads drives numpy's bundled OpenBLAS through ctypes."""

    @pytest.fixture
    def count(self):
        controls = tensor._blas_controls()
        if controls is None:
            pytest.skip("numpy carries no OpenBLAS with a settable thread count")
        before = controls[1]()
        yield controls[1]
        controls[0](before)

    def test_sets_the_count_and_returns_the_one_before(self, count):
        start = count()
        assert tensor.set_blas_threads(1) == start
        assert count() == 1
        assert tensor.set_blas_threads(start) == 1
        assert count() == start

    def test_missing_symbol_changes_nothing(self, count, monkeypatch):
        start = count()
        monkeypatch.setattr(tensor, "_BLAS_SET", "no_such_symbol")
        assert tensor._blas_controls() is None
        assert tensor.set_blas_threads(1) is None
        assert count() == start
