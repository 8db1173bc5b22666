from contextlib import nullcontext

import numpy as np
import pytest

from agecnn import Rng
from agecnn.errors import LabelError, ParameterError, ShapeError, StateError
from agecnn.layers import (KINDS, LayerSpec, conv, conv2d_backward, conv2d_forward,
                           dropout, dropout_backward, dropout_forward, fc,
                           fc_backward, fc_forward, forward_layer,
                           backward_layer, lrn, lrn_backward, lrn_forward,
                           maxpool, maxpool_backward, maxpool_forward, relu,
                           relu_backward, relu_forward, softmax,
                           softmax_log_loss, softmax_log_loss_backward, softmax_loss)

from agecnn import layers
from agecnn.network import WorkerPool
from agecnn.tensor import pad2d
from conftest import eval_layer, fd_max_rel_err, traced_peak

# frozen before implementation: 2 / (2 + 1e-4 * 2^2) ^ 0.75
LRN_SCALAR = 1.1890287651464355
# frozen: natural log of 8
LN8 = 2.0794415416798357


# ---------------------------------------------------------------------------
# independent slow oracles
# ---------------------------------------------------------------------------

def conv_direct(x, w, b, stride, pad):
    """Six-loop direct summation; deliberately naive."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    y = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = float(b[o])
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += float(w[o, c, u, v]) * \
                                       float(xp[ni, c, i * stride + u, j * stride + v])
                    y[ni, o, i, j] = acc
    return y


def conv_backward_direct(x, w, d_out, stride, pad):
    """Gradients of conv_direct's map, by a loop over outputs: each output's
    gradient goes to its bias, to the weights times its window of the padded
    input, and back into that window times the weights. Float64."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    dxp, dw, db = np.zeros_like(xp), np.zeros(w.shape), np.zeros(cout)
    for ni in range(n):
        for o in range(cout):
            for i in range(d_out.shape[2]):
                for j in range(d_out.shape[3]):
                    g = float(d_out[ni, o, i, j])
                    window = np.s_[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    db[o] += g
                    dw[o] += g * xp[window]
                    dxp[window] += g * w[o]
    return dw, db, dxp[:, :, pad:pad + h, pad:pad + wd]


def maxpool_direct(x, window, stride):
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    y = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    y[ni, ci, i, j] = x[ni, ci,
                                        i * stride:i * stride + window,
                                        j * stride:j * stride + window].max()
    return y


def lrn_direct(x, n, k, alpha, beta):
    batch, c, h, w = x.shape
    y = np.zeros_like(x, dtype=np.float64)
    half = n // 2
    for b in range(batch):
        for ci in range(c):
            lo = max(0, ci - half)
            hi = min(c, ci + half + 1)
            for i in range(h):
                for j in range(w):
                    s = sum(float(x[b, cc, i, j]) ** 2 for cc in range(lo, hi))
                    y[b, ci, i, j] = float(x[b, ci, i, j]) / (k + (alpha / n) * s) ** beta
    return y


def gather_window_sum(t, n):
    """The window sum by a loop over channels, each window's terms gathered in
    the engine's order: its own term, then the channels 1 below, 1 above, 2
    below, and so on. The byte reference for every window."""
    c = t.shape[1]
    out = np.empty_like(t)
    for j in range(c):
        acc = t[:, j].copy()
        for d in range(1, c):
            if d <= n // 2 and j - d >= 0:
                acc = acc + t[:, j - d]
            if d <= n // 2 and j + d < c:
                acc = acc + t[:, j + d]
        out[:, j] = acc
    return out


def direct_window_sum(t, n):
    """The window sum in float64 over zero-padded channel windows."""
    half = n // 2
    padded = np.pad(t.astype(np.float64), ((0, 0), (half, half), (0, 0), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(padded, n, axis=1).sum(axis=-1)


# ---------------------------------------------------------------------------
# conv
# ---------------------------------------------------------------------------

class TestConvForward:
    def test_identity_kernel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 1, 1), np.float32)
        b = np.zeros(1, np.float32)
        y, _ = conv2d_forward(x, w, b, 1, 0)
        assert np.array_equal(y, x)

    def test_padded_full_size(self):
        x = np.random.default_rng(1).normal(size=(1, 3, 224, 224)).astype(np.float32)
        w = np.random.default_rng(2).normal(size=(64, 3, 3, 3)).astype(np.float32) * 0.01
        y, _ = conv2d_forward(x, w, np.zeros(64, np.float32), 1, 1)
        assert y.shape == (1, 64, 224, 224)

    def test_matches_direct_summation(self):
        r = np.random.default_rng(3)
        x = r.normal(size=(1, 2, 4, 4))
        w = r.normal(size=(3, 2, 3, 3))
        b = r.normal(size=3)
        y, _ = conv2d_forward(x, w, b, 1, 1)
        assert np.allclose(y, conv_direct(x, w, b, 1, 1), atol=1e-5)

    @pytest.mark.parametrize("case", [
        ((1, 1, 5, 5), (2, 1, 3, 3), 1, 0),
        ((2, 2, 6, 6), (3, 2, 3, 3), 1, 1),
        ((1, 3, 6, 6), (2, 3, 2, 2), 2, 0),
        ((2, 1, 5, 5), (1, 1, 5, 5), 1, 0),
        ((1, 2, 4, 4), (4, 2, 1, 1), 1, 0),
        ((1, 2, 5, 5), (2, 2, 3, 3), 2, 1),
    ])
    def test_random_instances_match_direct(self, case):
        x_shape, w_shape, stride, pad = case
        r = np.random.default_rng(hash(case) % (2 ** 32))
        x = r.normal(size=x_shape)
        w = r.normal(size=w_shape)
        b = r.normal(size=w_shape[0])
        y, _ = conv2d_forward(x, w, b, stride, pad)
        assert np.allclose(y, conv_direct(x, w, b, stride, pad), atol=1e-5)

    # the shipped budget and 16 MiB: every case here is one band at either
    @pytest.mark.parametrize("band_bytes", [1, 2000, layers.BAND_BYTES, 16 * 2**20])
    @pytest.mark.parametrize("case", [
        ((3, 3, 7, 5), (4, 3, 3, 3), 1, 1),
        ((3, 2, 9, 7), (3, 2, 3, 3), 2, 0),
        ((3, 2, 6, 5), (2, 2, 5, 5), 1, 2),
        ((3, 4, 5, 4), (3, 4, 1, 1), 1, 0),
    ])
    def test_bands_match_direct_and_keep_samples_apart(self, case, band_bytes, monkeypatch):
        # one GEMM per sample and band of output rows (a band of one row
        # at 1 byte); a sample's bits never depend on the rest of the batch
        monkeypatch.setattr(layers, "BAND_BYTES", band_bytes)
        x_shape, w_shape, stride, pad = case
        r = np.random.default_rng(sum(x_shape) + band_bytes)
        x = r.normal(size=x_shape).astype(np.float32)
        w = r.normal(size=w_shape).astype(np.float32)
        b = r.normal(size=w_shape[0]).astype(np.float32)
        y, _ = conv2d_forward(x, w, b, stride, pad)
        assert np.allclose(y, conv_direct(x, w, b, stride, pad), atol=1e-5)
        for i in range(len(x)):
            assert conv2d_forward(x[i:i + 1], w, b, stride, pad)[0].tobytes() == y[i].tobytes()

    def test_train_peak_pads_one_sample_at_a_time(self):
        # without a plan: y, one slab and one band of scratch. At
        # 16x16x32x32 y is 1.0x the input and the band's patches 0.6x, and
        # from batch 4 to 16 the peak grows by little more than y does
        r = np.random.default_rng(9)
        w = r.normal(size=(16, 16, 3, 3)).astype(np.float32)
        b = np.zeros(16, np.float32)
        peaks, sizes = {}, {}
        for batch in (4, 16):
            x = r.normal(size=(batch, 16, 32, 32)).astype(np.float32)
            peaks[batch], _ = traced_peak(lambda: conv2d_forward(x, w, b, 1, 1))
            sizes[batch] = x.nbytes
        assert peaks[16] <= 1.8 * sizes[16]
        assert peaks[16] - peaks[4] <= 1.25 * (sizes[16] - sizes[4])

    def test_one_piece_on_two_workers_peaks_as_on_one(self):
        # a piece takes its slab, band and GEMM band when it runs, so the
        # worker that runs no piece of a one-band, one-block call takes none
        r = np.random.default_rng(12)
        x = r.normal(size=(1, 64, 28, 28)).astype(np.float32)
        w = r.normal(size=(2, 64, 3, 3)).astype(np.float32)
        b = np.zeros(2, np.float32)
        g = layers._conv_geometry(64, 28, 28, 2, 3, 3, 1, 1)
        assert len(g.bands) == 1 and len(g.blocks) == 1
        peaks = {}
        for workers in (1, 2):
            with WorkerPool(workers) as pool:
                peaks[workers], _ = traced_peak(lambda: conv2d_forward(x, w, b, 1, 1, pool))
        assert peaks[2] <= peaks[1] + 2**16, peaks

    def test_train_peak_pads_one_band_at_a_time(self, monkeypatch):
        # without a plan and beside y, the band and the GEMM band: one slab,
        # padded again by each band. At 32x64x64 in bands of 8 rows the slab
        # (8 + 2 + 1 rows of 66) is 0.18 of a sample, where a sample's
        # padded plane is 1.06; measured 0.23 with the rest
        monkeypatch.setattr(layers, "BAND_BYTES", 8 * 32 * 9 * 66 * 4)
        r = np.random.default_rng(9)
        w = r.normal(size=(4, 32, 3, 3)).astype(np.float32)
        g = layers._conv_geometry(32, 64, 64, 4, 3, 3, 1, 1)
        assert (g.bands[0][1], len(g.bands)) == (8, 8)
        for batch in (1, 4):
            x = r.normal(size=(batch, 32, 64, 64)).astype(np.float32)
            peak, (y, _) = traced_peak(lambda: conv2d_forward(x, w, np.zeros(4, np.float32), 1, 1))
            assert peak - y.nbytes - 4 * (g.band + g.gemm) <= 0.3 * x[0].nbytes, batch

    def test_non_integral_extent_rejected(self):
        x = np.zeros((1, 1, 5, 5), np.float32)
        w = np.zeros((1, 1, 2, 2), np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, np.zeros(1, np.float32), 2, 0)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 4, 4), np.float32)
        w = np.zeros((1, 3, 3, 3), np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, np.zeros(1, np.float32), 1, 1)

    def test_negative_pad_rejected(self):
        x = np.zeros((1, 1, 5, 5), np.float32)
        with pytest.raises(ParameterError):
            conv2d_forward(x, np.zeros((1, 1, 1, 1), np.float32), np.zeros(1, np.float32), 1, -1)


def slab_draw(rng):
    """(x, filters, kernel, stride, pad, band rows) of a conv that tiles its
    input: C 1-4, H and W up to 12, kernel 1-5, stride 1-2, pad 0-2."""
    while True:
        k, s, p = int(rng.integers(1, 6)), int(rng.integers(1, 3)), int(rng.integers(0, 3))
        c, h, wd = (int(e) for e in rng.integers(1, [5, 13, 13]))
        if all(e + 2 * p >= k and (e + 2 * p - k) % s == 0 for e in (h, wd)):
            x = rng.normal(size=(c, h, wd)).astype(np.float32)
            return x, int(rng.integers(1, 9)), k, s, p, int(rng.integers(1, h + 3))


class TestConvSlab:
    """A band's slab equals the matching range of the sample's flat padded
    plane (np.pad's, with a zero tail), element for element: wrapped columns,
    bottom pad and zero tail included. So are the patches cut from it."""

    @staticmethod
    def check(x, cout, k, stride, pad, band_rows, monkeypatch):
        cin, h, wd = x.shape
        wp = wd + 2 * pad
        monkeypatch.setattr(layers, "BAND_BYTES", band_rows * cin * k * k * wp * 4)
        g = layers._conv_geometry(cin, h, wd, cout, k, k, stride, pad)
        # the plane, and zero rows past it as far as any slab reaches
        flat = np.pad(x, ((0, 0), (pad, pad), (pad, pad))).reshape(cin, -1)
        plane = np.concatenate([flat, np.zeros((cin, g.plane + 3 * wp), x.dtype)], axis=1)
        slab, band = np.empty(g.slab, x.dtype), np.empty(g.band, x.dtype)
        for top, r in g.bands:
            rows = layers._slab_rows(k, k, wp, r, stride)
            first = top * stride * wp
            for _ in g.blocks:  # each filter block pads the band's slab again
                slab.fill(np.nan)
                got = pad2d(x, pad, top * stride, slab[:cin * rows * wp].reshape(cin, rows, wp))
                assert got.tobytes() == plane[:, first:first + rows * wp].tobytes(), top
                band.fill(np.nan)
                cols = layers._patches(x, k, k, stride, pad, top, r, slab, band)
                want = [plane[:, tap] for tap in layers._tap_slices(k, k, wp, r, stride, top)]
                assert cols.tobytes() == np.stack(want, axis=1).tobytes(), top
        # the last band's slab runs to the plane's end, through its zero tail
        assert first + layers._tap_slices(k, k, wp, r, stride)[-1].stop == g.plane
        return g

    @pytest.mark.parametrize("seed", range(30))
    def test_random_layers(self, seed, monkeypatch):
        self.check(*slab_draw(np.random.default_rng(seed)), monkeypatch)

    @pytest.mark.parametrize("case", [
        ((2, 7, 5), 3, 3, 1, 1, 2),   # the last band reads the bottom pad and the tail
        ((2, 9, 7), 3, 3, 2, 1, 1),   # stride 2: a tail of more than a row
        ((1, 5, 5), 2, 1, 1, 2, 1),   # kernel 1, pad 2: slabs of pad rows only
        ((1, 5, 7), 2, 1, 2, 2, 1),
        ((3, 6, 4), 3, 5, 1, 2, 2),
    ])
    def test_edges(self, case, monkeypatch):
        shape, cout, k, stride, pad, band_rows = case
        x = np.random.default_rng(sum(shape)).normal(size=shape).astype(np.float32)
        self.check(x, cout, k, stride, pad, band_rows, monkeypatch)

    def test_one_band_two_blocks(self, monkeypatch):
        x = np.random.default_rng(5).normal(size=(3, 6, 7)).astype(np.float32)
        g = self.check(x, 6, 3, 1, 1, 6, monkeypatch)
        assert len(g.bands) == 1 and len(g.blocks) == 2


class TestConvBackward:
    def test_finite_differences(self):
        r = np.random.default_rng(5)
        x = r.normal(size=(1, 2, 5, 5))
        w = r.normal(size=(2, 2, 3, 3))
        b = r.normal(size=2)
        probe = r.normal(size=(1, 2, 5, 5))

        def objective():
            y, _ = conv2d_forward(x, w, b, 1, 1)
            return float((y * probe).sum())

        y, cache = conv2d_forward(x, w, b, 1, 1)
        d_in, d_params = conv2d_backward(cache, probe)
        err = fd_max_rel_err(objective, [x, w, b],
                             [d_in, d_params["weight"], d_params["bias"]])
        assert err < 1e-4

    def test_strided_finite_differences(self):
        r = np.random.default_rng(6)
        x = r.normal(size=(2, 1, 6, 6))
        w = r.normal(size=(2, 1, 2, 2))
        b = r.normal(size=2)
        probe = r.normal(size=(2, 2, 3, 3))

        def objective():
            y, _ = conv2d_forward(x, w, b, 2, 0)
            return float((y * probe).sum())

        _, cache = conv2d_forward(x, w, b, 2, 0)
        d_in, d_params = conv2d_backward(cache, probe)
        err = fd_max_rel_err(objective, [x, w, b],
                             [d_in, d_params["weight"], d_params["bias"]])
        assert err < 1e-4

    @pytest.mark.parametrize("band_bytes", [1, 9000, layers.BAND_BYTES, 16 * 2**20])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_matches_direct_sum(self, kernel, stride, pad, band_bytes, monkeypatch):
        # at 1 byte every band is one row; at 9000 each 3x3 case, and some 2x2
        # and 5x5 ones, cut a sample into bands of 2 to 9 rows and a shorter
        # last one, so the fold and the dW sum cross band edges
        monkeypatch.setattr(layers, "BAND_BYTES", band_bytes)
        extent = 9 if (9 + 2 * pad - kernel) % stride == 0 else 10
        r = np.random.default_rng(1000 * kernel + 100 * stride + 10 * pad)
        x = r.normal(size=(2, 4, extent, extent + 2))
        w = r.normal(size=(3, 4, kernel, kernel))
        y, cache = conv2d_forward(x, w, r.normal(size=3), stride, pad)
        d_out = r.normal(size=y.shape)
        d_in, d_params = conv2d_backward(cache, d_out)
        want = conv_backward_direct(x, w, d_out, stride, pad)
        for got, ref in zip((d_params["weight"], d_params["bias"], d_in), want):
            assert got.dtype == np.float64 and got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_peak_grows_only_by_the_input_gradient(self):
        # one slab, one band and one sample's input-gradient plane: at
        # 16x16x32x32 the peak is a small multiple of the input, and from
        # batch 4 to 16 it grows by little more than the input gradient does
        r = np.random.default_rng(9)
        w = r.normal(size=(16, 16, 3, 3)).astype(np.float32)
        peaks, sizes = {}, {}
        for batch in (4, 16):
            x = r.normal(size=(batch, 16, 32, 32)).astype(np.float32)
            y, cache = conv2d_forward(x, w, np.zeros(16, np.float32), 1, 1)
            d_out = r.normal(size=y.shape).astype(np.float32)
            peaks[batch], _ = traced_peak(lambda: conv2d_backward(cache, d_out))
            sizes[batch] = x.nbytes
        assert peaks[16] <= 4 * sizes[16]
        assert peaks[16] - peaks[4] <= 1.25 * (sizes[16] - sizes[4])

    def test_two_workers_add_one_input_gradient_plane(self):
        # each running piece folds into a plane of its own, taken when it
        # runs. The second worker adds its plane and, beside the weight
        # gradient's piece, a sample's dy_band and W.T @ dy_band, one band in
        # size (measured: the plane plus 1.16 bands). A slab and a band for
        # the second worker too would add 1.12 bands more
        r = np.random.default_rng(9)
        w = r.normal(size=(16, 16, 3, 3)).astype(np.float32)
        x = r.normal(size=(16, 16, 32, 32)).astype(np.float32)
        y, cache = conv2d_forward(x, w, np.zeros(16, np.float32), 1, 1)
        d_out = r.normal(size=y.shape).astype(np.float32)
        g = layers._conv_geometry(16, 32, 32, 16, 3, 3, 1, 1)
        one, _ = traced_peak(lambda: conv2d_backward(cache, d_out))
        with WorkerPool(2) as pool:
            two, _ = traced_peak(lambda: conv2d_backward(cache, d_out, plan=pool))
        plane, slack = 16 * g.plane * 4, 1.5 * g.band * 4
        assert two <= one + plane + slack, (one, two, plane, slack)

    def test_one_sample_input_gradient_on_two_workers_peaks_as_on_one(self):
        # at batch 1 the input gradient is one piece, which takes its plane
        # when it runs: the worker that runs no piece takes no plane
        r = np.random.default_rng(13)
        x = r.normal(size=(1, 64, 56, 56)).astype(np.float32)
        w = r.normal(size=(64, 64, 3, 3)).astype(np.float32)
        y, cache = conv2d_forward(x, w, np.zeros(64, np.float32), 1, 1)
        d_out = r.normal(size=y.shape).astype(np.float32)
        peaks = {}
        for workers in (1, 2):
            with WorkerPool(workers) as pool:
                peaks[workers], d_in = traced_peak(
                    lambda: conv2d_backward(cache, d_out, False, plan=pool)[0])
                assert d_in.shape == x.shape
        assert peaks[2] <= peaks[1] + 2**16, peaks

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, cout, kernel, stride, pad, band_bytes", [
        ((1, 3, 7, 9), 4, 3, 1, 1, None),
        ((2, 4, 9, 11), 5, 3, 1, 1, 2000),   # bands of 1 to 3 rows and a short last one
        ((3, 2, 11, 9), 3, 5, 1, 2, 1),      # 5x5, pad 2, a band per output row
        ((4, 3, 9, 9), 6, 3, 2, 0, 900),     # stride 2, pad 0
        ((5, 2, 10, 12), 4, 2, 2, 0, None),
        ((5, 3, 8, 8), 2, 5, 1, 2, 1500),
    ])
    def test_backward_bits_are_the_same_on_any_pool(self, x_shape, cout, kernel, stride, pad,
                                                   band_bytes, dtype, monkeypatch):
        # dW is one piece summed in sample-then-band order and each sample's
        # input gradient one more piece, so no bit depends on the pool or on
        # which worker's plane a sample was folded in
        if band_bytes:
            monkeypatch.setattr(layers, "BAND_BYTES", band_bytes)
        r = np.random.default_rng(sum(x_shape) + kernel)
        x = r.normal(size=x_shape).astype(dtype)
        w = r.normal(size=(cout, x_shape[1], kernel, kernel)).astype(dtype)
        y, cache = conv2d_forward(x, w, np.zeros(cout, dtype), stride, pad)
        d_out = r.normal(size=y.shape).astype(dtype)
        g = layers._conv_geometry(*x_shape[1:], cout, kernel, kernel, stride, pad)
        assert (len(g.bands) > 1) == bool(band_bytes)
        dw = np.zeros((cout, w[0].size), dtype)  # the sum in sample-then-band order
        slab, band = np.empty(g.slab, dtype), np.empty(g.band, dtype)
        for i in range(len(x)):
            for top, rows in g.bands:
                dy = np.zeros((cout, rows, g.wp), dtype)
                dy[:, :, :g.ow] = d_out[i, :, top:top + rows]
                cols = layers._patches(x[i], kernel, kernel, stride, pad, top, rows, slab, band)
                dw += dy.reshape(cout, -1) @ cols.T
        for flags in ((True, True), (True, False), (False, True)):
            runs = []
            for workers in (1, 2, 3, 2, 3):
                with WorkerPool(workers) if workers > 1 else nullcontext(layers.SERIAL) as pool:
                    d_in, d_params = conv2d_backward(cache, d_out, *flags, plan=pool)
                runs.append([None if a is None else a.tobytes()
                             for a in (d_in, d_params.get("weight"), d_params.get("bias"))])
            assert all(run == runs[0] for run in runs), flags
            assert (runs[0][0] is None, runs[0][1] is None) == (not flags[1], not flags[0])
            if flags[0]:
                assert runs[0][1] == dw.tobytes()
                assert runs[0][2] == d_out.sum(axis=(0, 2, 3)).tobytes()

    def test_skip_flags(self):
        x = np.random.default_rng(7).normal(size=(1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        _, cache = conv2d_forward(x, w, np.zeros(1), 1, 1)
        d_in, d_params = conv2d_backward(cache, np.ones((1, 1, 4, 4)),
                                         need_param_grads=False)
        assert d_params == {} and d_in is not None
        d_in, d_params = conv2d_backward(cache, np.ones((1, 1, 4, 4)),
                                         need_input_grad=False)
        assert d_in is None and set(d_params) == {"weight", "bias"}


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

class TestRelu:
    def test_nonnegative_unchanged(self):
        x = np.array([0.0, 1.5, 3.0], np.float32)
        y, _ = relu_forward(x)
        assert np.array_equal(y, x)

    def test_hand_case(self):
        y, _ = relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert y.tolist() == [0.0, 0.0, 2.0]

    def test_idempotent(self):
        x = np.random.default_rng(8).normal(size=(20,))
        once, _ = relu_forward(x)
        twice, _ = relu_forward(once)
        assert np.array_equal(once, twice)

    def test_backward_mask(self):
        _, cache = relu_forward(np.array([-1.0, 2.0]))
        d_in, d_params = relu_backward(cache, np.array([1.0, 1.0]))
        assert d_in.tolist() == [0.0, 1.0]
        assert d_params == {}

    def test_backward_mask_from_the_output_is_the_inputs(self):
        # the cache keeps y, and y > 0 exactly where x > 0: NaN, -0.0 and
        # infinities included
        x = np.array([np.nan, -0.0, 0.0, -np.inf, np.inf, -1e-45, 1e-45, -3.0, 2.0], np.float32)
        with np.errstate(invalid="ignore"):
            _, cache = relu_forward(x)
            d_in, _ = relu_backward(cache, np.full(x.shape, 7.0, np.float32))
        assert d_in.tobytes() == np.where(x > 0, np.float32(7.0), np.float32(0.0)).tobytes()

    def test_finite_differences(self):
        # inputs kept away from the kink at zero
        x = np.array([-0.9, -0.4, 0.3, 1.2, -2.0, 0.7])
        probe = np.array([1.0, -2.0, 0.5, 3.0, 1.0, -1.0])

        def objective():
            y, _ = relu_forward(x)
            return float((y * probe).sum())

        _, cache = relu_forward(x)
        d_in, _ = relu_backward(cache, probe)
        assert fd_max_rel_err(objective, [x], [d_in]) < 1e-4


# ---------------------------------------------------------------------------
# lrn
# ---------------------------------------------------------------------------

class TestLrn:
    def test_zero_input(self):
        y, _ = lrn_forward(np.zeros((1, 4, 2, 2)), 3, 2.0, 1e-4, 0.75)
        assert np.all(y == 0.0)

    def test_identity_when_alpha_zero(self):
        x = np.random.default_rng(9).normal(size=(1, 4, 3, 3))
        y, _ = lrn_forward(x, 3, 1.0, 0.0, 0.75)
        assert np.allclose(y, x)

    def test_scalar_oracle(self):
        x = np.full((1, 1, 1, 1), 2.0)
        y, _ = lrn_forward(x, 1, 2.0, 1e-4, 0.75)
        assert abs(float(y[0, 0, 0, 0]) - LRN_SCALAR) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_direct_loop(self, n):
        x = np.random.default_rng(10 + n).normal(size=(2, 6, 3, 3))
        y, _ = lrn_forward(x, n, 2.0, 1e-2, 0.75)
        assert np.allclose(y, lrn_direct(x, n, 2.0, 1e-2, 0.75), atol=1e-10)

    def test_even_window_rejected(self):
        with pytest.raises(ParameterError):
            lrn_forward(np.zeros((1, 2, 1, 1)), 2, 2.0, 1e-4, 0.75)

    def test_finite_differences(self):
        x = np.random.default_rng(11).normal(size=(2, 5, 2, 2))
        probe = np.random.default_rng(12).normal(size=(2, 5, 2, 2))
        # alpha is scaled up so the normalization term actually matters
        args = (3, 2.0, 0.1, 0.75)

        def objective():
            y, _ = lrn_forward(x, *args)
            return float((y * probe).sum())

        _, cache = lrn_forward(x, *args)
        d_in, _ = lrn_backward(cache, probe)
        assert fd_max_rel_err(objective, [x], [d_in]) < 1e-4

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("c", range(1, 8))
    def test_bytes_match_gather_reference(self, c, n, monkeypatch):
        # post-ReLU input (exact zeros) and mixed-sign d_out give the window
        # sums signed zeros; windows wider than the channel count clip at both
        # ends. Alpha is scaled up so the window sum reaches the low bits. At
        # 8 elements a piece, each sample's 3 rows are cut into pieces of one
        # row, or of two and one at c = 1.
        rng = np.random.default_rng(100 * c + n)
        x = np.maximum(rng.normal(size=(2, c, 3, 4)), 0).astype(np.float32)
        d_out = rng.normal(size=x.shape).astype(np.float32)
        d_out[:, :, 0] = 0.0

        def run():
            y, cache = lrn_forward(x, n, 2.0, 0.1, 0.75)
            d_in, _ = lrn_backward(cache, d_out)
            return [y, cache["denom_base"], cache["scale"], d_in]

        def gather(t, n, out):
            out[...] = gather_window_sum(t, n)
            return out

        for piece in (layers.PIECE_ELEMENTS, 8):
            monkeypatch.setattr(layers, "PIECE_ELEMENTS", piece)
            got = run()
            with monkeypatch.context() as m:
                m.setattr(layers, "_channel_window_sum", gather)
                m.setattr(layers, "PIECE_ELEMENTS", x.size)
                want = run()
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.float32 and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [3, 5])
    def test_window_sums_keep_float32_precision(self, n, monkeypatch):
        # squares from 1e-6 to 1e6 in random channel order: a small window
        # after large channels is rounded from its own terms alone. d_out is
        # positive so backward's terms are too, and the float64 sum of the
        # float32 terms bounds each window's relative error at a few ulp
        rng = np.random.default_rng(16)
        x = (10.0 ** rng.uniform(-3, 3, size=(2, 9, 3, 4))).astype(np.float32)
        d_out = (10.0 ** rng.uniform(-3, 3, size=x.shape)).astype(np.float32)
        window_sum, worst = layers._channel_window_sum, []

        def checked(t, n, *out):
            want = direct_window_sum(t, n)
            got = window_sum(t, n, *out)
            worst.append(float(np.max(np.abs(got - want) / want)))
            return got

        monkeypatch.setattr(layers, "_channel_window_sum", checked)
        _, cache = lrn_forward(x, n, 2.0, 1e-4, 0.75)
        lrn_backward(cache, d_out)
        assert len(worst) >= 2 and max(worst) < 1e-6, worst

    def test_eval_peak_is_bounded(self):
        # norm1's channels and window: the plan holds two activation buffers
        # and one piece's squares, and the call, whose steps run in
        # those buffers, allocates next to nothing
        spec = lrn("norm1", n=3)
        x = np.maximum(np.random.default_rng(13).normal(size=(2, 64, 32, 32)),
                       0).astype(np.float32)
        with WorkerPool(1) as pool:
            peak, plan = traced_peak(lambda: pool.plan((spec,), (x.shape[1:],) * 2, len(x),
                                                       np.float32))
            assert peak <= 3.2 * x.nbytes
            x_in = plan.copy_in(x)
            peak, (y, _) = traced_peak(lambda: forward_layer(spec, x_in, None, "eval", None, plan))
            assert peak <= 0.05 * x.nbytes
            assert np.shares_memory(y, plan.block)
            assert y.tobytes() == lrn_forward(x, 3, 2.0, 1e-4, 0.75)[0].tobytes()

    def test_window_wider_than_every_channel_sizes_nothing_more(self):
        # a window of 2C - 1 already covers every channel at every position,
        # so a wider one plans no bigger scratch and gives the same bytes.
        # alpha is n/4 at both widths, so alpha/n and 2*alpha*beta/n are exact
        c, wide = 2, 2_097_153
        rng = np.random.default_rng(14)
        x = np.maximum(rng.normal(size=(2, c, 3, 4)), 0).astype(np.float32)
        d_out = rng.normal(size=x.shape).astype(np.float32)
        runs = []
        with WorkerPool(1) as pool:
            for spec in [lrn("n", n=n, alpha=n / 4) for n in (2 * c - 1, wide)]:
                plan = pool.plan((spec,), (x.shape[1:],) * 2, len(x), np.float32)
                y_eval, _ = forward_layer(spec, plan.copy_in(x), None, "eval", None, plan)
                y, cache = forward_layer(spec, x)
                d_in, _ = backward_layer(spec, cache, d_out)
                assert y_eval.tobytes() == y.tobytes()
                runs.append((plan.nbytes, y.tobytes(), d_in.tobytes()))
        assert runs[0] == runs[1]
        want = gather_window_sum(x, wide).tobytes()
        assert layers._channel_window_sum(x, wide, np.empty_like(x)).tobytes() == want


# ---------------------------------------------------------------------------
# maxpool
# ---------------------------------------------------------------------------

class TestMaxpool:
    def test_constant_input(self):
        y, _ = maxpool_forward(np.full((1, 1, 4, 4), 3.0), 2, 2)
        assert np.all(y == 3.0) and y.shape == (1, 1, 2, 2)

    def test_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y, _ = maxpool_forward(x, 2, 2)
        assert y.reshape(-1).tolist() == [4.0]

    def test_halves_224(self):
        y, _ = maxpool_forward(np.zeros((1, 2, 224, 224), np.float32), 2, 2)
        assert y.shape == (1, 2, 112, 112)

    @staticmethod
    def check_against_direct(x, window, stride, monkeypatch):
        # in both modes, whole samples and pieces of one and of two output rows
        spec = maxpool("p", window=window, stride=stride)
        want = maxpool_direct(x, window, stride)
        row = x.shape[1] * want.shape[3]
        for piece in (layers.PIECE_ELEMENTS, row, 2 * row):
            monkeypatch.setattr(layers, "PIECE_ELEMENTS", piece)
            for run in (forward_layer, eval_layer):
                y, _ = run(spec, x, None)
                assert np.array_equal(y, want), (piece, run.__name__)

    def test_matches_direct_loop(self, monkeypatch):
        x = np.random.default_rng(13).normal(size=(2, 3, 6, 6))
        self.check_against_direct(x, 2, 2, monkeypatch)

    def test_overlapping_matches_direct_loop(self, monkeypatch):
        x = np.random.default_rng(14).normal(size=(1, 2, 5, 5))
        self.check_against_direct(x, 3, 1, monkeypatch)

    def test_window_too_large_rejected(self):
        with pytest.raises(ShapeError):
            maxpool_forward(np.zeros((1, 1, 2, 2), np.float32), 3, 1)

    def test_backward_routes_to_single_positions(self):
        x = np.random.default_rng(15).permutation(16).astype(np.float64).reshape(1, 1, 4, 4)
        _, cache = maxpool_forward(x, 2, 2)
        d_out = np.ones((1, 1, 2, 2))
        d_in, d_params = maxpool_backward(cache, d_out)
        assert d_params == {}
        # each window contributes exactly its incoming gradient, at one spot
        assert float(d_in.sum()) == 4.0
        assert int((d_in != 0).sum()) == 4
        for i in range(2):
            for j in range(2):
                block = d_in[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert float(block.sum()) == 1.0

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 1)])
    def test_ties_route_to_first_offset(self, window, stride):
        # every element of a constant input attains its window's max; argmax's
        # rule sends each window's gradient to the window's top-left element
        _, cache = maxpool_forward(np.full((1, 1, 4, 4), 2.0, np.float32), window, stride)
        d_out = np.arange(1.0, 5.0, dtype=np.float32).reshape(1, 1, 2, 2)
        d_in, _ = maxpool_backward(cache, d_out)
        want = np.zeros((4, 4), np.float32)
        want[:2 * stride:stride, :2 * stride:stride] = d_out[0, 0]
        assert np.array_equal(d_in[0, 0], want)

    @pytest.mark.parametrize("window, stride, h, w", [(2, 2, 8, 10), (3, 2, 9, 11), (3, 1, 7, 9)])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("piece_rows", [1, 2])
    def test_train_index_in_pieces_is_the_whole_batch_rule(self, window, stride, h, w, workers,
                                                           piece_rows, monkeypatch):
        # each piece records its own rows' index; on tie-heavy input (few
        # repeated values, a constant plane, a constant sample) every output
        # routes to its window's first maximum, as argmax over all views does
        x = np.random.default_rng(19).integers(-1, 2, size=(3, 4, h, w)).astype(np.float32)
        x[:, 1], x[1] = 2.0, 0.0
        oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
        monkeypatch.setattr(layers, "PIECE_ELEMENTS", piece_rows * 4 * ow)
        rows, cols = stride * (oh - 1) + 1, stride * (ow - 1) + 1
        views = np.stack([x[:, :, u:u + rows:stride, v:v + cols:stride]
                          for u in range(window) for v in range(window)])
        want_idx = views.argmax(axis=0).astype(np.min_scalar_type(window * window - 1))
        d_out = np.random.default_rng(20).integers(-3, 4, size=want_idx.shape).astype(np.float32)
        want_d_in = np.zeros_like(x)  # integer gradients: any summation order is exact
        n, c, i, j = np.indices(want_idx.shape)
        np.add.at(want_d_in,
                  (n, c, i * stride + want_idx // window, j * stride + want_idx % window), d_out)
        with WorkerPool(workers) if workers > 1 else nullcontext(layers.SERIAL) as pool:
            y, cache = maxpool_forward(x, window, stride, pool)
        assert y.tobytes() == views.max(axis=0).tobytes()
        assert cache["idx"].dtype == want_idx.dtype
        assert cache["idx"].tobytes() == want_idx.tobytes()
        assert maxpool_backward(cache, d_out)[0].tobytes() == want_d_in.tobytes()

    def test_eval_mode_keeps_no_cache(self):
        x = np.random.default_rng(18).normal(size=(1, 2, 4, 4))
        y, cache = eval_layer(maxpool("p"), x)
        assert np.array_equal(y, maxpool_forward(x, 2, 2)[0]) and cache is None

    def test_finite_differences(self):
        # distinct values keep the argmax stable under the probe step
        x = (np.random.default_rng(16).permutation(36).astype(np.float64) * 0.37
             ).reshape(1, 1, 6, 6)
        probe = np.random.default_rng(17).normal(size=(1, 1, 3, 3))

        def objective():
            y, _ = maxpool_forward(x, 2, 2)
            return float((y * probe).sum())

        _, cache = maxpool_forward(x, 2, 2)
        d_in, _ = maxpool_backward(cache, probe)
        assert fd_max_rel_err(objective, [x], [d_in]) < 1e-4


# ---------------------------------------------------------------------------
# fc
# ---------------------------------------------------------------------------

class TestFc:
    def test_identity_weights(self):
        x = np.random.default_rng(18).normal(size=(3, 4)).astype(np.float32)
        y, _ = fc_forward(x, np.eye(4, dtype=np.float32), np.zeros(4, np.float32))
        assert np.allclose(y, x)

    def test_hand_case(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([1.0, 1.0])
        y, _ = fc_forward(x, w, b)
        assert y.tolist() == [[2.0, 5.0]]

    def test_full_head_input_width(self):
        x = np.random.default_rng(19).normal(size=(1, 512, 7, 7)).astype(np.float32)
        w = np.zeros((512 * 7 * 7, 4096), np.float32)
        b = np.full((4096,), 0.5, np.float32)
        y, _ = fc_forward(x, w, b)
        assert y.shape == (1, 4096)
        assert np.allclose(y, 0.5)

    def test_flattens_4d_input(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        w = np.eye(8, dtype=np.float32)
        y, _ = fc_forward(x, w, np.zeros(8, np.float32))
        assert np.array_equal(y.reshape(-1), x.reshape(-1))

    def test_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fc_forward(np.zeros((1, 3), np.float32),
                       np.zeros((4, 2), np.float32), np.zeros(2, np.float32))

    def test_finite_differences(self):
        r = np.random.default_rng(20)
        x = r.normal(size=(3, 4))
        w = r.normal(size=(4, 5))
        b = r.normal(size=5)
        probe = r.normal(size=(3, 5))

        def objective():
            y, _ = fc_forward(x, w, b)
            return float((y * probe).sum())

        _, cache = fc_forward(x, w, b)
        d_in, d_params = fc_backward(cache, probe)
        err = fd_max_rel_err(objective, [x, w, b],
                             [d_in, d_params["weight"], d_params["bias"]])
        assert err < 1e-4

    def test_backward_restores_4d_shape(self):
        x = np.random.default_rng(21).normal(size=(2, 2, 3, 3))
        w = np.random.default_rng(22).normal(size=(18, 4))
        _, cache = fc_forward(x, w, np.zeros(4))
        d_in, _ = fc_backward(cache, np.ones((2, 4)))
        assert d_in.shape == x.shape

    @pytest.mark.parametrize("n, fin, fout", [
        (2, 1024, 32), (4, 600, 32), (1, 1000, 64), (3, 1536, 8), (32, 1100, 256)])
    def test_backward_bits_are_the_whole_products_on_any_pool(self, n, fin, fout):
        # dW's blocks of input rows round as the whole x.T @ d_out does. A
        # cut of d_in's columns does not at small batches (the first two
        # shapes, on OpenBLAS 0.3.31), so d_in is one product
        r = np.random.default_rng(23)
        x = r.normal(size=(n, fin)).astype(np.float32)
        w = r.normal(size=(fin, fout)).astype(np.float32)
        d_out = r.normal(size=(n, fout)).astype(np.float32)
        _, cache = fc_forward(x, w, np.zeros(fout, np.float32))
        for workers in (1, 2):
            with WorkerPool(workers) as pool:
                d_in, d_params = fc_backward(cache, d_out, plan=pool)
            assert d_in.tobytes() == (d_out @ w.T).tobytes(), workers
            assert d_params["weight"].tobytes() == (x.T @ d_out).tobytes(), workers
            assert d_params["bias"].tobytes() == d_out.sum(axis=0).tobytes()


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

class TestDropout:
    def test_rate_zero_train_is_identity(self):
        x = np.random.default_rng(23).normal(size=(5, 5)).astype(np.float32)
        y, _ = dropout_forward(x, 0.0, "train", Rng(1))
        assert np.array_equal(y, x)

    def test_eval_is_identity(self):
        x = np.random.default_rng(24).normal(size=(5, 5)).astype(np.float32)
        y, cache = dropout_forward(x, 0.6, "eval")
        assert y is x
        assert "mask" not in cache

    def test_expectation_preserved(self):
        # mean of 1e6 kept/scaled ones stays within 1% of 1 (binomial bound)
        x = np.ones((1000, 1000), np.float32)
        y, _ = dropout_forward(x, 0.6, "train", Rng(42))
        assert abs(float(y.mean()) - 1.0) < 0.01

    def test_survivors_scaled_exactly(self):
        x = np.ones((200,), np.float32)
        y, _ = dropout_forward(x, 0.6, "train", Rng(3))
        kept = y[y != 0]
        assert np.allclose(kept, 1.0 / 0.4, atol=1e-6)

    def test_drop_fraction_near_rate(self):
        y, _ = dropout_forward(np.ones((100000,), np.float32), 0.6, "train", Rng(9))
        frac = float((y == 0).mean())
        assert abs(frac - 0.6) < 0.01

    def test_same_seed_same_mask(self):
        x = np.ones((64,), np.float32)
        a, _ = dropout_forward(x, 0.5, "train", Rng(7))
        b, _ = dropout_forward(x, 0.5, "train", Rng(7))
        assert np.array_equal(a, b)

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            dropout_forward(np.ones(3), 1.0, "train", Rng(1))
        with pytest.raises(ParameterError):
            dropout_forward(np.ones(3), -0.1, "eval")

    def test_backward_applies_same_mask(self):
        x = np.ones((100,), np.float64)
        y, cache = dropout_forward(x, 0.4, "train", Rng(5))
        d_in, _ = dropout_backward(cache, np.ones(100))
        assert np.array_equal(d_in, y)

    def test_finite_differences_with_fixed_mask(self):
        x = np.random.default_rng(25).normal(size=(40,))
        probe = np.random.default_rng(26).normal(size=(40,))

        def objective():
            y, _ = dropout_forward(x, 0.5, "train", Rng(31))
            return float((y * probe).sum())

        _, cache = dropout_forward(x, 0.5, "train", Rng(31))
        d_in, _ = dropout_backward(cache, probe)
        assert fd_max_rel_err(objective, [x], [d_in]) < 1e-4


# ---------------------------------------------------------------------------
# softmax + loss
# ---------------------------------------------------------------------------

class TestSoftmaxLoss:
    def test_rows_sum_to_one(self):
        scores = np.random.default_rng(27).normal(size=(5, 8)).astype(np.float32) * 3
        p = softmax(scores)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_stable_for_huge_scores(self):
        p = softmax(np.array([[1000.0, 0.0, -1000.0]], np.float32))
        assert np.isfinite(p).all()
        assert abs(float(p[0, 0]) - 1.0) < 1e-6

    def test_uniform_scores_loss_is_ln8(self):
        scores = np.zeros((4, 8), np.float32)
        loss, probs, _ = softmax_log_loss(scores, [0, 3, 5, 7])
        assert abs(loss - LN8) < 1e-12
        assert np.allclose(probs, 0.125)

    def test_saturated_true_logit(self):
        scores = np.zeros((1, 8), np.float32)
        scores[0, 2] = 1000.0
        loss, _, _ = softmax_log_loss(scores, [2])
        assert loss < 1e-6

    def test_shift_invariance(self):
        scores = np.random.default_rng(28).normal(size=(3, 8))
        l1, _, _ = softmax_log_loss(scores, [1, 2, 3])
        l2, _, _ = softmax_log_loss(scores + 7.5, [1, 2, 3])
        assert abs(l1 - l2) < 1e-5

    def test_out_of_range_label_rejected(self):
        with pytest.raises(LabelError):
            softmax_log_loss(np.zeros((2, 8), np.float32), [0, 8])
        with pytest.raises(LabelError):
            softmax_log_loss(np.zeros((2, 8), np.float32), [-1, 0])

    def test_wrong_count_rejected(self):
        with pytest.raises(LabelError):
            softmax_log_loss(np.zeros((2, 8), np.float32), [0])

    def test_gradient_formula_and_finite_differences(self):
        scores = np.random.default_rng(29).normal(size=(2, 8))
        labels = [3, 6]
        _, probs, cache = softmax_log_loss(scores, labels)
        d_scores, _ = softmax_log_loss_backward(cache)
        onehot = np.zeros((2, 8))
        onehot[[0, 1], labels] = 1.0
        assert np.allclose(d_scores, (probs - onehot) / 2, atol=1e-12)

        def objective():
            loss, _, _ = softmax_log_loss(scores, labels)
            return loss

        assert fd_max_rel_err(objective, [scores], [d_scores]) < 1e-4


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

class TestDispatch:
    @staticmethod
    def cases(r):
        return [
            (conv("c", 4), {"weight": r.normal(size=(4, 3, 3, 3)).astype(np.float32),
                            "bias": np.zeros(4, np.float32)}),
            (relu("r"), None),
            (lrn("n", n=3), None),
            (maxpool("p"), None),
            (fc("f", 5), {"weight": r.normal(size=(192, 5)).astype(np.float32),
                          "bias": np.zeros(5, np.float32)}),
            (dropout("d", 0.5), None),
            (softmax_loss(), None),
        ]

    def test_forward_backward_roundtrip_per_kind(self):
        r = np.random.default_rng(30)
        x = r.normal(size=(2, 3, 8, 8)).astype(np.float32)
        cases = self.cases(r)
        assert {spec.kind for spec, _ in cases} == set(KINDS)
        for spec, params in cases:
            y, cache = forward_layer(spec, x, params, mode="train", rng=Rng(1))
            d_in, d_params = backward_layer(spec, cache, np.ones_like(y))
            assert d_in.shape == x.shape
            if spec.has_params:
                assert set(d_params) == {"weight", "bias"}
            else:
                assert d_params == {}
            assert eval_layer(spec, x, params)[1] is None

    def test_eval_needs_a_plan(self):
        # eval mode runs on a pool's plan, through network.eval_layers; a call
        # without one is refused before it writes anything
        r = np.random.default_rng(31)
        x = r.normal(size=(2, 3, 8, 8)).astype(np.float32)
        before = x.tobytes()
        for spec, params in self.cases(r):
            with pytest.raises(StateError, match="eval_layers"):
                forward_layer(spec, x, params, "eval")
            assert x.tobytes() == before, spec.kind

    def test_buffer_plan_serves_eval_mode_only(self):
        # one rule: a plan runs its own mode. A train-mode cache must not
        # point into buffers the next call reuses, and eval mode must not
        # allocate a pool's new arrays where the walk planned its buffers
        spec = relu("r")
        x = np.full((2, 3, 4, 4), -1.0, np.float32)
        with WorkerPool(1) as pool:
            plan = pool.plan((spec,), (x.shape[1:],) * 2, 2, np.float32)
            with pytest.raises(StateError, match="train mode was given a plan for eval mode"):
                forward_layer(spec, x, None, "train", None, plan)
            with pytest.raises(StateError, match="eval mode was given a plan for train mode"):
                forward_layer(spec, x, None, "eval", None, pool)
            assert (x == -1).all()
            y, cache = forward_layer(spec, x, None, "eval", None, plan)
        assert y is x and cache is None and not x.any()

    def test_backward_rejects_wrong_shape(self):
        spec = relu("r")
        x = np.ones((2, 4), np.float32)
        y, cache = forward_layer(spec, x)
        with pytest.raises(ShapeError):
            backward_layer(spec, cache, np.ones((2, 5), np.float32))

    def test_backward_rejects_foreign_cache(self):
        x = np.ones((2, 4), np.float32)
        _, cache = forward_layer(relu("a"), x)
        with pytest.raises(StateError):
            backward_layer(relu("b"), cache, np.ones((2, 4), np.float32))

    def test_fc_checks_declared_width(self):
        spec = fc("f", 4, in_features=10)
        with pytest.raises(ShapeError):
            forward_layer(spec, np.ones((1, 9), np.float32),
                          {"weight": np.zeros((9, 4), np.float32),
                           "bias": np.zeros(4, np.float32)})


class TestLayerSpec:
    @pytest.mark.parametrize("kind, params", [
        ("conv", {"out_channels": 4, "kernel": 3, "stride": 1}),
        ("lrn", {"n": 3, "k": float("nan"), "alpha": 1e-4, "beta": 0.75}),
        ("maxpool", {"window": 2, "stride": float("inf")}),
        ("fc", {"out_features": 2.5}),
        ("dropout", {"rate": 0.5, "p": 0.5}),
        ("relu", {"n": 3}),
        # k = 0 divides a zero input by zero, alpha < 0 powers a negative base
        ("lrn", {"n": 3, "k": 0.0, "alpha": 1e-4, "beta": 0.75}),
        ("lrn", {"n": 3, "k": 1.0, "alpha": -2.0, "beta": 0.75}),
    ], ids=["missing", "nan", "inf", "non-integral", "unknown", "unknown-on-bare-kind",
            "lrn-k-zero", "lrn-alpha-negative"])
    def test_bad_hyperparameters_rejected(self, kind, params):
        with pytest.raises(ParameterError):
            LayerSpec("x", kind, params)

    def test_hyperparameters_take_declared_types(self):
        spec = LayerSpec("c", "conv", {"out_channels": 4.0, "kernel": 3.0,
                                       "stride": 1.0, "pad": 1.0})
        assert all(type(v) is int for v in spec.params.values())
        assert type(lrn("n", k=2).params["k"]) is float
        assert fc("f", 4).params == {"out_features": 4}
