"""Acceptance suite: ten go/no-go checks over the whole package.

Each test records one `criterion N [...]: PASS/FAIL` line in VERDICTS; the
conftest terminal-summary hook prints them after the run so they survive
pytest's output capture. The gradient checks probe coordinates whose local
function is smooth (two-step-size agreement), because finite differences are
meaningless across a relu or maxpool kink; the gate uses only function
values, never the analytic gradient under test.
"""

import contextlib
import time

import numpy as np
import pytest

from agecnn import (FormatError, IntegrityError, OptState, Preprocessing, Rng,
                    SgdConfig, batches, build_profile, confusion,
                    exact_accuracy, init_params, init_state, load,
                    load_manifest, make_mask, one_off_accuracy, plateau_update,
                    predict_proba, random_crop_224, save, sgd_step,
                    three_crops, train_epoch)
from agecnn import layers as L
from agecnn.cli import main as cli_main
from agecnn.metrics import evaluate
from agecnn.network import backward, forward, head_replace, param_shapes
from agecnn.predict import average_probabilities, predict_manifest

from conftest import write_dataset

LN8 = 2.0794415416798357

VERDICTS = []


@contextlib.contextmanager
def criterion(num, title):
    info = {}
    try:
        yield info
    except BaseException as e:
        VERDICTS.append(
            f"criterion {num:2d} [{title}]: FAIL ({e.__class__.__name__})")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    VERDICTS.append(f"criterion {num:2d} [{title}]: PASS{detail}")


# ---------------------------------------------------------------------------
# gradient-check plumbing
# ---------------------------------------------------------------------------

FD_H = 1e-3


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def plain_fd_max(f, tensors, analytic, samples=None, seed=0, h=FD_H):
    """Max relative error vs central differences at step h, all coordinates."""
    sel = np.random.default_rng(seed)
    worst = 0.0
    for t, g in zip(tensors, analytic):
        flat_t = t.reshape(-1)
        flat_g = np.asarray(g, np.float64).reshape(-1)
        idxs = (range(flat_t.size) if samples is None or flat_t.size <= samples
                else sel.choice(flat_t.size, size=samples, replace=False))
        for i in idxs:
            keep = flat_t[i]
            flat_t[i] = keep + h
            up = f()
            flat_t[i] = keep - h
            down = f()
            flat_t[i] = keep
            worst = max(worst, rel(flat_g[i], (up - down) / (2 * h)))
    return worst


def gated_fd_max(f, tensors, analytic, samples, seed=0, gate=1e-5, h=FD_H):
    """Like plain_fd_max but skips coordinates that straddle a kink.

    A coordinate counts as smooth when central differences at h and h/2 agree
    to `gate` relative; only smooth coordinates contribute to the error.
    Returns (max error, probed count, kept count, kept-per-tensor list).
    """
    sel = np.random.default_rng(seed)
    worst, probed, kept = 0.0, 0, 0
    kept_per_tensor = []
    for t, g in zip(tensors, analytic):
        flat_t = t.reshape(-1)
        flat_g = np.asarray(g, np.float64).reshape(-1)
        idxs = (range(flat_t.size) if flat_t.size <= samples
                else sel.choice(flat_t.size, size=samples, replace=False))
        kept_here = 0
        for i in idxs:
            keep = flat_t[i]
            fd = {}
            for step in (h, h / 2):
                flat_t[i] = keep + step
                up = f()
                flat_t[i] = keep - step
                down = f()
                fd[step] = (up - down) / (2 * step)
            flat_t[i] = keep
            probed += 1
            if rel(fd[h], fd[h / 2]) >= gate:
                continue
            kept += 1
            kept_here += 1
            worst = max(worst, rel(flat_g[i], fd[h]))
        kept_per_tensor.append(kept_here)
    return worst, probed, kept, kept_per_tensor


def fanin_params(spec, seed, dtype=np.float64, pixel_scale=None):
    """Fan-in-scaled Gaussian parameters; a generic, non-degenerate point.

    The shipped 0.01-std init collapses deep activations to ~1e-8, parking
    every relu exactly at its kink; gradient checking needs O(1) activations.
    With pixel_scale set, the first conv layer's weights absorb the raw 0..255
    input range.
    """
    rng = Rng(seed)
    params = {}
    first = True
    for name, group in param_shapes(spec).items():
        wshape = group["weight"]
        fan_in = int(np.prod(wshape[1:])) if len(wshape) == 4 else wshape[0]
        std = (2.0 / fan_in) ** 0.5
        if pixel_scale and len(wshape) == 4 and first:
            std /= pixel_scale
            first = False
        bias = (rng.normal(group["bias"]) * 0.05 if pixel_scale is None
                else np.zeros(group["bias"]))
        params[name] = {"weight": (rng.normal(wshape) * std).astype(dtype),
                        "bias": np.asarray(bias, dtype)}
    return params


def test_criterion_01_gradient_suite():
    with criterion(1, "gradient suite") as info:
        t0 = time.time()
        layer_worst = {}

        rng = Rng(50)
        # conv, two geometries
        for stride, pad, side in ((1, 1, 6), (2, 0, 7)):
            x = rng.normal((2, 3, side, side))
            w = rng.normal((4, 3, 3, 3)) * 0.4
            b = rng.normal((4,)) * 0.1
            y, cache = L.conv2d_forward(x, w, b, stride, pad)
            din, dp = L.conv2d_backward(cache, np.ones_like(y))

            def f_conv():
                return float(L.conv2d_forward(x, w, b, stride, pad)[0].sum())

            err = plain_fd_max(f_conv, [w, b, x],
                               [dp["weight"], dp["bias"], din])
            layer_worst[f"conv s{stride}"] = err

        # relu, inputs clear of the origin
        x = rng.normal((3, 5, 4, 4))
        x = np.where(np.abs(x) < 0.05, 0.3, x)
        y, cache = L.relu_forward(x)
        din, _ = L.relu_backward(cache, np.ones_like(y))
        layer_worst["relu"] = plain_fd_max(
            lambda: float(L.relu_forward(x)[0].sum()), [x], [din])

        # lrn
        x = rng.normal((2, 7, 3, 3))
        y, cache = L.lrn_forward(x, 3, 2.0, 0.1, 0.75)
        din, _ = L.lrn_backward(cache, np.ones_like(y))
        layer_worst["lrn"] = plain_fd_max(
            lambda: float(L.lrn_forward(x, 3, 2.0, 0.1, 0.75)[0].sum()),
            [x], [din])

        # maxpool, window entries separated by more than the probe step
        x = (Rng(60).permutation(2 * 3 * 6 * 6).astype(np.float64)
             .reshape(2, 3, 6, 6) * 0.1)
        y, cache = L.maxpool_forward(x, 2, 2)
        din, _ = L.maxpool_backward(cache, np.ones_like(y))
        layer_worst["maxpool"] = plain_fd_max(
            lambda: float(L.maxpool_forward(x, 2, 2)[0].sum()), [x], [din])

        # fc
        x = rng.normal((3, 10))
        w = rng.normal((10, 4))
        b = rng.normal((4,))
        y, cache = L.fc_forward(x, w, b)
        din, dp = L.fc_backward(cache, np.ones_like(y))
        layer_worst["fc"] = plain_fd_max(
            lambda: float(L.fc_forward(x, w, b)[0].sum()),
            [w, b, x], [dp["weight"], dp["bias"], din])

        # dropout with a pinned mask
        x = rng.normal((4, 12))
        y, cache = L.dropout_forward(x, 0.6, "train", Rng(9))
        din, _ = L.dropout_backward(cache, np.ones_like(y))
        layer_worst["dropout"] = plain_fd_max(
            lambda: float(L.dropout_forward(x, 0.6, "train", Rng(9))[0].sum()),
            [x], [din])

        # softmax log loss wrt scores
        scores = rng.normal((5, 8))
        labels = np.array([0, 3, 7, 2, 5])
        _, _, cache = L.softmax_log_loss(scores, labels)
        dsc, _ = L.softmax_log_loss_backward(cache)
        layer_worst["softmax_loss"] = plain_fd_max(
            lambda: L.softmax_log_loss(scores, labels)[0], [scores], [dsc])

        per_layer_max = max(layer_worst.values())
        assert per_layer_max < 1e-4, layer_worst

        # end to end through the full mini profile, train mode, at a generic
        # fan-in-scaled point (seeds picked for healthy activations)
        spec = build_profile("mini")
        mask = make_mask(spec, True)
        p64 = fanin_params(spec, 34)
        x64 = Rng(35).normal((2, 3, 32, 32)).astype(np.float64)
        labels = np.array([0, 5])

        def net_loss():
            s, _ = forward(spec, p64, x64, Rng(7))
            return L.softmax_log_loss(s, labels)[0]

        scores, caches = forward(spec, p64, x64, Rng(7))
        grads = backward(spec, p64, caches, labels, mask)
        tensors, analytic = [], []
        for layer in spec.layers:
            if layer.has_params:
                for tname in ("weight", "bias"):
                    tensors.append(p64[layer.name][tname])
                    analytic.append(grads[layer.name][tname])
        e2e_max, probed, kept, per_tensor = gated_fd_max(
            net_loss, tensors, analytic, samples=20, seed=3)
        assert e2e_max < 1e-3
        assert kept >= 100 and kept / probed >= 0.5, (kept, probed)

        # Early conv tensors influence every downstream relu, so at h=1e-3
        # almost all of their probes straddle a kink; retry any uncovered
        # tensor at a finer step where the smooth neighborhood is wider.
        fine_max = 0.0
        for j, k in enumerate(per_tensor):
            if k:
                continue
            m, _, kf, _ = gated_fd_max(net_loss, tensors[j:j + 1],
                                       analytic[j:j + 1], samples=20,
                                       seed=4, h=1e-5)
            assert kf >= 1, f"tensor {j} has no smooth coordinate"
            fine_max = max(fine_max, m)
            per_tensor[j] = kf
        assert fine_max < 1e-3
        assert min(per_tensor) >= 1, per_tensor
        elapsed = time.time() - t0
        assert elapsed < 60.0
        info["detail"] = (f"per-layer max {per_layer_max:.1e}, end-to-end max "
                          f"{e2e_max:.1e} over {kept}/{probed} smooth coords, "
                          f"{elapsed:.1f}s")


def test_criterion_02_freeze_invariance():
    with criterion(2, "freeze invariance") as info:
        spec = build_profile("mini")
        donor = init_params(spec, Rng(3))
        spec2, params, mask = head_replace(spec, [32, 16, 8], donor, Rng(4))
        trunk_bytes = {name: {t: a.tobytes() for t, a in group.items()}
                       for name, group in params.items() if not mask[name]}
        cfg = SgdConfig(lr0=0.01, batch_size=4)
        state = init_state(params, mask, cfg)
        x = Rng(5).normal((4, 3, 32, 32)).astype(np.float32)
        labels = np.array([0, 2, 5, 7])
        fc3_before = params["fc3"]["weight"].copy()
        for step in range(50):
            scores, caches = forward(spec2, params, x, Rng(6 + step))
            grads = backward(spec2, params, caches, labels, mask)
            params, state = sgd_step(params, grads, mask, state, cfg)
        head_moved = not np.array_equal(params["fc3"]["weight"], fc3_before)
        assert head_moved
        for name, group in trunk_bytes.items():
            for tname, blob in group.items():
                assert params[name][tname].tobytes() == blob, (name, tname)
        info["detail"] = "50 steps, all trunk tensors bit-identical"


def test_criterion_03_initial_loss():
    with criterion(3, "initial loss near ln 8") as info:
        spec = build_profile("mini")
        params = init_params(spec, Rng(12))
        x = Rng(13).normal((8, 3, 32, 32)).astype(np.float32)
        labels = np.arange(8)
        scores, _ = forward(spec, params, x, Rng(14))
        loss, _, _ = L.softmax_log_loss(scores, labels)
        assert abs(loss - LN8) < 0.1
        info["detail"] = f"loss {loss:.6f} vs ln8 {LN8:.6f}"


def test_criterion_04_overfit(tmp_path):
    with criterion(4, "overfit 32 synthetic images") as info:
        t0 = time.time()
        manifest = load_manifest(write_dataset(str(tmp_path), 32, Rng(42)))
        pre = Preprocessing(rescale_to=None, crop_to=None, random_crop=False)
        spec = build_profile("mini")
        # random frozen trunk + trainable head, the transfer recipe the whole
        # package exists for; first conv absorbs the 0..255 pixel range
        params = fanin_params(spec, 0, dtype=np.float32, pixel_scale=255.0)
        mask = make_mask(spec, ("fc3", "fc4", "fc5"))
        cfg = SgdConfig(lr0=0.01, batch_size=8)
        state = init_state(params, mask, cfg)
        root = Rng(100)
        reached = None
        for _ in range(200):
            stream = batches(manifest, cfg.batch_size, shuffle=True,
                             rng=root.derive(1, state.epoch), preprocessing=pre)
            params, state, _ = train_epoch(spec, params, mask, state, cfg,
                                           stream, root.derive(2, state.epoch))
            preds, truths = predict_manifest(spec, params, manifest)
            if evaluate(preds, truths).exact_accuracy == 1.0:
                reached = state.epoch
                break
        elapsed = time.time() - t0
        assert reached is not None, "never hit 100% training accuracy"
        assert reached <= 200
        assert elapsed < 120.0
        info["detail"] = f"100% at epoch {reached}, {elapsed:.1f}s"


def test_criterion_05_metric_oracles():
    with criterion(5, "metric oracles") as info:
        gen = np.random.default_rng(0)
        preds = list(gen.integers(0, 8, 1000))
        truths = list(gen.integers(0, 8, 1000))
        m = confusion(preds, truths)
        exact_scan = sum(p == t for p, t in zip(preds, truths)) / 1000
        one_off_scan = sum(abs(p - t) <= 1 for p, t in zip(preds, truths)) / 1000
        assert exact_accuracy(m) == exact_scan
        assert one_off_accuracy(m) == one_off_scan

        row_first = np.rint(np.array(
            [93.17, 6.42, 0.21, 0.00, 0.21, 0.00, 0.00, 0.00]) * 100)
        row_last = np.rint(np.array(
            [0.00, 0.00, 0.00, 1.17, 1.95, 1.17, 35.02, 60.70]) * 100)
        m1 = np.zeros((8, 8), np.int64)
        m1[0] = row_first
        m2 = np.zeros((8, 8), np.int64)
        m2[7] = row_last
        first = one_off_accuracy(m1) * 100
        last = one_off_accuracy(m2) * 100
        assert abs(first - 99.59) < 0.01
        assert abs(last - 95.72) < 0.01
        info["detail"] = (f"scan equal, reference rows {first:.4f}/{last:.4f} "
                          "vs 99.59/95.72")


def test_criterion_06_crop_geometry():
    with criterion(6, "crop geometry") as info:
        frame = np.zeros((3, 256, 256), np.float32)
        frame[0] = np.arange(256, dtype=np.float32)[:, None]
        frame[1] = np.arange(256, dtype=np.float32)[None, :]
        t = three_crops(frame)
        offsets = {(int(v[0, 0, 0]), int(v[1, 0, 0]))
                   for v in (t.center, t.bottom_left, t.upper_right)}
        assert (int(t.center[0, 0, 0]), int(t.center[1, 0, 0])) == (16, 16)
        assert (int(t.bottom_left[0, 0, 0]), int(t.bottom_left[1, 0, 0])) == (32, 0)
        assert (int(t.upper_right[0, 0, 0]), int(t.upper_right[1, 0, 0])) == (0, 32)
        assert offsets == {(16, 16), (32, 0), (0, 32)}
        for view, (r, c) in ((t.center, (16, 16)), (t.bottom_left, (32, 0)),
                             (t.upper_right, (0, 32))):
            assert np.array_equal(view, frame[:, r:r + 224, c:c + 224])

        rng = Rng(77)
        rows, cols = set(), set()
        for _ in range(10000):
            crop = random_crop_224(frame, rng)
            r, c = int(crop[0, 0, 0]), int(crop[1, 0, 0])
            rows.add(r)
            cols.add(c)
            assert 0 <= r <= 32 and 0 <= c <= 32
        assert min(rows) == 0 and max(rows) == 32
        assert min(cols) == 0 and max(cols) == 32
        crop = random_crop_224(frame, Rng(78))
        r, c = int(crop[0, 0, 0]), int(crop[1, 0, 0])
        assert np.array_equal(crop, frame[:, r:r + 224, c:c + 224])
        info["detail"] = "fixed offsets exact, 10000 draws inside [0,32]^2"


def test_criterion_07_averaging_contract():
    with criterion(7, "averaging contract") as info:
        per_view = np.array([[1.0, 0, 0, 0, 0, 0, 0, 0],
                             [0, 1.0, 0, 0, 0, 0, 0, 0],
                             [0, 1.0, 0, 0, 0, 0, 0, 0]])
        hand = average_probabilities(per_view)
        assert np.allclose(hand, [1 / 3, 2 / 3, 0, 0, 0, 0, 0, 0], atol=1e-12)

        spec = build_profile("mini")
        params = init_params(spec, Rng(21))
        worst = 0.0
        for seed in range(5):
            img = (Rng(30 + seed).uniform((3, 32, 32)) * 255).astype(np.float32)
            probs = predict_proba(spec, params, img)
            assert probs.min() >= 0.0
            worst = max(worst, abs(float(probs.sum()) - 1.0))
        assert worst < 1e-6
        info["detail"] = f"hand mean exact, sum drift max {worst:.1e}"


def test_criterion_08_serialization(tmp_path):
    with criterion(8, "serialization") as info:
        spec = build_profile("mini")
        params = init_params(spec, Rng(2))
        mask = make_mask(spec, True)
        cfg = SgdConfig(lr0=0.01, batch_size=4)
        state = init_state(params, mask, cfg)

        def stream(epoch):
            r = Rng(500).derive(epoch)
            return [(r.uniform((4, 3, 32, 32)).astype(np.float32),
                     np.array([0, 2, 5, 7]))]

        for _ in range(2):
            params, state, _ = train_epoch(spec, params, mask, state, cfg,
                                           stream(state.epoch),
                                           Rng(600).derive(state.epoch))

        path = str(tmp_path / "ck.acnn")
        save(spec, params, mask, path, state=state)
        spec_r, params_r, mask_r, state_r = load(path)
        for name in params:
            for t in params[name]:
                assert params[name][t].tobytes() == params_r[name][t].tobytes()
        assert state_r.lr == state.lr and state_r.epoch == state.epoch

        buf = open(path, "rb").read()
        rejected = 0
        for off in range(12):
            bad = bytearray(buf)
            bad[off] ^= 0xFF
            mangled = str(tmp_path / "bad.acnn")
            open(mangled, "wb").write(bytes(bad))
            with pytest.raises((FormatError, IntegrityError)):
                load(mangled)
            rejected += 1
        assert rejected == 12

        p_straight, s_straight = params, state
        p_resumed, s_resumed = params_r, state_r
        for _ in range(5):
            p_straight, s_straight, _ = train_epoch(
                spec, p_straight, mask, s_straight, cfg,
                stream(s_straight.epoch), Rng(600).derive(s_straight.epoch))
            p_resumed, s_resumed, _ = train_epoch(
                spec_r, p_resumed, mask_r, s_resumed, cfg,
                stream(s_resumed.epoch), Rng(600).derive(s_resumed.epoch))
        for name in p_straight:
            for t in p_straight[name]:
                assert p_straight[name][t].tobytes() == \
                    p_resumed[name][t].tobytes()
        for name in s_straight.velocity:
            for t in s_straight.velocity[name]:
                assert s_straight.velocity[name][t].tobytes() == \
                    s_resumed.velocity[name][t].tobytes()
        info["detail"] = ("roundtrip bit-exact, 12/12 header corruptions "
                          "rejected, resume identical for 5 steps")


def test_criterion_09_plateau_schedule():
    with criterion(9, "plateau schedule") as info:
        cfg = SgdConfig()
        state = OptState(velocity={}, lr=cfg.lr0)
        assert state.lr == 0.1
        trajectory = [state.lr]
        for acc in [0.50, 0.50, 0.60, 0.60] + [0.60] * 12:
            state = plateau_update(state, acc, cfg)
            trajectory.append(state.lr)
        distinct = []
        for lr in trajectory:
            if not distinct or distinct[-1] != lr:
                distinct.append(lr)
        assert distinct[:3] == pytest.approx([0.1, 0.01, 0.001], rel=1e-12)
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))
        assert trajectory[-1] == 1e-5
        assert min(trajectory) >= 1e-5
        shown = []
        for v in distinct:
            if not shown or shown[-1] != f"{v:g}":
                shown.append(f"{v:g}")
        info["detail"] = "lr " + " -> ".join(shown)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "training determinism") as info:
        spec = build_profile("mini")
        params = init_params(spec, Rng(0))
        model = str(tmp_path / "model.acnn")
        save(spec, params, make_mask(spec, True), model)
        manifest = write_dataset(str(tmp_path), 8, Rng(7))
        blobs, logs = [], []
        for name in ("run_a.acnn", "run_b.acnn"):
            out = str(tmp_path / name)
            code = cli_main(["train", "--model", model, "--train", manifest,
                             "--val", manifest, "--epochs", "2", "--out", out,
                             "--batch-size", "4", "--lr", "0.001",
                             "--seed", "11"])
            assert code == 0
            blobs.append(open(out, "rb").read())
            logs.append(capsys.readouterr().out.splitlines()[:-1])
        assert blobs[0] == blobs[1]
        assert logs[0] == logs[1]
        info["detail"] = "two runs, checkpoints and logs byte-identical"
