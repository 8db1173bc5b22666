import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from agecnn import (InputError, LabelError, NetworkSpec, ParameterError, Rng, ShapeError,
                    StateError, build_profile, init_params, make_mask)
from agecnn import layers as L, optim
from agecnn.layers import PIECE_ELEMENTS, conv, fc, maxpool, relu, softmax_loss
from agecnn.network import WorkerPool, replace_head_spec
from agecnn.optim import (OptState, SgdConfig, init_state, plateau_update,
                          sgd_step, train_epoch)

from conftest import traced_peak

LN8 = 2.0794415416798357


def scalar_setup(w, mu, lr, lam):
    params = {"f": {"weight": np.array([w], np.float64),
                    "bias": np.zeros(1, np.float64)}}
    mask = {"f": True}
    cfg = SgdConfig(lr0=lr, momentum=mu, weight_decay=lam, batch_size=1)
    return params, mask, cfg, init_state(params, mask, cfg)


class TestSgdConfig:
    def test_shipped_defaults(self):
        cfg = SgdConfig()
        assert cfg.lr0 == 0.1
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-3
        assert cfg.batch_size == 256
        assert cfg.lr_factor == 0.1
        assert cfg.patience == 1
        assert cfg.min_lr == 1e-5
        assert cfg.improvement_epsilon == 1e-4

    @pytest.mark.parametrize("bad", [
        {"lr0": 0.0}, {"lr0": -1.0}, {"momentum": 1.0}, {"momentum": -0.1},
        {"weight_decay": -1e-3}, {"batch_size": 0}, {"lr_factor": 0.0},
        {"lr_factor": 1.0}, {"patience": 0}, {"min_lr": -1.0},
        {"lr0": float("nan")}, {"lr0": float("inf")},
        {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
        {"min_lr": float("nan")}, {"min_lr": float("inf")},
        {"improvement_epsilon": float("nan")}, {"improvement_epsilon": float("inf")},
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ParameterError):
            SgdConfig(**bad)


class TestSgdStep:
    def test_decay_only_hand_value(self):
        # w=1, g=0, mu=0, lr=0.1, lam=1e-3: v = -0.1*(0 + 1e-3*1) = -1e-4
        params, mask, cfg, state = scalar_setup(1.0, 0.0, 0.1, 1e-3)
        grads = {"f": {"weight": np.zeros(1), "bias": np.zeros(1)}}
        new_params, _ = sgd_step(params, grads, mask, state, cfg)
        assert abs(float(new_params["f"]["weight"][0]) - 0.9999) < 1e-12

    def test_momentum_two_step_hand_values(self):
        # w=0, g=1, mu=0.9, lr=0.1: v1=-0.1, w1=-0.1; v2=-0.19, w2=-0.29
        params, mask, cfg, state = scalar_setup(0.0, 0.9, 0.1, 0.0)
        grads = {"f": {"weight": np.ones(1), "bias": np.zeros(1)}}
        p1, s1 = sgd_step(params, grads, mask, state, cfg)
        assert abs(float(s1.velocity["f"]["weight"][0]) + 0.1) < 1e-12
        assert abs(float(p1["f"]["weight"][0]) + 0.1) < 1e-12
        p2, s2 = sgd_step(p1, grads, mask, s1, cfg)
        assert abs(float(s2.velocity["f"]["weight"][0]) + 0.19) < 1e-12
        assert abs(float(p2["f"]["weight"][0]) + 0.29) < 1e-12

    def test_bias_excluded_from_decay_by_default(self):
        params = {"f": {"weight": np.array([1.0]), "bias": np.array([1.0])}}
        mask = {"f": True}
        cfg = SgdConfig(lr0=0.1, momentum=0.0, weight_decay=1e-3, batch_size=1)
        state = init_state(params, mask, cfg)
        grads = {"f": {"weight": np.zeros(1), "bias": np.zeros(1)}}
        new_params, _ = sgd_step(params, grads, mask, state, cfg)
        assert float(new_params["f"]["weight"][0]) == pytest.approx(0.9999)
        assert float(new_params["f"]["bias"][0]) == 1.0

    def test_frozen_tensors_pass_through_as_same_objects(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(0))
        mask = make_mask(spec, {"fc5"})
        cfg = SgdConfig(batch_size=1)
        state = init_state(params, mask, cfg)
        grads = {"fc5": {"weight": np.ones_like(params["fc5"]["weight"]),
                         "bias": np.ones_like(params["fc5"]["bias"])}}
        for _ in range(100):
            params2, state = sgd_step(params, grads, mask, state, cfg)
            assert params2["conv1_1"]["weight"] is params["conv1_1"]["weight"]
            params = params2
        assert not np.array_equal(params["fc5"]["weight"],
                                  init_params(spec, Rng(0))["fc5"]["weight"])

    def test_missing_grad_rejected(self):
        params, mask, cfg, state = scalar_setup(0.0, 0.0, 0.1, 0.0)
        with pytest.raises(StateError):
            sgd_step(params, {}, mask, state, cfg)

    def test_extra_grad_rejected(self):
        params, mask, cfg, state = scalar_setup(0.0, 0.0, 0.1, 0.0)
        grads = {"f": {"weight": np.zeros(1), "bias": np.zeros(1)},
                 "g": {"weight": np.zeros(1)}}
        with pytest.raises(StateError):
            sgd_step(params, grads, mask, state, cfg)

    def _trainable_set(self, layers, shape):
        rng = Rng(40)
        params = {f"f{i}": {"weight": rng.normal(shape).astype(np.float32),
                            "bias": rng.normal(shape[-1:]).astype(np.float32)}
                  for i in range(layers)}
        mask = dict.fromkeys(params, True)
        cfg = SgdConfig(lr0=0.05, momentum=0.9, weight_decay=1e-3, batch_size=1)
        return params, mask, cfg, init_state(params, mask, cfg)

    def _grads(self, params, seed):
        rng = Rng(seed)
        return {n: {t: rng.normal(a.shape).astype(np.float32) for t, a in g.items()}
                for n, g in params.items()}

    def test_in_place_step_matches_out_of_place_formula(self):
        params, mask, cfg, state = self._trainable_set(2, (5, 3))
        ref_w = {n: {t: a.copy() for t, a in g.items()} for n, g in params.items()}
        ref_v = {n: {t: np.zeros_like(a) for t, a in g.items()} for n, g in params.items()}
        arrays = {(n, t): (params[n][t], state.velocity[n][t]) for n in params for t in params[n]}
        for step in range(3):
            grads = self._grads(params, step)
            got_params, got_state = sgd_step(params, grads, mask, state, cfg)
            assert got_params is params and got_state is state
            for n in params:
                for t in ("weight", "bias"):
                    assert params[n][t] is arrays[n, t][0]
                    assert state.velocity[n][t] is arrays[n, t][1]
                    lam = cfg.weight_decay if t == "weight" else 0.0
                    ref_v[n][t] = (cfg.momentum * ref_v[n][t]
                                   - state.lr * (grads[n][t] + lam * ref_w[n][t]))
                    ref_w[n][t] = ref_w[n][t] + ref_v[n][t]
                    assert params[n][t].tobytes() == ref_w[n][t].tobytes()
                    assert state.velocity[n][t].tobytes() == ref_v[n][t].tobytes()

    def test_bad_gradients_write_nothing(self):
        params, mask, cfg, state = self._trainable_set(2, (5, 3))
        sgd_step(params, self._grads(params, 1), mask, state, cfg)  # nonzero velocity

        def snapshot():
            return [a.tobytes() for group in (params, state.velocity)
                    for n in group for a in group[n].values()]

        before = snapshot()
        good = self._grads(params, 2)
        for bad in ({"f0": good["f0"]},
                    {**good, "g": good["f0"]},
                    {"f0": good["f0"], "f1": {"weight": good["f1"]["weight"]}}):
            with pytest.raises(StateError):
                sgd_step(params, bad, mask, state, cfg)
            assert snapshot() == before

    @pytest.mark.parametrize("bad", [("bias", (1,)), ("weight", (8,))])
    def test_misshaped_gradient_rejected(self, bad):
        # broadcasting would apply a (1,) bias gradient, or one row of weight
        # gradient, to every element or row
        tname, shape = bad
        params = {"f": {"weight": np.ones((4, 8), np.float32),
                        "bias": np.ones(8, np.float32)}}
        mask = {"f": True}
        cfg = SgdConfig(batch_size=1)
        state = init_state(params, mask, cfg)
        grads = {"f": {t: np.ones_like(a) for t, a in params["f"].items()}}
        grads["f"][tname] = np.ones(shape, np.float32)
        with pytest.raises(ShapeError, match=f"layer 'f': {tname} gradient shape"):
            sgd_step(params, grads, mask, state, cfg)
        assert all((a == 1).all() for a in params["f"].values())
        assert not any(a.any() for a in state.velocity["f"].values())

    @pytest.mark.parametrize("fault, match", [
        ("velocity lacks the layer", r"layer 'f1': velocity tensors \[\], expected"),
        ("velocity lacks a tensor", r"layer 'f1': velocity tensors \['weight'\], expected"),
        ("gradient has an extra tensor", r"layer 'f1': gradient tensors \['bias', 'extra', 'w"),
        ("velocity has an extra tensor", r"layer 'f1': velocity tensors \['bias', 'extra', 'w"),
    ])
    def test_mismatched_tensor_sets_rejected(self, fault, match):
        # f0 comes first and is sound: a check that ran as the update went
        # would already have written it
        params, mask, cfg, state = self._trainable_set(2, (5, 3))
        grads = self._grads(params, 3)
        if fault == "velocity lacks the layer":
            del state.velocity["f1"]
        elif fault == "velocity lacks a tensor":
            del state.velocity["f1"]["bias"]
        else:
            group = grads["f1"] if fault.startswith("gradient") else state.velocity["f1"]
            group["extra"] = np.zeros(3, np.float32)
        before = [a.tobytes() for group in (params, state.velocity)
                  for n in group for a in group[n].values()]
        with pytest.raises(StateError, match=match):
            sgd_step(params, grads, mask, state, cfg)
        assert [a.tobytes() for group in (params, state.velocity)
                for n in group for a in group[n].values()] == before

    @pytest.mark.parametrize("gdtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lr, mu, lam", [(0.05, 0.9, 1e-3), (0.013, 0.5, 0.0),
                                             (1e-4, 0.0, 0.05)])
    def test_chunked_step_matches_the_whole_tensor_step(self, lr, mu, lam, gdtype):
        def whole_tensor_step(w, v, g, lam):
            # the update on whole tensors, as it ran before the chunked one
            v *= mu
            v -= lr * (g + lam * w)
            w += v

        rng = Rng(43)
        sizes = (1, PIECE_ELEMENTS - 1, PIECE_ELEMENTS, PIECE_ELEMENTS + 1,
                 3 * PIECE_ELEMENTS + 5)
        params = {f"f{n}": {"weight": rng.normal((n,)).astype(np.float32),
                            "bias": rng.normal((n,)).astype(np.float32)} for n in sizes}
        # a transposed weight: not C-contiguous
        params["t"] = {"weight": rng.normal((700, 600)).astype(np.float32).T,
                       "bias": rng.normal((600,)).astype(np.float32)}
        mask = dict.fromkeys(params, True)
        cfg = SgdConfig(lr0=lr, momentum=mu, weight_decay=lam, batch_size=1)
        state = init_state(params, mask, cfg)
        ref_w = {n: {t: a.copy() for t, a in g.items()} for n, g in params.items()}
        ref_v = {n: {t: np.zeros_like(a) for t, a in g.items()} for n, g in params.items()}
        def arrays():
            return [a for group in (params, state.velocity) for g in group.values()
                    for a in g.values()]

        updated_in_place = arrays()
        for step in range(2):
            grads = {n: {t: rng.normal(a.shape).astype(gdtype) for t, a in g.items()}
                     for n, g in params.items()}
            sgd_step(params, grads, mask, state, cfg)
            for n in params:
                for t in ("weight", "bias"):
                    whole_tensor_step(ref_w[n][t], ref_v[n][t], grads[n][t],
                                      lam if t == "weight" else 0.0)
                    assert params[n][t].tobytes() == ref_w[n][t].tobytes(), (n, t, step)
                    assert state.velocity[n][t].tobytes() == ref_v[n][t].tobytes(), (n, t)
        assert all(a is b for a, b in zip(arrays(), updated_in_place))

    def test_blocks_shared_by_two_workers_step_as_one(self):
        # a 16 MB weight steps in 16 row blocks, which two workers share, each
        # through its own block of scratch: the bytes are the serial step's
        rng = Rng(46)
        grads = [rng.normal((4096, 1024)).astype(np.float32) for _ in range(3)]
        start = rng.normal((4096, 1024)).astype(np.float32)
        cfg = SgdConfig(lr0=0.05, batch_size=1)

        def steps(**pool):
            params = {"f": {"weight": start.copy()}}
            state = init_state(params, {"f": True}, cfg)
            for g in grads:
                sgd_step(params, {"f": {"weight": g}}, {"f": True}, state, cfg, **pool)
            return params["f"]["weight"].tobytes(), state.velocity["f"]["weight"].tobytes()

        with WorkerPool(2) as pool:
            assert steps(pool=pool) == steps()

    def test_step_allocates_no_new_tensors(self):
        # the old out-of-place step allocated about 2.2x all trainable bytes
        params, mask, cfg, state = self._trainable_set(4, (512, 512))
        grads = self._grads(params, 3)
        peak, _ = traced_peak(lambda: sgd_step(params, grads, mask, state, cfg))
        assert peak < 2.5 * params["f0"]["weight"].nbytes

    def test_strided_tensor_steps_through_one_row_block_of_scratch(self):
        # a transposed 16 MB weight is stepped in blocks of whole rows, not
        # through one scratch buffer of the whole tensor
        w = np.ones((2048, 2048), np.float32).T
        params = {"t": {"weight": w, "bias": np.ones(2048, np.float32)}}
        mask = {"t": True}
        cfg = SgdConfig(batch_size=1)
        state = init_state(params, mask, cfg)
        grads = {"t": {t: np.ones_like(a) for t, a in params["t"].items()}}
        peak, _ = traced_peak(lambda: sgd_step(params, grads, mask, state, cfg))
        block = 4 * PIECE_ELEMENTS
        # beyond the block, numpy's iterator buffers for strided operands (about 0.1 MB)
        assert block <= peak < 1.25 * block
        assert not w.flags.c_contiguous and (w < 1).all()  # every row was stepped

    def test_a_row_longer_than_a_block_is_a_block_of_one_row(self):
        rng = Rng(45)
        params = {"f": {"weight": rng.normal((3, PIECE_ELEMENTS + 1)).astype(np.float32),
                        "bias": rng.normal((PIECE_ELEMENTS + 1,)).astype(np.float32)}}
        mask = {"f": True}
        cfg = SgdConfig(batch_size=1)
        state = init_state(params, mask, cfg)
        grads = {"f": {t: rng.normal(a.shape).astype(np.float32)
                       for t, a in params["f"].items()}}
        expected = {}
        for t, w in params["f"].items():
            lam = cfg.weight_decay if t == "weight" else 0.0
            v = -cfg.lr0 * (grads["f"][t] + lam * w)
            expected[t] = (w + v).tobytes()
        sgd_step(params, grads, mask, state, cfg)
        assert {t: a.tobytes() for t, a in params["f"].items()} == expected

    def test_quadratic_descent_is_monotone(self):
        # L(w) = 0.5*(w-3)^2, gradient w-3; plain SGD at lr 1e-2
        params = {"f": {"weight": np.array([10.0]), "bias": np.zeros(1)}}
        mask = {"f": True}
        cfg = SgdConfig(lr0=1e-2, momentum=0.0, weight_decay=0.0, batch_size=1)
        state = init_state(params, mask, cfg)
        losses = []
        for _ in range(50):
            w = float(params["f"]["weight"][0])
            losses.append(0.5 * (w - 3.0) ** 2)
            grads = {"f": {"weight": np.array([w - 3.0]), "bias": np.zeros(1)}}
            params, state = sgd_step(params, grads, mask, state, cfg)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestPlateau:
    def _state(self, lr=0.1):
        return OptState(velocity={}, lr=lr)

    def test_improvement_resets_counter(self):
        cfg = SgdConfig()
        s = plateau_update(self._state(), 0.5, cfg)
        assert s.lr == 0.1 and s.best_accuracy == 0.5
        s = plateau_update(s, 0.6, cfg)
        assert s.lr == 0.1 and s.epochs_since_improvement == 0

    def test_plateau_decays_by_ten(self):
        cfg = SgdConfig(patience=1)
        s = plateau_update(self._state(), 0.5, cfg)
        s = plateau_update(s, 0.5, cfg)
        assert s.lr == pytest.approx(0.01)

    def test_tiny_gain_does_not_count(self):
        cfg = SgdConfig(patience=1, improvement_epsilon=1e-4)
        s = plateau_update(self._state(), 0.5, cfg)
        s = plateau_update(s, 0.5 + 5e-5, cfg)
        assert s.lr == pytest.approx(0.01)

    def test_patience_two(self):
        cfg = SgdConfig(patience=2)
        s = plateau_update(self._state(), 0.5, cfg)
        s = plateau_update(s, 0.4, cfg)
        assert s.lr == 0.1
        s = plateau_update(s, 0.4, cfg)
        assert s.lr == pytest.approx(0.01)

    def test_floor_holds(self):
        cfg = SgdConfig(patience=1, min_lr=1e-5)
        s = self._state(lr=2e-5)
        s = plateau_update(s, 0.5, cfg)
        s = plateau_update(s, 0.5, cfg)
        assert s.lr == 1e-5
        s = plateau_update(s, 0.5, cfg)
        assert s.lr == 1e-5

    def test_lr_never_increases(self):
        cfg = SgdConfig(patience=1)
        s = self._state()
        accs = [0.1, 0.2, 0.2, 0.2, 0.3, 0.1, 0.1, 0.4]
        prev = s.lr
        for a in accs:
            s = plateau_update(s, a, cfg)
            assert s.lr <= prev
            prev = s.lr


def one_batch_stream(x, labels, times=1):
    for _ in range(times):
        yield x, labels


class TestTrainEpoch:
    def _two_fc_peak(self, pool=None):
        # two equally large fc layers, back to back: keeping a gradient past
        # its update, or a tensor-sized temporary inside it, breaks the bound
        spec = NetworkSpec("two", (1024, 1, 1), [
            fc("fc1", 1024), fc("fc2", 1024), relu("relu2"), fc("fc3", 8), softmax_loss()])
        params = init_params(spec, Rng(50))
        mask = make_mask(spec, True)
        cfg = SgdConfig(lr0=0.01, batch_size=4)
        state = init_state(params, mask, cfg)
        x = Rng(51).normal((4, 1024, 1, 1)).astype(np.float32)
        # params and velocity exist before tracing starts, so are not counted
        peak, _ = traced_peak(lambda: train_epoch(
            spec, params, mask, state, cfg, one_batch_stream(x, [0, 1, 2, 3]), Rng(52), pool))
        largest = params["fc1"]["weight"].nbytes
        assert largest == params["fc2"]["weight"].nbytes == 4 * 2**20
        return peak, largest

    def test_step_holds_one_gradient_and_one_chunk(self):
        peak, largest = self._two_fc_peak()
        assert peak <= largest + PIECE_ELEMENTS * 4 + 2**18, peak

    def test_step_on_two_workers_holds_one_gradient_and_a_chunk_each(self):
        # each worker steps its row blocks through a chunk of its own
        with WorkerPool(2) as pool:
            peak, largest = self._two_fc_peak(pool)
        assert peak <= largest + 2 * PIECE_ELEMENTS * 4 + 2**18, peak

    def test_a_failed_step_without_a_pool_leaves_nothing_behind(self):
        # the prefix has run on the epoch's own pool and the head's forward
        # has made its caches (the input alone is 192 KiB) when the loss
        # meets a label out of range: the pool, its plan and the caches all
        # go with the error. A first call warms numpy's and Python's caches
        spec = NetworkSpec("split", (16, 64, 64), [
            conv("c1", 16), relu("r1"), maxpool("p1"), fc("f1", 8), softmax_loss()])
        params = init_params(spec, Rng(63))
        mask = make_mask(spec, {"f1"})
        cfg = SgdConfig(lr0=0.01, batch_size=3)
        state = init_state(params, mask, cfg)
        x = Rng(64).normal((3, 16, 64, 64)).astype(np.float32)
        before = {n: {t: a.tobytes() for t, a in g.items()} for n, g in params.items()}

        def failed_epoch():
            with pytest.raises(LabelError, match="must lie in"):
                train_epoch(spec, params, mask, state, cfg, one_batch_stream(x, [0, 1, 8]), Rng(65))

        failed_epoch()
        tracemalloc.start()
        try:
            failed_epoch()
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 4 * 2**20  # the prefix's plan was made
        assert left < 2**16, left
        assert {n: {t: a.tobytes() for t, a in g.items()} for n, g in params.items()} == before

    def test_step_frees_the_prefix_plan_before_the_head_runs(self):
        # a frozen conv prefix whose plan is several MB, in front of a
        # trainable fc whose gradient is about as large: a pool that kept the
        # plan into the head's forward and backward would hold both at once
        spec = NetworkSpec("split", (16, 64, 64), [
            conv("c1", 16), relu("r1"), maxpool("p1"), fc("f1", 64), softmax_loss()])
        params = init_params(spec, Rng(60))
        mask = make_mask(spec, {"f1"})
        cfg = SgdConfig(lr0=0.01, batch_size=3)
        state = init_state(params, mask, cfg)
        x = Rng(61).normal((3, 16, 64, 64)).astype(np.float32)
        with WorkerPool(2) as pool:
            plan = pool.plan(spec.layers[:3], spec.shapes[:4], 3, np.float32).nbytes
            pool.release()
            peak, _ = traced_peak(lambda: train_epoch(
                spec, params, mask, state, cfg, one_batch_stream(x, [0, 1, 2]), Rng(62), pool))
        grad = params["f1"]["weight"].nbytes
        assert plan > 6 * 2**20 and grad == 4 * 2**20
        assert peak < plan + grad, (peak, plan, grad)

    def _setup(self, lr):
        spec = build_profile("mini")
        params = init_params(spec, Rng(21))
        mask = make_mask(spec, {"fc3", "fc4", "fc5"})
        cfg = SgdConfig(lr0=lr, batch_size=4)
        state = init_state(params, mask, cfg)
        x = Rng(22).normal((4, 3, 32, 32)).astype(np.float32)
        labels = [0, 2, 4, 6]
        return spec, params, mask, cfg, state, x, labels

    def test_lr_zero_leaves_params_unchanged(self):
        spec, params, mask, cfg, state, x, labels = self._setup(1e-30)
        before = {n: {t: a.copy() for t, a in g.items()} for n, g in params.items()}
        new_params, new_state, loss = train_epoch(
            spec, params, mask, state, cfg, one_batch_stream(x, labels), Rng(5))
        for name in params:
            for tname in params[name]:
                assert np.allclose(new_params[name][tname],
                                   before[name][tname], atol=1e-25)
        assert loss == pytest.approx(LN8, abs=0.1)

    def test_first_epoch_loss_near_ln8(self):
        spec, params, mask, cfg, state, x, labels = self._setup(0.01)
        _, _, loss = train_epoch(spec, params, mask, state, cfg,
                                 one_batch_stream(x, labels), Rng(5))
        assert abs(loss - LN8) < 0.1

    def test_deterministic_given_seed(self):
        # two separately built sets: the step updates its inputs in place
        spec, params, mask, cfg, state, x, labels = self._setup(0.01)
        a, _, _ = train_epoch(spec, params, mask, state, cfg,
                              one_batch_stream(x, labels, 3), Rng(5))
        spec, params, mask, cfg, state, x, labels = self._setup(0.01)
        b, _, _ = train_epoch(spec, params, mask, state, cfg,
                              one_batch_stream(x, labels, 3), Rng(5))
        assert a is not b
        for name in a:
            for tname in a[name]:
                assert np.array_equal(a[name][tname], b[name][tname])

    def test_epoch_counter_increments(self):
        spec, params, mask, cfg, state, x, labels = self._setup(0.01)
        _, s1, _ = train_epoch(spec, params, mask, state, cfg,
                               one_batch_stream(x, labels), Rng(5))
        assert s1.epoch == state.epoch + 1

    def test_mean_loss_weighted_by_batch_size(self):
        # one 4-image batch and one 2-image batch: mean weighs 4:2
        spec, params, mask, cfg, state, x, labels = self._setup(1e-30)

        def stream():
            yield x, labels
            yield x[:2], labels[:2]

        from agecnn.network import forward
        from agecnn.layers import softmax_log_loss
        drop_rng = Rng(5)
        s1, _ = forward(spec, params, x, rng=drop_rng)
        l1 = softmax_log_loss(s1, labels)[0]
        s2, _ = forward(spec, params, x[:2], rng=drop_rng)
        l2 = softmax_log_loss(s2, labels[:2])[0]
        want = (4 * l1 + 2 * l2) / 6
        _, _, loss = train_epoch(spec, params, mask, state, cfg, stream(), Rng(5))
        assert loss == pytest.approx(want, abs=1e-6)

    def test_frozen_layers_bit_identical_across_epochs(self):
        spec, params, mask, cfg, state, x, labels = self._setup(0.05)
        before = {n: {t: a.copy() for t, a in g.items()}
                  for n, g in params.items() if not mask[n]}
        cur = params
        for epoch in range(3):
            cur, state, _ = train_epoch(spec, cur, mask, state, cfg,
                                        one_batch_stream(x, labels, 2),
                                        Rng(100 + epoch))
        for name, group in before.items():
            for tname, t in group.items():
                assert t.tobytes() == cur[name][tname].tobytes()

    @pytest.mark.parametrize("trainable, first", [
        ({"fc3", "fc4", "fc5"}, "fc3"), ({"conv2_1", "fc5"}, "conv2_1"),
        (True, "conv1_1"), ({"fc5"}, "drop3")])
    def test_caches_start_at_the_split(self, trainable, first, monkeypatch):
        # the frozen prefix keeps no caches: forward's start at the earliest
        # trainable layer, or at an earlier dropout (frozen_prefix)
        spec, params, _, cfg, _, x, labels = self._setup(0.01)
        mask = make_mask(spec, trainable)
        seen = []
        real = optim.forward

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(out[1][0].name)
            return out

        monkeypatch.setattr(optim, "forward", spy)
        train_epoch(spec, params, mask, init_state(params, mask, cfg), cfg,
                    one_batch_stream(x, labels, 2), Rng(5))
        assert seen == [first, first]

    def test_batch_is_dead_before_the_next_is_built(self):
        # the stream checks that nothing still holds the last batch when it
        # builds the next one
        spec, params, mask, cfg, state, x, labels = self._setup(0.01)
        refs = []

        def stream():
            for _ in range(3):
                assert all(ref() is None for ref in refs)
                batch = x.copy()
                refs.append(weakref.ref(batch))
                yield batch, labels
                del batch

        train_epoch(spec, params, mask, state, cfg, stream(), Rng(5))
        assert len(refs) == 3

    def test_non_finite_weights_after_last_step_rejected(self):
        # one step whose loss is still finite but whose update overflows
        spec, params, mask, cfg, state, x, labels = self._setup(1e40)
        with np.errstate(all="ignore"), pytest.raises(StateError, match="non-finite"):
            train_epoch(spec, params, mask, state, cfg, one_batch_stream(x, labels), Rng(5))

    def test_empty_stream_rejected(self):
        spec, params, mask, cfg, state, _, _ = self._setup(0.01)
        with pytest.raises(InputError):
            train_epoch(spec, params, mask, state, cfg, iter(()), Rng(5))


class TestTrainOnAnyPool:
    """Every train-mode piece (a kernel's forward and backward, a momentum
    block) is fixed by the shapes, so an epoch writes the same params and
    velocity bytes without a pool and on a pool of one or two workers."""

    MASKS = {"head": {"fc3", "fc4", "fc5"}, "conv2_2 and head": {"conv2_2", "fc3", "fc4", "fc5"},
             "all": True}

    def _epoch_bytes(self, spec, trainable, pool):
        params = init_params(spec, Rng(70), std=0.05)
        mask = make_mask(spec, trainable)
        cfg = SgdConfig(lr0=0.01, batch_size=4)
        state = init_state(params, mask, cfg)
        x = Rng(71).normal((6,) + spec.input_shape).astype(np.float32)
        labels = [0, 3, 5, 7, 1, 2]

        def stream():  # a full batch, then a short one whose velocity is not zero
            yield x[:4], labels[:4]
            yield x[4:], labels[4:]

        train_epoch(spec, params, mask, state, cfg, stream(), Rng(72), pool)
        return ({n: {t: a.tobytes() for t, a in g.items()} for n, g in params.items()},
                {n: {t: a.tobytes() for t, a in g.items()} for n, g in state.velocity.items()})

    def _same_on_any_pool(self, spec, trainable):
        want = self._epoch_bytes(spec, trainable, None)
        for workers in (1, 2, 3):
            with WorkerPool(workers) as pool:
                assert self._epoch_bytes(spec, trainable, pool) == want, workers

    @pytest.mark.parametrize("masked", list(MASKS))
    def test_mini_same_bytes_on_any_pool(self, masked):
        self._same_on_any_pool(build_profile("mini"), self.MASKS[masked])

    def test_wide_head_same_bytes_on_any_pool(self):
        # fc blocks split in both directions, and fc4's weight (1.5M values)
        # steps in six blocks, which two workers share
        spec = replace_head_spec(build_profile("mini"), [1536, 1000, 8])
        self._same_on_any_pool(spec, {"fc3", "fc4", "fc5"})

    def test_small_pieces_same_bytes_on_any_pool(self, monkeypatch):
        # every kernel and every momentum step cut into many pieces, with the
        # workers switched between as often as the interpreter allows
        monkeypatch.setattr(L, "BAND_BYTES", 9000)
        monkeypatch.setattr(L, "PIECE_ELEMENTS", 40)
        monkeypatch.setattr(optim, "PIECE_ELEMENTS", 40)
        monkeypatch.setattr(L, "FC_COLUMNS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._same_on_any_pool(build_profile("mini"), True)
        finally:
            sys.setswitchinterval(interval)
