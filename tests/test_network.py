import sys
import threading

import numpy as np
import pytest

from agecnn import (ConfigError, ParameterError, Rng, ShapeError, StateError, build_profile,
                    head_replace, infer_shapes, init_params, make_mask,
                    param_shapes, replace_head_spec)
from agecnn import layers as L
from agecnn import network as net
from agecnn.layers import (conv, dropout, fc, forward_layer, lrn, maxpool, relu, softmax,
                           softmax_loss, softmax_log_loss, softmax_log_loss_backward)
from agecnn.network import NetworkSpec, trunk_and_head, validate_params

from conftest import eval_layer, fd_max_rel_err, to64, traced_peak


def param_counts(spec):
    return {name: sum(int(np.prod(s)) for s in shapes.values())
            for name, shapes in param_shapes(spec).items()}


class TestProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            build_profile("resnet")

    def test_hyphen_and_underscore_names(self):
        assert build_profile("vgg-face-age").name == "vgg_face_age"
        assert build_profile("vgg_face_age").name == "vgg_face_age"

    def test_vgg_head_widths(self):
        spec = build_profile("vgg_face_age")
        widths = [l.params["out_features"] for l in spec.layers if l.kind == "fc"]
        assert widths == [4096, 5000, 5000, 8]

    def test_vgg_final_fc_is_8(self):
        spec = build_profile("vgg_face_age")
        last_fc = [l for l in spec.layers if l.kind == "fc"][-1]
        assert last_fc.params["out_features"] == 8

    def test_fc9_param_count(self):
        counts = param_counts(build_profile("vgg_face_age"))
        assert counts["fc9"] == 5000 * 8 + 8 == 40008

    def test_vgg_conv_plan(self):
        spec = build_profile("vgg_face_age")
        convs = [l for l in spec.layers if l.kind == "conv"]
        assert len(convs) == 13
        plan = [l.params["out_channels"] for l in convs]
        assert plan == [64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]
        assert all(l.params["kernel"] == 3 and l.params["stride"] == 1
                   and l.params["pad"] == 1 for l in convs)

    def test_vgg_norm_and_pool_placement(self):
        names = [l.name for l in build_profile("vgg_face_age").layers]
        assert names.index("norm1") == names.index("relu1_1") + 1
        assert names.index("norm2") == names.index("relu2_1") + 1
        assert sum(n.startswith("norm") for n in names) == 2
        assert sum(n.startswith("pool") for n in names) == 5

    def test_mini_structure(self):
        spec = build_profile("mini")
        assert spec.input_shape == (3, 32, 32)
        fcs = [l.params["out_features"] for l in spec.layers if l.kind == "fc"]
        assert fcs == [32, 16, 8]
        assert spec.layers[-1].kind == "softmax_loss"

    def test_dropout_rate_flows_through(self):
        spec = build_profile("mini", dropout_rate=0.3)
        drops = [l for l in spec.layers if l.kind == "dropout"]
        assert drops and all(l.params["rate"] == 0.3 for l in drops)

    def test_exactly_one_loss_layer_enforced(self):
        with pytest.raises(ConfigError):
            NetworkSpec("bad", (3, 8, 8), (conv("c", 2), relu("r")))
        with pytest.raises(ConfigError):
            NetworkSpec("bad", (3, 8, 8),
                        (softmax_loss("p1"), conv("c", 2), softmax_loss("p2")))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            NetworkSpec("bad", (3, 8, 8), (conv("c", 2), conv("c", 2), softmax_loss()))

    @pytest.mark.parametrize("shape", [(0, 8, 8), (-1, 8, 8), (3, 8, 0)])
    def test_non_positive_input_extent_rejected(self, shape):
        # a zero-channel input would otherwise give conv a zero-extent weight
        with pytest.raises(ConfigError):
            NetworkSpec("bad", shape, (conv("c", 2), relu("r"), fc("f", 3), softmax_loss()))


class TestInferShapes:
    def test_vgg_trunk_ends_512x7x7(self):
        shapes = dict(infer_shapes(build_profile("vgg_face_age")))
        assert shapes["pool5"] == (512, 7, 7)

    def test_vgg_fc6_output(self):
        shapes = dict(infer_shapes(build_profile("vgg_face_age")))
        assert shapes["fc6"] == (4096,)

    def test_mini_chain(self):
        shapes = dict(infer_shapes(build_profile("mini")))
        assert shapes["pool1"] == (8, 16, 16)
        assert shapes["pool2"] == (16, 8, 8)
        assert shapes["fc5"] == (8,)

    def test_removing_a_pool_breaks_fc_width(self):
        # a spec whose shapes do not chain fails when it is built
        spec = build_profile("mini")
        layers = tuple(l for l in spec.layers if l.name != "pool2")
        with pytest.raises(ShapeError) as err:
            NetworkSpec("broken", spec.input_shape, layers)
        assert "fc3" in str(err.value)

    def test_pinned_fc_width_rejects_other_input_sizes(self):
        # profile fc layers declare their flattened input width, so a
        # different spatial size must fail at the first fc, by name
        spec = build_profile("mini")
        with pytest.raises(ShapeError) as err:
            NetworkSpec(spec.name, (3, 64, 64), spec.layers)
        assert "fc3" in str(err.value)

    def test_unpinned_fc_adapts_to_input_shape(self):
        layers = (maxpool("p"), fc("f", 4), softmax_loss())
        assert dict(infer_shapes(NetworkSpec("t", (1, 8, 8), layers)))["f"] == (4,)
        assert dict(infer_shapes(NetworkSpec("t", (1, 16, 16), layers)))["f"] == (4,)


class TestParams:
    def test_init_matches_declared_shapes(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(0))
        validate_params(spec, params)
        for name, shapes in param_shapes(spec).items():
            for tname, shape in shapes.items():
                assert params[name][tname].shape == shape
                assert params[name][tname].dtype == np.float32

    def test_biases_start_zero(self):
        params = init_params(build_profile("mini"), Rng(0))
        assert all(np.all(g["bias"] == 0.0) for g in params.values())

    def test_weight_std_near_declared(self):
        params = init_params(build_profile("mini"), Rng(0), std=0.01)
        w = params["fc3"]["weight"]
        assert abs(float(w.std()) - 0.01) < 0.001

    def test_validate_rejects_missing_layer(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(0))
        del params["fc4"]
        with pytest.raises(ConfigError):
            validate_params(spec, params)

    def test_validate_rejects_wrong_shape(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(0))
        params["fc4"]["weight"] = np.zeros((3, 3), np.float32)
        with pytest.raises(ShapeError):
            validate_params(spec, params)

    def test_make_mask_variants(self):
        spec = build_profile("mini")
        assert all(make_mask(spec, True).values())
        assert not any(make_mask(spec, False).values())
        partial = make_mask(spec, {"fc5"})
        assert partial["fc5"] and not partial["fc3"]
        with pytest.raises(ConfigError):
            make_mask(spec, {"nosuch"})


class TestHeadReplace:
    def test_widths_reproduce_vgg_head(self):
        spec = build_profile("vgg_face_age")
        new_spec = replace_head_spec(spec, [4096, 5000, 5000, 8])
        assert [l.name for l in new_spec.layers] == [l.name for l in spec.layers]

    def test_trunk_tensors_pass_through_untouched(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(1))
        new_spec, new_params, mask = head_replace(spec, [24, 8], params, Rng(2))
        for layer in new_spec.layers:
            if layer.kind == "conv":
                assert new_params[layer.name]["weight"] is params[layer.name]["weight"]
                assert new_params[layer.name]["bias"] is params[layer.name]["bias"]

    def test_mask_freezes_trunk_trains_head(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(1))
        _, _, mask = head_replace(spec, [24, 8], params, Rng(2))
        assert mask == {"conv1_1": False, "conv1_2": False, "conv2_1": False,
                        "conv2_2": False, "fc3": True, "fc4": True}

    def test_new_biases_zero_and_weights_gaussian(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(1))
        _, new_params, _ = head_replace(spec, [64, 8], params, Rng(2))
        assert np.all(new_params["fc3"]["bias"] == 0.0)
        w = new_params["fc3"]["weight"]
        assert abs(float(w.std()) - 0.01) < 0.002
        assert abs(float(w.mean())) < 0.002

    def test_head_names_continue_numbering(self):
        spec = build_profile("mini")
        new_spec = replace_head_spec(spec, [10, 9, 8])
        fc_names = [l.name for l in new_spec.layers if l.kind == "fc"]
        assert fc_names == ["fc3", "fc4", "fc5"]

    def test_shapes_infer_after_surgery(self):
        spec = build_profile("mini")
        shapes = dict(infer_shapes(replace_head_spec(spec, [40, 12, 8])))
        assert shapes["fc3"] == (40,)
        assert shapes["fc5"] == (8,)

    def test_empty_widths_rejected(self):
        spec = build_profile("mini")
        with pytest.raises(ConfigError):
            replace_head_spec(spec, [])

    def test_missing_trunk_params_rejected(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(1))
        del params["conv2_2"]
        with pytest.raises(ConfigError):
            head_replace(spec, [16, 8], params, Rng(2))

    def test_trunk_and_head_split(self):
        trunk, head = trunk_and_head(build_profile("mini"))
        assert trunk[-1].name == "pool2"
        assert head[0].name == "fc3"
        assert head[-1].kind == "softmax_loss"


class TestForward:
    def test_eval_rows_sum_to_one(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        x = Rng(4).normal((2, 3, 32, 32)).astype(np.float32)
        scores = net.eval_scores(spec, params, x)
        assert scores.shape == (2, 8)
        assert np.array_equal(net.eval_layers(spec, params, x, 0, len(spec.layers) - 1), scores)
        assert np.allclose(softmax(scores).sum(axis=1), 1.0, atol=1e-6)

    def test_eval_deterministic(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        x = Rng(4).normal((2, 3, 32, 32)).astype(np.float32)
        a = net.eval_scores(spec, params, x)
        b = net.eval_scores(spec, params, x)
        assert np.array_equal(a, b)

    def test_train_mode_seeded_repeatable(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        x = Rng(4).normal((2, 3, 32, 32)).astype(np.float32)
        a, _ = net.forward(spec, params, x, mode="train", rng=Rng(9))
        b, _ = net.forward(spec, params, x, mode="train", rng=Rng(9))
        c, _ = net.forward(spec, params, x, mode="train", rng=Rng(10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_per_sample_outputs_independent_of_batch_size(self):
        # A sample's trunk features at batch 6 equal, bit for bit, its features
        # run alone, in both modes, and its scores equal those from batches of
        # 2 and of 1 (fc keeps a one-row product off gemv, which rounds
        # differently from gemm).
        spec = build_profile("mini", dropout_rate=0.0)
        params = init_params(spec, Rng(3), std=0.1)
        x = Rng(4).normal((6, 3, 32, 32)).astype(np.float32)
        trunk, _ = trunk_and_head(spec)

        def features(batch, run):
            for layer in trunk:
                batch, _ = run(layer, batch, params.get(layer.name))
            return batch

        for run in (eval_layer, forward_layer):
            whole = features(x, run)
            assert len({row.tobytes() for row in whole}) == 6
            for i in range(6):
                assert np.array_equal(features(x[i:i + 1], run)[0], whole[i])
        scores = net.eval_scores(spec, params, x)
        trained, _ = net.forward(spec, params, x, mode="train", rng=Rng(9))
        for i in range(6):
            assert np.array_equal(net.eval_scores(spec, params, x[i:i + 1])[0], scores[i])
        for i in range(0, 6, 2):
            assert np.array_equal(net.eval_scores(spec, params, x[i:i + 2]), scores[i:i + 2])
            pair, _ = net.forward(spec, params, x[i:i + 2], mode="train", rng=Rng(9))
            assert np.array_equal(pair, trained[i:i + 2])

    def test_batch_shape_checked(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        x = np.zeros((2, 3, 16, 16), np.float32)
        with pytest.raises(ShapeError):
            net.eval_layers(spec, params, x, 0, len(spec.layers) - 1)
        with pytest.raises(ShapeError):
            net.forward(spec, params, x, "train", Rng(9))

    def test_bad_mode_rejected(self):
        # eval-mode runs go through eval_layers, the one eval walk
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        for mode in ("test", "eval"):
            with pytest.raises(ConfigError, match="eval_layers"):
                net.forward(spec, params, np.zeros((1, 3, 32, 32), np.float32), mode=mode)


class TestFrozenPrefix:
    def test_ends_at_earliest_trainable_layer(self):
        spec = build_profile("mini")
        names = [l.name for l in spec.layers]
        assert net.frozen_prefix(spec, make_mask(spec, {"fc3", "fc4", "fc5"})) == \
            names.index("fc3")
        assert net.frozen_prefix(spec, make_mask(spec, {"conv2_1", "fc5"})) == \
            names.index("conv2_1")
        assert net.frozen_prefix(spec, make_mask(spec, True)) == 0

    def test_stops_before_dropout_and_loss(self):
        # dropout draws from the rng in train mode, and the loss layer
        # softmaxes only in eval mode, so neither may run as a fixed extractor
        spec = build_profile("mini")
        names = [l.name for l in spec.layers]
        assert net.frozen_prefix(spec, make_mask(spec, {"fc5"})) == names.index("drop3")
        spec0 = build_profile("mini", dropout_rate=0.0)
        assert net.frozen_prefix(spec0, make_mask(spec0, {"fc5"})) == names.index("drop3")
        nodrop = NetworkSpec("t", (2, 6, 6), (conv("c1", 3), relu("r1"), fc("f1", 4),
                                              softmax_loss()))
        assert net.frozen_prefix(nodrop, make_mask(nodrop, False)) == 3

    def test_mask_must_cover_parameterized_layers(self):
        with pytest.raises(ConfigError):
            net.frozen_prefix(build_profile("mini"), {"fc3": True})

    @pytest.mark.parametrize("size", [1, 2, None])
    def test_outputs_independent_of_micro_batch_size(self, size, monkeypatch):
        # every trunk op is per-sample, so how the rows are cut into micro-
        # batches cannot move a bit; 7 rows leave a short last micro-batch
        spec = build_profile("mini")
        params = init_params(spec, Rng(3), std=0.1)
        x = Rng(4).normal((7, 3, 32, 32)).astype(np.float32)
        split = net.frozen_prefix(spec, make_mask(spec, {"fc3", "fc4", "fc5"}))
        whole, _ = net.forward(spec, params, x, mode="train", rng=Rng(9))
        trunk = x
        for layer in spec.layers[:split]:
            trunk, _ = forward_layer(layer, trunk, params.get(layer.name), "train")
        if size is not None:
            monkeypatch.setattr(net, "MICRO_BATCH", size)
        got = net.eval_layers(spec, params, x, 0, split)
        assert got.tobytes() == trunk.tobytes()
        rest, caches = net.forward(spec, params, got, mode="train", rng=Rng(9), start=split)
        assert rest.tobytes() == whole.tobytes()
        assert [c.name for c in caches] == [l.name for l in spec.layers[split:]]

    def test_input_shape_checked_at_start(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        split = [l.name for l in spec.layers].index("fc3")
        with pytest.raises(ShapeError, match="fc3"):
            net.forward(spec, params, np.zeros((2, 3, 32, 32), np.float32), start=split)
        with pytest.raises(ShapeError, match="input contract"):
            net.eval_layers(spec, params, np.zeros((2, 3, 16, 16), np.float32), 0, split)


def train_walk(spec, params, x, start, stop):
    """Layers [start, stop) one train-mode forward_layer call at a time, on
    the eval walk's micro-batches: the reference the planned walk must match
    byte for byte. (fc's GEMM may round a row differently by where it falls
    in the batch, so the rows are cut where the walk cuts them.)"""
    parts = []
    for row in range(0, len(x), net.MICRO_BATCH):
        part = x[row:row + net.MICRO_BATCH]
        for layer in spec.layers[start:stop]:
            part, _ = forward_layer(layer, part, params.get(layer.name), "train", Rng(0))
        parts.append(part)
    return np.concatenate(parts)


def hand_stacks():
    """Small stacks with what the vgg profiles lack: kernels 5, 2 and 1,
    stride-2 convs with and without padding, overlapping pooling, an LRN
    window wider than its channels, ReLU first and after fc. Dropout rates
    are 0, so train mode (the reference) gives eval mode's values."""
    a = NetworkSpec("a", (3, 13, 11), (
        conv("c1", 4, kernel=5, pad=2), relu("r1"), lrn("n1", n=7, k=1.0, alpha=0.5),
        conv("c2", 6, kernel=3, stride=2, pad=0), maxpool("p1", window=2, stride=1),
        conv("c3", 5, kernel=1, pad=0), relu("r2"), dropout("d1", 0.0), fc("f1", 7),
        relu("r3"), dropout("d2", 0.0), fc("f2", 8), softmax_loss()))
    b = NetworkSpec("b", (2, 11, 11), (
        relu("r0"), lrn("n0", n=3), conv("c1", 3, stride=2), relu("r1"),
        maxpool("p1"), conv("c2", 4, kernel=2, pad=0), fc("f1", 8),
        softmax_loss()))
    return [a, b]


@pytest.fixture(scope="module")
def vgg_trunk():
    """The vgg-face-age trunk with He-scaled weights, under an 8-wide fc6 head."""
    spec = replace_head_spec(build_profile("vgg-face-age"), [8])
    rng = Rng(40)
    params = {}
    for name, shapes in param_shapes(spec).items():
        fan_in = int(np.prod(shapes["weight"][1:])) if name.startswith("conv") else 25088
        params[name] = {"weight": net.gaussian_fill(shapes["weight"], 0.0,
                                                    (2.0 / fan_in) ** 0.5, rng),
                        "bias": np.full(shapes["bias"], 0.01, np.float32)}
    return spec, params, [l.name for l in spec.layers].index("fc6")


class TestEvalPlan:
    @pytest.mark.parametrize("band_bytes", [1, 9000, None])
    @pytest.mark.parametrize("which", [0, 1])
    def test_hand_stacks_match_train_walk(self, which, band_bytes, monkeypatch):
        # 7 rows leave a short last micro-batch; at 9000 bytes a's c1 cuts
        # its 13 output rows into bands of 2 and a last of 1, and c2 its 6
        # into 5 + 1; at 1 byte every band is one row
        if band_bytes is not None:
            monkeypatch.setattr(L, "BAND_BYTES", band_bytes)
        spec = hand_stacks()[which]
        params = init_params(spec, Rng(31), std=0.3)
        x = Rng(32).normal((7,) + spec.input_shape).astype(np.float32)
        stop = len(spec.layers) - 1
        want = train_walk(spec, params, x, 0, stop)
        assert net.eval_layers(spec, params, x, 0, stop).tobytes() == want.tobytes()
        for start in range(1, stop):
            mid = train_walk(spec, params, x, 0, start)
            got = net.eval_layers(spec, params, mid, start, stop)
            assert got.tobytes() == want.tobytes(), spec.layers[start].name

    def test_mini_matches_train_walk(self):
        spec = build_profile("mini", dropout_rate=0.0)
        params = init_params(spec, Rng(33), std=0.1)
        x = Rng(34).normal((7, 3, 32, 32)).astype(np.float32)
        stop = len(spec.layers) - 1
        assert net.eval_scores(spec, params, x).tobytes() == \
            train_walk(spec, params, x, 0, stop).tobytes()

    def test_vgg_trunk_matches_train_walk(self, vgg_trunk):
        spec, params, split = vgg_trunk
        x = Rng(41).normal((3, 3, 224, 224)).astype(np.float32)
        got = net.eval_layers(spec, params, x, 0, split)
        assert got.tobytes() == train_walk(spec, params, x, 0, split).tobytes()
        assert len({row.tobytes() for row in got}) == 3 and np.isfinite(got).all()

    def test_batch_untouched_and_result_fresh(self):
        # b starts with ReLU, which works in place on the plan, not the batch
        spec = hand_stacks()[1]
        params = init_params(spec, Rng(35), std=0.3)
        x = Rng(36).normal((4,) + spec.input_shape).astype(np.float32)
        before = x.copy()
        for stop in (1, 2, len(spec.layers) - 1):
            first = net.eval_layers(spec, params, x, 0, stop)
            second = net.eval_layers(spec, params, x, 0, stop)
            assert x.tobytes() == before.tobytes()
            assert first.tobytes() == second.tobytes()
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, x)

    def test_empty_batch(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(37))
        empty = np.zeros((0, 3, 32, 32), np.float32)
        split = [l.name for l in spec.layers].index("fc3")
        assert net.eval_layers(spec, params, empty, 0, split).shape == (0, 16, 8, 8)
        assert net.eval_scores(spec, params, empty).shape == (0, 8)

    @pytest.mark.parametrize("start, stop", [(5, 3), (-3, 2), (5, 99), (-1, -1)])
    def test_layer_range_checked(self, start, stop):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        x = np.zeros((2,) + spec.input_shape, np.float32)
        with pytest.raises(ParameterError, match=rf"\[{start}, {stop}\)"):
            net.eval_layers(spec, params, x, start, stop)

    def test_forward_start_checked(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        for start in (len(spec.layers) + 2, -1):
            with pytest.raises(ParameterError, match=rf"\[{start}, {len(spec.layers)}\)"):
                net.forward(spec, params, np.zeros((2, 8), np.float32), start=start)

    def test_peak_is_the_plan_at_any_batch(self, vgg_trunk):
        # the walk allocates its plan once and nothing per layer: its traced
        # peak is the plan plus the result, at every batch size
        spec, params, split = vgg_trunk
        trunk, shapes = spec.layers[:split], spec.shapes[:split + 1]

        def plan_bytes(rows):
            with net.WorkerPool(1) as pool:
                return pool.plan(trunk, shapes, rows, np.float32).nbytes

        plan = plan_bytes(net.MICRO_BATCH)
        assert plan < 180 * 2**20
        peaks = {}
        for batch in (1, 3, 7):
            x = Rng(42).normal((batch, 3, 224, 224)).astype(np.float32)
            peak, out = traced_peak(lambda: net.eval_layers(spec, params, x, 0, split))
            peaks[batch] = peak - out.nbytes
        one_row = plan_bytes(1)
        assert one_row <= peaks[1] <= one_row + 2**20
        for batch in (3, 7):
            assert plan <= peaks[batch] <= plan + 2**20, (batch, peaks)


class TestBackward:
    def _setup(self, mask_arg):
        spec = build_profile("mini")
        params = init_params(spec, Rng(5))
        x = Rng(6).normal((2, 3, 32, 32)).astype(np.float32)
        labels = [1, 4]
        scores, caches = net.forward(spec, params, x, mode="train", rng=Rng(7))
        mask = make_mask(spec, mask_arg)
        return spec, params, caches, labels, mask

    def test_all_frozen_gives_empty_grads(self):
        spec, params, caches, labels, mask = self._setup(False)
        assert net.backward(spec, params, caches, labels, mask) == {}

    def test_grad_keys_match_trainable_set(self):
        spec, params, caches, labels, mask = self._setup({"fc3", "fc4", "fc5"})
        grads = net.backward(spec, params, caches, labels, mask)
        assert set(grads) == {"fc3", "fc4", "fc5"}

    def test_partial_trunk_mask(self):
        spec, params, caches, labels, mask = self._setup({"conv2_1"})
        grads = net.backward(spec, params, caches, labels, mask)
        assert set(grads) == {"conv2_1"}

    def test_early_stop_matches_full_backward(self):
        # gradients for a head-only mask must equal the same entries from a
        # run where everything is trainable
        spec, params, caches, labels, head_mask = self._setup({"fc3", "fc4", "fc5"})
        head_grads = net.backward(spec, params, caches, labels, head_mask)
        full_grads = net.backward(spec, params, caches, labels,
                                  make_mask(spec, True))
        for name in head_grads:
            for tname in head_grads[name]:
                assert np.allclose(head_grads[name][tname],
                                   full_grads[name][tname], atol=1e-7)

    def test_caches_from_the_split_give_the_same_grads(self):
        spec, params, caches, labels, mask = self._setup({"fc3", "fc4", "fc5"})
        full = net.backward(spec, params, caches, labels, mask)
        split = net.frozen_prefix(spec, mask)
        part = net.backward(spec, params, caches[split:], labels, mask)
        for name in full:
            for tname in full[name]:
                assert part[name][tname].tobytes() == full[name][tname].tobytes()

    @pytest.mark.parametrize("trainable", [True, {"conv1_2", "fc3", "fc5"}])
    def test_consumer_gets_each_layer_top_down(self, trainable):
        # the dict form's bytes, one call per trainable layer from the top,
        # even when the consumer changes each layer's params as it gets them
        spec, params, caches, labels, mask = self._setup(trainable)
        want = net.backward(spec, params, caches, labels, mask)
        got = []

        def consume(name, grads):
            got.append((name, {t: g.copy() for t, g in grads.items()}))
            for a in params[name].values():
                a += 1.0

        assert net.backward(spec, params, caches, labels, mask, consume=consume) == {}
        order = [l.name for l in reversed(spec.layers) if l.has_params and mask[l.name]]
        assert [name for name, _ in got] == order
        for name, grads in got:
            assert grads.keys() == want[name].keys()
            for t, g in grads.items():
                assert g.tobytes() == want[name][t].tobytes(), (name, t)

    def test_caches_must_reach_the_earliest_trainable_layer(self):
        spec, params, caches, labels, mask = self._setup({"conv2_1"})
        with pytest.raises(StateError, match="conv2_1"):
            net.backward(spec, params, caches[-4:], labels, mask)
        with pytest.raises(StateError):
            net.backward(spec, params, [], labels, mask)

    def test_mask_must_cover_parameterized_layers(self):
        spec, params, caches, labels, _ = self._setup(True)
        with pytest.raises(ConfigError):
            net.backward(spec, params, caches, labels, {"fc3": True})

    def test_misplaced_caches_rejected(self):
        # backward reads the loss cache itself and hands every other cache to
        # backward_layer; both check whose cache it is
        spec, params, caches, labels, mask = self._setup(True)
        for i, j, error in ((-1, 3, "loss cache"), (3, 2, "'norm1'/lrn fed to 'conv1_2'")):
            mixed = list(caches)
            mixed[i] = caches[j]
            with pytest.raises(StateError, match=error):
                net.backward(spec, params, mixed, labels, mask)

    def test_end_to_end_finite_differences_small_net(self):
        # tiny dedicated net (no dropout) so every coordinate can be probed
        spec = NetworkSpec("t", (2, 6, 6), (
            conv("c1", 3, kernel=3, stride=1, pad=1),
            relu("r1"),
            maxpool("p1"),
            fc("f1", 5),
            relu("r2"),
            fc("f2", 4),
            softmax_loss(),
        ))
        # seeds picked so no pre-activation sits within the probe step of a
        # relu kink; error at these seeds is ~6e-8 against a 1e-3 bound
        params = to64(init_params(spec, Rng(10), std=0.1))
        x = Rng(11).normal((2, 2, 6, 6))
        labels = [0, 3]

        def objective():
            scores, _ = net.forward(spec, params, x, mode="train")
            loss, _, _ = softmax_log_loss(scores, labels)
            return loss

        scores, caches = net.forward(spec, params, x, mode="train")
        grads = net.backward(spec, params, caches, labels, make_mask(spec, True))
        tensors, analytic = [], []
        for name in grads:
            for tname in grads[name]:
                tensors.append(params[name][tname])
                analytic.append(grads[name][tname])
        assert fd_max_rel_err(objective, tensors, analytic, samples=40) < 1e-3


class TestCounts:
    def test_mini_total(self):
        counts = param_counts(build_profile("mini"))
        conv_total = 224 + 584 + 1168 + 2320
        head_total = (1024 * 32 + 32) + (32 * 16 + 16) + (16 * 8 + 8)
        assert sum(counts.values()) == conv_total + head_total == 37760

    def test_vgg_total(self):
        assert sum(param_counts(build_profile("vgg_face_age")).values()) == 163009240


def random_stack(rng):
    """A small valid stack with random hyperparameters and input extents: 1
    to 5 conv, relu, lrn and maxpool layers, then 0 to 2 fc layers, each fc
    but the last before a relu, under a loss layer. A draw whose shapes do
    not chain (NetworkSpec raises ShapeError) is redrawn whole."""
    def draw(i, kind):
        if kind == "conv":
            return conv(f"c{i}", int(rng.integers(1, 17)), kernel=int(rng.integers(1, 6)),
                        stride=int(rng.integers(1, 3)), pad=int(rng.integers(0, 3)))
        if kind == "lrn":
            return lrn(f"n{i}", n=int(rng.choice([1, 3, 5, 7])), k=float(rng.uniform(0.5, 2)),
                       alpha=float(rng.uniform(1e-4, 1)), beta=float(rng.uniform(0.5, 1)))
        if kind == "maxpool":
            return maxpool(f"p{i}", window=int(rng.integers(1, 4)), stride=int(rng.integers(1, 3)))
        return relu(f"r{i}")

    while True:
        shape = (int(rng.integers(1, 9)),) + tuple(int(e) for e in rng.integers(4, 14, 2))
        kinds = rng.choice(["conv", "conv", "conv", "relu", "lrn", "maxpool"],
                           int(rng.integers(1, 6)))
        layers = [draw(i, kind) for i, kind in enumerate(kinds)]
        for j in range(int(rng.integers(0, 3))):
            layers += [relu(f"fr{j}")] if j else []
            layers.append(fc(f"f{j}", int(rng.integers(1, 13))))
        try:
            return NetworkSpec("random", shape, layers + [softmax_loss()])
        except ShapeError:
            continue


class TestRandomStacks:
    """A differential oracle over random stacks: the eval walk on a pool's
    plan must give the train-mode walk's bytes, however it is cut."""

    @pytest.mark.parametrize("seed", range(40))
    def test_eval_walk_matches_train_walk_at_every_cut(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        spec = random_stack(rng)
        # small band, piece and column budgets cut each layer into many pieces
        monkeypatch.setattr(L, "BAND_BYTES", int(2 ** rng.uniform(6, 18)))
        monkeypatch.setattr(L, "PIECE_ELEMENTS", int(rng.choice([97, 500, L.PIECE_ELEMENTS])))
        monkeypatch.setattr(L, "FC_COLUMNS", int(rng.choice([2, 5, L.FC_COLUMNS])))
        params = init_params(spec, Rng(seed), std=0.5)
        x = Rng(seed).normal((int(rng.integers(1, 8)),) + spec.input_shape).astype(np.float32)
        stop = len(spec.layers) - 1
        # acts[k]: the train-mode output of layers [0, k), cut at the eval
        # walk's micro-batch rows, where fc's GEMM rounds each row group
        parts = []
        for row in range(0, len(x), net.MICRO_BATCH):
            outs = [x[row:row + net.MICRO_BATCH]]
            for layer in spec.layers[:stop]:
                outs.append(forward_layer(layer, outs[-1], params.get(layer.name), "train")[0])
            parts.append(outs)
        acts = [np.concatenate(outs) for outs in zip(*parts)]
        cuts = [(a, b, c) for a in range(stop) for b in range(a, stop + 1)
                for c in range(max(b, a + 1), stop + 1)]
        for workers in (1, 2):
            with net.WorkerPool(workers) as pool:
                for start, split, end in cuts:
                    mid = net.eval_layers(spec, params, acts[start], start, split, pool)
                    got = net.eval_layers(spec, params, mid, split, end, pool)
                    assert got.tobytes() == acts[end].tobytes(), (spec.layers, start, split, end)
        # up to the first fc, a sample's bits do not depend on its batch
        first_fc = next(i for i, l in enumerate(spec.layers) if l.kind in ("fc", "softmax_loss"))
        for i in range(len(x)):
            alone = net.eval_layers(spec, params, x[i:i + 1], 0, first_fc)
            assert alone[0].tobytes() == acts[first_fc][i].tobytes(), (spec.layers, i)


class TestWorkerPool:
    """A pool shares each eval-mode layer call among its workers, in pieces
    fixed by the shapes, so no output bit depends on the pool or its size."""

    @pytest.mark.parametrize("band_bytes, piece", [(1, 7), (9000, 40), (None, None)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_hand_stacks_same_bits_on_any_pool(self, which, band_bytes, piece, monkeypatch):
        # small bands and pieces cut every layer into many pieces
        if band_bytes is not None:
            monkeypatch.setattr(L, "BAND_BYTES", band_bytes)
            monkeypatch.setattr(L, "PIECE_ELEMENTS", piece)
        spec = hand_stacks()[which]
        params = init_params(spec, Rng(31), std=0.3)
        x = Rng(32).normal((7,) + spec.input_shape).astype(np.float32)
        stop = len(spec.layers) - 1
        want = train_walk(spec, params, x, 0, stop)
        for workers in (1, 2, 3):
            with net.WorkerPool(workers) as pool:
                for _ in range(2):  # the second call runs on the kept plan
                    got = net.eval_layers(spec, params, x, 0, stop, pool)
                    assert got.tobytes() == want.tobytes(), workers

    def test_vgg_trunk_same_bits_on_a_pool(self, vgg_trunk):
        spec, params, split = vgg_trunk
        x = Rng(41).normal((3, 3, 224, 224)).astype(np.float32)
        with net.WorkerPool(2) as pool:
            got = net.eval_layers(spec, params, x, 0, split, pool)
        assert got.tobytes() == train_walk(spec, params, x, 0, split).tobytes()

    def test_wide_fc_runs_in_the_same_column_blocks_in_both_modes(self, monkeypatch):
        # fc wider than FC_COLUMNS is cut into column blocks in train and eval
        # mode alike, so the walks agree at any worker count
        monkeypatch.setattr(L, "FC_COLUMNS", 16)
        spec = NetworkSpec("wide", (3, 6, 6), (
            conv("c1", 4), relu("r1"), fc("f1", 40), relu("r2"), fc("f2", 8), softmax_loss()))
        params = init_params(spec, Rng(5), std=0.3)
        x = Rng(6).normal((5, 3, 6, 6)).astype(np.float32)
        want = train_walk(spec, params, x, 0, len(spec.layers) - 1)
        assert net.eval_scores(spec, params, x).tobytes() == want.tobytes()
        with net.WorkerPool(2) as pool:
            assert net.eval_scores(spec, params, x, pool).tobytes() == want.tobytes()

    def test_plan_kept_for_the_same_layers_at_no_more_rows(self):
        spec = build_profile("mini")
        layers, shapes = spec.layers[:5], spec.shapes[:6]
        with net.WorkerPool(2) as pool:
            plan = pool.plan(layers, shapes, 3, np.float32)
            assert pool.plan(layers, shapes, 1, np.float32) is plan
            assert pool.plan(layers, shapes, 3, np.float64) is not plan
            bigger = pool.plan(layers, shapes, 4, np.float32)
            assert bigger is not plan and pool.plan(layers, shapes, 2, np.float32) is bigger
            assert len(bigger.scratch["band"]) == 2
            assert pool.plan(spec.layers[:4], spec.shapes[:5], 2, np.float32) is not bigger
        assert pool._kept is None

    def test_run_calls_every_piece_once(self):
        # more workers than cores and a short switch interval: a piece taken
        # twice, or lost, shows in its count
        counts, workers = np.zeros(5000, np.int64), set()

        def piece(i, worker):
            counts[i] += 1
            workers.add(worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with net.WorkerPool(4) as pool:
                pool.run(piece, len(counts))
        finally:
            sys.setswitchinterval(interval)
        assert (counts == 1).all()
        assert workers <= {0, 1, 2, 3}

    def test_run_raises_a_piece_error_after_every_piece_is_done(self):
        running = []

        def piece(i, worker):
            running.append(i)
            if i == 3:
                raise ValueError("piece 3")
            running.remove(i)

        with net.WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="piece 3"):
                pool.run(piece, 40)
            assert running == [3]

    def test_close_leaves_no_thread(self):
        def alive():
            return [t for t in threading.enumerate() if t.name.startswith("agecnn-worker")]

        with net.WorkerPool(2) as pool:
            pool.run(lambda i, worker: None, 4)
            assert len(alive()) == 1
        assert alive() == []

    def test_needs_a_worker(self):
        with pytest.raises(ParameterError):
            net.WorkerPool(0)

    @pytest.mark.parametrize("cpus, size", [({0}, 1), ({0, 1}, 2), (set(range(8)), 2)])
    def test_pool_size_follows_the_affinity(self, cpus, size, monkeypatch):
        monkeypatch.setattr(net.os, "sched_getaffinity", lambda pid: cpus)
        assert net.pool_size() == size


class TestPerSampleClaim:
    def test_prefix_holding_fc_is_per_sample_up_to_the_first_fc(self):
        # A frozen prefix may run past the first fc (mini's fc3, vgg's fc6):
        # here fc3 is frozen and fc4 trains. Up to the first fc a sample's
        # bits are the same at batches 1-7, with and without a pool; fc's
        # bits depend on the row group, so the claim ends there.
        spec = build_profile("mini")
        params = init_params(spec, Rng(3), std=0.1)
        names = [l.name for l in spec.layers]
        first_fc = names.index("fc3")
        assert net.frozen_prefix(spec, make_mask(spec, {"fc4", "fc5"})) > first_fc
        x = Rng(4).normal((7, 3, 32, 32)).astype(np.float32)
        alone = [net.eval_layers(spec, params, x[i:i + 1], 0, first_fc)[0] for i in range(7)]
        assert len({a.tobytes() for a in alone}) == 7
        with net.WorkerPool(2) as pool:
            for batch in range(1, 8):
                for p in (None, pool):
                    got = net.eval_layers(spec, params, x[:batch], 0, first_fc, p)
                    assert [g.tobytes() for g in got] == [a.tobytes() for a in alone[:batch]]
