import numpy as np
import pytest

from agecnn import (ConfigError, NetworkSpec, Preprocessing, Rng, ShapeError,
                    argmax, average_probabilities, build_profile, init_params,
                    load_manifest, make_mask, predict_proba, three_crops,
                    write_ppm)
from agecnn.layers import fc, maxpool, softmax, softmax_loss
from agecnn.network import eval_scores, frozen_prefix
from agecnn.predict import (BOTTOM_LEFT_OFFSET, CENTER_OFFSET,
                            UPPER_RIGHT_OFFSET, manifest_features, predict_manifest)
from agecnn.data import decode_image, resize_bilinear

from conftest import traced_peak, write_dataset


def coordinate_image():
    """256x256 frame whose channel 0 stores the row and channel 1 the col."""
    img = np.zeros((3, 256, 256), np.float32)
    img[0] = np.arange(256, dtype=np.float32)[:, None]
    img[1] = np.arange(256, dtype=np.float32)[None, :]
    return img


class TestThreeCrops:
    def test_offsets(self):
        assert CENTER_OFFSET == (16, 16)
        assert BOTTOM_LEFT_OFFSET == (32, 0)
        assert UPPER_RIGHT_OFFSET == (0, 32)

    def test_shapes(self):
        t = three_crops(np.zeros((3, 256, 256), np.float32))
        for view in (t.center, t.bottom_left, t.upper_right):
            assert view.shape == (3, 224, 224)

    def test_origin_pixels_encode_offsets(self):
        t = three_crops(coordinate_image())
        assert (t.center[0, 0, 0], t.center[1, 0, 0]) == (16.0, 16.0)
        assert (t.bottom_left[0, 0, 0], t.bottom_left[1, 0, 0]) == (32.0, 0.0)
        assert (t.upper_right[0, 0, 0], t.upper_right[1, 0, 0]) == (0.0, 32.0)

    def test_views_equal_direct_slices(self):
        img = Rng(1).uniform((3, 256, 256)).astype(np.float32)
        t = three_crops(img)
        assert np.array_equal(t.center, img[:, 16:240, 16:240])
        assert np.array_equal(t.bottom_left, img[:, 32:256, 0:224])
        assert np.array_equal(t.upper_right, img[:, 0:224, 32:256])

    def test_bottom_left_reaches_last_row(self):
        t = three_crops(coordinate_image())
        assert t.bottom_left[0, -1, 0] == 255.0
        assert t.bottom_left[1, 0, -1] == 223.0
        assert t.upper_right[1, 0, -1] == 255.0
        assert t.upper_right[0, -1, 0] == 223.0

    def test_stack_order(self):
        t = three_crops(coordinate_image())
        stacked = t.stack()
        assert stacked.shape == (3, 3, 224, 224)
        assert np.array_equal(stacked[0], t.center)
        assert np.array_equal(stacked[1], t.bottom_left)
        assert np.array_equal(stacked[2], t.upper_right)

    def test_wrong_size_rejected(self):
        with pytest.raises(ShapeError):
            three_crops(np.zeros((3, 224, 224), np.float32))
        with pytest.raises(ShapeError):
            three_crops(np.zeros((1, 256, 256), np.float32))

    def test_triple_is_immutable(self):
        t = three_crops(coordinate_image())
        with pytest.raises(AttributeError):
            t.center = None


class TestAverageProbabilities:
    def test_hand_mean(self):
        per_view = np.array([[1.0, 0, 0, 0, 0, 0, 0, 0],
                             [0, 1.0, 0, 0, 0, 0, 0, 0],
                             [0, 1.0, 0, 0, 0, 0, 0, 0]])
        got = average_probabilities(per_view)
        want = np.array([1 / 3, 2 / 3, 0, 0, 0, 0, 0, 0])
        assert np.allclose(got, want, atol=1e-12)

    def test_mean_of_distributions_sums_to_one(self):
        rng = Rng(2)
        raw = rng.uniform((3, 8)) + 0.01
        per_view = raw / raw.sum(axis=1, keepdims=True)
        assert abs(average_probabilities(per_view).sum() - 1.0) < 1e-12

    def test_single_view_is_identity(self):
        v = np.array([[0.5, 0.25, 0.25]])
        assert np.allclose(average_probabilities(v), v[0])

    def test_requires_matrix(self):
        with pytest.raises(ShapeError):
            average_probabilities(np.zeros(8))


def tiny_224_spec():
    # pool the 224x224 frame down hard so the forward stays cheap
    return NetworkSpec("t224", (3, 224, 224),
                       (maxpool("p", window=32, stride=32),
                        fc("f", 8), softmax_loss()))


class TestPredictProba:
    def test_direct_path_matches_single_forward(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(3))
        img = (Rng(4).uniform((3, 32, 32)) * 255).astype(np.float32)
        probs = predict_proba(spec, params, img)
        scores = eval_scores(spec, params, img[None].astype(np.float32))
        assert np.allclose(probs, softmax(scores)[0], atol=1e-7)
        assert probs.shape == (8,)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert probs.min() >= 0.0

    def test_crop_path_matches_manual_pipeline(self):
        spec = tiny_224_spec()
        params = init_params(spec, Rng(5), std=0.1)
        img = (Rng(6).uniform((3, 300, 200)) * 255).astype(np.float32)
        probs = predict_proba(spec, params, img)
        views = three_crops(resize_bilinear(img, 256, 256)).stack()
        want = softmax(eval_scores(spec, params, views)).mean(axis=0)
        assert np.allclose(probs, want, atol=1e-7)
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_224_image_on_224_network_takes_crop_path(self):
        # a 224 network always rescales to 256 and crops, as training does
        spec = tiny_224_spec()
        params = init_params(spec, Rng(5), std=0.1)
        img = (Rng(21).uniform((3, 224, 224)) * 255).astype(np.float32)
        probs = predict_proba(spec, params, img)
        views = three_crops(resize_bilinear(img, 256, 256)).stack()
        want = softmax(eval_scores(spec, params, views)).mean(axis=0)
        assert np.array_equal(probs, want)

    def test_crop_path_taken_exactly_when_training_rescales(self, monkeypatch):
        # predict reads the rule from the training pipeline, not from its own copy
        spec = tiny_224_spec()
        params = init_params(spec, Rng(5), std=0.1)
        img = (Rng(22).uniform((3, 224, 224)) * 255).astype(np.float32)
        monkeypatch.setattr(Preprocessing, "for_input", classmethod(
            lambda cls, shape, means: cls(None, None, False, means)))
        want = softmax(eval_scores(spec, params, img[None]))[0]
        assert np.array_equal(predict_proba(spec, params, img), want)

    def test_score_averaging_differs_from_probability_averaging(self):
        # spikes landing inside exactly one view make the per-view scores
        # genuinely different, so the two averaging rules visibly disagree
        spec = tiny_224_spec()
        params = init_params(spec, Rng(7), std=0.05)
        img = Rng(8).uniform((3, 256, 256)).astype(np.float32)
        img[:, 5, 40] = 60.0
        img[:, 250, 5] = 80.0
        p_prob = predict_proba(spec, params, img, average="probability")
        p_score = predict_proba(spec, params, img, average="score")
        views = three_crops(img).stack()
        scores = eval_scores(spec, params, views)
        want = softmax(scores.mean(axis=0, keepdims=True))[0]
        assert np.allclose(p_score, want, atol=1e-7)
        assert abs(p_score.sum() - 1.0) < 1e-6
        assert np.abs(p_prob - p_score).max() > 1e-3

    def test_identical_views_make_both_averages_agree(self):
        spec = tiny_224_spec()
        params = init_params(spec, Rng(9), std=0.5)
        img = np.full((3, 256, 256), 120.0, np.float32)
        a = predict_proba(spec, params, img, average="probability")
        b = predict_proba(spec, params, img, average="score")
        assert np.allclose(a, b, atol=1e-6)

    def test_channel_means_subtracted(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(10))
        img = (Rng(11).uniform((3, 32, 32)) * 255).astype(np.float32)
        means = (90.0, 100.0, 110.0)
        shifted = img - np.array(means, np.float32)[:, None, None]
        a = predict_proba(spec, params, img, channel_means=means)
        b = predict_proba(spec, params, shifted)
        assert np.allclose(a, b, atol=1e-6)

    def test_bad_average_rejected(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(12))
        with pytest.raises(ConfigError):
            predict_proba(spec, params, np.zeros((3, 32, 32), np.float32),
                          average="mean")

    def test_wrong_channel_count_rejected(self):
        spec = build_profile("mini")
        params = init_params(spec, Rng(13))
        with pytest.raises(ShapeError):
            predict_proba(spec, params, np.zeros((1, 32, 32), np.float32))

    def test_crop_path_requires_224_network(self):
        # other networks take the image as it is, so a wrong size fails the forward
        spec = build_profile("mini")
        params = init_params(spec, Rng(14))
        with pytest.raises(ShapeError):
            predict_proba(spec, params, np.zeros((3, 256, 256), np.float32))


class TestPredictManifest:
    def test_returns_aligned_labels(self, tmp_path):
        manifest = load_manifest(write_dataset(str(tmp_path), 6, Rng(19)))
        spec = build_profile("mini")
        params = init_params(spec, Rng(20))
        preds, truths = predict_manifest(spec, params, manifest)
        assert len(preds) == len(truths) == 6
        assert truths == [r.label for r in manifest.records]
        assert all(isinstance(p, int) and 0 <= p < 8 for p in preds)

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("path,label\n")
        spec = build_profile("mini")
        assert predict_manifest(spec, init_params(spec, Rng(20)),
                                load_manifest(str(path))) == ([], [])

    def test_wrong_size_image_is_shape_error(self, tmp_path):
        manifest = load_manifest(write_dataset(str(tmp_path), 2, Rng(19)))
        write_ppm(manifest.records[1].path, np.zeros((3, 40, 40), np.float32))
        spec = build_profile("mini")
        with pytest.raises(ShapeError):
            predict_manifest(spec, init_params(spec, Rng(20)), manifest)


def scoring_case(kind, tmp_path):
    """(spec, params, manifest) for the direct path (mini) or the crop path."""
    if kind == "mini":
        spec, size = build_profile("mini"), 32
        params = init_params(spec, Rng(23), std=0.1)
    else:
        spec, size = tiny_224_spec(), 40
        params = init_params(spec, Rng(24), std=0.05)
    return spec, params, load_manifest(write_dataset(str(tmp_path), 7, Rng(25), size=size))


class TestBatchedPath:
    """``predict_manifest`` and ``manifest_features`` agree with per-image scoring."""

    @pytest.mark.parametrize("kind", ["mini", "crop-path"])
    @pytest.mark.parametrize("means", [None, (90.0, 100.0, 110.0)])
    @pytest.mark.parametrize("average", ["probability", "score"])
    def test_labels_equal_per_image_prediction(self, kind, means, average, tmp_path):
        spec, params, manifest = scoring_case(kind, tmp_path)
        preds, truths = predict_manifest(spec, params, manifest, average=average,
                                         channel_means=means)
        assert preds == [argmax(predict_proba(spec, params, decode_image(r.path),
                                              average=average, channel_means=means))
                         for r in manifest.records]
        assert truths == [r.label for r in manifest.records]

    @pytest.mark.parametrize("kind", ["mini", "crop-path"])
    def test_scores_equal_per_image_scores(self, kind, tmp_path):
        spec, params, manifest = scoring_case(kind, tmp_path)
        means = np.array([90.0, 100.0, 110.0], np.float32)[None, :, None, None]
        want = []
        for rec in manifest.records:
            img = decode_image(rec.path)
            views = (img[None] if kind == "mini"
                     else three_crops(resize_bilinear(img, 256, 256)).stack())
            want.append(eval_scores(spec, params, views - means))
        got = manifest_features(spec, params, manifest, (90.0, 100.0, 110.0),
                                len(spec.layers) - 1)
        assert [rows.tobytes() for rows in got.rows] == [rows.tobytes() for rows in want]

    def test_cached_prefix_gives_the_same_labels(self, tmp_path):
        spec, params, manifest = scoring_case("mini", tmp_path)
        split = frozen_prefix(spec, make_mask(spec, {"fc3", "fc4", "fc5"}))
        features = manifest_features(spec, params, manifest, None, split)
        assert [rows.shape for rows in features.rows] == [(1, 16, 8, 8)] * 7
        for average in ("probability", "score"):
            assert predict_manifest(spec, params, manifest, average=average,
                                    features=features) == \
                predict_manifest(spec, params, manifest, average=average)

    def test_building_the_cache_holds_it_once(self, tmp_path):
        # each image's outputs are kept as they come; nothing copies them all
        spec = build_profile("mini")
        params = init_params(spec, Rng(23), std=0.1)
        manifest = load_manifest(write_dataset(str(tmp_path), 300, Rng(26)))
        split = frozen_prefix(spec, make_mask(spec, {"fc3", "fc4", "fc5"}))
        peak, features = traced_peak(lambda: manifest_features(spec, params, manifest, None, split))
        cache = sum(rows.nbytes for rows in features.rows)
        assert cache == 300 * 16 * 8 * 8 * 4
        assert peak < 1.75 * cache
