import os
import tracemalloc
import weakref

import numpy as np
import pytest

from agecnn import (AGE_LABELS, EngineError, FormatError, ParameterError, ParseError,
                    Preprocessing, Rng, ShapeError, batches, build_profile,
                    label_of, load_manifest, random_crop_224, read_ppm,
                    write_ppm)
from agecnn import data
from agecnn.data import _sample_grid, resize_bilinear

from conftest import mutations, traced_peak, write_dataset


class TestLabels:
    def test_taxonomy(self):
        assert AGE_LABELS == ("0-2", "4-6", "8-13", "15-20",
                              "25-32", "38-43", "48-53", "60-")

    def test_lookups(self):
        assert label_of("0-2") == 0
        assert label_of("8-13") == 2
        assert label_of("25-32") == 4
        assert label_of("60-") == 7

    def test_roundtrip_all(self):
        for i, s in enumerate(AGE_LABELS):
            assert label_of(s) == i

    def test_unknown_rejected(self):
        with pytest.raises(ParseError):
            label_of("21-24")


class TestManifest:
    def _write(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_three_rows(self, tmp_path):
        m = load_manifest(self._write(
            tmp_path,
            "path,label,fold,gender\na.ppm,0-2,0,f\nb.ppm,25-32,1,m\nc.ppm,60-,2,\n"))
        assert len(m) == 3
        assert m.records[1].label == 4

    def test_paths_resolve_against_manifest_directory(self, tmp_path):
        m = load_manifest(self._write(tmp_path, "path,label\nsub/a.ppm,0-2\n"))
        assert m.records[0].path == str(tmp_path / "sub" / "a.ppm")

    def test_absolute_paths_kept(self, tmp_path):
        m = load_manifest(self._write(tmp_path, "path,label\n/abs/a.ppm,0-2\n"))
        assert m.records[0].path == "/abs/a.ppm"

    def test_blank_lines_skipped(self, tmp_path):
        m = load_manifest(self._write(
            tmp_path, "path,label\n\na.ppm,0-2\n\n\nb.ppm,4-6\n"))
        assert len(m) == 2

    def test_bad_label_names_row(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_manifest(self._write(
                tmp_path, "path,label\na.ppm,0-2\nb.ppm,21-24\n"))
        assert "row 3" in str(err.value)

    def test_bad_fold_names_row(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_manifest(self._write(tmp_path, "path,label,fold\na.ppm,0-2,x\n"))
        assert "row 2" in str(err.value)

    @pytest.mark.parametrize("row, error", [("b.ppm", "expected at least path and label"),
                                            (" ,0-2", "empty image path")],
                             ids=["path-only", "empty-path"])
    def test_incomplete_row_names_row(self, tmp_path, row, error):
        with pytest.raises(ParseError) as err:
            load_manifest(self._write(tmp_path, f"path,label\na.ppm,0-2\n{row}\n"))
        assert "row 3: " + error in str(err.value)

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(self._write(tmp_path, "a.ppm,0-2\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(self._write(tmp_path, "\n\n"))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_manifest(str(tmp_path / "absent.csv"))

    def test_oversized_field_names_file_and_row(self, tmp_path):
        # csv rejects a field over its 131,072-character limit
        path = self._write(tmp_path, f"path,label\na.ppm,0-2\n{'x' * 200_000}.ppm,0-2\n")
        with pytest.raises(ParseError) as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path}: row 3: field larger")

    def test_mutated_manifests_fail_typed(self, tmp_path):
        valid = ('path,label,fold,gender\na.ppm,0-2,0,f\n"b,c.ppm",25-32,1,m\n'
                 '# c.ppm,60-,2,\n\nd.ppm,8-13,,\n').encode()
        path = tmp_path / "m.csv"
        outcomes = {"loaded": 0, "rejected": 0}
        for data in [*mutations(valid, 11, 400), f"path,label\n{'x' * 200_000},0-2\n".encode()]:
            path.write_bytes(data)
            try:
                load_manifest(str(path))
                outcomes["loaded"] += 1
            except EngineError:
                outcomes["rejected"] += 1
        assert min(outcomes.values()) > 0


class TestPpm:
    def test_roundtrip(self, tmp_path):
        img = (Rng(1).uniform((3, 5, 7)) * 255).astype(np.float32)
        path = str(tmp_path / "x.ppm")
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 5, 7)
        assert back.dtype == np.float32
        assert np.array_equal(back, np.rint(img))

    def test_hand_encoded_pixels(self, tmp_path):
        # one red, one green pixel in a 2x1 image
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        img = read_ppm(path)
        assert img.shape == (3, 1, 2)
        assert img[0, 0, 0] == 255 and img[1, 0, 1] == 255
        assert img[1, 0, 0] == 0 and img[2, 0, 1] == 0

    def test_header_comments_ok(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n# made by hand\n2 1\n# mid comment\n255\n"
                     + bytes([1, 2, 3, 4, 5, 6]))
        assert read_ppm(path).shape == (3, 1, 2)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 1\n255\n" + bytes(2))
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 1\n65535\n" + bytes(12))
        with pytest.raises(FormatError):
            read_ppm(path)

    @pytest.mark.parametrize("header, error", [
        (b"P6\n2 1", "truncated PPM header"),
        (b"P6\nx 1\n255\n", "malformed PPM header"),
        (b"P6\n0 1\n255\n", "bad PPM dimensions 0x1"),
    ], ids=["truncated", "non-integer-width", "zero-width"])
    def test_malformed_header_rejected(self, tmp_path, header, error):
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(header)
        with pytest.raises(FormatError) as err:
            read_ppm(path)
        assert f"x.ppm: {error}" in str(err.value)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(FormatError) as err:
            read_ppm(path)
        assert "x.ppm" in str(err.value)

    def test_mutated_files_fail_typed(self, tmp_path):
        path = tmp_path / "x.ppm"
        write_ppm(str(path), (Rng(2).uniform((3, 4, 5)) * 255).astype(np.float32))
        valid = path.read_bytes()
        outcomes = {"decoded": 0, "rejected": 0}
        for data in mutations(valid, 12, 400, head=len(b"P6\n5 4\n255\n")):
            path.write_bytes(data)
            try:
                read_ppm(str(path))
                outcomes["decoded"] += 1
            except EngineError:
                outcomes["rejected"] += 1
        assert min(outcomes.values()) > 0

    def test_write_clips_range(self, tmp_path):
        img = np.array([[[-5.0, 300.0]]] * 3, np.float32)
        path = str(tmp_path / "x.ppm")
        write_ppm(path, img)
        back = read_ppm(path)
        assert back[0, 0, 0] == 0.0 and back[0, 0, 1] == 255.0


class TestResize:
    def test_identity_at_same_size(self):
        img = Rng(2).uniform((3, 16, 16)).astype(np.float32)
        assert resize_bilinear(img, 16, 16) is img

    def test_constant_stays_constant(self):
        img = np.full((3, 512, 384), 37.0, np.float32)
        out = resize_bilinear(img, 256, 256)
        assert out.shape == (3, 256, 256)
        assert np.allclose(out, 37.0, atol=1e-4)

    def test_monotone_gradient_rows(self):
        img = np.array([[[0.0, 100.0], [0.0, 100.0]]] * 3, np.float32)
        out = resize_bilinear(img, 2, 5)
        for row in out[0]:
            assert row[0] == 0.0 and row[-1] == 100.0
            assert np.all(np.diff(row) > 0)

    def test_hand_bilinear_2x2_to_3x3(self):
        # corner alignment puts the middle sample exactly between neighbors
        img = np.array([[[0.0, 10.0], [20.0, 30.0]]], np.float32)
        out = resize_bilinear(img, 3, 3)
        want = np.array([[0.0, 5.0, 10.0],
                         [10.0, 15.0, 20.0],
                         [20.0, 25.0, 30.0]], np.float32)
        assert np.allclose(out[0], want, atol=1e-5)

    def test_corners_preserved(self):
        img = Rng(3).uniform((3, 9, 13)).astype(np.float32) * 255
        out = resize_bilinear(img, 31, 17)
        for (r, c), (rr, cc) in [((0, 0), (0, 0)), ((0, -1), (0, -1)),
                                 ((-1, 0), (-1, 0)), ((-1, -1), (-1, -1))]:
            assert np.allclose(out[:, r, c], img[:, rr, cc], atol=1e-4)

    def test_range_preserved(self):
        img = (Rng(4).uniform((3, 20, 30)) * 255).astype(np.float32)
        out = resize_bilinear(img, 256, 256)
        assert out.min() >= img.min() - 1e-3
        assert out.max() <= img.max() + 1e-3

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            resize_bilinear(np.zeros((16, 16), np.float32), 256, 256)

    @pytest.mark.parametrize("h, w", [(299, 232), (1, 1), (100, 1)])
    def test_bytes_match_whole_image_widening(self, h, w):
        # reference: widen the whole image to float64, then gather the rows
        img = (Rng(5).uniform((3, h, w)) * 255).astype(np.float32)
        ys = _sample_grid(h, 256)
        xs = _sample_grid(w, 256)
        y0, x0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
        y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
        fy, fx = (ys - y0)[None, :, None], (xs - x0)[None, None, :]
        src = img.astype(np.float64)
        above, below = src[:, y0], src[:, y1]
        top = above[:, :, x0] * (1 - fx) + above[:, :, x1] * fx
        bot = below[:, :, x0] * (1 - fx) + below[:, :, x1] * fx
        want = (top * (1 - fy) + bot * fy).astype(np.float32)
        assert resize_bilinear(img, 256, 256).tobytes() == want.tobytes()

    def test_tall_image_is_not_widened_whole(self):
        # only the sampled rows are widened to float64, not the whole image
        img = np.ones((3, 4000, 64), np.float32)
        peak, _ = traced_peak(lambda: resize_bilinear(img, 32, 32))
        assert peak < 0.5 * img.nbytes


class TestCrops:
    def test_offsets_within_bounds(self):
        rng = Rng(5)
        img = np.zeros((3, 256, 256), np.float32)
        img[0] = np.arange(256)[:, None] + np.arange(256)[None, :] / 1000.0
        seen_r, seen_c = set(), set()
        for _ in range(10000):
            crop = random_crop_224(img, rng)
            r = int(round(float(crop[0, 0, 0])))
            c = int(round((float(crop[0, 0, 0]) - r) * 1000.0))
            seen_r.add(r)
            seen_c.add(c)
        assert min(seen_r) == 0 and max(seen_r) == 32
        assert min(seen_c) == 0 and max(seen_c) == 32

    def test_fixed_seed_identical(self):
        img = Rng(6).uniform((3, 256, 256)).astype(np.float32)
        a = random_crop_224(img, Rng(9))
        b = random_crop_224(img, Rng(9))
        assert np.array_equal(a, b)

    def test_content_matches_direct_indexing(self):
        # encode (row, col) into pixel values, then recover the offset
        img = np.zeros((3, 256, 256), np.float32)
        img[0] = np.arange(256)[:, None]
        img[1] = np.arange(256)[None, :]
        crop = random_crop_224(img, Rng(10))
        r = int(crop[0, 0, 0])
        c = int(crop[1, 0, 0])
        assert np.array_equal(crop, img[:, r:r + 224, c:c + 224])

    def test_wrong_size_rejected(self):
        with pytest.raises(ShapeError):
            random_crop_224(np.zeros((3, 255, 256), np.float32), Rng(1))


class TestPreprocessing:
    def test_fixed_crop_rejected(self):
        # fixed views belong to prediction; a training crop is always random
        with pytest.raises(ParameterError):
            Preprocessing(256, 224, random_crop=False)

    def test_pipeline_follows_network_input(self):
        means = (1.0, 2.0, 3.0)
        assert Preprocessing.for_input((3, 224, 224), means) == \
            Preprocessing(rescale_to=256, crop_to=224, random_crop=True, channel_means=means)
        assert Preprocessing.for_input(build_profile("mini").input_shape, None) == \
            Preprocessing(rescale_to=None, crop_to=None, random_crop=False)


class TestBatches:
    def _manifest(self, tmp_path, count):
        return load_manifest(write_dataset(str(tmp_path), count, Rng(11)))

    def _pre(self):
        return Preprocessing(rescale_to=None, crop_to=None, random_crop=False)

    def test_only_the_batch_is_held_while_a_step_runs(self, tmp_path):
        # during a step the consumer's batch is all a batch holds; building the
        # next one while the consumer still holds the last one doubles it
        m = self._manifest(tmp_path, 128)
        tracemalloc.start()
        try:
            stream = batches(m, 64, preprocessing=self._pre())
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            during = []
            for x, _ in stream:
                during.append((tracemalloc.get_traced_memory()[0] - base) / x.nbytes)
            peak = (tracemalloc.get_traced_memory()[1] - base) / x.nbytes
        finally:
            tracemalloc.stop()
        assert len(during) == 2 and max(during) < 1.1
        assert 1.9 < peak < 2.2

    def test_a_dropped_batch_is_dead_before_the_next_is_built(self, tmp_path, monkeypatch):
        # a consumer that lets go of each batch leaves nothing in the
        # generator holding it while the next batch's images are decoded
        m = self._manifest(tmp_path, 6)
        refs = []
        real = data.decode_image

        def decode(path):
            assert all(ref() is None for ref in refs)
            return real(path)

        monkeypatch.setattr(data, "decode_image", decode)
        for x, _ in batches(m, 2, preprocessing=self._pre()):
            refs.append(weakref.ref(x))
            del x
        assert len(refs) == 3

    def test_batch_sizes(self, tmp_path):
        m = self._manifest(tmp_path, 10)
        sizes = [x.shape[0] for x, _ in batches(m, 4, preprocessing=self._pre())]
        assert sizes == [4, 4, 2]

    def test_order_matches_manifest_without_shuffle(self, tmp_path):
        m = self._manifest(tmp_path, 10)
        labels = []
        for _, batch_labels in batches(m, 4, preprocessing=self._pre()):
            labels.extend(batch_labels)
        assert labels == [r.label for r in m.records]

    def test_shuffle_fixed_seed_repeats(self, tmp_path):
        m = self._manifest(tmp_path, 12)
        runs = []
        for _ in range(2):
            labels = []
            for _, bl in batches(m, 5, shuffle=True, rng=Rng(13),
                                 preprocessing=self._pre()):
                labels.extend(bl)
            runs.append(labels)
        assert runs[0] == runs[1]
        assert sorted(runs[0]) == sorted(r.label for r in m.records)

    def test_shuffle_actually_permutes(self, tmp_path):
        m = self._manifest(tmp_path, 16)
        labels = []
        for _, bl in batches(m, 16, shuffle=True, rng=Rng(14),
                             preprocessing=self._pre()):
            labels.extend(bl)
        assert labels != [r.label for r in m.records]

    def test_full_pipeline_shapes(self, tmp_path):
        m = self._manifest(tmp_path, 4)
        pre = Preprocessing(rescale_to=256, crop_to=224, random_crop=True)
        got = list(batches(m, 2, rng=Rng(15), preprocessing=pre))
        assert all(x.shape == (2, 3, 224, 224) for x, _ in got)
        assert all(x.dtype == np.float32 for x, _ in got)
        assert all(np.isfinite(x).all() for x, _ in got)

    def test_mean_subtraction(self, tmp_path):
        m = self._manifest(tmp_path, 2)
        pre = Preprocessing(rescale_to=None, crop_to=None, random_crop=False,
                            channel_means=(10.0, 20.0, 30.0))
        plain = next(iter(batches(m, 2, preprocessing=self._pre())))[0]
        shifted = next(iter(batches(m, 2, preprocessing=pre)))[0]
        assert np.allclose(shifted[:, 0], plain[:, 0] - 10.0, atol=1e-4)
        assert np.allclose(shifted[:, 2], plain[:, 2] - 30.0, atol=1e-4)

    def test_undecodable_image_names_path(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"not a ppm")
        (tmp_path / "m.csv").write_text("path,label\nbad.ppm,0-2\n")
        m = load_manifest(str(tmp_path / "m.csv"))
        with pytest.raises(FormatError) as err:
            next(iter(batches(m, 1, preprocessing=self._pre())))
        assert "bad.ppm" in str(err.value)

    def test_bad_batch_size_rejected(self, tmp_path):
        m = self._manifest(tmp_path, 2)
        with pytest.raises(ParameterError):
            next(iter(batches(m, 0, preprocessing=self._pre())))

    def test_mixed_sizes_rejected_when_uncropped(self, tmp_path):
        write_ppm(str(tmp_path / "a.ppm"), np.zeros((3, 8, 8), np.float32))
        write_ppm(str(tmp_path / "b.ppm"), np.zeros((3, 9, 9), np.float32))
        (tmp_path / "m.csv").write_text("path,label\na.ppm,0-2\nb.ppm,4-6\n")
        m = load_manifest(str(tmp_path / "m.csv"))
        with pytest.raises(ShapeError) as err:
            list(batches(m, 2, preprocessing=self._pre()))
        assert "b.ppm" in str(err.value)


class TestImageCost:
    """What one image can cost is bounded by data.MAX_PPM_EXTENT."""

    @pytest.mark.parametrize("width, height", [(data.MAX_PPM_EXTENT + 1, 1),
                                               (1, data.MAX_PPM_EXTENT + 1)])
    def test_extent_above_the_limit_is_rejected(self, tmp_path, width, height):
        path = str(tmp_path / "x.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n%d %d\n255\n" % (width, height))
            fh.truncate(fh.tell() + 3 * width * height)
        cap = data.MAX_PPM_EXTENT
        with pytest.raises(FormatError, match=f"x.ppm: PPM dimensions {width}x{height} "
                                              f"exceed the {cap}x{cap} limit"):
            read_ppm(path)

    def test_largest_accepted_image_decodes_and_frames_in_bounded_memory(self, tmp_path):
        # decode (its bytes and its float32 copy) and the resize to the frame
        # (the float32 image and two widened row sets) each stay under 16
        # bytes per pixel of the largest image read_ppm accepts
        cap = data.MAX_PPM_EXTENT
        path = tmp_path / "big.ppm"
        with open(path, "wb") as fh:
            fh.write(b"P6\n%d %d\n255\n" % (cap, cap))
            fh.truncate(fh.tell() + 3 * cap * cap)
        peak, frame = traced_peak(lambda: resize_bilinear(
            data.decode_image(str(path)), data.FRAME_SIZE, data.FRAME_SIZE))
        assert frame.shape == (3, data.FRAME_SIZE, data.FRAME_SIZE)
        assert peak < 16 * cap * cap
