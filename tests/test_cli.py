import collections
import csv
import io
import os
import re
import shutil
import threading
from dataclasses import replace

import numpy as np
import pytest

from agecnn import (AGE_LABELS, NetworkSpec, Preprocessing, Rng, SgdConfig,
                    argmax, batches, build_profile, evaluate, init_params,
                    init_state, layers, load, load_manifest, make_mask,
                    network, plateau_update, predict, predict_proba,
                    replace_head_spec, save, sgd_step, tensor, write_ppm)
from agecnn import cli, optim
from agecnn.cli import main
from agecnn.data import decode_image
from agecnn.layers import conv, fc, maxpool, relu, softmax_log_loss, softmax_loss

from conftest import mutations, write_dataset

LOG_LINE = re.compile(r"^\d+,[0-9.eE+-]+,\d+\.\d{6},\d\.\d{6},\d\.\d{6}$")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def make_model(tmp_path, name="model.acnn", seed=0):
    spec = build_profile("mini")
    params = init_params(spec, Rng(seed))
    path = str(tmp_path / name)
    save(spec, params, make_mask(spec, True), path)
    return path


def surgery_model(tmp_path, donor, name="surgical.acnn", seed=0):
    out = str(tmp_path / name)
    assert main(["surgery", "--in", donor, "--profile", "mini",
                 "--head", "32,16,8", "--seed", str(seed), "--out", out]) == 0
    return out


def dataset(tmp_path, count=8):
    manifest_path = write_dataset(str(tmp_path), count, Rng(7))
    return manifest_path, load_manifest(manifest_path)


def tiny_224_model(tmp_path):
    # a 224 network takes the rescale-and-crop path; pooling hard keeps it cheap
    spec = NetworkSpec("t224", (3, 224, 224), (
        conv("c1", 4), relu("r1"), maxpool("p1", window=32, stride=32),
        fc("f1", 8), softmax_loss()))
    path = str(tmp_path / "t224.acnn")
    save(spec, init_params(spec, Rng(0), std=0.002), make_mask(spec, {"f1"}), path)
    return path


def nine_class_model(tmp_path):
    # a mini model scoring 9 classes, whose extra class always wins
    spec = replace_head_spec(build_profile("mini"), [32, 16, 9])
    params = init_params(spec, Rng(0))
    params["fc5"]["bias"][8] = 100.0
    path = str(tmp_path / "nine.acnn")
    save(spec, params, make_mask(spec, {"fc3", "fc4", "fc5"}), path)
    return path


def spy_scoring(monkeypatch):
    """(layer name, rows) of every layer call made while ``predict`` scores a
    manifest or computes its features."""
    seen, active = [], []
    real_layer = layers.forward_layer

    def layer_spy(layer, x, *args, **kwargs):
        if active:
            seen.append((layer.name, x.shape[0]))
        return real_layer(layer, x, *args, **kwargs)

    def scoring(real):
        def run(*args, **kwargs):
            active.append(real)
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()
        return run

    monkeypatch.setattr(layers, "forward_layer", layer_spy)
    for name in ("manifest_features", "predict_manifest"):
        monkeypatch.setattr(predict, name, scoring(getattr(predict, name)))
    return seen


def reference_train(model, train_manifest, val_manifest, out, epochs, batch_size, lr, seed,
                    means=None):
    """``train``'s run as one plain loop: each batch through the whole network
    in train mode, each val image scored on its own by predict_proba."""
    spec, params, mask, _ = load(model)
    cfg = SgdConfig(lr0=lr, batch_size=batch_size)
    pre = Preprocessing.for_input(spec.input_shape, means)
    train, val = load_manifest(train_manifest), load_manifest(val_manifest)
    root = Rng(seed)
    state = init_state(params, mask, cfg)
    lines = []
    for _ in range(epochs):
        lr_used, total, count = state.lr, 0.0, 0
        drop = root.derive(cli._ROLE_DROPOUT, state.epoch)
        for x, labels in batches(train, batch_size, shuffle=True, preprocessing=pre,
                                 rng=root.derive(cli._ROLE_BATCH, state.epoch)):
            scores, caches = network.forward(spec, params, x, "train", drop)
            total += softmax_log_loss(scores, labels)[0] * len(labels)
            count += len(labels)
            grads = network.backward(spec, params, caches, labels, mask)
            params, state = sgd_step(params, grads, mask, state, cfg)
        state = replace(state, epoch=state.epoch + 1)
        preds = [argmax(predict_proba(spec, params, decode_image(r.path), channel_means=means))
                 for r in val.records]
        report = evaluate(preds, [r.label for r in val.records])
        state = plateau_update(state, report.exact_accuracy, cfg)
        lines.append(f"{state.epoch},{lr_used:.8g},{total / count:.6f},"
                     f"{report.exact_accuracy:.6f},{report.one_off_accuracy:.6f}")
    save(spec, params, mask, out, state=state)
    return lines + [f"wrote {out}"]


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_surgery_missing_in(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["surgery", "--profile", "mini",
                  "--out", str(tmp_path / "x.acnn")])
        assert e.value.code == 2

    def test_inspect_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["inspect", "--model", "a", "--profile", "mini"])
        assert e.value.code == 2


class TestSurgery:
    def test_writes_runnable_model(self, tmp_path, capsys):
        donor = make_model(tmp_path)
        out = surgery_model(tmp_path, donor)
        assert capsys.readouterr().out.strip().endswith(f"wrote {out}")
        spec, params, mask, state = load(out)
        assert state is None
        assert [l.name for l in spec.layers if l.name.startswith("fc")] == \
               ["fc3", "fc4", "fc5"]
        for name, flag in mask.items():
            assert flag == name.startswith("fc")

    def test_trunk_copied_head_fresh(self, tmp_path):
        donor = make_model(tmp_path)
        out = surgery_model(tmp_path, donor)
        _, donor_params, _, _ = load(donor)
        _, new_params, _, _ = load(out)
        assert np.array_equal(new_params["conv2_2"]["weight"],
                              donor_params["conv2_2"]["weight"])
        assert not np.array_equal(new_params["fc3"]["weight"],
                                  donor_params["fc3"]["weight"])
        assert np.all(new_params["fc5"]["bias"] == 0.0)

    def test_same_seed_identical_bytes(self, tmp_path):
        donor = make_model(tmp_path)
        a = surgery_model(tmp_path, donor, "a.acnn", seed=5)
        b = surgery_model(tmp_path, donor, "b.acnn", seed=5)
        assert read_bytes(a) == read_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        donor = make_model(tmp_path)
        a = surgery_model(tmp_path, donor, "a.acnn", seed=5)
        b = surgery_model(tmp_path, donor, "b.acnn", seed=6)
        assert read_bytes(a) != read_bytes(b)

    def test_missing_donor_is_runtime_failure(self, tmp_path, capsys):
        code = main(["surgery", "--in", str(tmp_path / "nope.acnn"),
                     "--profile", "mini", "--head", "32,16,8",
                     "--out", str(tmp_path / "x.acnn")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_bad_head_is_runtime_failure(self, tmp_path, capsys):
        donor = make_model(tmp_path)
        for head in ("32,banana", ","):
            code = main(["surgery", "--in", donor, "--profile", "mini",
                         "--head", head, "--out", str(tmp_path / "x.acnn")])
            assert code == 1
            assert "head widths" in capsys.readouterr().err
        assert not (tmp_path / "x.acnn").exists()


class TestTrain:
    def test_log_lines_and_exit(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        out = str(tmp_path / "ck.acnn")
        code = main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "2", "--out", out,
                     "--batch-size", "4", "--lr", "0.001", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == f"wrote {out}"
        logs = lines[:-1]
        assert len(logs) == 2
        assert [l.split(",")[0] for l in logs] == ["1", "2"]
        for line in logs:
            assert LOG_LINE.match(line), line
        _, _, _, state = load(out)
        assert state is not None and state.epoch == 2

    def test_epochs_zero_checkpoint_equals_input(self, tmp_path):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        out = str(tmp_path / "ck.acnn")
        assert main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "0", "--out", out]) == 0
        assert read_bytes(out) == read_bytes(model)

    def test_missing_epochs_is_usage_error(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        code = main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--out", str(tmp_path / "ck.acnn")])
        assert code == 2
        assert "--epochs" in capsys.readouterr().err

    def test_negative_epochs_is_usage_error(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        code = main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "-1",
                     "--out", str(tmp_path / "ck.acnn")])
        assert code == 2

    def test_reruns_byte_identical(self, tmp_path):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        outs = []
        for name in ("a.acnn", "b.acnn"):
            out = str(tmp_path / name)
            assert main(["train", "--model", model, "--train", manifest,
                         "--val", manifest, "--epochs", "1", "--out", out,
                         "--batch-size", "4", "--lr", "0.001",
                         "--seed", "11"]) == 0
            outs.append(read_bytes(out))
        assert outs[0] == outs[1]

    def test_frozen_trunk_bytes_unchanged(self, tmp_path):
        donor = make_model(tmp_path)
        model = surgery_model(tmp_path, donor)
        manifest, _ = dataset(tmp_path)
        out = str(tmp_path / "ck.acnn")
        assert main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "2", "--out", out,
                     "--batch-size", "4", "--lr", "0.01"]) == 0
        _, before, _, _ = load(model)
        _, after, _, _ = load(out)
        for name in before:
            if name.startswith("fc"):
                continue
            for tname in before[name]:
                assert before[name][tname].tobytes() == \
                    after[name][tname].tobytes()
        assert not np.array_equal(before["fc3"]["weight"],
                                  after["fc3"]["weight"])

    def test_config_file_supplies_defaults_flags_win(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lr = 0.05  # file default\nbatch_size = 4\n")
        base = ["train", "--model", model, "--train", manifest,
                "--val", manifest, "--epochs", "1", "--config", str(cfg)]

        assert main(base + ["--out", str(tmp_path / "a.acnn")]) == 0
        file_lr = capsys.readouterr().out.splitlines()[0].split(",")[1]
        assert file_lr == "0.05"

        assert main(base + ["--lr", "0.001",
                            "--out", str(tmp_path / "b.acnn")]) == 0
        flag_lr = capsys.readouterr().out.splitlines()[0].split(",")[1]
        assert flag_lr == "0.001"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate=0.05\n")
        code = main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "ck.acnn")])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"lr = 0.05  # caf\xe9\n")
        code = main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "ck.acnn")])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_diverging_run_exits_1_and_writes_nothing(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path)
        out = tmp_path / "ck.acnn"
        with np.errstate(all="ignore"):
            code = main(["train", "--model", model, "--train", manifest,
                         "--val", manifest, "--epochs", "1", "--out", str(out),
                         "--batch-size", "4", "--lr", "1e30"])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_weights_exit_1_and_write_nothing(self, tmp_path, capsys):
        # one step: its loss is still finite, the weights it writes are not
        donor = make_model(tmp_path)
        model = surgery_model(tmp_path, donor)
        manifest, _ = dataset(tmp_path, count=4)
        out = tmp_path / "ck.acnn"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main(["train", "--model", model, "--train", manifest,
                         "--val", manifest, "--epochs", "1", "--out", str(out),
                         "--batch-size", "4", "--lr", "1e40"])
        assert code == 1
        captured = capsys.readouterr()
        assert "diverged" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["surgery", "all-trainable", "shallow-prefix",
                                      "crop-path"])
    def test_matches_reference_loop(self, kind, tmp_path, capsys):
        # batches of 5 and a 7-image val set leave short micro-batches; the
        # all-trainable mask has an empty frozen prefix, and the shallow one
        # outputs more per view than it reads, so neither caches val features;
        # the crop path also subtracts channel means
        size = 40 if kind == "crop-path" else 32
        os.mkdir(tmp_path / "train")
        os.mkdir(tmp_path / "val")
        train = write_dataset(str(tmp_path / "train"), 9, Rng(7), size=size)
        val = write_dataset(str(tmp_path / "val"), 7, Rng(8), size=size)
        if kind == "surgery":
            model = surgery_model(tmp_path, make_model(tmp_path))
        elif kind == "all-trainable":
            model = make_model(tmp_path)
        elif kind == "shallow-prefix":
            spec = build_profile("mini")
            model = str(tmp_path / "shallow.acnn")
            save(spec, init_params(spec, Rng(0)), make_mask(spec, {"conv1_2", "fc5"}), model)
        else:
            model = tiny_224_model(tmp_path)
        means = (90.0, 100.0, 110.0) if kind == "crop-path" else None
        out, ref = str(tmp_path / "ck.acnn"), str(tmp_path / "ref.acnn")
        capsys.readouterr()
        assert main(["train", "--model", model, "--train", train, "--val", val,
                     "--epochs", "2", "--batch-size", "5", "--lr", "0.05", "--seed", "3",
                     "--out", out] + (["--means", "90,100,110"] if means else [])) == 0
        got = capsys.readouterr().out.splitlines()
        want = reference_train(model, train, val, ref, 2, 5, 0.05, 3, means)
        assert got[:-1] == want[:-1]
        assert read_bytes(out) == read_bytes(ref)

    def test_val_images_run_through_the_trunk_once_per_run(self, tmp_path, monkeypatch):
        os.mkdir(tmp_path / "train")
        os.mkdir(tmp_path / "val")
        train = write_dataset(str(tmp_path / "train"), 8, Rng(7))
        val = write_dataset(str(tmp_path / "val"), 5, Rng(8))
        model = surgery_model(tmp_path, make_model(tmp_path))
        rows = []
        real = layers.forward_layer

        def spy(spec, x, *args, **kwargs):
            if spec.name == "conv1_1":
                rows.append(x.shape[0])
            return real(spec, x, *args, **kwargs)

        monkeypatch.setattr(layers, "forward_layer", spy)
        assert main(["train", "--model", model, "--train", train, "--val", val,
                     "--epochs", "3", "--batch-size", "4", "--out",
                     str(tmp_path / "ck.acnn")]) == 0
        assert sum(rows) == 3 * 8 + 5
        # conv1_1's output is larger than its input: no cache, val runs each epoch
        spec = build_profile("mini")
        save(spec, init_params(spec, Rng(0)), make_mask(spec, {"conv1_2", "fc5"}), model)
        rows.clear()
        assert main(["train", "--model", model, "--train", train, "--val", val,
                     "--epochs", "3", "--batch-size", "4", "--out",
                     str(tmp_path / "ck.acnn")]) == 0
        assert sum(rows) == 3 * 8 + 3 * 5

    @pytest.mark.parametrize("empty", ["--train", "--val"])
    def test_empty_manifest_fails_before_any_forward(self, empty, tmp_path, monkeypatch,
                                                     capsys):
        model = surgery_model(tmp_path, make_model(tmp_path))
        manifest, _ = dataset(tmp_path)
        blank = tmp_path / "empty.csv"
        blank.write_text("path,label\n")
        manifests = {"--train": manifest, "--val": manifest, empty: str(blank)}
        calls = []
        real = layers.forward_layer
        monkeypatch.setattr(layers, "forward_layer",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        out = tmp_path / "ck.acnn"
        capsys.readouterr()
        code = main(["train", "--model", model, "--train", manifests["--train"],
                     "--val", manifests["--val"], "--epochs", "1", "--out", str(out)])
        assert code == 1
        assert f"{blank}: manifest has no records" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_missing_manifest_is_runtime_failure(self, tmp_path, capsys):
        model = make_model(tmp_path)
        code = main(["train", "--model", model,
                     "--train", str(tmp_path / "nope.csv"),
                     "--val", str(tmp_path / "nope.csv"), "--epochs", "1",
                     "--out", str(tmp_path / "ck.acnn")])
        assert code == 1


class TestOutputWidth:
    def test_surgery_head_not_8_wide_writes_nothing(self, tmp_path, capsys):
        donor = make_model(tmp_path)
        out = tmp_path / "x.acnn"
        code = main(["surgery", "--in", donor, "--profile", "mini",
                     "--head", "32,16,9", "--out", str(out)])
        assert code == 1
        assert "outputs 9 scores, expected one per age bucket (8)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_loaded_model_not_8_wide_is_runtime_failure(self, command, tmp_path, capsys):
        model = nine_class_model(tmp_path)
        manifest, loaded = dataset(tmp_path, count=2)
        listing = tmp_path / "images.txt"
        listing.write_text("".join(r.path + "\n" for r in loaded.records))
        out = tmp_path / "ck.acnn"
        args = {"train": ["--train", manifest, "--val", manifest, "--epochs", "1",
                          "--out", str(out)],
                "predict": ["--images", str(listing)],
                "eval": ["--test", manifest, "--csv-out", str(out)]}[command]
        assert main([command, "--model", model] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outputs 9 scores, expected one per age bucket (8)" in captured.err
        assert not out.exists()


class TestOneImagePerForward:
    """Each layer call made while scoring a manifest carries one image's views."""

    @pytest.mark.parametrize("kind, views", [("mini", 1), ("crop-path", 3)])
    def test_eval(self, kind, views, tmp_path, monkeypatch, capsys):
        model = make_model(tmp_path) if kind == "mini" else tiny_224_model(tmp_path)
        manifest = write_dataset(str(tmp_path), 7, Rng(8), size=32 if kind == "mini" else 40)
        seen = spy_scoring(monkeypatch)
        assert main(["eval", "--model", model, "--test", manifest]) == 0
        first = load(model)[0].layers[0].name
        assert [name for name, _ in seen].count(first) == 7
        assert {rows for _, rows in seen} == {views}

    # (kind, view rows per image, first-layer calls over 2 epochs of 5 val images):
    # the surgery and crop-path masks cache the val prefix, all-trainable does not
    @pytest.mark.parametrize("kind, views, first_calls", [
        ("surgery", 1, 5), ("all-trainable", 1, 10), ("crop-path", 3, 5)])
    def test_train_validation(self, kind, views, first_calls, tmp_path, monkeypatch):
        size = 40 if kind == "crop-path" else 32
        os.mkdir(tmp_path / "train")
        os.mkdir(tmp_path / "val")
        train = write_dataset(str(tmp_path / "train"), 4, Rng(7), size=size)
        val = write_dataset(str(tmp_path / "val"), 5, Rng(8), size=size)
        if kind == "surgery":
            model = surgery_model(tmp_path, make_model(tmp_path))
        elif kind == "all-trainable":
            model = make_model(tmp_path)
        else:
            model = tiny_224_model(tmp_path)
        seen = spy_scoring(monkeypatch)
        assert main(["train", "--model", model, "--train", train, "--val", val,
                     "--epochs", "2", "--batch-size", "4",
                     "--out", str(tmp_path / "ck.acnn")]) == 0
        first = load(model)[0].layers[0].name
        assert [name for name, _ in seen].count(first) == first_calls
        assert {rows for _, rows in seen} == {views}


# Required arguments per command; the command itself is stubbed out.
REQUIRED = {
    "surgery": ["--in", "donor.acnn", "--profile", "mini", "--out", "out.acnn"],
    "train": ["--model", "m.acnn", "--train", "t.csv", "--val", "v.csv", "--out", "o.acnn"],
    "predict": ["--model", "m.acnn", "--images", "images.txt"],
}

# (command, config key, file value, the same value as flags, another value as flags)
CONFIG_CASES = [
    ("train", "lr", "0.05", ["--lr", "0.05"], ["--lr", "0.5"]),
    ("train", "momentum", "0.5", ["--momentum", "0.5"], ["--momentum", "0"]),
    ("train", "weight_decay", "0.01", ["--weight-decay", "0.01"], ["--weight-decay", "0"]),
    ("train", "batch_size", "4", ["--batch-size", "4"], ["--batch-size", "8"]),
    ("train", "lr_factor", "0.5", ["--lr-factor", "0.5"], ["--lr-factor", "0.2"]),
    ("train", "patience", "3", ["--patience", "3"], ["--patience", "2"]),
    ("train", "min_lr", "0.001", ["--min-lr", "0.001"], ["--min-lr", "0"]),
    ("train", "improvement_eps", "0.01", ["--improvement-eps", "0.01"],
     ["--improvement-eps", "0"]),
    ("surgery", "dropout", "0.3", ["--dropout", "0.3"], ["--dropout", "0"]),
    ("surgery", "seed", "7", ["--seed", "7"], ["--seed", "8"]),
    ("train", "shuffle", "off", ["--no-shuffle"], ["--shuffle"]),
    ("predict", "average", "score", ["--average", "score"], ["--average", "probability"]),
    ("train", "epochs", "5", ["--epochs", "5"], ["--epochs", "6"]),
]

# (config file line, the start of its error after "line 1: ")
BAD_CONFIG_LINES = [
    ("average = foo", "bad value"), ("shuffle = maybe", "bad value"),
    ("batch_size = 4.5", "bad value"), ("lr = abc", "bad value"),
    ("lr 0.05", "expected key=value"),
]


class TestConfigFile:
    @pytest.mark.parametrize("command, key, text, same, other", CONFIG_CASES,
                             ids=[case[1] for case in CONFIG_CASES])
    def test_file_value_reaches_command_as_its_flag(self, command, key, text, same, other,
                                                    tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(
            {k: v for k, v in vars(args).items() if k != "config"}) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        with_file = ["--config", str(cfg)]
        for extra in ([], same, with_file, with_file + other, other):
            assert main([command] + REQUIRED[command] + extra) == 0
        default, flag, from_file, file_and_flag, flag_only = seen
        assert from_file == flag
        assert from_file[key] != default[key]
        assert file_and_flag == flag_only
        assert file_and_flag[key] != from_file[key]

    @pytest.mark.parametrize("line, error", BAD_CONFIG_LINES,
                             ids=[line for line, _ in BAD_CONFIG_LINES])
    def test_bad_value_is_usage_error(self, line, error, tmp_path, monkeypatch, capsys):
        # predict takes --average but none of the other flags: their values
        # are still parsed, and a bad one rejected
        monkeypatch.setitem(cli._COMMANDS, "predict", lambda args: 0)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["predict"] + REQUIRED["predict"] + ["--config", str(cfg)])
        assert code == 2
        assert f"bad.cfg: line 1: {error}" in capsys.readouterr().err

    def test_mutated_files_are_usage_errors_or_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "train", lambda args: 0)
        valid = (b"# tuned by hand\nseed = 7\nepochs=3\nlr = 0.01  # lower\n"
                 b"shuffle = no\naverage = score\nbatch-size = 4\n"
                 b"dropout = 0.5\n")
        cfg = tmp_path / "run.cfg"
        codes = []
        for data in mutations(valid, 13, 200):
            cfg.write_bytes(data)
            codes.append(main(["train"] + REQUIRED["train"] + ["--config", str(cfg)]))
        assert set(codes) == {0, 2}

    def test_train_help_shows_sgd_config_defaults(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        sgd = SgdConfig()
        for flag, value in [("--lr", sgd.lr0), ("--momentum", sgd.momentum),
                            ("--weight-decay", sgd.weight_decay),
                            ("--batch-size", sgd.batch_size), ("--lr-factor", sgd.lr_factor),
                            ("--patience", sgd.patience), ("--min-lr", sgd.min_lr),
                            ("--improvement-eps", sgd.improvement_epsilon)]:
            assert re.search(rf"{flag} [A-Z_]+ [^()]*\(default: {re.escape(str(value))}\)",
                             text), flag


# (--means value, a part of its error)
BAD_MEANS = [("nan,0,0", "finite"), ("0,inf,0", "finite"),
             ("1,2", "expected three channel means"), ("a,b,c", "bad channel means")]


class TestPredict:
    def _image_list(self, tmp_path, manifest):
        listing = tmp_path / "images.txt"
        listing.write_text("\n".join(r.path for r in manifest.records) + "\n")
        return str(listing)

    def test_per_image_lines(self, tmp_path, capsys):
        model = make_model(tmp_path)
        _, manifest = dataset(tmp_path, count=4)
        listing = self._image_list(tmp_path, manifest)
        assert main(["predict", "--model", model, "--images", listing]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for line, rec in zip(lines, manifest.records):
            cells = line.split(",")
            assert cells[0] == rec.path
            assert cells[1] in AGE_LABELS
            probs = [float(c) for c in cells[2:]]
            assert len(probs) == 8
            assert abs(sum(probs) - 1.0) < 1e-6

    def test_paths_with_commas_and_quotes_parse_back(self, tmp_path, capsys):
        # rows are csv-quoted where a path needs it, so each parses back to
        # 10 cells and its path; a plain path is written as it is
        model = make_model(tmp_path)
        _, manifest = dataset(tmp_path, count=1)
        plain = manifest.records[0].path
        odd = [str(tmp_path / "a,b.ppm"), str(tmp_path / 'say "hi".ppm')]
        for path in odd:
            shutil.copyfile(plain, path)
        listing = tmp_path / "images.txt"
        listing.write_text("\n".join([plain, *odd]) + "\n")
        assert main(["predict", "--model", model, "--images", str(listing)]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows] == [plain, *odd]
        assert all(len(row) == 10 and row[1:] == rows[0][1:] for row in rows)
        assert out.startswith(plain + ",")

    def test_deterministic_across_runs(self, tmp_path, capsys):
        model = make_model(tmp_path)
        _, manifest = dataset(tmp_path, count=3)
        listing = self._image_list(tmp_path, manifest)
        main(["predict", "--model", model, "--images", listing])
        first = capsys.readouterr().out
        main(["predict", "--model", model, "--images", listing])
        assert capsys.readouterr().out == first

    def test_non_utf8_image_list_is_runtime_failure(self, tmp_path, capsys):
        model = make_model(tmp_path)
        listing = tmp_path / "images.txt"
        listing.write_bytes(b"caf\xe9.ppm\n")
        assert main(["predict", "--model", model, "--images", str(listing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not UTF-8" in captured.err

    def test_partial_failure_continues_and_exits_1(self, tmp_path, capsys):
        model = make_model(tmp_path)
        _, manifest = dataset(tmp_path, count=2)
        listing = tmp_path / "images.txt"
        missing = str(tmp_path / "gone.ppm")
        listing.write_text(manifest.records[0].path + "\n" + missing + "\n"
                           + manifest.records[1].path + "\n")
        code = main(["predict", "--model", model, "--images", str(listing)])
        assert code == 1
        captured = capsys.readouterr()
        good = captured.out.strip().splitlines()
        assert len(good) == 2
        assert good[0].startswith(manifest.records[0].path + ",")
        assert "gone.ppm" in captured.err

    def test_oversized_ppm_header_is_runtime_failure(self, tmp_path, capsys):
        # the header claims 30 GB of pixels; the file holds 12 bytes of them
        model = make_model(tmp_path)
        huge = tmp_path / "huge.ppm"
        huge.write_bytes(b"P6\n100000 100000\n255\n" + bytes(12))
        listing = tmp_path / "images.txt"
        listing.write_text(str(huge) + "\n")
        assert main(["predict", "--model", model, "--images", str(listing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "huge.ppm" in captured.err and "truncated PPM" in captured.err

    @pytest.mark.parametrize("means, error", BAD_MEANS, ids=[means for means, _ in BAD_MEANS])
    def test_non_finite_means_are_runtime_failure(self, means, error, tmp_path, capsys):
        model = make_model(tmp_path)
        _, manifest = dataset(tmp_path, count=1)
        listing = self._image_list(tmp_path, manifest)
        assert main(["predict", "--model", model, "--images", listing, "--means", means]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error in captured.err


class TestEval:
    def test_perfect_pairing_scores_100(self, tmp_path, capsys):
        model = make_model(tmp_path)
        _, manifest = dataset(tmp_path, count=6)
        spec, params, _, _ = load(model)
        rows = ["path,label,fold,gender"]
        for rec in manifest.records:
            pred = argmax(predict_proba(spec, params, decode_image(rec.path)))
            rows.append(f"{os.path.basename(rec.path)},{AGE_LABELS[pred]},0,")
        agreed = tmp_path / "agreed.csv"
        agreed.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--model", model, "--test", str(agreed)]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1] == "exact=100.00% one_off=100.00%"

    def test_report_and_csv(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest_path, _ = dataset(tmp_path, count=6)
        csv_out = str(tmp_path / "report.csv")
        assert main(["eval", "--model", model, "--test", manifest_path,
                     "--csv-out", csv_out]) == 0
        captured = capsys.readouterr()
        lines = captured.out.rstrip().splitlines()
        header, footer = lines[0], lines[-1]
        for label in AGE_LABELS:
            assert label in header
        m = re.match(r"exact=(\d+\.\d{2})% one_off=(\d+\.\d{2})%$", footer)
        assert m
        assert float(m.group(1)) <= float(m.group(2))
        assert os.path.exists(csv_out)
        assert read_bytes(csv_out).startswith(b"truth,")
        assert f"wrote {csv_out}" in captured.err

    def test_default_csv_path(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest_path, _ = dataset(tmp_path, count=4)
        assert main(["eval", "--model", model, "--test", manifest_path]) == 0
        capsys.readouterr()
        assert os.path.exists(manifest_path + ".report.csv")

    def test_row_order_follows_taxonomy(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest_path, _ = dataset(tmp_path, count=8)
        assert main(["eval", "--model", model, "--test", manifest_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        row_names = [line.split()[0] for line in lines[1:9]]
        assert row_names == list(AGE_LABELS)

    def test_empty_manifest_names_it_and_writes_no_report(self, tmp_path, capsys):
        model = make_model(tmp_path)
        blank = tmp_path / "empty.csv"
        blank.write_text("path,label\n")
        assert main(["eval", "--model", model, "--test", str(blank)]) == 1
        captured = capsys.readouterr()
        assert f"{blank}: manifest has no records" in captured.err
        assert captured.out == ""
        assert not os.path.exists(str(blank) + ".report.csv")

    def test_oversized_field_is_runtime_failure(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest = tmp_path / "long.csv"
        manifest.write_text(f"path,label\n{'x' * 200_000}.ppm,0-2\n")
        assert main(["eval", "--model", model, "--test", str(manifest)]) == 1
        assert f"{manifest}: row 2: field larger" in capsys.readouterr().err
        assert not os.path.exists(str(manifest) + ".report.csv")

    def test_non_utf8_manifest_is_runtime_failure(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest = tmp_path / "latin1.csv"
        manifest.write_bytes(b"path,label\ncaf\xe9.ppm,0-2\n")
        assert main(["eval", "--model", model, "--test", str(manifest)]) == 1
        assert "not UTF-8" in capsys.readouterr().err


class TestNulBytePath:
    """An image path holding a NUL byte fails as that image's typed error."""

    def _manifest(self, tmp_path):
        _, loaded = dataset(tmp_path, count=2)
        manifest = tmp_path / "nul.csv"
        manifest.write_text(f"path,label\na\0b.ppm,0-2\n{loaded.records[0].path},0-2\n")
        return str(manifest)

    def test_predict_prints_good_rows_and_exits_1(self, tmp_path, capsys):
        model = make_model(tmp_path)
        _, loaded = dataset(tmp_path, count=1)
        good = loaded.records[0].path
        listing = tmp_path / "images.txt"
        listing.write_text(f"a\0b.ppm\n{good}\n")
        assert main(["predict", "--model", model, "--images", str(listing)]) == 1
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert len(rows) == 1 and rows[0].startswith(good + ",")
        assert "'a\\x00b.ppm': image path holds a NUL byte" in captured.err

    def test_predict_error_line_holds_no_raw_nul(self, tmp_path, capsys):
        model = make_model(tmp_path)
        listing = tmp_path / "images.txt"
        listing.write_text("a\0b.ppm\n")
        assert main(["predict", "--model", model, "--images", str(listing)]) == 1
        err = capsys.readouterr().err
        assert "\0" not in err and err.startswith("'a\\x00b.ppm': ")

    def test_eval_exits_1_and_writes_no_report(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest = self._manifest(tmp_path)
        assert main(["eval", "--model", model, "--test", manifest]) == 1
        assert "image path holds a NUL byte" in capsys.readouterr().err
        assert not os.path.exists(manifest + ".report.csv")

    def test_train_exits_1_and_writes_no_checkpoint(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest = self._manifest(tmp_path)
        out = tmp_path / "ck.acnn"
        assert main(["train", "--model", model, "--train", manifest, "--val", manifest,
                     "--epochs", "1", "--out", str(out)]) == 1
        assert "image path holds a NUL byte" in capsys.readouterr().err
        assert not out.exists()

    def test_mutated_manifests_never_raise_through_eval(self, tmp_path, capsys):
        model = make_model(tmp_path)
        dataset(tmp_path, count=2)
        valid = b"path,label\nimg000.ppm,0-2\nimg001.ppm,4-6\n"
        manifest = tmp_path / "m.csv"
        codes = collections.Counter()
        for data in mutations(valid, 14, 24):
            manifest.write_bytes(data)
            codes[main(["eval", "--model", model, "--test", str(manifest)])] += 1
        capsys.readouterr()
        assert set(codes) == {0, 1}


class TestInspect:
    def test_profile_table(self, capsys):
        assert main(["inspect", "--profile", "vgg-face-age"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "network: vgg_face_age"
        assert lines[1] == "input: 3x224x224"
        table = {line.split()[0]: line.split() for line in lines if line}
        assert table["pool5"][2] == "512x7x7"
        assert table["fc6"][2] == "4096"
        assert table["fc9"][2] == "8"
        assert out.rstrip().splitlines()[-1] == \
            "total params: 163009240 (trainable 163009240, frozen 0)"

    def test_model_table_shows_freeze_flags(self, tmp_path, capsys):
        donor = make_model(tmp_path)
        model = surgery_model(tmp_path, donor)
        capsys.readouterr()
        assert main(["inspect", "--model", model]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = {line.split()[0]: line.split() for line in lines if line}
        assert table["conv1_1"][-1] == "no"
        assert table["fc3"][-1] == "yes"
        totals = lines[-1]
        m = re.match(r"total params: (\d+) \(trainable (\d+), frozen (\d+)\)$",
                     totals)
        assert m
        assert int(m.group(1)) == int(m.group(2)) + int(m.group(3))
        assert totals == "total params: 37760 (trainable 33464, frozen 4296)"

    def test_trained_model_reports_optimizer(self, tmp_path, capsys):
        model = make_model(tmp_path)
        manifest, _ = dataset(tmp_path, count=4)
        out = str(tmp_path / "ck.acnn")
        assert main(["train", "--model", model, "--train", manifest,
                     "--val", manifest, "--epochs", "1", "--out", out,
                     "--batch-size", "4", "--lr", "0.001"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--model", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("optimizer: lr=") and "epoch=1" in line
                   for line in lines)

    def test_unreadable_model_is_runtime_failure(self, tmp_path, capsys):
        bad = tmp_path / "junk.acnn"
        bad.write_bytes(b"garbage")
        assert main(["inspect", "--model", str(bad)]) == 1
        assert capsys.readouterr().err != ""


def blas_count():
    """The bundled OpenBLAS's thread count; skips the test where it cannot be read."""
    controls = tensor._blas_controls()
    if controls is None:
        pytest.skip("numpy carries no OpenBLAS with a settable thread count")
    return controls[1]()


def spy_pools(monkeypatch):
    """(workers, BLAS thread count) at every WorkerPool a command opens."""
    seen = []
    real = network.WorkerPool
    get = tensor._blas_controls()[1]

    class Spy(real):
        def __init__(self, workers=1):
            seen.append((workers, get()))
            super().__init__(workers)

    monkeypatch.setattr(network, "WorkerPool", Spy)
    monkeypatch.setattr(optim, "WorkerPool", Spy)
    return seen


def engine_threads():
    return [t for t in threading.enumerate() if t.name.startswith("agecnn-worker")]


class TestEngineThreads:
    """Each command runs at one BLAS thread on pools of network.pool_size()
    workers, and hands the caller's BLAS thread count back."""

    @pytest.fixture
    def caller_count(self):
        before = blas_count()
        tensor.set_blas_threads(2)
        yield 2
        tensor.set_blas_threads(before)

    def test_one_blas_thread_inside_caller_count_restored(self, tmp_path, caller_count,
                                                         monkeypatch, capsys):
        manifest, loaded = dataset(tmp_path, count=3)
        model = surgery_model(tmp_path, make_model(tmp_path))
        listing = tmp_path / "images.txt"
        listing.write_text("".join(r.path + "\n" for r in loaded.records))
        seen = spy_pools(monkeypatch)
        assert main(["train", "--model", model, "--train", manifest, "--val", manifest,
                     "--epochs", "1", "--batch-size", "2", "--out", str(tmp_path / "t.acnn")]) == 0
        assert main(["predict", "--model", model, "--images", str(listing)]) == 0
        assert main(["eval", "--model", model, "--test", manifest]) == 0
        # val features, two train steps and validation; predict; eval
        assert seen == [(network.pool_size(), 1)] * 6
        assert blas_count() == caller_count

    def test_missing_blas_symbol_one_worker_blas_left_alone(self, tmp_path, caller_count,
                                                           monkeypatch, capsys):
        _, loaded = dataset(tmp_path, count=2)
        listing = tmp_path / "images.txt"
        listing.write_text("".join(r.path + "\n" for r in loaded.records))
        model = make_model(tmp_path)
        seen = spy_pools(monkeypatch)
        get = tensor._blas_controls()[1]
        monkeypatch.setattr(tensor, "_BLAS_SET", "no_such_symbol")
        assert main(["predict", "--model", model, "--images", str(listing)]) == 0
        assert seen == [(1, caller_count)]
        assert get() == caller_count

    def test_no_engine_thread_outlives_main(self, tmp_path, capsys):
        manifest, loaded = dataset(tmp_path, count=3)
        model = make_model(tmp_path)
        listing = tmp_path / "images.txt"
        listing.write_text("".join(r.path + "\n" for r in loaded.records))
        assert main(["predict", "--model", model, "--images", str(listing)]) == 0
        assert engine_threads() == []
        # the second image is missing: eval fails after the pool has run
        broken = tmp_path / "broken.csv"
        lines = read_bytes(manifest).decode("utf-8").splitlines()
        broken.write_text("\n".join([lines[0], lines[1], "missing.ppm," + lines[2].split(",")[1],
                                      lines[3]]) + "\n")
        assert main(["eval", "--model", model, "--test", str(broken)]) == 1
        assert "missing.ppm" in capsys.readouterr().err
        assert engine_threads() == []

    def test_predict_rows_and_errors_in_input_order(self, tmp_path, capsys, monkeypatch):
        # good, missing and malformed images interleaved on the crop path:
        # rows and error lines come in input order, the same at one worker
        model = tiny_224_model(tmp_path)
        paths = []
        for i, kind in enumerate(["good", "missing", "good", "magic", "good", "truncated",
                                  "good"]):
            path = str(tmp_path / f"{i}-{kind}.ppm")
            if kind == "good":
                write_ppm(path, Rng(i).uniform((3, 30 + 5 * i, 40)) * 255)
            elif kind == "magic":
                write_bytes(path, b"P5\n2 2\n255\n" + bytes(4))
            elif kind == "truncated":
                write_bytes(path, b"P6\n4 4\n255\n" + bytes(10))
            paths.append(path)
        listing = tmp_path / "images.txt"
        listing.write_text("\n".join(paths) + "\n")
        argv = ["predict", "--model", model, "--images", str(listing)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert [row[0] for row in csv.reader(io.StringIO(out))] == \
            [p for p in paths if p.endswith("good.ppm")]
        assert [line.split(": ")[0] for line in err.splitlines()] == \
            [p for p in paths if not p.endswith("good.ppm")]
        monkeypatch.setattr(network, "pool_size", lambda: 1)
        assert main(argv) == 1
        assert capsys.readouterr() == (out, err)
