"""Seeded synthetic inputs for the benchmark workloads.

Everything the program receives comes from here: PPM images, manifests,
predict image lists and a trunk-only donor checkpoint built with
``init_params`` and ``save`` (no pretrained weights exist, and none are
fetched). The same seed and workload always give the same bytes. Inputs are
cached per (workload, seed) so that a run times only the CLI commands.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from agecnn import AGE_LABELS, Rng, init_params, network, save, write_ppm
from agecnn.layers import softmax_loss

# Bump when the generated files change meaning, so stale caches are rebuilt.
GENERATOR_VERSION = 1


def _images(rng, count, labels, out_dir, prefix):
    """Write `count` PPMs; a per-label tint over noise keeps labels learnable.

    Sizes are drawn around 256, so that the rescale and three-crop path runs.
    """
    names = []
    for i in range(count):
        h, w = rng.integers(232, 300), rng.integers(232, 300)
        label = labels[i]
        tint = np.array([32 * (label % 4), 32 * (label // 2), 255 - 32 * label],
                        dtype=np.float64)[:, None, None]
        img = 0.5 * rng.uniform((3, h, w)) * 255 + 0.5 * tint
        name = f"{prefix}{i:05d}.ppm"
        write_ppm(os.path.join(out_dir, name), img.astype(np.float32))
        names.append(name)
    return names


def _manifest(path, names, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,label,fold,gender\n")
        fh.write("".join(f"{n},{AGE_LABELS[label]},,\n" for n, label in zip(names, labels)))


def _image_list(path, names):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(n + "\n" for n in names))


def _donor(profile, rng, path):
    """Trunk-only checkpoint whose convs keep activations at unit scale.

    ``init_params`` draws every weight at one std; the convs are rescaled to
    He scale so that a deep trunk does not collapse its features to zero,
    which would make every prediction a tie.
    """
    spec = network.build_profile(profile)
    trunk, _ = network.trunk_and_head(spec)
    donor = network.NetworkSpec(spec.name, spec.input_shape,
                                list(trunk) + [softmax_loss("prob")])
    std = 0.01
    params = init_params(donor, rng, std=std)
    for i, group in enumerate(params.values()):
        w = group["weight"]
        # He scale; the first conv also undoes the 0..255 pixel range.
        scale = math.sqrt(2.0 / math.prod(w.shape[1:])) / std / (128.0 if i == 0 else 1.0)
        group["weight"] = (w * scale).astype(np.float32)
    save(donor, params, {name: False for name in params}, path)


def generate(workload, seed, root):
    """Build (or reuse) the inputs of one workload; returns a dict of paths."""
    cfg = {k: getattr(workload, k) for k in ("profile", "train", "val", "predict")}
    key = [GENERATOR_VERSION, workload.name, seed, cfg]
    out_dir = os.path.join(root, f"{workload.name}-{seed}")
    stamp = os.path.join(out_dir, "inputs.json")
    if os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            cached = json.load(fh)
        if cached.get("key") == key:
            return {**cached["paths"], "dir": out_dir}
    os.makedirs(out_dir, exist_ok=True)

    base = Rng(seed).derive(workload.index)
    # Paths are relative to out_dir, where the commands run, so that their
    # output does not depend on where the checkout lives.
    paths = {"dir": out_dir, "donor": "donor.acnn"}
    _donor(cfg["profile"], base.derive(0), os.path.join(out_dir, paths["donor"]))
    for split, role in (("train", 1), ("val", 2), ("predict", 3)):
        n = cfg[split]
        if not n:
            continue
        r = base.derive(role)
        labels = [r.integers(0, len(AGE_LABELS)) for _ in range(n)]
        names = _images(r, n, labels, out_dir, f"{split}_")
        if split == "predict":
            paths["images"] = "predict.txt"
            _image_list(os.path.join(out_dir, paths["images"]), names)
        else:
            paths[split] = f"{split}.csv"
            _manifest(os.path.join(out_dir, paths[split]), names, labels)
    with open(stamp, "w", encoding="utf-8") as fh:
        json.dump({"key": key, "paths": paths}, fh)
    return paths
