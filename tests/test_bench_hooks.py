"""The benchmark's per-layer wrappers (bench/per_layer.py) must keep firing.

``bench/run.py --trace 1`` fails a run whose expected wrapper never fires;
this runs the same hooks over the mini profile so that a refactor which
moves a call site shows up in the test suite, not first in the benchmark.
"""

import os
from types import SimpleNamespace

from agecnn import Rng, build_profile, init_params, load_manifest, make_mask, save
from agecnn import cli

from conftest import write_dataset

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_expected_wrapper_fires_on_mini(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import per_layer

    manifest = write_dataset(str(tmp_path), 8, Rng(7))
    listing = tmp_path / "images.txt"
    listing.write_text("".join(r.path + "\n" for r in load_manifest(manifest).records))
    spec = build_profile("mini")
    donor, model, trained = (str(tmp_path / n) for n in ("donor.acnn", "model.acnn",
                                                         "trained.acnn"))
    save(spec, init_params(spec, Rng(0)), make_mask(spec), donor)

    tracer = per_layer.install()  # wraps module attributes, so call cli.main through cli
    try:
        codes = [
            cli.main(["surgery", "--in", donor, "--profile", "mini", "--head", "32,16,8",
                  "--out", model]),
            cli.main(["train", "--model", model, "--train", manifest, "--val", manifest,
                  "--epochs", "1", "--batch-size", "4", "--out", trained]),
            cli.main(["predict", "--model", trained, "--images", str(listing)]),
        ]
    finally:
        tracer.restore()
    assert codes == [0, 0, 0]
    # mini images are already at the network's input size, so nothing resizes
    assert tracer.unfired(per_layer.expected(SimpleNamespace(trains=True))) == [
        "data.resize_bilinear@data", "data.resize_bilinear@predict"]
