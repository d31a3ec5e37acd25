"""The per-layer tracer of the benchmark (perfbench/layertrace.py) patches
library functions by name.  These tests install it over a small run, so a
rename or a changed call path under src/ that would break
``perfbench/run.py --trace 1`` fails here instead."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layertrace import TARGETS, Tracer  # noqa: E402

from nirrec import evaluate, ingest, model  # noqa: E402
from nirrec.datagen import write_toy_dataset  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_replaces_and_uninstall_restores_every_target():
    originals = [owner.__dict__[attr] for owner, attr, *_ in TARGETS]
    t = Tracer()
    t.install()
    try:
        for (owner, attr, *_), original in zip(TARGETS, originals):
            assert owner.__dict__[attr] is not original, attr
    finally:
        t.uninstall()
    for (owner, attr, *_), original in zip(TARGETS, originals):
        assert owner.__dict__[attr] is original, attr


def test_every_traced_layer_is_reached(tracer, tmp_path):
    sessions, catalog = write_toy_dataset(tmp_path)
    cfg = model.TrainConfig(d=8, epochs=1, seed=1)
    tracer.phase = "setup"
    data = ingest.prepare(sessions, catalog)
    ingest.save_shards(tmp_path / "shard", data)
    data = ingest.load_shards(tmp_path / "shard")
    params = model.init_params(data, cfg)
    tracer.phase = "train"
    model.train(data, cfg, params=params)
    tracer.phase = "eval"
    evaluate.evaluate(params, data, cfg)
    tracer.phase = None

    seen = {layer for (_, layer), n in tracer.calls.items() if n}
    assert seen == {layer for _, _, layer, _, _ in TARGETS}
    for phase in ("train", "eval"):
        for layer in ("sessiongraph.build_graph", "encoder.embed_session",
                      "intent.compute_intent", "model.candidates",
                      "zeroshot.theta_candidates", "model.score_candidates"):
            assert tracer.calls[phase, layer] > 0, (phase, layer)
        assert tracer.counts[phase, "zeroshot.theta_candidate_rows"] > 0
    assert tracer.calls["eval", "evaluate.self"] == 1
    assert tracer.counts["train", "autodiff.tape_ops"] > 0
