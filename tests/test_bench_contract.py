"""The benchmark (perfbench/) drives the library from outside: its per-layer
tracer (layertrace.py) patches library functions by name, and its checks
(checks.py) and runner read ``PreparedData.attr_matrix``.  These tests run
that interface over a small shard, so a rename or a changed call path under
src/ that would break ``perfbench/run.py`` fails here instead."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
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


def test_reference_theta_matches_the_catalog_table(tmp_path):
    """checks.theta_table (``data.attr_matrix @ attr_table`` in NumPy) and
    the library's catalog table agree row for row on a saved and loaded
    shard, and ``attr_matrix.nbytes`` (``setup.ingest.attr_bytes``) counts
    the CSR arrays."""
    sessions, catalog = write_toy_dataset(tmp_path)
    ingest.save_shards(tmp_path / "shard", ingest.prepare(sessions, catalog))
    data = ingest.load_shards(tmp_path / "shard")
    params = model.init_params(data, model.TrainConfig(d=8, seed=1))
    want = checks.theta_table(params, data)
    got = evaluate.catalog_table(params, data).data
    assert want.shape == (data.n_items, 8)
    np.testing.assert_allclose(got, want[1:], rtol=0, atol=1e-12)
    matrix = data.attr_matrix
    assert matrix.nbytes == matrix.indptr.nbytes + matrix.cols.nbytes
    assert matrix.nbytes < 8 * (data.n_items + 1) * 4
