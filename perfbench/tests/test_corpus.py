"""The corpus generator is deterministic per seed and yields the shapes
the workloads are described by."""

import json
from statistics import mean

import pytest

import corpus
from nirrec import ingest


def read(paths):
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("workload", sorted(corpus.SHAPES))
def test_same_seed_gives_identical_bytes(tmp_path, workload):
    a = read(corpus.write_corpus(workload, 7, tmp_path / "a"))
    b = read(corpus.write_corpus(workload, 7, tmp_path / "b"))
    assert a == b


def test_other_seed_gives_other_sessions(tmp_path):
    a = read(corpus.write_corpus("wide-catalog", 1, tmp_path / "a"))
    b = read(corpus.write_corpus("wide-catalog", 2, tmp_path / "b"))
    assert a[0] != b[0]
    assert a[1] == b[1]  # the catalog depends on the shape only


@pytest.mark.parametrize("workload", sorted(corpus.SHAPES))
def test_prepared_shape(tmp_path, workload):
    shape = corpus.SHAPES[workload]
    sessions, catalog = corpus.write_corpus(workload, 3, tmp_path)
    data = ingest.prepare(sessions, catalog)
    assert data.n_items == shape.n_items + 1
    assert len(data.train) == shape.n_train
    assert len(data.test) == shape.n_test
    assert all(len(set(s.history)) >= 2 for s in data.train + data.test)
    lengths = [len(json.loads(line)["events"]) for line in sessions.read_text().splitlines()]
    assert shape.min_events <= min(lengths) and max(lengths) <= shape.max_events
    if shape.mean_extra > 0:
        assert abs(mean(lengths) - shape.min_events - shape.mean_extra) < 0.3
