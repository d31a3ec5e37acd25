"""Ingestion pipeline tests: loaders, time split, clustering, attribute
encoding, and shard round trips, each checked against brute-force oracles."""

import itertools
import json

import numpy as np
import pytest

from nirrec.autodiff import Rng, load_tensors
from nirrec.errors import ConfigurationError, DomainError, IngestionError
from nirrec.ingest import (
    PrepareOptions,
    build_taxonomy_tree,
    encode_attributes,
    kmeanspp,
    load_catalog,
    load_sessions,
    load_shards,
    load_vector_file,
    prepare,
    save_shards,
    time_split,
)
from nirrec.sessiongraph import Session


def dense(matrix):
    """The dense item×token averaging matrix that a CSR AttributeMatrix
    stands for, built entry by entry."""
    out = np.zeros(matrix.shape)
    for i in range(matrix.shape[0]):
        row = matrix.cols[matrix.indptr[i] : matrix.indptr[i + 1]]
        for c in row:
            out[i, c] += 1.0 / len(row)
    return out


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def session_row(sid, items, t0=1_000_000, step=60):
    return {
        "session_id": sid,
        "events": [{"item": it, "ts": t0 + i * step} for i, it in enumerate(items)],
    }


def catalog_row(item, taxonomy=None, labels=None, attributes=()):
    row = {"item": item, "attributes": list(attributes)}
    if taxonomy is not None:
        row["taxonomy"] = list(taxonomy)
    if labels is not None:
        row["labels"] = list(labels)
    return row


class TestLoadSessions:
    def test_round_trip_and_order(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_jsonl(p, [session_row("a", ["x", "y", "z"]), session_row("b", ["y", "x"])])
        sessions, counters = load_sessions(p)
        assert [s.session_id for s in sessions] == ["a", "b"]
        assert sessions[0].items == ("x", "y", "z")
        assert counters == {"unsorted_sessions": 0, "too_short_sessions": 0}

    def test_unsorted_events_are_sorted_and_counted(self, tmp_path):
        p = tmp_path / "s.jsonl"
        row = {
            "session_id": "a",
            "events": [
                {"item": "x", "ts": 300},
                {"item": "y", "ts": 100},
                {"item": "z", "ts": 200},
            ],
        }
        write_jsonl(p, [row, session_row("b", ["x", "y"])])
        sessions, counters = load_sessions(p)
        assert sessions[0].items == ("y", "z", "x")
        assert counters["unsorted_sessions"] == 1

    def test_stable_sort_preserves_tie_order(self, tmp_path):
        p = tmp_path / "s.jsonl"
        row = {
            "session_id": "a",
            "events": [
                {"item": "late", "ts": 500},
                {"item": "x", "ts": 100},
                {"item": "y", "ts": 100},
            ],
        }
        write_jsonl(p, [row])
        sessions, _ = load_sessions(p)
        assert sessions[0].items == ("x", "y", "late")

    def test_short_sessions_skipped_and_counted(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_jsonl(p, [session_row("solo", ["x"]), session_row("ok", ["x", "y"])])
        sessions, counters = load_sessions(p)
        assert [s.session_id for s in sessions] == ["ok"]
        assert counters["too_short_sessions"] == 1

    def test_duplicate_session_id_rejected(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_jsonl(p, [session_row("a", ["x", "y"]), session_row("a", ["y", "x"])])
        with pytest.raises(IngestionError, match="duplicate session_id"):
            load_sessions(p)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(json.dumps(session_row("a", ["x", "y"])) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=":2"):
            load_sessions(p)

    def test_missing_event_keys_rejected(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_jsonl(p, [{"session_id": "a", "events": [{"item": "x"}, {"item": "y", "ts": 2}]}])
        with pytest.raises(IngestionError, match="needs 'item' and 'ts'"):
            load_sessions(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            load_sessions(tmp_path / "nope.jsonl")

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(
            "\n" + json.dumps(session_row("a", ["x", "y"])) + "\n\n", encoding="utf-8"
        )
        sessions, _ = load_sessions(p)
        assert len(sessions) == 1


class TestLoadCatalog:
    def test_fields_parsed(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(
            p,
            [
                catalog_row("i1", taxonomy=("a", "b", "c"), attributes=("red", "wool")),
                catalog_row("i2", labels=("shoes",), attributes=()),
            ],
        )
        records = load_catalog(p)
        assert records[0].taxonomy == ("a", "b", "c")
        assert records[0].attributes == ("red", "wool")
        assert records[1].taxonomy is None
        assert records[1].labels == ("shoes",)

    def test_duplicate_item_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [catalog_row("i1"), catalog_row("i1")])
        with pytest.raises(IngestionError, match="duplicate catalog item"):
            load_catalog(p)

    def test_taxonomy_must_have_three_levels(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [catalog_row("i1", taxonomy=("a", "b"))])
        with pytest.raises(IngestionError, match="exactly 3 levels"):
            load_catalog(p)

    def test_attributes_required(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"item": "i1"}])
        with pytest.raises(IngestionError, match="'item' and 'attributes'"):
            load_catalog(p)


class TestLineStreaming:
    """Both JSON-lines loaders read one line at a time, never the whole
    file, and report the same line numbers for any line ending."""

    @pytest.mark.parametrize("load, good, bad_key", [
        (load_sessions, session_row("a", ["x", "y"]), "'session_id' and 'events'"),
        (load_catalog, catalog_row("i1"), "'item' and 'attributes'"),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_numbers_without_reading_whole_file(
        self, tmp_path, monkeypatch, load, good, bad_key, newline
    ):
        p = tmp_path / "f.jsonl"
        p.write_bytes(newline.join([json.dumps(good), "", "{}", ""]).encode("utf-8"))
        monkeypatch.setattr(type(p), "read_text", lambda *a, **k: pytest.fail("read whole"))
        with pytest.raises(IngestionError, match=f":3: expected keys {bad_key}"):
            load(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_vector_file_line_numbers_without_reading_whole_file(
        self, tmp_path, monkeypatch, newline
    ):
        p = tmp_path / "v.txt"
        p.write_bytes(newline.join(["a 1.0 2.0", "", "b 3.0", ""]).encode("utf-8"))
        read_text = type(p).read_text

        def guarded(path, *a, **k):
            if path == p:
                pytest.fail("read whole")
            return read_text(path, *a, **k)

        monkeypatch.setattr(type(p), "read_text", guarded)
        with pytest.raises(IngestionError, match=":3: vector has 1 components, expected 2"):
            load_vector_file(p)
        p.write_bytes(newline.join(["a 1.0 2.0", "", "b 3.0 -4.5", ""]).encode("utf-8"))
        vectors, dim = load_vector_file(p)
        assert dim == 2 and list(vectors) == ["a", "b"]
        np.testing.assert_array_equal(vectors["b"], [3.0, -4.5])


class TestTimeSplit:
    def oracle(self, sessions, days):
        latest = max(s.last_timestamp for s in sessions)
        boundary = latest - int(round(days * 86400))
        train = [s for s in sessions if s.last_timestamp < boundary]
        test = [s for s in sessions if s.last_timestamp >= boundary]
        return train, test, boundary

    def make(self, sid, last_ts):
        return Session(sid, (("x", last_ts - 10), ("y", last_ts)))

    def test_boundary_is_last_week(self):
        sessions = [self.make("old", 0), self.make("new", 86400 * 30)]
        train, test, boundary = time_split(sessions)
        assert boundary == 86400 * 23
        assert [s.session_id for s in train] == ["old"]
        assert [s.session_id for s in test] == ["new"]

    def test_session_at_boundary_goes_to_test(self):
        latest = 86400 * 20
        at_boundary = latest - 86400 * 7
        sessions = [self.make("early", 0), self.make("edge", at_boundary), self.make("late", latest)]
        train, test, _ = time_split(sessions)
        assert [s.session_id for s in test] == ["edge", "late"]
        assert [s.session_id for s in train] == ["early"]

    def test_matches_oracle_on_random_timestamps(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            stamps = rng.integers(0, 86400 * 40, size=n)
            if stamps.max() - stamps.min() < 86400 * 8:
                stamps[0] = stamps.max() + 86400 * 9  # guarantee both sides populated
            sessions = [self.make(f"s{i}", int(t)) for i, t in enumerate(stamps)]
            days = float(rng.choice([1.0, 7.0, 14.5]))
            if max(stamps) - min(stamps) < days * 86400:
                continue
            want_train, want_test, want_b = self.oracle(sessions, days)
            if not want_train or not want_test:
                with pytest.raises(ConfigurationError):
                    time_split(sessions, days)
                continue
            got_train, got_test, got_b = time_split(sessions, days)
            assert got_b == want_b
            assert [s.session_id for s in got_train] == [s.session_id for s in want_train]
            assert [s.session_id for s in got_test] == [s.session_id for s in want_test]

    def test_degenerate_split_rejected(self):
        sessions = [self.make("a", 100), self.make("b", 200)]
        with pytest.raises(ConfigurationError, match="degenerate"):
            time_split(sessions)  # everything inside the last week

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            time_split([])


def inertia(points, assign, centroids):
    return float(sum(np.sum((points[i] - centroids[a]) ** 2) for i, a in enumerate(assign)))


def best_two_partition_inertia(points):
    """Exhaustive optimum over every split of the points into two non-empty
    groups, scoring each group against its own mean."""
    n = len(points)
    best = np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        assign = np.array((0,) + bits)
        val = 0.0
        for g in (0, 1):
            members = points[assign == g]
            if len(members) == 0:
                break
            val += float(np.sum((members - members.mean(axis=0)) ** 2))
        else:
            best = min(best, val)
    return best


class TestKmeansPP:
    def test_k_equals_n_gives_zero_inertia(self):
        pts = np.array([[0.0], [1.0], [5.0], [9.0]])
        assign, cents = kmeanspp(pts, 4, Rng(0, "km"))
        assert inertia(pts, assign, cents) == pytest.approx(0.0, abs=1e-12)
        assert sorted(assign.tolist()) == [0, 1, 2, 3]

    def test_k1_centroid_is_global_mean(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 4))
        assign, cents = kmeanspp(pts, 1, Rng(0, "km"))
        assert np.all(assign == 0)
        np.testing.assert_allclose(cents[0], pts.mean(axis=0), rtol=1e-12)

    def test_planted_blobs_recovered(self):
        rng = np.random.default_rng(11)
        a = rng.normal(loc=0.0, scale=0.05, size=(25, 3))
        b = rng.normal(loc=8.0, scale=0.05, size=(20, 3))
        pts = np.vstack([a, b])
        assign, _ = kmeanspp(pts, 2, Rng(5, "km"))
        first, second = assign[:25], assign[25:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_matches_exhaustive_two_partition_optimum(self):
        """On small well-separated sets the Lloyd fixpoint is the global
        optimum, which an exhaustive search over all 2-partitions verifies."""
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(4, 11))
            half = n // 2
            pts = np.concatenate(
                [rng.normal(0.0, 0.3, size=half), rng.normal(20.0, 0.3, size=n - half)]
            ).reshape(-1, 1)
            assign, cents = kmeanspp(pts, 2, Rng(trial, "km"))
            got = inertia(pts, assign, cents)
            want = best_two_partition_inertia(pts)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_deterministic_given_rng(self):
        pts = np.random.default_rng(0).normal(size=(40, 2))
        a1, c1 = kmeanspp(pts, 5, Rng(42, "km"))
        a2, c2 = kmeanspp(pts, 5, Rng(42, "km"))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)

    def test_duplicate_points_allowed(self):
        pts = np.zeros((6, 2))
        assign, cents = kmeanspp(pts, 2, Rng(1, "km"))
        assert inertia(pts, assign, cents) == 0.0

    def test_invalid_k(self):
        pts = np.zeros((3, 2))
        with pytest.raises(DomainError):
            kmeanspp(pts, 0, Rng(0, "km"))
        with pytest.raises(DomainError):
            kmeanspp(pts, 4, Rng(0, "km"))

    def test_inertia_non_increasing_over_lloyd_iterations(self):
        """Truncating Lloyd after i steps gives inertias that never rise
        with i, since each assignment/update pair only improves the score."""
        pts = np.random.default_rng(23).normal(size=(60, 3)) * np.array([1.0, 4.0, 0.5])
        history = []
        for iters in range(8):
            assign, cents = kmeanspp(pts, 4, Rng(77, "km"), max_iters=iters)
            history.append(inertia(pts, assign, cents))
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9


class TestBuildTaxonomyTree:
    def vectors_for(self, labels, spread=6.0, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        return {
            lab: rng.normal(size=dim) + spread * i for i, lab in enumerate(sorted(labels))
        }

    def test_paths_cover_all_items(self):
        flat = {"i1": ["a", "b"], "i2": ["c"], "i3": ["a"]}
        vecs = self.vectors_for({"a", "b", "c"})
        paths, _ = build_taxonomy_tree(flat, vecs, (3, 2, 1), Rng(0, "t"))
        assert set(paths) == {"i1", "i2", "i3"}
        for p in paths.values():
            assert len(p) == 3

    def test_tree_consistency(self):
        """Items sharing a fine node must share the whole coarser chain."""
        rng = np.random.default_rng(2)
        labels = [f"lab{i}" for i in range(30)]
        flat = {f"item{i}": [labels[i % 30]] for i in range(60)}
        vecs = {lab: rng.normal(size=4) for lab in labels}
        paths, _ = build_taxonomy_tree(flat, vecs, (12, 5, 2), Rng(9, "t"))
        fine_to_chain = {}
        for t1, t2, t3 in paths.values():
            if t3 in fine_to_chain:
                assert fine_to_chain[t3] == (t1, t2)
            else:
                fine_to_chain[t3] = (t1, t2)
        mid_to_coarse = {}
        for t1, t2, _ in paths.values():
            if t2 in mid_to_coarse:
                assert mid_to_coarse[t2] == t1
            else:
                mid_to_coarse[t2] = t1

    def test_majority_label_tie_breaks_low(self):
        """With one label in each of two clusters, the item follows the
        lower-numbered fine cluster."""
        vecs = {"a": np.array([0.0]), "b": np.array([100.0])}
        flat = {"solo_a": ["a"], "solo_b": ["b"], "tied": ["a", "b"]}
        paths, _ = build_taxonomy_tree(flat, vecs, (3, 2, 1), Rng(0, "t"))
        fine_of = {item: paths[item][2] for item in paths}
        low = min(fine_of["solo_a"], fine_of["solo_b"])
        assert fine_of["tied"] == low

    def test_oversize_levels_clamped_with_warning(self):
        vecs = self.vectors_for({"a", "b"})
        flat = {"i1": ["a"], "i2": ["b"]}
        paths, warnings = build_taxonomy_tree(flat, vecs, (10, 5, 2), Rng(0, "t"))
        assert warnings["k1_clamped"] == 2
        assert warnings["k2_clamped"] == 2
        assert len(paths) == 2

    def test_missing_label_vector_rejected(self):
        with pytest.raises(IngestionError, match="has no vector"):
            build_taxonomy_tree({"i": ["a"]}, {}, (3, 2, 1), Rng(0, "t"))

    def test_deterministic(self):
        labels = {f"l{i}" for i in range(12)}
        vecs = self.vectors_for(labels)
        flat = {f"it{i}": [f"l{i % 12}"] for i in range(20)}
        p1, _ = build_taxonomy_tree(flat, vecs, (6, 3, 2), Rng(4, "t"))
        p2, _ = build_taxonomy_tree(flat, vecs, (6, 3, 2), Rng(4, "t"))
        assert p1 == p2

    def test_multiword_label_averages_word_vectors(self):
        from nirrec.ingest import PrepareOptions, _synth_label_vectors

        file_vectors = {"steel": np.array([2.0, 0.0]), "bolt": np.array([0.0, 4.0])}
        out = _synth_label_vectors({"steel bolt"}, PrepareOptions(), file_vectors)
        np.testing.assert_allclose(out["steel bolt"], [1.0, 2.0])


class TestPrepareOptions:
    """Option values are checked when the options are built, before any
    input is read, each error naming its key."""

    def test_levels_must_decrease(self):
        for levels in ((3, 3, 1), (1, 2, 3), (3, 2, 0), (3, 2), (3.5, 2, 1), (3, 2, True)):
            with pytest.raises(ConfigurationError, match="levels .*k1 > k2 > k3"):
                PrepareOptions(levels=levels)

    @pytest.mark.parametrize("days", [float("nan"), float("inf"), float("-inf")])
    def test_boundary_days_must_be_finite(self, days):
        with pytest.raises(ConfigurationError, match="boundary_days"):
            PrepareOptions(boundary_days=days)

    @pytest.mark.parametrize("dim", [0, -2, 2.5, True])
    def test_label_vector_dim_must_be_positive(self, dim):
        with pytest.raises(ConfigurationError, match="label_vector_dim"):
            PrepareOptions(label_vector_dim=dim)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            PrepareOptions(seed=seed)


class TestEncodeAttributes:
    def records(self):
        from nirrec.ingest import CatalogRecord

        return [
            CatalogRecord("i1", None, None, ("red", "wool")),
            CatalogRecord("i2", None, None, ("red",)),
            CatalogRecord("i3", None, None, ()),
        ]

    def index(self):
        return {"i1": 1, "i2": 2, "i3": 3}

    def test_trainable_vocab_and_weights(self):
        spec = encode_attributes(self.records(), self.index(), 4, mode="trainable")
        assert spec.tokens == ["<unk>", "red", "wool"]
        assert spec.vectors is None
        np.testing.assert_array_equal(spec.matrix.indptr, [0, 1, 3, 4, 5])
        np.testing.assert_array_equal(spec.matrix.cols, [0, 1, 2, 1, 0])
        assert spec.matrix.shape == (4, 3)
        matrix = dense(spec.matrix)
        np.testing.assert_allclose(matrix[1], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(matrix[2], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(matrix[3], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(matrix[0], [1.0, 0.0, 0.0])
        assert spec.no_attr_items == [3]

    def test_rows_sum_to_one(self):
        spec = encode_attributes(self.records(), self.index(), 4, mode="trainable")
        np.testing.assert_allclose(dense(spec.matrix).sum(axis=1), np.ones(4))

    def test_duplicate_tokens_accumulate(self):
        from nirrec.ingest import CatalogRecord

        recs = [CatalogRecord("i1", None, None, ("red", "red", "wool"))]
        spec = encode_attributes(recs, {"i1": 1}, 2, mode="trainable")
        np.testing.assert_array_equal(spec.matrix.cols[spec.matrix.indptr[1] :], [1, 1, 2])
        np.testing.assert_allclose(dense(spec.matrix)[1], [0.0, 2.0 / 3.0, 1.0 / 3.0])

    def test_pretrained_loads_vectors(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("red 1.0 2.0\nwool 3.0 4.0\n", encoding="utf-8")
        spec = encode_attributes(
            self.records(), self.index(), 4, mode="pretrained", vector_file=load_vector_file(vf)
        )
        assert spec.tokens == ["<unk>", "red", "wool"]
        np.testing.assert_allclose(spec.vectors[0], [0.0, 0.0])
        np.testing.assert_allclose(spec.vectors[1], [1.0, 2.0])
        np.testing.assert_allclose(spec.vectors[2], [3.0, 4.0])

    def test_pretrained_low_coverage_rejected(self, tmp_path):
        from nirrec.ingest import CatalogRecord

        vf = tmp_path / "v.txt"
        vf.write_text("tok0 1.0\n", encoding="utf-8")
        recs = [
            CatalogRecord(f"i{j}", None, None, (f"tok{j}",)) for j in range(20)
        ]  # only 1 of 20 tokens covered
        idx = {f"i{j}": j + 1 for j in range(20)}
        with pytest.raises(IngestionError, match="95%"):
            encode_attributes(recs, idx, 21, mode="pretrained", vector_file=load_vector_file(vf))

    def test_pretrained_miss_maps_to_unknown(self, tmp_path):
        from nirrec.ingest import CatalogRecord

        vf = tmp_path / "v.txt"
        lines = [f"tok{j} {float(j)}" for j in range(19)]
        vf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        recs = [CatalogRecord(f"i{j}", None, None, (f"tok{j}",)) for j in range(20)]
        idx = {f"i{j}": j + 1 for j in range(20)}
        spec = encode_attributes(recs, idx, 21, mode="pretrained", vector_file=load_vector_file(vf))
        assert "tok19" not in spec.tokens
        row = dense(spec.matrix)[idx["i19"]]
        assert row[0] == 1.0  # all weight on the UNKNOWN column

    def test_vector_file_dimension_mismatch(self, tmp_path):
        vf = tmp_path / "v.txt"
        vf.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="expected 2"):
            load_vector_file(vf)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="trainable or pretrained"):
            encode_attributes(self.records(), self.index(), 4, mode="frozen")
        with pytest.raises(ConfigurationError, match="requires a vector file"):
            encode_attributes(self.records(), self.index(), 4, mode="pretrained")


def toy_corpus(tmp_path, n_days=12):
    """Four items with explicit taxonomy plus two label-only items; sessions
    spread so the last-week split has both sides populated."""
    catalog = [
        catalog_row("apple", taxonomy=("food", "fruit", "pome"), attributes=("sweet", "crisp")),
        catalog_row("pear", taxonomy=("food", "fruit", "pome"), attributes=("sweet",)),
        catalog_row("kale", taxonomy=("food", "veg", "leaf"), attributes=("bitter",)),
        catalog_row("chard", taxonomy=("food", "veg", "leaf"), attributes=("bitter", "crisp")),
        catalog_row("bolt", labels=("hardware",), attributes=("steel",)),
        catalog_row("nut", labels=("hardware",), attributes=("steel",)),
    ]
    day = 86400
    sessions = [
        session_row("s1", ["apple", "pear", "kale"], t0=0),
        session_row("s2", ["kale", "chard", "apple"], t0=day),
        session_row("s3", ["bolt", "nut", "bolt", "apple"], t0=2 * day),
        session_row("s4", ["pear", "apple", "chard"], t0=(n_days - 1) * day),
        session_row("s5", ["nut", "bolt", "kale"], t0=n_days * day),
    ]
    spath, cpath = tmp_path / "sessions.jsonl", tmp_path / "catalog.jsonl"
    write_jsonl(spath, sessions)
    write_jsonl(cpath, catalog)
    return spath, cpath


class TestPrepare:
    def test_vocab_sorted_with_unknown_first(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        assert data.item_ids[0] == "<unk>"
        assert data.item_ids[1:] == sorted(data.item_ids[1:])
        assert data.n_items == 7

    def test_sessions_encoded_against_vocab(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        idx = {item: i for i, item in enumerate(data.item_ids)}
        s1 = next(s for s in data.train if s.session_id == "s1")
        assert s1.history == [idx["apple"], idx["pear"]]
        assert s1.gt == idx["kale"]

    def test_split_respects_last_week(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        assert {s.session_id for s in data.train} == {"s1", "s2", "s3"}
        assert {s.session_id for s in data.test} == {"s4", "s5"}

    def test_explicit_taxonomy_used_verbatim(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        idx = {item: i for i, item in enumerate(data.item_ids)}
        t1, t2, t3 = data.tax_vocab
        apple = data.tax_paths[idx["apple"]]
        assert t1[apple[0]] == "food"
        assert t2[apple[1]] == "fruit"
        assert t3[apple[2]] == "pome"

    def test_label_items_get_clustered_paths(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        idx = {item: i for i, item in enumerate(data.item_ids)}
        bolt, nut = data.tax_paths[idx["bolt"]], data.tax_paths[idx["nut"]]
        np.testing.assert_array_equal(bolt, nut)  # same single label, same path
        assert data.tax_vocab[0][bolt[0]].startswith("auto:")

    def test_stats_table(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        assert data.stats["items"] == 6
        assert data.stats["train_sessions"] == 3
        assert data.stats["test_sessions"] == 2
        assert data.stats["avg_length"] == pytest.approx((3 + 3 + 4 + 3 + 3) / 5)

    def test_unknown_session_item_rejected(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        extra = session_row("bad", ["apple", "mystery"], t0=3 * 86400)
        rows = [json.loads(line) for line in spath.read_text().splitlines()]
        write_jsonl(spath, rows + [extra])
        with pytest.raises(IngestionError, match="mystery"):
            prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))

    def test_deterministic_across_runs(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        opts = PrepareOptions(levels=(3, 2, 1), seed=3)
        d1 = prepare(spath, cpath, opts)
        d2 = prepare(spath, cpath, opts)
        np.testing.assert_array_equal(d1.tax_paths, d2.tax_paths)
        np.testing.assert_array_equal(d1.attr_matrix.indptr, d2.attr_matrix.indptr)
        np.testing.assert_array_equal(d1.attr_matrix.cols, d2.attr_matrix.cols)
        assert d1.item_ids == d2.item_ids


class TestShardRoundTrip:
    def test_all_fields_survive(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        out = tmp_path / "shards"
        save_shards(out, data)
        back = load_shards(out)
        assert back.item_ids == data.item_ids
        assert back.tax_vocab == data.tax_vocab
        np.testing.assert_array_equal(back.tax_paths, data.tax_paths)
        assert back.attr_matrix.shape == data.attr_matrix.shape
        np.testing.assert_array_equal(back.attr_matrix.indptr, data.attr_matrix.indptr)
        np.testing.assert_array_equal(back.attr_matrix.cols, data.attr_matrix.cols)
        assert back.attr_vectors is None
        assert back.attr_mode == data.attr_mode
        assert back.no_attr_items == data.no_attr_items
        assert back.counts == data.counts
        assert back.stats == data.stats
        assert len(back.train) == len(data.train)
        for a, b in zip(back.train + back.test, data.train + data.test):
            assert a.session_id == b.session_id
            assert a.history == b.history
            assert a.gt == b.gt

    def test_pretrained_vectors_survive(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        vf = tmp_path / "v.txt"
        tokens = ["sweet", "crisp", "bitter", "steel"]
        vf.write_text(
            "\n".join(f"{t} {i + 1}.0 {i + 2}.0" for i, t in enumerate(tokens)) + "\n",
            encoding="utf-8",
        )
        data = prepare(
            spath,
            cpath,
            PrepareOptions(levels=(3, 2, 1), attr_mode="pretrained", vectors_path=str(vf)),
        )
        out = tmp_path / "shards"
        save_shards(out, data)
        back = load_shards(out)
        np.testing.assert_array_equal(back.attr_vectors, data.attr_vectors)
        assert back.pretrained_d_a == 2

    def test_vector_file_parsed_once(self, tmp_path, monkeypatch):
        """The label-only items' clustering and the pretrained attribute
        vectors share one parse of the vector file, and the prepared data
        is what a parse per use gave."""
        import nirrec.ingest as ingest_mod

        spath, cpath = toy_corpus(tmp_path)
        vf = tmp_path / "v.txt"
        tokens = ["sweet", "crisp", "bitter", "steel", "hardware"]
        vf.write_text(
            "\n".join(f"{t} {i + 1}.0 {i + 2}.0" for i, t in enumerate(tokens)) + "\n",
            encoding="utf-8",
        )
        opts = PrepareOptions(levels=(3, 2, 1), attr_mode="pretrained", vectors_path=str(vf))
        real = ingest_mod.load_vector_file
        calls = []

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(ingest_mod, "load_vector_file", counting)
        save_shards(tmp_path / "once", prepare(spath, cpath, opts))
        assert calls == [str(vf)]

        # As before: the attribute vectors come from a parse of their own.
        encode = ingest_mod.encode_attributes
        monkeypatch.setattr(
            ingest_mod,
            "encode_attributes",
            lambda *a, vector_file, **k: encode(*a, vector_file=real(vf), **k),
        )
        save_shards(tmp_path / "twice", prepare(spath, cpath, opts))
        assert len(calls) == 2
        for name in ("shard.bin", "index.json"):
            once = (tmp_path / "once" / name).read_bytes()
            assert once == (tmp_path / "twice" / name).read_bytes()

    def test_shard_bytes_deterministic(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        opts = PrepareOptions(levels=(3, 2, 1), seed=9)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        save_shards(out1, prepare(spath, cpath, opts))
        save_shards(out2, prepare(spath, cpath, opts))
        assert (out1 / "shard.bin").read_bytes() == (out2 / "shard.bin").read_bytes()
        assert (out1 / "index.json").read_bytes() == (out2 / "index.json").read_bytes()

    def test_attributes_stored_as_csr_rows(self, tmp_path):
        """The shard holds one column id per listed token and one offset per
        item, not a dense item×token matrix."""
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        save_shards(tmp_path / "shards", data)
        tensors = load_tensors(tmp_path / "shards" / "shard.bin")
        assert "attr_matrix" not in tensors
        nnz = 1 + 2 + 1 + 1 + 2 + 1 + 1  # UNKNOWN, apple, pear, kale, chard, bolt, nut
        assert tensors["attr_cols"].shape == (nnz,)
        assert tensors["attr_indptr"].shape == (data.n_items + 1,)
        back = load_shards(tmp_path / "shards").attr_matrix
        assert back.nbytes == 8 * (nnz + data.n_items + 1)

    def test_ground_truth_in_history_rejected(self, tmp_path):
        spath, cpath = toy_corpus(tmp_path)
        data = prepare(spath, cpath, PrepareOptions(levels=(3, 2, 1)))
        sess = data.test[1]
        sess.history[0] = sess.gt
        save_shards(tmp_path / "shards", data)
        with pytest.raises(IngestionError, match=f"'test_gts'.*'{sess.session_id}'"):
            load_shards(tmp_path / "shards")

    def test_missing_shard_dir_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="not a shard directory"):
            load_shards(tmp_path / "nowhere")
