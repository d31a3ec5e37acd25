"""Evaluation tests: ranking semantics against counting oracles, metric
definitions, invariants (monotonicity, MRR <= P, argsort invariance), and
artifact writers."""

import csv
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import Rng
from nirrec.datagen import write_toy_dataset
from nirrec.errors import DomainError, EvaluationError
from nirrec.evaluate import (
    EvalOptions,
    MetricsReport,
    RankedResult,
    _rank_ids,
    evaluate,
    mrr_at_k,
    precision_at_k,
    rank,
    write_metrics_json,
    write_plotdata_csv,
    write_rankings_csv,
)
from nirrec.ingest import AttributeMatrix, EncodedSession, load_shards, prepare, save_shards
from nirrec.model import (
    candidate_ids,
    encode_chunk,
    infer_candidate_embeddings,
    init_params,
    load_params,
    score_candidates,
    train,
)

from test_model import small_cfg, tiny_data


def count_theta_maps(monkeypatch) -> list[int]:
    """Route evaluate's θ calls through a counter; returns the row counts
    of every call made from now on."""
    import nirrec.evaluate as eval_mod

    rows: list[int] = []
    real = eval_mod.infer_candidate_embeddings

    def counting(params, data, cand):
        rows.append(len(cand))
        return real(params, data, cand)

    monkeypatch.setattr(eval_mod, "infer_candidate_embeddings", counting)
    return rows


def counting_oracle_rank(scores, gt):
    """Rank = 1 + #(strictly higher) + #(equal score with smaller id)."""
    gs = scores[gt]
    higher = sum(1 for item, s in scores.items() if s > gs)
    tied_before = sum(1 for item, s in scores.items() if s == gs and item < gt)
    return 1 + higher + tied_before


def result_with_ranks(ranks):
    """Synthetic RankedResults carrying just the gt_rank that metrics read."""
    return [
        RankedResult(session_id=f"s{i}", ranking=np.arange(1), gt=0, gt_rank=r)
        for i, r in enumerate(ranks)
    ]


class TestRank:
    def test_top_score_ranks_first(self):
        res = rank({1: 0.2, 2: 0.9, 3: 0.5}, gt=2)
        assert res.gt_rank == 1
        np.testing.assert_array_equal(res.ranking, [2, 3, 1])

    def test_all_equal_breaks_ties_by_id(self):
        res = rank({5: 1.0, 2: 1.0, 9: 1.0}, gt=5)
        np.testing.assert_array_equal(res.ranking, [2, 5, 9])
        assert res.gt_rank == 2

    def test_missing_ground_truth_rejected(self):
        with pytest.raises(EvaluationError, match="not among"):
            rank({1: 0.5}, gt=2)

    def test_random_maps_match_counting_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            ids = rng.choice(np.arange(100), size=n, replace=False)
            coarse = rng.integers(0, 4, size=n).astype(float)  # force ties
            scores = {int(i): float(s) for i, s in zip(ids, coarse)}
            gt = int(ids[int(rng.integers(0, n))])
            res = rank(scores, gt)
            assert res.gt_rank == counting_oracle_rank(scores, gt)

    def test_exhaustive_inspection_small_pool(self):
        """On a handful of candidates the ranking equals the explicitly
        sorted (score desc, id asc) list, checked element by element."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            ids = sorted(int(i) for i in rng.choice(np.arange(40), size=n, replace=False))
            scores = {i: float(rng.integers(0, 3)) for i in ids}
            want = [i for i in sorted(ids, key=lambda i: (-scores[i], i))]
            res = rank(scores, gt=ids[0])
            np.testing.assert_array_equal(res.ranking, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        """NaN has no place in a total order (sorts place it by their own
        rules), and evaluate only ever ranks finite logits."""
        with pytest.raises(EvaluationError, match="non-finite"):
            rank({1: 0.5, 2: bad, 3: 0.1}, gt=1)


class TestRankIdsMatchLexsort:
    """`_rank_ids` sorts by quicksort and repairs runs of tied scores; the
    result must be `np.lexsort((cand, -scores))` element for element."""

    @pytest.mark.parametrize("kind", ["distinct", "integer_ties", "signed_zeros", "repeated"])
    def test_random_cases(self, kind):
        rng = np.random.default_rng(["distinct", "integer_ties", "signed_zeros", "repeated"].index(kind))
        for _ in range(300):
            n = int(rng.integers(1, 400))
            # Unsorted ids, as rank() passes a mapping's keys.
            cand = rng.permutation(np.arange(1, 3 * n + 1))[:n]
            if kind == "distinct":
                scores = rng.normal(size=n)
            elif kind == "integer_ties":
                scores = rng.integers(-3, 4, size=n).astype(float)
            elif kind == "signed_zeros":
                scores = rng.choice([0.0, -0.0, 2.5, -2.5, 1e-300], size=n)
            else:
                scores = rng.normal(size=n)
                scores[rng.integers(0, n, size=n // 2)] = scores[rng.integers(0, n)]
            gt = int(cand[rng.integers(0, n)])
            res = _rank_ids("s", cand, scores, gt)
            want = cand[np.lexsort((cand, -scores))]
            np.testing.assert_array_equal(res.ranking, want)
            assert res.gt_rank == int(np.flatnonzero(want == gt)[0]) + 1

    def test_evaluate_with_duplicated_attribute_rows(self, monkeypatch):
        """Items that share their attribute tokens get the same θ row, so
        their logits tie exactly; evaluate must rank every session as the
        lexsort reference does on the logits it ranked."""
        import nirrec.evaluate as eval_mod

        data = tiny_data(n_items=40)
        # Items i, i + 5, i + 10, ... average the same two tokens.
        cols = [0] + [c for i in range(1, 40) for c in (1 + i % 5, 1 + (i + 1) % 5)]
        data = replace(
            data,
            attr_matrix=AttributeMatrix(np.r_[0, 1:80:2], cols, len(data.attr_tokens)),
            test=[
                EncodedSession(f"t{k}", [1 + k, 2 + 3 * k, 7 + k], 20 + k) for k in range(8)
            ],
        )
        cfg = small_cfg(epochs=1)
        params = train(data, cfg).params
        ranked = []
        real = eval_mod._rank_ids

        def recording(session_id, cand, scores, gt):
            ranked.append((cand.copy(), scores.copy()))
            return real(session_id, cand, scores, gt)

        monkeypatch.setattr(eval_mod, "_rank_ids", recording)
        report = evaluate(params, data, cfg)
        assert len(report.results) == len(ranked) == 8
        ties = 0
        for (cand, scores), res in zip(ranked, report.results):
            np.testing.assert_array_equal(res.ranking, cand[np.lexsort((cand, -scores))])
            ties += len(scores) - len(np.unique(scores))
        assert ties >= 8 * 25


class TestMetricDefinitions:
    def test_perfect_ranks(self):
        results = result_with_ranks([1, 1, 1])
        assert precision_at_k(results, 20) == 100.0
        assert mrr_at_k(results, 20) == 100.0

    def test_hand_example(self):
        results = result_with_ranks([1, 2, 500])
        assert mrr_at_k(results, 20) == pytest.approx(100.0 * (1 + 0.5) / 3)
        assert precision_at_k(results, 20) == pytest.approx(100.0 * 2 / 3)

    def test_three_hits_of_hundred(self):
        results = result_with_ranks([1] * 3 + [999] * 97)
        assert precision_at_k(results, 20) == pytest.approx(3.0)

    def test_all_misses(self):
        results = result_with_ranks([50, 60])
        assert mrr_at_k(results, 20) == 0.0
        assert precision_at_k(results, 20) == 0.0

    def test_strict_precision_divides_by_k(self):
        results = result_with_ranks([1, 2, 500])
        assert precision_at_k(results, 10, strict=True) == pytest.approx(100.0 * 2 / 30)

    def test_zero_sessions_rejected(self):
        with pytest.raises(DomainError):
            precision_at_k([], 10)
        with pytest.raises(DomainError):
            mrr_at_k([], 10)
        with pytest.raises(DomainError):
            precision_at_k(result_with_ranks([1]), 0)

    def test_random_configs_match_oracles(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            ranks = rng.integers(1, 40, size=n).tolist()
            k = int(rng.integers(1, 30))
            results = result_with_ranks(ranks)
            want_p = 100.0 * sum(1 for r in ranks if r <= k) / n
            want_m = 100.0 * sum(1.0 / r for r in ranks if r <= k) / n
            assert abs(precision_at_k(results, k) - want_p) < 1e-12
            assert abs(mrr_at_k(results, k) - want_m) < 1e-12

    def test_monotone_in_k_and_mrr_bounded_by_p(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ranks = rng.integers(1, 25, size=int(rng.integers(1, 30))).tolist()
            results = result_with_ranks(ranks)
            prev_p, prev_m = 0.0, 0.0
            for k in range(1, 30):
                p, m = precision_at_k(results, k), mrr_at_k(results, k)
                assert p >= prev_p - 1e-12
                assert m >= prev_m - 1e-12
                assert m <= p + 1e-12
                prev_p, prev_m = p, m

    def test_argsort_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(41)
        ids = list(range(1, 15))
        scores = {i: float(rng.normal()) for i in ids}
        base = rank(scores, gt=7)
        for transform in (lambda s: 2.0 * s + 3.0, np.exp, lambda s: np.arctan(s)):
            mapped = {i: float(transform(s)) for i, s in scores.items()}
            res = rank(mapped, gt=7)
            np.testing.assert_array_equal(res.ranking, base.ranking)
            assert res.gt_rank == base.gt_rank


class TestEvaluatePipeline:
    def setup_method(self):
        self.data = tiny_data()
        self.cfg = small_cfg(epochs=1)
        self.params = train(self.data, self.cfg).params

    def test_report_counts_sessions(self):
        report = evaluate(self.params, self.data, self.cfg)
        assert report.sessions == 2
        assert report.skipped == 0
        assert set(report.p) == {10, 20}
        assert report.results[0].session_id == "t1"

    def test_mean_mode_deterministic_and_seed_free(self):
        r1 = evaluate(self.params, self.data, self.cfg)
        r2 = evaluate(self.params, self.data, self.cfg)
        assert r1.p == r2.p and r1.mrr == r2.mrr
        other_seed = small_cfg(epochs=1, seed=999)
        r3 = evaluate(self.params, self.data, other_seed)
        assert r3.p == r1.p and r3.mrr == r1.mrr

    def test_history_never_scored(self):
        report = evaluate(self.params, self.data, self.cfg)
        for res, sess in zip(report.results, self.data.test):
            assert not set(res.ranking.tolist()) & set(sess.history)
            assert 0 not in res.ranking

    def test_unknown_ground_truth_skipped(self):
        from nirrec.ingest import EncodedSession

        data = tiny_data()
        data.test = data.test + [EncodedSession("bad", [1, 2], 0)]
        report = evaluate(self.params, data, self.cfg)
        assert report.skipped == 1
        assert report.sessions == 2
        assert report.skipped_reasons == {"no_candidates": 0, "gt_not_candidate": 1}
        # a history covering the whole catalog leaves nothing to rank
        data.test = data.test + [EncodedSession("full", list(range(1, data.n_items)), 3)]
        report = evaluate(self.params, data, self.cfg)
        assert report.skipped == 2
        assert report.skipped_reasons == {"no_candidates": 1, "gt_not_candidate": 1}
        raw = report.to_dict()
        assert raw["skipped_reasons"] == report.skipped_reasons
        sampled = evaluate(self.params, data, self.cfg, EvalOptions("sampled", 2))
        assert sampled.skipped_reasons == report.skipped_reasons

    def test_all_skipped_rejected(self):
        from nirrec.ingest import EncodedSession

        data = tiny_data()
        data.test = [EncodedSession("bad", [1, 2], 0)]
        with pytest.raises(EvaluationError, match="skipped"):
            evaluate(self.params, data, self.cfg)

    def test_empty_test_split_rejected(self):
        data = tiny_data()
        data.test = []
        with pytest.raises(EvaluationError, match="empty"):
            evaluate(self.params, data, self.cfg)

    def test_sampled_mode_reports_spread(self):
        report = evaluate(self.params, self.data, self.cfg, EvalOptions("sampled", 3))
        assert report.p_std is not None and report.mrr_std is not None
        assert all(v >= 0.0 for v in report.p_std.values())
        raw = report.to_dict()
        assert "p_std" in raw and "mrr_std" in raw

    def test_sampled_mode_deterministic(self):
        r1 = evaluate(self.params, self.data, self.cfg, EvalOptions("sampled", 2))
        r2 = evaluate(self.params, self.data, self.cfg, EvalOptions("sampled", 2))
        assert r1.p == r2.p and r1.p_std == r2.p_std

    def test_theta_mapped_once_per_call(self, monkeypatch):
        """At most once per call, and only when the parameters changed
        since the last call: the table is kept with them."""
        rows = count_theta_maps(monkeypatch)
        evaluate(self.params, self.data, self.cfg)
        assert rows == [self.data.n_items - 1]
        evaluate(self.params, self.data, self.cfg, EvalOptions("sampled", 3))
        assert len(rows) == 1
        self.params.theta.o_b.data[0] += 0.25
        evaluate(self.params, self.data, self.cfg, EvalOptions("sampled", 3))
        assert rows == [self.data.n_items - 1] * 2


def per_session_rankings(params, data, cfg, beta_mode="mean", rng=None) -> list[np.ndarray]:
    """Reference path without a shared table: θ mapped afresh over each
    session's own candidates."""
    out = []
    for sess in data.test:
        cand = candidate_ids(data.n_items, sess.history)
        enc = encode_chunk([sess.history], params, data, session_ids=[sess.session_id])
        intent = enc.intent(
            params, cfg.lambda_, rng=None if rng is None else [rng.derive(sess.session_id)],
            beta_mode=beta_mode,
        )
        logits = score_candidates(
            intent.i, params.w_proj, infer_candidate_embeddings(params, data, cand)
        ).data[0]
        out.append(cand[np.lexsort((cand, -logits))])
    return out


class TestSharedCatalogTable:
    """evaluate scores every session against one θ table over the catalog;
    every session must rank exactly as it does on the logits of θ over its
    own candidates."""

    @pytest.mark.parametrize("beta_mode", ["mean", "sample"])
    def test_rankings_match_per_session_theta(self, tmp_path, beta_mode):
        data = prepare(*write_toy_dataset(tmp_path))
        cfg = small_cfg(epochs=1, batch_size=8)
        params = train(data, cfg).params
        if beta_mode == "sample":
            ev, rng = EvalOptions("sampled", 1), Rng(cfg.seed, "eval-sample", 0)
        else:
            ev, rng = EvalOptions(), None
        report = evaluate(params, data, cfg, ev)
        assert report.skipped == 0 and len(report.results) == len(data.test)
        expected = per_session_rankings(params, data, cfg, beta_mode, rng)
        for res, sess, ranking in zip(report.results, data.test, expected):
            np.testing.assert_array_equal(res.ranking, ranking)
            assert res.gt_rank == 1 + int(np.flatnonzero(ranking == sess.gt)[0])


class TestSampledProtocol:
    """Sampled evaluation is pinned exactly: ``repeats`` passes, pass r
    ranking every session on θ over its own candidates under the streams
    ``Rng(cfg.seed, "eval-sample", r).derive(session_id)``, reported as the
    NumPy mean and population std over the passes with the first pass's
    rankings, and θ mapped once for the whole call."""

    def test_report_is_mean_and_std_over_reference_passes(self, tmp_path, monkeypatch):
        # Wide enough, and cut off early enough, that the passes' ground-truth
        # ranks differ, so a wrong stream, pass or statistic shows.
        data = prepare(*write_toy_dataset(tmp_path, n_test=40))
        cfg = small_cfg(epochs=1, batch_size=8, d=16, d_a=8, h=16, eval_ks=(3, 5))
        params = train(data, cfg).params
        rows = count_theta_maps(monkeypatch)
        report = evaluate(params, data, cfg, EvalOptions("sampled", 3))
        assert rows == [data.n_items - 1]

        passes = [
            per_session_rankings(params, data, cfg, "sample", Rng(cfg.seed, "eval-sample", r))
            for r in range(3)
        ]
        ranks = [
            [1 + int(np.flatnonzero(ranking == sess.gt)[0])
             for ranking, sess in zip(rankings, data.test)]
            for rankings in passes
        ]
        n = len(data.test)
        for k in cfg.eval_ks:
            p = np.array([100.0 * sum(1 for r in run if r <= k) / n for run in ranks])
            mrr = np.array([100.0 * sum(1.0 / r for r in run if r <= k) / n for run in ranks])
            assert report.p[k] == float(p.mean()) and report.p_std[k] == float(p.std())
            assert report.mrr[k] == float(mrr.mean()) and report.mrr_std[k] == float(mrr.std())
        assert all(report.p_std[k] > 0 and report.mrr_std[k] > 0 for k in cfg.eval_ks)
        assert report.sessions == n and report.skipped == 0
        assert [res.session_id for res in report.results] == [s.session_id for s in data.test]
        for res, ranking, rank_ in zip(report.results, passes[0], ranks[0]):
            np.testing.assert_array_equal(res.ranking, ranking)
            assert res.gt_rank == rank_


class TestCatalogIndex:
    """The θ table kept with the parameters must rank exactly like the
    uncached path after every change of parameters or data, and be mapped
    once per distinct state."""

    def assert_fresh(self, params, data, cfg):
        report = evaluate(params, data, cfg)
        expected = per_session_rankings(params, data, cfg)
        assert len(report.results) == len(expected) == len(data.test)
        for res, ranking in zip(report.results, expected):
            np.testing.assert_array_equal(res.ranking, ranking)
        fresh = infer_candidate_embeddings(params, data, np.arange(1, data.n_items))
        np.testing.assert_array_equal(params.catalog_index.table.data, fresh.data)

    def test_rankings_match_uncached_path_across_states(self, tmp_path, monkeypatch):
        data = prepare(*write_toy_dataset(tmp_path))
        save_shards(tmp_path / "shard", data)
        cfg = small_cfg(epochs=1, batch_size=8)
        params = init_params(data, cfg)
        rows = count_theta_maps(monkeypatch)

        self.assert_fresh(params, data, cfg)
        self.assert_fresh(params, data, cfg)
        assert len(rows) == 1
        train(replace(data, train=data.train[:8]), cfg, params=params)
        self.assert_fresh(params, data, cfg)
        assert len(rows) == 2
        stamped = [params.attr_table, *params.theta.named().values()]
        assert len(stamped) == 5
        for tensor in stamped:
            tensor.data.flat[tensor.data.size // 2] += 0.5
            self.assert_fresh(params, data, cfg)
            self.assert_fresh(params, data, cfg)
        assert len(rows) == 2 + 5
        # the same attribute matrix under a new test split: still a hit
        self.assert_fresh(params, replace(data, test=data.test[:3]), cfg)
        assert len(rows) == 7
        # reloaded shards: equal content, but a new matrix
        reloaded = load_shards(tmp_path / "shard")
        self.assert_fresh(params, reloaded, cfg)
        assert len(rows) == 8
        # a checkpoint reloads into new parameters with no table
        params.save(tmp_path / "model.bin")
        loaded, _ = load_params(tmp_path / "model.bin", reloaded)
        self.assert_fresh(loaded, reloaded, cfg)
        assert len(rows) == 9

    def test_blocked_table_matches_one_pass(self, tmp_path, monkeypatch):
        """With blocks smaller than the catalog, the index maps every item
        once, block by block, into a table equal to θ over the whole
        catalog in one call, and evaluation ranks as on the uncached path."""
        import nirrec.evaluate as eval_mod

        data = prepare(*write_toy_dataset(tmp_path))
        cfg = small_cfg(epochs=1, batch_size=8)
        params = train(data, cfg).params
        monkeypatch.setattr(eval_mod, "CATALOG_BLOCK_ROWS", 6)
        rows = count_theta_maps(monkeypatch)
        report = evaluate(params, data, cfg)
        n = data.n_items - 1
        assert n > 2 * 6 and n % 6  # several blocks, the last one short
        assert rows == [6] * (n // 6) + [n % 6]
        one_pass = infer_candidate_embeddings(params, data, np.arange(1, data.n_items)).data
        np.testing.assert_allclose(params.catalog_index.table.data, one_pass, rtol=0, atol=1e-12)
        for res, ranking in zip(report.results, per_session_rankings(params, data, cfg)):
            np.testing.assert_array_equal(res.ranking, ranking)
        evaluate(params, data, cfg)
        assert sum(rows) == n

    def test_replaced_matrix_is_freed_and_rebuilt(self, monkeypatch):
        data = tiny_data()
        cfg = small_cfg(epochs=1)
        params = init_params(data, cfg)
        rows = count_theta_maps(monkeypatch)
        evaluate(params, data, cfg)
        old = weakref.ref(data.attr_matrix)
        del data
        gc.collect()
        assert old() is None
        evaluate(params, tiny_data(), cfg)
        assert len(rows) == 2

    def test_attr_matrix_read_only_and_kept_by_replace(self, monkeypatch):
        data = tiny_data()
        for arr in (data.attr_matrix.indptr, data.attr_matrix.cols):
            with pytest.raises(ValueError):
                arr[1] = 3
        split = replace(data, test=data.test[:1])
        assert split.attr_matrix is data.attr_matrix
        cfg = small_cfg(epochs=1)
        params = init_params(data, cfg)
        rows = count_theta_maps(monkeypatch)
        evaluate(params, data, cfg)
        evaluate(params, split, cfg)
        assert len(rows) == 1

    def test_table_is_read_only(self):
        data = tiny_data()
        cfg = small_cfg(epochs=1)
        params = init_params(data, cfg)
        evaluate(params, data, cfg)
        with pytest.raises(ValueError):
            params.catalog_index.table.data[0, 0] = 1.0


class TestRankOnLogits:
    def test_underflowed_ground_truth_ranks_by_logit(self):
        """A single-node history has Beta std 0, so the logits span
        thousands and most probabilities underflow to exactly 0; the rank
        must still follow the logits, not the id tie-break among zeros."""
        data = tiny_data(n_items=40)
        cfg = small_cfg()
        params = init_params(data, cfg)
        history = [3, 3]
        cand = candidate_ids(data.n_items, history)
        enc = encode_chunk([history], params, data)
        intent = enc.intent(params, cfg.lambda_, beta_mode="mean")
        emb = infer_candidate_embeddings(params, data, cand)
        logits = ad.reshape(score_candidates(intent.i, params.w_proj, emb), (len(cand),))
        probs = ad.softmax(logits)
        underflow = probs.data == 0.0
        assert underflow.sum() >= 2
        gt = int(cand[underflow][np.argmin(logits.data[underflow])])
        assert gt != cand[underflow].max()  # the id tie-break alone would misplace it
        data.test = [EncodedSession("single-node", history, gt)]
        res = evaluate(params, data, cfg).results[0]
        by_id = dict(zip(cand.tolist(), logits.data))
        g = by_id[gt]
        larger = sum(1 for v in by_id.values() if v > g)
        tied_before = sum(1 for i, v in by_id.items() if v == g and i < gt)
        assert res.gt_rank == 1 + larger + tied_before


class TestArtifacts:
    def make_report(self):
        return MetricsReport(
            p={10: 40.0, 20: 55.5},
            mrr={10: 21.25, 20: 22.0},
            sessions=9,
            skipped=1,
            seed=7,
            config={"d": 8, "lambda": 0.5},
        )

    def test_metrics_json_schema_keys(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        write_metrics_json(path, self.make_report())
        raw = json.loads(path.read_text())
        assert set(raw) >= {"p", "mrr", "sessions", "skipped", "seed", "config"}
        assert raw["p"]["10"] == 40.0
        assert raw["mrr"]["20"] == 22.0

    def test_rankings_csv_shape(self, tmp_path):
        data = tiny_data()
        cfg = small_cfg(epochs=1)
        params = train(data, cfg).params
        report = evaluate(params, data, cfg)
        path = tmp_path / "rankings.csv"
        write_rankings_csv(path, report.results, data.item_ids)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["session_id", "gt_item", "gt_rank", "top20"]
        assert len(rows) - 1 == report.sessions
        for row in rows[1:]:
            top = row[3].split("|")
            assert len(top) <= 20
            assert row[1] in data.item_ids

    def test_plotdata_sorted_with_status(self, tmp_path):
        path = tmp_path / "plotdata.csv"
        rows = [
            {"value": 0.9, "p_at_20": 12.5},
            {"value": 0.1, "p_at_20": 10.0},
            {"value": 0.5, "p_at_20": None, "status": "failed: boom"},
        ]
        write_plotdata_csv(path, "lambda", rows)
        parsed = list(csv.reader(path.read_text().splitlines()))
        assert parsed[0] == ["lambda", "p_at_20", "status"]
        assert [r[0] for r in parsed[1:]] == ["0.1", "0.5", "0.9"]
        assert parsed[2][1] == "" and parsed[2][2] == "failed: boom"
        assert parsed[1][2] == "ok"
