"""The output checks flag wrong answers and pass right ones."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import corpus
import run
from nirrec import evaluate, ingest, model
from nirrec.evaluate import RankedResult
from nirrec.ingest import EncodedSession


def logit_ordered(logits, cand, gt):
    """Ranking by descending logit, ties by ascending id."""
    ranking = cand[np.lexsort((cand, -logits[cand]))]
    return RankedResult("s", ranking, gt, int(np.nonzero(ranking == gt)[0][0]) + 1)


@pytest.fixture
def session():
    return EncodedSession("s", history=[2, 5, 2], gt=4)


def test_logit_ordered_rank_passes(session):
    logits = np.array([9.0, 0.3, 7.0, 0.1, 0.2, 8.0, 0.5, 0.2])
    cand = np.array([1, 3, 4, 6, 7])
    result = logit_ordered(logits, cand, 4)
    assert result.gt_rank == 3  # behind items 6 (0.5) and 1 (0.3); ahead of 7 by id
    assert checks.check_ranked(result, session, 8, logits) is None


def test_wrong_rank_is_flagged(session):
    logits = np.array([9.0, 0.3, 7.0, 0.1, 0.2, 8.0, 0.5, 0.25])
    cand = np.array([1, 3, 4, 6, 7])
    result = logit_ordered(logits, cand, 4)
    wrong = replace(result, gt_rank=result.gt_rank + 1)
    assert "outside logit order" in checks.check_ranked(wrong, session, 8, logits)


def test_rank_that_ignores_a_larger_logit_is_flagged(session):
    # what a probability tie at zero does: the ground truth moves to its id
    # position although its logit is far below the others
    logits = np.array([0.0, -900.0, 0.0, -800.0, -1000.0, 0.0, 0.0, -700.0])
    cand = np.array([1, 3, 4, 6, 7])
    by_id = RankedResult("s", cand, 4, 3)
    assert checks.check_ranked(by_id, session, 8, logits) is not None


def test_rounding_level_difference_is_a_tie(session):
    logits = np.array([0.0, 0.5, 0.0, 0.5 + 1e-14, 0.5, 0.0, 0.1, 0.0])
    cand = np.array([1, 3, 4, 6, 7])
    # id order among the three near-equal logits: 1, 3, 4
    result = RankedResult("s", np.array([1, 3, 4, 6, 7]), 4, 3)
    assert checks.check_ranked(result, session, 8, logits) is None


def test_history_item_among_candidates_is_flagged(session):
    logits = np.zeros(8)
    result = RankedResult("s", np.array([1, 2, 3, 4, 6, 7]), 4, 4)
    assert "minus the history" in checks.check_ranked(result, session, 8, logits)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    sessions, catalog = corpus.write_corpus("probe", 0, tmp_path_factory.mktemp("c"))
    data = ingest.prepare(sessions, catalog)
    cfg = model.TrainConfig(epochs=1)
    return data, cfg, model.init_params(data, cfg)


def test_program_ranks_agree_with_reference(small):
    data, cfg, params = small
    report = evaluate.evaluate(params, data, cfg)
    table = checks.theta_table(params, data)
    for res, sess in zip(report.results, data.test):
        logits = checks.intent_logits(params, data, cfg, sess, table)
        assert checks.check_ranked(res, sess, data.n_items, logits) is None
    assert checks.metric_errors(report, cfg.eval_ks) == []


def test_metric_check_flags_a_wrong_value(small):
    data, cfg, params = small
    report = evaluate.evaluate(params, data, cfg)
    k = cfg.eval_ks[0]
    report.mrr[k] += 1e-6
    errors = checks.metric_errors(report, cfg.eval_ks)
    assert len(errors) == 1 and errors[0].startswith(f"MRR@{k} ")


def test_first_step_matches_finite_differences(small):
    data, cfg, _ = small
    step = checks.first_step_check(replace(data, train=data.train[:3]), cfg, n_coords=4)
    assert len(step.coords) == 4
    assert step.mismatches == []


def test_benchmark_json_matches_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
