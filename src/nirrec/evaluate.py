"""Ranked-list evaluation: P@k and MRR@k in percent, deterministic
tie-breaking, report serialization, and the plot-data emitter for sweeps.

Rankings are total orders: candidates sort by descending score with ties
broken by ascending item id, so identical inputs always produce identical
reports.  P@k follows the hit-rate convention (percent of sessions whose
ground truth lands in the top k); the strict hits/k reading is available
behind a flag and labeled in the report.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Rng
from .errors import DomainError, EvaluationError
from .ingest import PreparedData
from .model import (
    ModelParams,
    TrainConfig,
    candidate_ids,
    forward,
    infer_candidate_embeddings,
    score_candidates,
)


@dataclass
class RankedResult:
    """One session's ranking: candidate ids by descending score and the
    1-based position of the ground truth."""

    session_id: str
    ranking: np.ndarray
    gt: int
    gt_rank: int

    def top(self, k: int) -> np.ndarray:
        return self.ranking[:k]


def rank(scores: Mapping, gt) -> RankedResult:
    """Total-order ranking of an id -> score map with the ascending-id tie
    rule; the same ranker :func:`evaluate` applies to candidate arrays."""
    if gt not in scores:
        raise EvaluationError(f"ground truth {gt!r} is not among the scored candidates")
    cand = np.asarray(list(scores))
    values = np.asarray([float(v) for v in scores.values()])
    return _rank_ids("", cand, values, gt)


def _rank_ids(session_id: str, cand: np.ndarray, scores: np.ndarray, gt: int) -> RankedResult:
    """Candidates by descending score, ties broken by ascending id."""
    order = np.lexsort((cand, -scores))
    ranking = cand[order]
    pos = int(np.nonzero(ranking == gt)[0][0])
    return RankedResult(session_id=session_id, ranking=ranking, gt=gt, gt_rank=pos + 1)


def precision_at_k(results: Sequence[RankedResult], k: int, strict: bool = False) -> float:
    """Hit-rate percent by default; ``strict`` divides each hit by k."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if not results:
        raise DomainError("cannot aggregate zero sessions")
    hits = sum(1 for r in results if r.gt_rank <= k)
    if strict:
        return 100.0 * hits / (k * len(results))
    return 100.0 * hits / len(results)


def mrr_at_k(results: Sequence[RankedResult], k: int) -> float:
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if not results:
        raise DomainError("cannot aggregate zero sessions")
    total = sum(1.0 / r.gt_rank for r in results if r.gt_rank <= k)
    return 100.0 * total / len(results)


@dataclass
class MetricsReport:
    p: dict[int, float]
    mrr: dict[int, float]
    sessions: int
    skipped: int
    seed: int
    config: dict
    results: list[RankedResult] = field(default_factory=list, repr=False)
    p_std: dict[int, float] | None = None
    mrr_std: dict[int, float] | None = None
    precision_convention: str = "hit_rate"

    def to_dict(self) -> dict:
        out = {
            "p": {str(k): v for k, v in self.p.items()},
            "mrr": {str(k): v for k, v in self.mrr.items()},
            "sessions": self.sessions,
            "skipped": self.skipped,
            "seed": self.seed,
            "config": self.config,
            "precision_convention": self.precision_convention,
        }
        if self.p_std is not None:
            out["p_std"] = {str(k): v for k, v in self.p_std.items()}
        if self.mrr_std is not None:
            out["mrr_std"] = {str(k): v for k, v in self.mrr_std.items()}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "MetricsReport":
        return cls(
            p={int(k): v for k, v in raw["p"].items()},
            mrr={int(k): v for k, v in raw["mrr"].items()},
            sessions=raw["sessions"],
            skipped=raw["skipped"],
            seed=raw["seed"],
            config=raw["config"],
            p_std=None if "p_std" not in raw else {int(k): v for k, v in raw["p_std"].items()},
            mrr_std=None
            if "mrr_std" not in raw
            else {int(k): v for k, v in raw["mrr_std"].items()},
            precision_convention=raw.get("precision_convention", "hit_rate"),
        )


def evaluate(
    params: ModelParams,
    data: PreparedData,
    cfg: TrainConfig,
    beta_mode: str = "mean",
    rng: Rng | None = None,
    strict_precision: bool = False,
) -> MetricsReport:
    """Score every test session against the full candidate pool.

    The default deterministic path uses the Beta-mean attention mode, so
    the report depends only on (params, data, config).  Sessions whose
    ground truth cannot be scored (nothing left to rank, or an unknown
    ground-truth id) are skipped and counted.
    """
    if not data.test:
        raise EvaluationError("test split is empty")
    results: list[RankedResult] = []
    skipped = 0
    for sess in data.test:
        cand = candidate_ids(data.n_items, sess.history)
        pos = int(np.searchsorted(cand, sess.gt)) if len(cand) else 0
        if len(cand) == 0 or pos >= len(cand) or cand[pos] != sess.gt:
            skipped += 1
            continue
        srng = rng.derive(sess.session_id) if rng is not None else None
        fwd = forward(
            sess.history,
            params,
            data,
            cfg.lambda_,
            rng=srng,
            beta_mode=beta_mode,
            propagate_taxonomy=cfg.propagate_taxonomy,
            session_id=sess.session_id,
        )
        emb = infer_candidate_embeddings(params, data, cand)
        # Rank the logits: softmax rounding can tie candidates they order.
        _, logits = score_candidates(fwd.i, params.w_proj, emb)
        results.append(_rank_ids(sess.session_id, cand, logits.data, sess.gt))
    if not results:
        raise EvaluationError(f"all {skipped} test sessions were skipped")
    report = MetricsReport(
        p={k: precision_at_k(results, k, strict=strict_precision) for k in cfg.eval_ks},
        mrr={k: mrr_at_k(results, k) for k in cfg.eval_ks},
        sessions=len(results),
        skipped=skipped,
        seed=cfg.seed,
        config=cfg.to_dict(),
        results=results,
        precision_convention="strict" if strict_precision else "hit_rate",
    )
    return report


def evaluate_sampled(
    params: ModelParams,
    data: PreparedData,
    cfg: TrainConfig,
    repeats: int = 5,
) -> MetricsReport:
    """Sampled-attention evaluation: mean and population std over derived
    seeds, mirroring reported plus/minus ranges."""
    if repeats < 1:
        raise DomainError(f"repeats must be at least 1, got {repeats}")
    runs = [
        evaluate(
            params, data, cfg, beta_mode="sample", rng=Rng(cfg.seed, "eval-sample", r)
        )
        for r in range(repeats)
    ]
    ks = list(cfg.eval_ks)
    p_mat = {k: np.array([r.p[k] for r in runs]) for k in ks}
    m_mat = {k: np.array([r.mrr[k] for r in runs]) for k in ks}
    base = runs[0]
    return MetricsReport(
        p={k: float(p_mat[k].mean()) for k in ks},
        mrr={k: float(m_mat[k].mean()) for k in ks},
        sessions=base.sessions,
        skipped=base.skipped,
        seed=cfg.seed,
        config=cfg.to_dict(),
        results=base.results,
        p_std={k: float(p_mat[k].std()) for k in ks},
        mrr_std={k: float(m_mat[k].std()) for k in ks},
    )


# ---------------------------------------------------------------------------
# artifact writers


def write_metrics_json(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_metrics_json(path: str | Path) -> MetricsReport:
    return MetricsReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def write_rankings_csv(
    path: str | Path, results: Sequence[RankedResult], item_ids: Sequence[str]
) -> None:
    """One row per evaluated session: ground truth, its rank, and the
    top-20 ranked item ids pipe-separated."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", "gt_item", "gt_rank", "top20"])
        for r in results:
            top = "|".join(item_ids[int(i)] for i in r.top(20))
            writer.writerow([r.session_id, item_ids[int(r.gt)], r.gt_rank, top])


def write_plotdata_csv(path: str | Path, param: str, rows: Sequence[dict]) -> None:
    """Sweep output: one row per parameter value, sorted by value, with a
    status column so partial sweeps keep their completed rows."""
    ordered = sorted(rows, key=lambda r: r["value"])
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([param, "p_at_20", "status"])
        for row in ordered:
            p20 = row.get("p_at_20")
            writer.writerow(
                [
                    f"{row['value']:g}",
                    "" if p20 is None else f"{p20:.6f}",
                    row.get("status", "ok"),
                ]
            )
