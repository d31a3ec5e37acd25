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
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Rng, Tensor
from .errors import DomainError, EvaluationError
from .ingest import EncodedSession, PreparedData
from .model import (
    ModelParams,
    TrainConfig,
    candidate_ids,
    chunk_slices,
    forward_chunk,
    infer_candidate_embeddings,
    score_candidates,
)


SKIP_REASONS = ("no_candidates", "gt_not_candidate")

# Catalog rows θ maps per call when it builds the catalog index: a block's
# temporaries (its attribute rows and θ's hidden layer) stay within L2
# instead of spilling the whole catalog's to memory.
CATALOG_BLOCK_ROWS = 384


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
    if not np.isfinite(values).all():
        raise EvaluationError("cannot rank a non-finite score")
    return _rank_ids("", cand, values, gt)


def _rank_ids(session_id: str, cand: np.ndarray, scores: np.ndarray, gt: int) -> RankedResult:
    """Candidates by descending score, ties broken by ascending id: the
    order of ``np.lexsort((cand, -scores))`` for finite scores.

    NumPy's default (SIMD) quicksort orders the scores; it is not stable,
    so each run of equal sorted scores is then put in ascending id order.
    Such runs need exact logit ties, which are rare, and only their
    positions are sorted again."""
    neg = -scores
    order = np.argsort(neg)
    ranking = cand[order]
    keys = neg[order]
    tied = keys[1:] == keys[:-1]
    if tied.any():
        # Every position of a run of ties, and the run each one is in.
        at = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
        run = np.cumsum(np.r_[True, ~tied])[at]
        ranking[at] = ranking[at][np.lexsort((ranking[at], run))]
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
    # Why each skipped session was skipped (see SKIP_REASONS).
    skipped_reasons: dict[str, int] | None = None

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
        if self.skipped_reasons is not None:
            out["skipped_reasons"] = dict(self.skipped_reasons)
        return out


class CatalogIndex:
    """θ over the catalog, items ``1..n_items-1`` (row r holds item r + 1),
    with an exact stamp of what it was mapped from.

    θ depends only on the parameters and the attribute matrix, never on
    the session.  The table is mapped in blocks of ``CATALOG_BLOCK_ROWS``
    rows into one array, which is then made read-only.  The stamp keeps
    copies of ``attr_table`` and the four θ arrays, compared by value
    because Adam and finite-difference checks write them in place, and a
    weak reference to the attribute matrix.
    The CSR arrays of :class:`nirrec.ingest.AttributeMatrix` are read-only,
    so its identity stands for its content, and a replaced matrix is freed,
    not kept alive.
    """

    def __init__(self, params: ModelParams, data: PreparedData) -> None:
        self.arrays = tuple(a.copy() for a in _stamped_arrays(params))
        self.matrix = weakref.ref(data.attr_matrix)
        table = np.empty((data.n_items - 1, params.theta.d))
        for lo in range(0, len(table), CATALOG_BLOCK_ROWS):
            rows = np.arange(lo + 1, min(lo + 1 + CATALOG_BLOCK_ROWS, data.n_items))
            table[lo : lo + len(rows)] = infer_candidate_embeddings(params, data, rows).data
        table.flags.writeable = False
        self.table = Tensor(table)

    def matches(self, params: ModelParams, data: PreparedData) -> bool:
        return (
            self.matrix() is data.attr_matrix
            and all(map(np.array_equal, self.arrays, _stamped_arrays(params)))
        )


def _stamped_arrays(params: ModelParams) -> tuple[np.ndarray, ...]:
    return (params.attr_table.data, *(t.data for t in params.theta.named().values()))


def catalog_table(params: ModelParams, data: PreparedData) -> Tensor:
    """θ over ``data``'s catalog under ``params``: the table of the index
    kept with ``params``, mapped again only when its stamp no longer
    matches."""
    index = params.catalog_index
    if index is None or not index.matches(params, data):
        index = params.catalog_index = CatalogIndex(params, data)
    return index.table


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
    ground truth cannot be scored are skipped and counted by reason:
    ``no_candidates`` (the history covers the catalog) or
    ``gt_not_candidate`` (an unknown ground-truth id, or one in the
    history).

    θ does not depend on the session: the test sessions run in chunks
    through :func:`nirrec.model.forward_chunk`, with no tape, and each
    session ranks its candidates' logits in its row of the chunk's
    intents times the catalog table of :func:`catalog_table`.  The table
    is mapped once per parameter state, so repeated calls on unchanged
    parameters and data (a one-session recommend request, the repeats of
    :func:`evaluate_sampled`) map θ once between them.
    """
    if not data.test:
        raise EvaluationError("test split is empty")
    emb = catalog_table(params, data)
    kept: list[tuple[EncodedSession, np.ndarray]] = []
    reasons = dict.fromkeys(SKIP_REASONS, 0)
    for sess in data.test:
        cand = candidate_ids(data.n_items, sess.history)
        if len(cand) == 0:
            reasons["no_candidates"] += 1
            continue
        pos = int(np.searchsorted(cand, sess.gt))
        if pos >= len(cand) or cand[pos] != sess.gt:
            reasons["gt_not_candidate"] += 1
            continue
        kept.append((sess, cand))
    results: list[RankedResult] = []
    for part in chunk_slices([sess.history for sess, _ in kept]):
        chunk = kept[part]
        fwd = forward_chunk(
            [sess.history for sess, _ in chunk],
            params,
            data,
            cfg.lambda_,
            rngs=None if rng is None else [rng.derive(sess.session_id) for sess, _ in chunk],
            beta_mode=beta_mode,
            propagate_taxonomy=cfg.propagate_taxonomy,
            session_ids=[sess.session_id for sess, _ in chunk],
        )
        # Rank the logits: softmax rounding can tie candidates they order.
        logits = score_candidates(fwd.i, params.w_proj, emb).data
        for (sess, cand), row in zip(chunk, logits):
            results.append(_rank_ids(sess.session_id, cand, row[cand - 1], sess.gt))
    skipped = sum(reasons.values())
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
        skipped_reasons=reasons,
    )
    return report


def evaluate_sampled(
    params: ModelParams,
    data: PreparedData,
    cfg: TrainConfig,
    repeats: int = 5,
    strict_precision: bool = False,
) -> MetricsReport:
    """Sampled-attention evaluation: mean and population std over derived
    seeds, mirroring reported plus/minus ranges."""
    if repeats < 1:
        raise DomainError(f"repeats must be at least 1, got {repeats}")
    runs = [
        evaluate(
            params, data, cfg, beta_mode="sample", rng=Rng(cfg.seed, "eval-sample", r),
            strict_precision=strict_precision,
        )
        for r in range(repeats)
    ]
    p = {k: np.array([r.p[k] for r in runs]) for k in cfg.eval_ks}
    mrr = {k: np.array([r.mrr[k] for r in runs]) for k in cfg.eval_ks}
    return replace(
        runs[0],
        p={k: float(v.mean()) for k, v in p.items()},
        mrr={k: float(v.mean()) for k, v in mrr.items()},
        p_std={k: float(v.std()) for k, v in p.items()},
        mrr_std={k: float(v.std()) for k, v in mrr.items()},
    )


# ---------------------------------------------------------------------------
# artifact writers


def write_metrics_json(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


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
