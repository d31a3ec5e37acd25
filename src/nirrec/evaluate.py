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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Rng, Tensor
from .errors import ConfigurationError, DomainError, EvaluationError, NonFiniteError
from .ingest import EncodedSession, PreparedData
from .model import (
    ModelParams,
    TrainConfig,
    candidate_ids,
    chunk_slices,
    encode_chunk,
    infer_candidate_embeddings,
    score_candidates,
)
from .options import as_config, check_types


SKIP_REASONS = ("no_candidates", "gt_not_candidate")
EVAL_MODES = ("mean", "sampled")

# Catalog rows θ maps per call when it builds the catalog index: a block's
# temporaries (its attribute rows and θ's hidden layer) stay within L2
# instead of spilling the whole catalog's to memory.
CATALOG_BLOCK_ROWS = 384


@dataclass(frozen=True)
class EvalOptions:
    """How :func:`evaluate` scores a checkpoint: ``mean`` ranks once under
    the Beta-mean attention, ``sampled`` ranks ``repeats`` times under
    sampled attention and reports the mean and population std, and
    ``strict_precision`` reads P@k as hits/k instead of the hit rate."""

    eval_mode: str = "mean"
    repeats: int = 5
    strict_precision: bool = False

    def __post_init__(self) -> None:
        check_types(self)
        if self.eval_mode not in EVAL_MODES:
            raise ConfigurationError(f"eval_mode must be mean or sampled, got {self.eval_mode!r}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be an integer >= 1, got {self.repeats!r}")


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
    ev: EvalOptions = EvalOptions(),
) -> MetricsReport:
    """Score every test session against the full candidate pool under
    ``ev`` (default: ``EvalOptions()``, the Beta-mean attention).

    Sessions whose ground truth cannot be scored are skipped and counted
    by reason: ``no_candidates`` (the history covers the catalog) or
    ``gt_not_candidate`` (an unknown ground-truth id, or one in the
    history).  The kept sessions run in chunks, with no tape, and each
    session ranks its candidates' logits in its row of the chunk's
    intents times the catalog table of :func:`catalog_table`.  The table
    is mapped once per parameter state, so repeated calls on unchanged
    parameters and data (one-session recommend requests) map θ once
    between them.

    ``mean`` mode ranks once and depends only on (params, data, config).
    ``sampled`` mode ranks ``ev.repeats`` times, pass r drawing each
    session's attention from ``Rng(cfg.seed, "eval-sample", r)`` derived
    by session id; P@k and MRR@k are the mean over the passes, ``p_std``
    and ``mrr_std`` their population std, and ``results`` hold the first
    pass's rankings.  Either way :func:`nirrec.model.encode_chunk` builds
    each chunk's graphs and runs its GGNN once per call; the passes
    redraw only the Beta points and score again.  A non-finite value is
    an EvaluationError naming the chunk's sessions, or the catalog table.
    """
    if not data.test:
        raise EvaluationError("test split is empty")
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
    skipped = sum(reasons.values())
    if not kept:
        raise EvaluationError(f"all {skipped} test sessions were skipped")
    # One attention stream per pass; None is the Beta-mean pass.
    if ev.eval_mode == "mean":
        passes = [None]
    else:
        passes = [Rng(cfg.seed, "eval-sample", r) for r in range(ev.repeats)]
    runs: list[list[RankedResult]] = [[] for _ in passes]
    ids: list[str] = []
    try:
        # Every op checks its output, so NumPy's overflow warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            emb = catalog_table(params, data)
            for part in chunk_slices([sess.history for sess, _ in kept]):
                chunk = kept[part]
                ids = [sess.session_id for sess, _ in chunk]
                enc = encode_chunk(
                    [sess.history for sess, _ in chunk], params, data, cfg.propagate_taxonomy, ids
                )
                for rng, results in zip(passes, runs):
                    intent = enc.intent(
                        params, cfg.lambda_,
                        rng=None if rng is None else [rng.derive(sid) for sid in ids],
                        beta_mode="mean" if rng is None else "sample",
                    )
                    # Rank the logits: softmax rounding can tie candidates they order.
                    logits = score_candidates(intent.i, params.w_proj, emb).data
                    for (sess, cand), row in zip(chunk, logits):
                        results.append(_rank_ids(sess.session_id, cand, row[cand - 1], sess.gt))
    except NonFiniteError as e:
        where = f"the chunk of sessions {ids}" if ids else "the catalog table"
        raise EvaluationError(f"non-finite value in {where}: {e}") from e
    p = {
        k: [precision_at_k(run, k, strict=ev.strict_precision) for run in runs]
        for k in cfg.eval_ks
    }
    mrr = {k: [mrr_at_k(run, k) for run in runs] for k in cfg.eval_ks}
    report = MetricsReport(
        p={k: v[0] for k, v in p.items()},
        mrr={k: v[0] for k, v in mrr.items()},
        sessions=len(kept),
        skipped=skipped,
        seed=cfg.seed,
        config=as_config(cfg),
        results=runs[0],
        precision_convention="strict" if ev.strict_precision else "hit_rate",
        skipped_reasons=reasons,
    )
    if ev.eval_mode == "sampled":
        report.p = {k: float(np.mean(v)) for k, v in p.items()}
        report.mrr = {k: float(np.mean(v)) for k, v in mrr.items()}
        report.p_std = {k: float(np.std(v)) for k, v in p.items()}
        report.mrr_std = {k: float(np.std(v)) for k, v in mrr.items()}
    return report


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
