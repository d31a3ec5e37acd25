"""Output checks computed apart from the program under test.

* Rank check: θ for the whole catalog is recomputed in plain NumPy from
  the parameter arrays and multiplied by the program's projected intent
  vector. The reported rank of the ground truth must equal 1 + the number
  of candidates with a greater logit, ties broken by item id, up to a
  rounding tolerance; history items must not be candidates.
* Metric check: P@k and MRR@k recomputed from the ranks by definition.
* First-step check: the first Adam step moves a parameter by about lr
  against the sign of its gradient, so that sign must match a central
  finite difference of the batch loss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from nirrec import model
from nirrec.autodiff import Rng

# Logits within this share of the largest logit magnitude count as tied:
# the program and this check sum in different orders.
REL_TOL = 1e-9
# Central-difference step for the first-step check.
FD_STEP = 1e-5


def theta_table(params, data) -> np.ndarray:
    """θ(attributes) for every item row, from the raw parameter arrays."""
    th = params.theta
    atr = data.attr_matrix @ params.attr_table.data
    hidden = np.tanh(atr @ th.h_w.data + th.h_b.data)
    return hidden @ th.o_w.data + th.o_b.data


def intent_logits(params, data, cfg, sess, table: np.ndarray) -> np.ndarray:
    """Logits of every item for one session: θ table times the program's
    projected intent vector, with the deterministic Beta-mean attention
    that evaluation uses."""
    fwd = model.forward(
        sess.history,
        params,
        data,
        cfg.lambda_,
        beta_mode="mean",
        propagate_taxonomy=cfg.propagate_taxonomy,
        session_id=sess.session_id,
    )
    u = fwd.i.data @ params.w_proj.data
    return table @ u


def rank_bounds(logits: np.ndarray, cand: np.ndarray, gt: int) -> tuple[int, int]:
    """Smallest and largest rank the ground truth may take among ``cand``.

    Candidates whose logit differs from the ground truth's by more than
    the tolerance are ordered by logit; those within it may fall on
    either side. Exact ties fall inside the tolerance, so the id rule
    always lies within the bounds.
    """
    vals = logits[cand]
    l_gt = logits[gt]
    tol = REL_TOL * max(1.0, float(np.max(np.abs(vals))))
    others = cand != gt
    diff = vals[others] - l_gt
    lo = 1 + int(np.sum(diff > tol))
    return lo, lo + int(np.sum(np.abs(diff) <= tol))


def check_ranked(result, sess, n_items: int, logits: np.ndarray) -> str | None:
    """None when ``result`` agrees with the logits, else the reason."""
    cand = np.setdiff1d(np.arange(1, n_items), np.asarray(sess.history, dtype=np.int64))
    ranked = np.asarray(result.ranking, dtype=np.int64)
    if len(ranked) != len(cand) or not np.array_equal(np.sort(ranked), cand):
        return "ranked items are not the catalog minus the history"
    if result.gt != sess.gt:
        return f"ground truth {result.gt} != {sess.gt}"
    lo, hi = rank_bounds(logits, cand, sess.gt)
    if not lo <= result.gt_rank <= hi:
        return f"gt_rank {result.gt_rank} outside logit order [{lo}, {hi}]"
    return None


def metric_errors(report, ks) -> list[str]:
    """Compare P@k and MRR@k with their definitions over the ranks."""
    ranks = np.array([r.gt_rank for r in report.results], dtype=np.float64)
    errors = []
    for k in ks:
        hit = ranks <= k
        p = 100.0 * hit.sum() / len(ranks)
        mrr = 100.0 * np.sum(1.0 / ranks[hit]) / len(ranks)
        if not np.isclose(report.p[k], p, rtol=1e-12, atol=1e-12):
            errors.append(f"P@{k} {report.p[k]} != {p}")
        if not np.isclose(report.mrr[k], mrr, rtol=1e-12, atol=1e-12):
            errors.append(f"MRR@{k} {report.mrr[k]} != {mrr}")
    return errors


@dataclass
class StepCheck:
    coords: list[tuple[str, tuple[int, ...]]]
    mismatches: list[str]


def batch_loss(params, data, cfg, draws: dict[str, np.ndarray]) -> float:
    """Mean session loss of the one-batch train split, with the Beta draws
    held at the values training sampled from its derived streams."""
    root = Rng(cfg.seed, "train")
    total = 0.0
    for sess in data.train:
        parts = model.session_loss(
            sess.history,
            sess.gt,
            params,
            data,
            cfg,
            rng=None,
            beta_mode="fixed",
            session_id=sess.session_id,
            draws=draws[sess.session_id],
            neg_rng=root.derive("negatives", 1, sess.session_id),
        )
        total += float(parts.loss.data)
    return total / len(data.train)


def first_step_check(data, cfg, n_coords: int = 6) -> StepCheck:
    """Train one Adam step on ``data.train`` (one batch) from fresh
    parameters and check the step's sign on sampled coordinates against
    central finite differences of the batch loss."""
    cfg = replace(cfg, epochs=1, batch_size=len(data.train))
    before = model.init_params(data, cfg)
    beta_root = Rng(cfg.beta_seed_effective, "beta")
    draws = {}
    for sess in data.train:
        fwd = model.forward(
            sess.history,
            before,
            data,
            cfg.lambda_,
            rng=beta_root.derive(1, sess.session_id),
            beta_mode="sample",
            propagate_taxonomy=cfg.propagate_taxonomy,
            session_id=sess.session_id,
        )
        draws[sess.session_id] = fwd.intent.draws
    after = model.train(data, cfg, params=model.init_params(data, cfg)).params.trainable()

    rng = np.random.default_rng(0)
    named = before.trainable()
    coords: list[tuple[str, tuple[int, ...]]] = []
    mismatches: list[str] = []
    for name in rng.permutation(sorted(named)).tolist():
        if len(coords) == n_coords:
            break
        target = named[name].data
        step = after[name].data - target
        # Coordinates whose gradient dwarfs Adam's eps take a full lr step.
        moved = np.argwhere(np.abs(step) > 0.9 * cfg.lr)
        if len(moved) == 0:
            continue
        idx = tuple(int(i) for i in moved[rng.integers(len(moved))])
        coords.append((name, idx))
        orig = target[idx]
        target[idx] = orig + FD_STEP
        up = batch_loss(before, data, cfg, draws)
        target[idx] = orig - FD_STEP
        down = batch_loss(before, data, cfg, draws)
        target[idx] = orig
        fd = (up - down) / (2 * FD_STEP)
        if np.sign(fd) != -np.sign(step[idx]):
            mismatches.append(f"{name}{list(idx)}: step {step[idx]:+.3e}, fd grad {fd:+.3e}")
    if len(coords) < n_coords:
        mismatches.append(f"only {len(coords)} of {n_coords} coordinates moved by a full step")
    return StepCheck(coords=coords, mismatches=mismatches)
