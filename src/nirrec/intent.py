"""Dual user-intent representations over session-graph node embeddings.

Both intents work on the concatenated per-node embedding e_i = v_i ⊕ t_i
(item ⊕ taxonomy, 2d wide) and are anchored on the last history item e_n.

α intent: scalar soft-attention gates g_i = σ(e_i·W1 + e_n·W2), summed as
I_α = Σ g_i e_i.

β intent: each node induces Beta shape parameters a_i = φ(mean(ϱ(v_i))),
c_i = φ(mean(ϱ(t_i))) with φ = ϱ = softplus; a point x_i ~ Beta(a_i, c_i)
is drawn, and the attention weight b_i is the Beta density at x_i.
Gradients flow through the density's dependence on (a_i, c_i) only; the
draw itself is a constant.  Weights then re-anchor on the last item,
v'_i = b_i e_i + b_n e_n, are standardized by the vector mean m = avg_j(
b_j e_j) and the scalar population std s of {b_j}, and reduce to scalars
β_i = ((v'_i − m)/(s + 1e-8))·W3, giving I_β = Σ β_i e_i.

The fused intent is the convex combination I = λ I_α + (1 − λ) I_β; at
λ = 1 (or 0) the unused branch is skipped entirely, so its parameters and
the sampler cannot influence the result even numerically.

Every function here takes a chunk of sessions as their stacked node rows
and the :class:`nirrec.sessiongraph.Segments` that say which rows are
whose: every sum, mean, std and last-item anchor above is taken over each
session's own rows, each session draws from its own stream, and every
intent has one row per session.  A single session is a chunk of one
(:func:`nirrec.model.forward` turns its row into a vector).

Each step is one autodiff op with a hand-derived backward, bit-identical
in value to the chain of elementary ops it replaces: the α branch is one
:func:`nirrec.autodiff.attention_readout`, the Beta shapes one
:func:`nirrec.autodiff.beta_shapes`, the density one
:func:`nirrec.autodiff.beta_density` before its floor, the β aggregation
one :func:`nirrec.autodiff.standardized_readout` and the fusion one
:func:`nirrec.autodiff.mix`.  They read the segments' constant 0/1
arrays directly.  The gates and β scores come back as plain arrays
beside the intents, for inspection; no gradient flows through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .errors import ConfigurationError, DimensionError, DomainError
from .sessiongraph import Segments

STD_EPS = 1e-8
PDF_FLOOR = 1e-300

BETA_MODES = ("sample", "mean", "fixed")


@dataclass
class IntentParams:
    """Three 2d→1 attention maps (scalar attention)."""

    w1: Tensor
    w2: Tensor
    w3: Tensor

    def named(self) -> dict[str, Tensor]:
        return {"intent.W1": self.w1, "intent.W2": self.w2, "intent.W3": self.w3}


def init_intent(d: int, rng: Rng) -> IntentParams:
    bound = 1.0 / np.sqrt(d)

    def weight(name: str) -> Tensor:
        return Tensor(rng.derive(name).uniform(-bound, bound, size=(2 * d, 1)), requires_grad=True)

    return IntentParams(w1=weight("intent.W1"), w2=weight("intent.W2"), w3=weight("intent.W3"))


@dataclass
class IntentResult:
    """The fused intent and each branch's intent, one row per session
    (None for a skipped branch), plus the β branch's per-node draws and
    its count of clamped densities."""

    i: Tensor
    i_alpha: Tensor | None = None
    i_beta: Tensor | None = None
    draws: np.ndarray | None = None
    clamped: int = 0


def _check_rows(segs: Segments, n: int) -> None:
    if segs.n != n:
        raise DimensionError(f"segments over {segs.n} rows given {n} nodes")


def alpha_intent(e: Tensor, segs: Segments, params: IntentParams) -> tuple[Tensor, np.ndarray]:
    """Soft attention anchored on each session's last item, one
    :func:`nirrec.autodiff.attention_readout` op: returns (I_α, gates),
    I_α with one row per session and the gates a column array with one row
    per node."""
    _check_rows(segs, e.shape[0])
    return ad.attention_readout(e, params.w1, params.w2, segs.member, segs.to_last)


def beta_shape_params(v: Tensor, t: Tensor) -> Tensor:
    """Per-node Beta shapes a_i = φ(mean(ϱ(v_i))), c_i = φ(mean(ϱ(t_i))),
    the rows of one 2 × n :func:`nirrec.autodiff.beta_shapes` op."""
    return ad.beta_shapes(v, t)


def beta_weights(
    v: Tensor,
    t: Tensor,
    segments: Segments,
    rng: Sequence[Rng] | None = None,
    mode: str = "sample",
    draws: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray, int]:
    """Beta-density attention weights b_i, evaluated at one point per node.

    ``mode`` picks the point: "sample" draws x_i ~ Beta(a_i, c_i), each
    session from its own stream in ``rng`` (one per session of
    ``segments``), "mean" uses the distribution mean a/(a+c)
    (deterministic, for evaluation), "fixed" uses caller-supplied
    ``draws`` over all rows (for gradient checks).  Returns (b, x,
    clamped_count); densities that underflow 1e-300 are clamped there and
    counted.
    """
    if mode not in BETA_MODES:
        raise ConfigurationError(f"beta mode must be one of {BETA_MODES}, got {mode!r}")
    _check_rows(segments, v.shape[0])
    shapes = beta_shape_params(v, t)
    a, c = shapes.data
    if mode == "sample":
        rngs = list(rng or ())
        if len(rngs) != len(segments) or any(r is None for r in rngs):
            raise ConfigurationError("beta mode 'sample' requires an rng per session")
        bounds = [*segments.starts, segments.n]
        x = np.concatenate([
            ad.sample_beta(r, a[lo:hi], c[lo:hi]) for r, lo, hi in zip(rngs, bounds, bounds[1:])
        ])
    elif mode == "mean":
        x = a / (a + c)
    else:
        if draws is None:
            raise ConfigurationError("beta mode 'fixed' requires draws")
        x = np.asarray(draws, dtype=np.float64)
        if x.shape != a.shape:
            raise DimensionError(f"draws shape {x.shape} != node count {a.shape}")
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise DomainError("fixed draws must lie strictly inside (0, 1)")
    pdf = ad.beta_density(shapes, x)
    clamped = int(np.sum(pdf.data < PDF_FLOOR))
    return ad.clamp_min(pdf, PDF_FLOOR), x, clamped


def beta_intent(
    e: Tensor, b: Tensor, segs: Segments, params: IntentParams
) -> tuple[Tensor, np.ndarray]:
    """Standardized Beta-attention aggregation, one
    :func:`nirrec.autodiff.standardized_readout` op: returns (I_β, β
    scores), I_β with one row per session and the scores a column array
    with one row per node.  Each session is standardized by its own mean
    and std."""
    _check_rows(segs, e.shape[0])
    return ad.standardized_readout(
        e, b, params.w3, segs.starts, segs.member, segs.spread, segs.last_minus_mean, STD_EPS
    )


def fuse(i_alpha: Tensor, i_beta: Tensor, lam: float) -> Tensor:
    """Convex combination I = λ I_α + (1−λ) I_β, one op."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1], got {lam}")
    return ad.mix(i_alpha, i_beta, lam)


def compute_intent(
    v: Tensor,
    t: Tensor,
    segs: Segments,
    params: IntentParams,
    lam: float,
    rng: Sequence[Rng] | None = None,
    beta_mode: str = "sample",
    draws: np.ndarray | None = None,
) -> IntentResult:
    """Full dual-intent pass with branch skipping at λ ∈ {0, 1}.

    The node rows of ``v`` and ``t`` belong to the sessions of ``segs``,
    ``rng`` holds one Beta stream per session ("sample" mode) and
    ``draws`` one point per node ("fixed" mode); every intent has one row
    per session.  At λ = 1 the β branch (shapes, sampler, W3) is never
    executed; at λ = 0 the α branch (W1, W2) is never executed.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1], got {lam}")
    e = ad.concat([v, t])
    result = IntentResult(i=None)  # type: ignore[arg-type]
    if lam > 0.0:
        result.i_alpha, _ = alpha_intent(e, segs, params)
    if lam < 1.0:
        b, result.draws, result.clamped = beta_weights(
            v, t, segs, rng=rng, mode=beta_mode, draws=draws
        )
        result.i_beta, _ = beta_intent(e, b, segs, params)
    if lam >= 1.0:
        result.i = result.i_alpha
    elif lam <= 0.0:
        result.i = result.i_beta
    else:
        result.i = fuse(result.i_alpha, result.i_beta, lam)
    return result
