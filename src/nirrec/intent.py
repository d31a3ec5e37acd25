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

A chunk of sessions runs as one pass over their stacked node rows: every
sum, mean, std and last-item anchor above is taken over each session's
own rows (:class:`nirrec.sessiongraph.Segments`), and each session draws
from its own stream.
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
    """Fused intent plus per-branch diagnostics (None for skipped branches)."""

    i: Tensor
    i_alpha: Tensor | None = None
    i_beta: Tensor | None = None
    gates: np.ndarray | None = None
    b: np.ndarray | None = None
    beta_scores: np.ndarray | None = None
    draws: np.ndarray | None = None
    clamped: int = 0


def _layout(last_index: int | Segments, n: int) -> tuple[Segments, bool]:
    """The row segments of ``n`` node rows, and whether they are one
    session given by the row of its last item."""
    if isinstance(last_index, Segments):
        if last_index.n != n:
            raise DimensionError(f"segments over {last_index.n} rows given {n} nodes")
        return last_index, False
    return Segments.of_one(n, int(last_index)), True


def _squeeze(x: Tensor, single: bool) -> Tensor:
    """One session's (1, w) row as a vector."""
    return ad.reshape(x, (x.shape[1],)) if single else x


def alpha_intent(
    e: Tensor, last_index: int | Segments, params: IntentParams
) -> tuple[Tensor, Tensor]:
    """Soft attention anchored on the last item: returns (I_α, gates).

    ``last_index`` is the last item's row of one session, or the
    :class:`Segments` of a chunk, whose I_α has one row per session."""
    segs, single = _layout(last_index, e.shape[0])
    logits = ad.add(
        ad.matmul(e, params.w1), ad.matmul(segs.to_last, ad.matmul(e, params.w2))
    )
    gates = ad.sigmoid(logits)
    i_alpha = ad.matmul(segs.member, ad.mul(gates, e))
    return _squeeze(i_alpha, single), ad.reshape(gates, (segs.n,))


def beta_shape_params(v: Tensor, t: Tensor) -> tuple[Tensor, Tensor]:
    """Per-node Beta shapes a_i = φ(mean(ϱ(v_i))), c_i = φ(mean(ϱ(t_i)))."""
    a = ad.softplus(ad.reduce_mean(ad.softplus(v), axis=1))
    c = ad.softplus(ad.reduce_mean(ad.softplus(t), axis=1))
    return a, c


def beta_weights(
    v: Tensor,
    t: Tensor,
    rng: Rng | Sequence[Rng] | None = None,
    mode: str = "sample",
    draws: np.ndarray | None = None,
    segments: Segments | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray, np.ndarray, int]:
    """Beta-density attention weights b_i, evaluated at one point per node.

    ``mode`` picks the point: "sample" draws x_i ~ Beta(a_i, c_i) from
    ``rng``, "mean" uses the distribution mean a/(a+c) (deterministic, for
    evaluation), "fixed" uses caller-supplied ``draws`` (for gradient
    checks).  With ``segments`` the rows are a chunk's sessions and
    ``rng`` holds one stream per session, each drawing its own rows.
    Returns (b, x, a, c, clamped_count); densities that underflow 1e-300
    are clamped there and counted.
    """
    if mode not in BETA_MODES:
        raise ConfigurationError(f"beta mode must be one of {BETA_MODES}, got {mode!r}")
    a, c = beta_shape_params(v, t)
    if mode == "sample":
        rngs = [rng] if segments is None else list(rng or ())
        bounds = [0, a.shape[0]] if segments is None else [*segments.starts, segments.n]
        if len(rngs) != len(bounds) - 1 or any(r is None for r in rngs):
            raise ConfigurationError("beta mode 'sample' requires an rng per session")
        x = np.concatenate([
            ad.sample_beta(r, a.data[lo:hi], c.data[lo:hi])
            for r, lo, hi in zip(rngs, bounds, bounds[1:])
        ])
    elif mode == "mean":
        x = a.data / (a.data + c.data)
    else:
        if draws is None:
            raise ConfigurationError("beta mode 'fixed' requires draws")
        x = np.asarray(draws, dtype=np.float64)
        if x.shape != a.data.shape:
            raise DimensionError(f"draws shape {x.shape} != node count {a.data.shape}")
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise DomainError("fixed draws must lie strictly inside (0, 1)")
    pdf = ad.exp(ad.log_beta_density(a, c, x))
    clamped = int(np.sum(pdf.data < PDF_FLOOR))
    b = ad.clamp_min(pdf, PDF_FLOOR)
    return b, x, a.data.copy(), c.data.copy(), clamped


def beta_intent(
    e: Tensor, b: Tensor, last_index: int | Segments, params: IntentParams
) -> tuple[Tensor, Tensor]:
    """Standardized Beta-attention aggregation: returns (I_β, β scores).

    ``last_index`` is as for :func:`alpha_intent`; each session is
    standardized by its own mean and std."""
    segs, single = _layout(last_index, e.shape[0])
    scaled = ad.mul(ad.reshape(b, (segs.n, 1)), e)
    # v'_i − m = b_i e_i + (b_n e_n − m), the bracket once per session.
    shift = ad.matmul(segs.last_minus_mean, scaled)
    s = ad.reshape(ad.add(ad.segment_std(b, segs.starts), STD_EPS), (len(segs), 1))
    standardized = ad.div(
        ad.add(scaled, ad.matmul(segs.spread, shift)), ad.matmul(segs.spread, s)
    )
    scores = ad.matmul(standardized, params.w3)
    i_beta = ad.matmul(segs.member, ad.mul(scores, e))
    return _squeeze(i_beta, single), ad.reshape(scores, (segs.n,))


def fuse(i_alpha: Tensor, i_beta: Tensor, lam: float) -> Tensor:
    """Convex combination I = λ I_α + (1−λ) I_β."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1], got {lam}")
    return ad.add(ad.mul(i_alpha, lam), ad.mul(i_beta, 1.0 - lam))


def compute_intent(
    v: Tensor,
    t: Tensor,
    last_index: int | Segments,
    params: IntentParams,
    lam: float,
    rng: Rng | Sequence[Rng] | None = None,
    beta_mode: str = "sample",
    draws: np.ndarray | None = None,
) -> IntentResult:
    """Full dual-intent pass with branch skipping at λ ∈ {0, 1}.

    One session gives ``last_index`` its last item's row and one ``rng``;
    a chunk gives its :class:`Segments` and one rng per session, and its
    intents have one row per session.  ``draws`` and the per-node
    diagnostics run over all rows.  At λ = 1 the β branch (shapes,
    sampler, W3) is never executed; at λ = 0 the α branch (W1, W2) is
    never executed.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1], got {lam}")
    segs, single = _layout(last_index, v.shape[0])
    e = ad.concat([v, t])
    result = IntentResult(i=None)  # type: ignore[arg-type]
    if lam > 0.0:
        i_alpha, gates = alpha_intent(e, segs, params)
        result.i_alpha = _squeeze(i_alpha, single)
        result.gates = gates.data.copy()
    if lam < 1.0:
        b, x, _, _, clamped = beta_weights(
            v, t, rng=[rng] if single else rng, mode=beta_mode, draws=draws, segments=segs
        )
        i_beta, scores = beta_intent(e, b, segs, params)
        result.i_beta = _squeeze(i_beta, single)
        result.b = b.data.copy()
        result.beta_scores = scores.data.copy()
        result.draws = x
        result.clamped = clamped
    if lam >= 1.0:
        result.i = result.i_alpha
    elif lam <= 0.0:
        result.i = result.i_beta
    else:
        result.i = fuse(result.i_alpha, result.i_beta, lam)
    return result
