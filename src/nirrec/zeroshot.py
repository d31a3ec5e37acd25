"""Attribute-space to item-space mapping and distribution alignment.

A one-hidden-layer map θ turns an item's attribute embedding (d_a wide)
into a synthetic item embedding, v* = W_o·tanh(W_h·atr + b_h) + b_o.  For
items that appear in sessions, θ is pulled toward the graph encoder's
embeddings by a Bhattacharyya loss: both vectors are softmax-normalized
into discrete distributions, and the distance is −log Σ_j √(p_j q_j),
with a hard 0 when the overlap coefficient underflows.  Candidate items
never seen in any session get their embeddings purely from θ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .errors import DimensionError

BC_EPS = 1e-12
_PROD_FLOOR = 1e-300


@dataclass
class ThetaParams:
    """Hidden layer (d_a→h, tanh) and output layer (h→d)."""

    h_w: Tensor
    h_b: Tensor
    o_w: Tensor
    o_b: Tensor

    @property
    def d_a(self) -> int:
        return self.h_w.shape[0]

    @property
    def d(self) -> int:
        return self.o_w.shape[1]

    def named(self) -> dict[str, Tensor]:
        return {
            "zeroshot.theta.h_w": self.h_w,
            "zeroshot.theta.h_b": self.h_b,
            "zeroshot.theta.o_w": self.o_w,
            "zeroshot.theta.o_b": self.o_b,
        }


def init_theta(d_a: int, d: int, rng: Rng, hidden: int | None = None) -> ThetaParams:
    """Uniform ±1/√d weights; hidden width defaults to 2d."""
    h = 2 * d if hidden is None else hidden
    bound = 1.0 / np.sqrt(d)

    def weight(name: str, shape: tuple[int, ...]) -> Tensor:
        return Tensor(rng.derive(name).uniform(-bound, bound, size=shape), requires_grad=True)

    return ThetaParams(
        h_w=weight("theta.h_w", (d_a, h)),
        h_b=weight("theta.h_b", (h,)),
        o_w=weight("theta.o_w", (h, d)),
        o_b=weight("theta.o_b", (d,)),
    )


def theta_forward(params: ThetaParams, atr: Tensor) -> Tensor:
    """Map attribute embeddings (m×d_a) to item embeddings (m×d), as one
    autodiff op (:func:`nirrec.autodiff.mlp`)."""
    if atr.ndim != 2 or atr.shape[1] != params.d_a:
        raise DimensionError(
            f"theta expects (m, {params.d_a}) attribute embeddings, got {atr.shape}"
        )
    return ad.mlp(atr, params.h_w, params.h_b, params.o_w, params.o_b)


def bhattacharyya(v: Tensor, v_star: Tensor) -> Tensor:
    """Distribution distance −log Σ_j √(p_j q_j) after softmax normalization,
    of two vectors or summed over the rows of two (n, d) matrices.

    A row whose overlap coefficient is at or below the underflow threshold
    contributes a constant 0, the defined zero branch for disjoint
    distributions.
    """
    if v.ndim not in (1, 2) or v.shape != v_star.shape:
        raise DimensionError(f"bhattacharyya needs equal 1-d or 2-d inputs, got {v.shape}, {v_star.shape}")
    p = ad.softmax(v)
    q = ad.softmax(v_star)
    rho = ad.reduce_sum(ad.sqrt(ad.clamp_min(ad.mul(p, q), _PROD_FLOOR)), axis=-1)
    keep = Tensor(rho.data > BC_EPS)
    return ad.reduce_sum(ad.mul(ad.neg(ad.log(rho)), keep))


def l_zero(v_nodes: Tensor, atr_nodes: Tensor, params: ThetaParams) -> Tensor:
    """Σ_i BC(v_i, θ(atr_i)) over a session's nodes, one row per node."""
    return bhattacharyya(v_nodes, theta_forward(params, atr_nodes))
