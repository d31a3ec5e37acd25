"""Embedding tables and the gated session-graph encoder.

Items and taxonomy nodes live in trainable tables.  An item's taxonomy
embedding compresses its three-level path through a one-layer map,
t_i = tanh(W_tax · (t_i1 ⊕ t_i2 ⊕ t_i3) + b).  Item embeddings are refined
by a GRU-style gated graph network over the session graph: per step, each
node aggregates its out- and in-neighborhoods,

    a = [A_out·V ; A_in·V]·Hᵀ + b,

then update/reset gates interpolate between the previous state and a tanh
candidate.  Taxonomy embeddings are not propagated through the graph by
default; ``propagate_taxonomy=True`` runs them through the same network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .errors import DimensionError, UnknownItemError
from .sessiongraph import GraphUnion, SessionGraph


@dataclass
class GgnnParams:
    """Gated propagation weights: H is d×2d, gates are d×d, bias is d."""

    h: Tensor
    b: Tensor
    wz: Tensor
    uz: Tensor
    wr: Tensor
    ur: Tensor
    wo: Tensor
    uo: Tensor
    steps: int = 1

    def named(self, prefix: str = "enc.ggnn.") -> dict[str, Tensor]:
        return {
            prefix + "H": self.h,
            prefix + "b": self.b,
            prefix + "Wz": self.wz,
            prefix + "Uz": self.uz,
            prefix + "Wr": self.wr,
            prefix + "Ur": self.ur,
            prefix + "Wo": self.wo,
            prefix + "Uo": self.uo,
        }


@dataclass
class EncoderParams:
    """Item table, per-level taxonomy tables, and the compression map."""

    item_table: Tensor
    tax1: Tensor
    tax2: Tensor
    tax3: Tensor
    w_tax: Tensor
    b_tax: Tensor
    ggnn: GgnnParams

    @property
    def d(self) -> int:
        return self.item_table.shape[1]

    @property
    def n_items(self) -> int:
        return self.item_table.shape[0]

    def named(self) -> dict[str, Tensor]:
        out = {
            "enc.item_table": self.item_table,
            "enc.tax1": self.tax1,
            "enc.tax2": self.tax2,
            "enc.tax3": self.tax3,
            "enc.Wtax": self.w_tax,
            "enc.Wtax_b": self.b_tax,
        }
        out.update(self.ggnn.named())
        return out


def _uniform_weight(rng: Rng, shape: tuple[int, ...], d: int) -> Tensor:
    bound = 1.0 / np.sqrt(d)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_ggnn(d: int, rng: Rng, steps: int = 1) -> GgnnParams:
    """Uniform ±1/√d initialization for every propagation weight."""
    return GgnnParams(
        h=_uniform_weight(rng.derive("ggnn.H"), (d, 2 * d), d),
        b=_uniform_weight(rng.derive("ggnn.b"), (d,), d),
        wz=_uniform_weight(rng.derive("ggnn.Wz"), (d, d), d),
        uz=_uniform_weight(rng.derive("ggnn.Uz"), (d, d), d),
        wr=_uniform_weight(rng.derive("ggnn.Wr"), (d, d), d),
        ur=_uniform_weight(rng.derive("ggnn.Ur"), (d, d), d),
        wo=_uniform_weight(rng.derive("ggnn.Wo"), (d, d), d),
        uo=_uniform_weight(rng.derive("ggnn.Uo"), (d, d), d),
        steps=steps,
    )


def init_encoder(
    n_items: int,
    tax_sizes: tuple[int, int, int],
    d: int,
    rng: Rng,
    steps: int = 1,
) -> EncoderParams:
    """Tables ~ normal(0, 0.1); weights uniform ±1/√d; row 0 is UNKNOWN."""
    def table(name: str, rows: int) -> Tensor:
        return Tensor(rng.derive(name).normal(0.0, 0.1, size=(rows, d)), requires_grad=True)

    return EncoderParams(
        item_table=table("item_table", n_items),
        tax1=table("tax1", tax_sizes[0]),
        tax2=table("tax2", tax_sizes[1]),
        tax3=table("tax3", tax_sizes[2]),
        w_tax=_uniform_weight(rng.derive("Wtax"), (3 * d, d), d),
        b_tax=_uniform_weight(rng.derive("Wtax_b"), (d,), d),
        ggnn=init_ggnn(d, rng, steps=steps),
    )


def taxonomy_embed(enc: EncoderParams, level_ids: np.ndarray) -> Tensor:
    """Compress per-item (t1, t2, t3) index rows into d-dim embeddings, one
    :func:`nirrec.autodiff.path_embedding` op."""
    ids = np.asarray(level_ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != 3:
        raise DimensionError(f"taxonomy paths must be (n, 3), got {ids.shape}")
    return ad.path_embedding((enc.tax1, enc.tax2, enc.tax3), ids, enc.w_tax, enc.b_tax)


def ggnn_forward(
    adj_out: np.ndarray,
    adj_in: np.ndarray,
    init: Tensor,
    params: GgnnParams,
) -> Tensor:
    """Run ``params.steps`` rounds of gated propagation over one graph, one
    :func:`nirrec.autodiff.gated_graph_step` op each."""
    p = params
    v = init
    for _ in range(p.steps):
        v = ad.gated_graph_step(
            adj_out, adj_in, v, p.h, p.b, p.wz, p.uz, p.wr, p.ur, p.wo, p.uo
        )
    return v


def embed_session(
    graph: SessionGraph | GraphUnion,
    enc: EncoderParams,
    tax_paths: np.ndarray,
    propagate_taxonomy: bool = False,
) -> tuple[Tensor, Tensor]:
    """Per-node item embeddings v_i (graph-refined) and taxonomy t_i, of
    one session's graph or of the union of a chunk's.

    Graph nodes must be integer rows of the item table; ``tax_paths`` maps
    every item row to its (t1, t2, t3) taxonomy indices.
    """
    node_ids = np.asarray(graph.nodes, dtype=np.int64)
    if node_ids.size and (node_ids.min() < 0 or node_ids.max() >= enc.n_items):
        bad = int(node_ids[(node_ids < 0) | (node_ids >= enc.n_items)][0])
        raise UnknownItemError(f"item index {bad} has no row in the {enc.n_items}-item table")
    v0 = ad.take_rows(enc.item_table, node_ids)
    v = ggnn_forward(graph.adj_out, graph.adj_in, v0, enc.ggnn)
    t = taxonomy_embed(enc, np.asarray(tax_paths, dtype=np.int64)[node_ids])
    if propagate_taxonomy:
        t = ggnn_forward(graph.adj_out, graph.adj_in, t, enc.ggnn)
    return v, t
