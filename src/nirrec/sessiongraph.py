"""Directed session graphs with occurrence-normalized adjacency matrices.

A session's ordered item sequence becomes a graph over its deduplicated
items: every consecutive pair contributes one directed edge, repeated
edges accumulate counts, and each node's outgoing (incoming) edge counts
are normalized by its out-degree (in-degree).  Self-loops from repeated
items are ordinary edges.

The ground-truth protocol treats the last event's item as the "new item"
to be predicted: it is deleted from the history entirely (all occurrences)
so that it is genuinely unseen within the session, and the remaining items
are reconnected in their original order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .errors import ConfigurationError, IngestionError

ItemId = Hashable


@dataclass(frozen=True)
class Session:
    """An ordered (item, unix-seconds) event list for one user visit."""

    session_id: str
    events: tuple[tuple[ItemId, int], ...]

    def __post_init__(self) -> None:
        if len(self.events) < 2:
            raise IngestionError(
                f"session '{self.session_id}' has {len(self.events)} events; need at least 2"
            )
        stamps = [ts for _, ts in self.events]
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            raise IngestionError(f"session '{self.session_id}' events are not time-sorted")

    @property
    def items(self) -> tuple[ItemId, ...]:
        return tuple(item for item, _ in self.events)

    @property
    def last_timestamp(self) -> int:
        return self.events[-1][1]


def mask_ground_truth(session: Session) -> tuple[list[ItemId], ItemId] | None:
    """Split a session into (history, ground_truth) or reject it.

    The ground truth is the last event's item; every occurrence of it is
    removed from the rest of the sequence.  Returns None when nothing
    would remain (the caller counts such skips).
    """
    items = session.items
    gt = items[-1]
    history = [it for it in items[:-1] if it != gt]
    if not history:
        return None
    return history, gt


@dataclass
class SessionGraph:
    """Deduplicated session items plus normalized in/out adjacency.

    ``nodes`` lists items in first-occurrence order; ``adj_out[i][j]`` is
    count(i→j)/outdegree(i) and ``adj_in[i][j]`` is count(j→i)/indegree(i),
    so each nonzero row of either matrix sums to one.
    """

    nodes: list[ItemId]
    adj_out: np.ndarray
    adj_in: np.ndarray
    history: list[ItemId]
    ground_truth: ItemId | None = None
    session_id: str = ""
    _node_index: dict[ItemId, int] = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def last_index(self) -> int:
        """Index of the node housing the most recent history item."""
        return self._node_index[self.history[-1]]


def build_graph(
    history: Sequence[ItemId],
    ground_truth: ItemId | None = None,
    session_id: str = "",
) -> SessionGraph:
    """Construct the session graph for a masked history."""
    if not history:
        raise IngestionError("cannot build a session graph from an empty history")
    index: dict[ItemId, int] = {}
    for item in history:
        if item not in index:
            index[item] = len(index)
    if ground_truth is not None and ground_truth in index:
        raise IngestionError(
            f"ground truth {ground_truth!r} appears in the masked history"
        )
    n = len(index)
    counts = np.zeros((n, n), dtype=np.float64)
    for a, b in zip(history, list(history)[1:]):
        counts[index[a], index[b]] += 1.0
    out_deg = counts.sum(axis=1, keepdims=True)
    in_counts = counts.T
    in_deg = in_counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        adj_out = np.where(out_deg > 0, counts / np.where(out_deg > 0, out_deg, 1.0), 0.0)
        adj_in = np.where(in_deg > 0, in_counts / np.where(in_deg > 0, in_deg, 1.0), 0.0)
    return SessionGraph(
        nodes=list(index),
        adj_out=adj_out,
        adj_in=adj_in,
        history=list(history),
        ground_truth=ground_truth,
        session_id=session_id,
        _node_index=index,
    )


@dataclass
class GraphBatch:
    """Graphs padded to a common node count with a validity mask.

    Padded rows and columns are all-zero, so any sum over nodes that
    respects ``mask`` (or simply multiplies by zero rows) is unchanged.
    """

    graphs: tuple[SessionGraph, ...]
    adj_out: np.ndarray  # (B, pad_to, pad_to)
    adj_in: np.ndarray  # (B, pad_to, pad_to)
    mask: np.ndarray  # (B, pad_to) bool
    sizes: np.ndarray  # (B,) int
    last_index: np.ndarray  # (B,) int


def batch_graphs(graphs: Sequence[SessionGraph], pad_to: int) -> GraphBatch:
    """Zero-pad a list of graphs to ``pad_to`` nodes each."""
    for g in graphs:
        if g.n > pad_to:
            raise ConfigurationError(f"graph with {g.n} nodes exceeds pad_to={pad_to}")
    b = len(graphs)
    adj_out = np.zeros((b, pad_to, pad_to), dtype=np.float64)
    adj_in = np.zeros((b, pad_to, pad_to), dtype=np.float64)
    mask = np.zeros((b, pad_to), dtype=bool)
    sizes = np.zeros(b, dtype=np.int64)
    last = np.zeros(b, dtype=np.int64)
    for i, g in enumerate(graphs):
        adj_out[i, : g.n, : g.n] = g.adj_out
        adj_in[i, : g.n, : g.n] = g.adj_in
        mask[i, : g.n] = True
        sizes[i] = g.n
        last[i] = g.last_index
    return GraphBatch(
        graphs=tuple(graphs),
        adj_out=adj_out,
        adj_in=adj_in,
        mask=mask,
        sizes=sizes,
        last_index=last,
    )
