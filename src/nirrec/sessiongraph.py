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

A chunk of sessions is run as one graph, the disjoint union of theirs:
their nodes stacked in session order under block-diagonal adjacency, so
no message crosses from one session into another, and a
:class:`nirrec.autodiff.Segments` that says which rows are whose and
anchors each session on its last history item.  A single session is a
chunk of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .autodiff import Segments
from .errors import IngestionError

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
    so each nonzero row of either matrix sums to one.  ``last_index`` is
    the node of the most recent history item.
    """

    nodes: list[ItemId]
    adj_out: np.ndarray
    adj_in: np.ndarray
    last_index: int

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_graph(history: Sequence[ItemId], session_id: str = "") -> SessionGraph:
    """Construct the session graph for a masked history; ``session_id``
    only names the session in an error."""
    if not history:
        raise IngestionError(f"session '{session_id}' has an empty history: no graph to build")
    index: dict[ItemId, int] = {}
    for item in history:
        if item not in index:
            index[item] = len(index)
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
    return SessionGraph(list(index), adj_out, adj_in, index[history[-1]])


@dataclass
class GraphUnion:
    """The disjoint union of a chunk's session graphs.

    ``nodes`` stacks each graph's nodes in session order, ``adj_out`` and
    ``adj_in`` hold each graph's matrix as a diagonal block, and
    ``segments`` says which rows are whose, each session anchored on the
    row of its most recent history item.
    """

    nodes: list[ItemId]
    adj_out: np.ndarray
    adj_in: np.ndarray
    segments: Segments


def union_graphs(graphs: Sequence[SessionGraph]) -> GraphUnion:
    """Stack session graphs into one graph with block-diagonal adjacency."""
    sizes = [g.n for g in graphs]
    starts = np.cumsum([0] + sizes[:-1])
    n = int(sum(sizes))
    adj_out = np.zeros((n, n))
    adj_in = np.zeros((n, n))
    for g, lo in zip(graphs, starts):
        adj_out[lo : lo + g.n, lo : lo + g.n] = g.adj_out
        adj_in[lo : lo + g.n, lo : lo + g.n] = g.adj_in
    return GraphUnion(
        nodes=[item for g in graphs for item in g.nodes],
        adj_out=adj_out,
        adj_in=adj_in,
        segments=Segments(starts, n, starts + [g.last_index for g in graphs]),
    )
