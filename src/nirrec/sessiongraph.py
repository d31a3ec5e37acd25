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
no message crosses from one session into another.  A single session is a
chunk of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .errors import DimensionError, IngestionError

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



class Segments:
    """Which rows of a chunk's stacked node arrays belong to which session.

    Session r owns the contiguous rows ``starts[r]`` up to the next start
    (the last session up to ``n``), and its most recent history item sits
    in row ``last_rows[r]``.  Four constant 0/1 arrays move values
    between sessions and rows as matrix products, which the intent ops of
    :mod:`nirrec.autodiff` backpropagate as products too: ``member @ x``
    sums each session's rows, ``spread @ y`` copies each session's row of
    ``y`` to all of its rows, ``to_last @ x`` gives every row its
    session's last row, and ``last_minus_mean @ x`` is each session's last
    row minus its mean row.  Entries of other sessions are exact zeros, so
    no session's value leaks into another's.
    """

    def __init__(self, starts: Sequence[int], last_rows: Sequence[int], n: int) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.last_rows = np.asarray(last_rows, dtype=np.int64)
        self.n = int(n)
        if self.starts.ndim != 1 or not self.starts.size or self.starts[0] != 0:
            raise DimensionError(f"segments must start at row 0, got starts {self.starts.tolist()}")
        self.lengths = np.empty_like(self.starts)
        self.lengths[:-1] = self.starts[1:] - self.starts[:-1]
        self.lengths[-1] = self.n - self.starts[-1]
        if self.lengths.min() < 1:
            raise DimensionError(
                f"segments must be non-empty, got starts {self.starts.tolist()} over {n} rows"
            )
        offset = self.last_rows - self.starts
        bad = (offset < 0) | (offset >= self.lengths)
        if bad.any():
            r = int(np.argmax(bad))
            raise DimensionError(
                f"last_index {int(offset[r])} out of range for {int(self.lengths[r])} nodes"
            )
        self.member = np.repeat(np.eye(len(self.starts)), self.lengths, axis=1)
        self.spread = self.member.T.copy()
        last = np.zeros_like(self.member)
        last[np.arange(len(self.starts)), self.last_rows] = 1.0
        self.to_last = self.spread @ last
        self.last_minus_mean = last - self.member / self.lengths[:, None]

    def __len__(self) -> int:
        return len(self.starts)


@dataclass
class GraphUnion:
    """The disjoint union of a chunk's session graphs.

    ``nodes`` stacks each graph's nodes in session order, ``adj_out`` and
    ``adj_in`` hold each graph's matrix as a diagonal block, and
    ``segments`` says which rows are whose.
    """

    nodes: list[ItemId]
    adj_out: np.ndarray
    adj_in: np.ndarray
    segments: Segments


def union_graphs(graphs: Sequence[SessionGraph]) -> GraphUnion:
    """Stack session graphs into one graph with block-diagonal adjacency.
    A single graph keeps its own matrices."""
    sizes = [g.n for g in graphs]
    starts = np.cumsum([0] + sizes[:-1])
    n = int(sum(sizes))
    if len(graphs) == 1:
        adj_out, adj_in = graphs[0].adj_out, graphs[0].adj_in
    else:
        adj_out = np.zeros((n, n))
        adj_in = np.zeros((n, n))
        for g, lo in zip(graphs, starts):
            adj_out[lo : lo + g.n, lo : lo + g.n] = g.adj_out
            adj_in[lo : lo + g.n, lo : lo + g.n] = g.adj_in
    return GraphUnion(
        nodes=[item for g in graphs for item in g.nodes],
        adj_out=adj_out,
        adj_in=adj_in,
        segments=Segments(starts, starts + [g.last_index for g in graphs], n),
    )
