"""Session-graph construction vs a brute-force edge-counting oracle, plus
the ground-truth masking protocol."""

import numpy as np
import pytest

from nirrec.errors import IngestionError
from nirrec.sessiongraph import (
    Session,
    build_graph,
    mask_ground_truth,
)


def counting_oracle(history):
    """Brute-force adjacency: dict edge counts, then per-node normalization."""
    nodes = []
    for it in history:
        if it not in nodes:
            nodes.append(it)
    idx = {it: i for i, it in enumerate(nodes)}
    n = len(nodes)
    out_counts = {}
    for a, b in zip(history, history[1:]):
        out_counts[(idx[a], idx[b])] = out_counts.get((idx[a], idx[b]), 0) + 1
    adj_out = np.zeros((n, n))
    adj_in = np.zeros((n, n))
    for i in range(n):
        outdeg = sum(c for (a, _), c in out_counts.items() if a == i)
        indeg = sum(c for (_, b), c in out_counts.items() if b == i)
        for (a, b), c in out_counts.items():
            if a == i:
                adj_out[i, b] = c / outdeg
            if b == i:
                adj_in[i, a] = c / indeg
    return nodes, adj_out, adj_in


def make_session(items, sid="s"):
    return Session(sid, tuple((it, 100 + k) for k, it in enumerate(items)))


class TestMaskGroundTruth:
    """Last item becomes the ground truth; all its occurrences vanish."""

    def test_simple_session(self):
        """[1,2,3,1,4] → history [1,2,3,1], ground truth 4."""
        assert mask_ground_truth(make_session([1, 2, 3, 1, 4])) == ([1, 2, 3, 1], 4)

    def test_repeated_ground_truth_fully_removed(self):
        """[1,2,3,2] → history [1,3] (both 2s gone), ground truth 2."""
        assert mask_ground_truth(make_session([1, 2, 3, 2])) == ([1, 3], 2)

    def test_degenerate_session_rejected(self):
        """[5,5] leaves no history and is skipped, not fatal."""
        assert mask_ground_truth(make_session([5, 5])) is None

    def test_masking_idempotence(self):
        """mask(history + [gt]) re-yields (history, gt) whenever gt ∉ history."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            history = list(rng.integers(0, 5, size=rng.integers(1, 9)))
            gt = 99
            got = mask_ground_truth(make_session(history + [gt]))
            assert got == (history, gt)

    def test_session_validation(self):
        """Too-short or time-disordered sessions are ingestion errors."""
        with pytest.raises(IngestionError):
            Session("one", ((1, 10),))
        with pytest.raises(IngestionError):
            Session("unsorted", ((1, 10), (2, 9)))


class TestBuildGraph:
    """Adjacency weights equal edge count over degree, exactly."""

    def test_paper_figure_session(self):
        """v1→v2→v3→v1→v4: out-degree of v1 is 2, so weight(v1→v2) = 1/2."""
        g = build_graph(["v1", "v2", "v3", "v1", "v4"])
        assert g.nodes == ["v1", "v2", "v3", "v4"]
        assert g.adj_out[0, 1] == 0.5

    def test_full_matrices_for_figure_session(self):
        """Hand-computed adjacency for history [v1,v2,v3,v1,v4]."""
        g = build_graph(["v1", "v2", "v3", "v1", "v4"])
        assert g.nodes == ["v1", "v2", "v3", "v4"]
        want_out = np.array(
            [
                [0.0, 0.5, 0.0, 0.5],
                [0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        want_in = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(g.adj_out, want_out)
        np.testing.assert_array_equal(g.adj_in, want_in)

    def test_single_item_history(self):
        """One node, no edges: 1×1 zero matrices."""
        g = build_graph([7])
        assert g.n == 1
        np.testing.assert_array_equal(g.adj_out, [[0.0]])
        np.testing.assert_array_equal(g.adj_in, [[0.0]])

    def test_self_loop_counted(self):
        """[1,1,2]: self-loop (1,1) and edge (1,2) each weigh 1/2 outgoing."""
        g = build_graph([1, 1, 2])
        assert g.nodes == [1, 2]
        np.testing.assert_array_equal(g.adj_out, [[0.5, 0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(g.adj_in, [[1.0, 0.0], [1.0, 0.0]])

    def test_random_histories_match_counting_oracle(self):
        """1000 random histories (length ≤ 10 over ≤ 5 items) match exactly."""
        rng = np.random.default_rng(77)
        for _ in range(1000):
            history = list(rng.integers(0, 5, size=rng.integers(1, 11)))
            g = build_graph(history)
            nodes, adj_out, adj_in = counting_oracle(history)
            assert g.nodes == nodes
            np.testing.assert_array_equal(g.adj_out, adj_out)
            np.testing.assert_array_equal(g.adj_in, adj_in)

    def test_rows_sum_to_one_or_zero(self):
        """Every adjacency row sums to 1 (has edges) or 0 (has none)."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            history = list(rng.integers(0, 6, size=rng.integers(1, 12)))
            g = build_graph(history)
            for mat in (g.adj_out, g.adj_in):
                sums = mat.sum(axis=1)
                assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))
                assert np.all(mat >= 0.0) and np.all(mat <= 1.0)

    def test_ground_truth_never_among_nodes(self):
        """The masked item is new by construction; a violation is an error."""
        history, gt = mask_ground_truth(make_session([1, 2, 3, 1, 4]))
        g = build_graph(history, ground_truth=gt)
        assert g.ground_truth == 4
        assert 4 not in g.nodes
        with pytest.raises(IngestionError):
            build_graph([1, 2], ground_truth=2)

    def test_last_index_points_at_final_history_item(self):
        """last_index resolves to the node of the most recent event."""
        g = build_graph([3, 1, 2, 3])
        assert g.nodes[g.last_index] == 3
        assert g.last_index == 0

