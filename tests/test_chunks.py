"""The chunked session path: a chunk of sessions runs as one graph, the
disjoint union of theirs, and must compute what its sessions compute one
at a time.  Training gradients are compared with per-session tapes,
evaluation rankings with chunks of one, and the union graph with its
parts."""

import tracemalloc

import numpy as np
import pytest

import nirrec.autodiff as ad
import nirrec.model as model_mod
from nirrec.autodiff import Rng, Tensor, zero_grads
from nirrec.datagen import write_toy_dataset
from nirrec.encoder import ggnn_forward, init_ggnn
from nirrec.errors import DimensionError, TrainingError
from nirrec.evaluate import EvalOptions, evaluate
from nirrec.ingest import EncodedSession, prepare
from nirrec.intent import compute_intent, init_intent
from nirrec.model import chunk_slices, init_params, session_loss, train
from nirrec.sessiongraph import build_graph, union_graphs

from test_model import small_cfg, tiny_data


def per_session_grads(data, cfg):
    """Gradients of one training batch (the whole train split) taken the
    reference way: one tape per session, θ mapped over its own
    candidates, each backpropagated with seed 1/batch_len."""
    ref = init_params(data, cfg)
    zero_grads(ref.trainable())
    root = Rng(cfg.seed, "train")
    beta_root = Rng(cfg.beta_seed_effective, "beta")
    for sess in data.train:
        with ad.Tape() as tape:
            parts = session_loss(
                sess.history, sess.gt, ref, data, cfg,
                rng=beta_root.derive(1, sess.session_id), beta_mode="sample",
                session_id=sess.session_id,
                neg_rng=root.derive("negatives", 1, sess.session_id),
            )
            tape.backward(parts.loss, seed=np.float64(1.0 / len(data.train)))
    return {name: p.grad for name, p in ref.trainable().items()}


def chunked_grads(data, cfg, monkeypatch, chunk_nodes=None):
    """Gradients left by train() after its single batch, and the number of
    sessions in each chunk it ran."""
    if chunk_nodes is not None:
        monkeypatch.setattr(model_mod, "CHUNK_NODES", chunk_nodes)
    sizes = []
    real = model_mod.session_loss

    def counting(history, *args, **kwargs):
        sizes.append(len(history))
        return real(history, *args, **kwargs)

    monkeypatch.setattr(model_mod, "session_loss", counting)
    params = init_params(data, cfg)
    train(data, cfg, params=params)
    return {name: p.grad for name, p in params.trainable().items()}, sizes


def assert_grads_match(got, want, rel=1e-10):
    for name, g in want.items():
        scale = max(1.0, float(np.max(np.abs(g))))
        np.testing.assert_allclose(got[name], g, rtol=0, atol=rel * scale, err_msg=name)


def one_batch(data, **over):
    return small_cfg(batch_size=len(data.train), epochs=1, negatives=3, **over)


class TestChunkSlices:
    def test_runs_of_at_most_chunk_nodes(self, monkeypatch):
        monkeypatch.setattr(model_mod, "CHUNK_NODES", 5)
        histories = [[1, 2, 3], [4, 4], [5, 6, 7, 8, 9, 1], [2], [3, 4]]
        got = [(s.start, s.stop) for s in chunk_slices(histories)]
        # node counts 3, 1, 6, 1, 2: the 6-node session is a chunk of its own
        assert got == [(0, 2), (2, 3), (3, 5)]

    def test_every_session_once_in_order(self, monkeypatch):
        rng = np.random.default_rng(0)
        histories = [list(rng.integers(1, 9, size=rng.integers(1, 12))) for _ in range(40)]
        for nodes in (1, 7, 96):
            monkeypatch.setattr(model_mod, "CHUNK_NODES", nodes)
            slices = list(chunk_slices(histories))
            assert [i for s in slices for i in range(s.start, s.stop)] == list(range(40))
            for s in slices:
                sizes = [len(set(h)) for h in histories[s]]
                assert len(sizes) == 1 or sum(sizes) <= nodes


class TestGraphUnion:
    def test_block_diagonal_adjacency_and_segments(self):
        graphs = [build_graph([1, 2, 3, 1]), build_graph([4]), build_graph([5, 6, 5])]
        union = union_graphs(graphs)
        assert union.nodes == [1, 2, 3, 4, 5, 6]
        np.testing.assert_array_equal(union.segments.starts, [0, 3, 4])
        np.testing.assert_array_equal(union.segments.last_rows, [0, 3, 4])
        np.testing.assert_array_equal(union.segments.lengths, [3, 1, 2])
        want_out = np.zeros((6, 6))
        want_in = np.zeros((6, 6))
        for g, lo in zip(graphs, (0, 3, 4)):
            want_out[lo : lo + g.n, lo : lo + g.n] = g.adj_out
            want_in[lo : lo + g.n, lo : lo + g.n] = g.adj_in
        np.testing.assert_array_equal(union.adj_out, want_out)
        np.testing.assert_array_equal(union.adj_in, want_in)

    def test_invalid_segments_rejected(self):
        """Every malformed layout raises DimensionError when it is built:
        a first start other than 0, an empty or uncovered segment, starts
        out of order or not 1-d, and an anchor outside its own segment or
        missing.  The arrays are read-only."""
        for starts in ([1], [0, 0], [0, 4], [0, 3, 2], [0, 5], [], [[0], [2]]):
            with pytest.raises(DimensionError):
                ad.Segments(starts, 4)
        for last in ([0, 4], [2, 3], [-1, 2], [0], [0, 2, 3]):
            with pytest.raises(DimensionError, match="one last row inside each segment"):
                ad.Segments([0, 2], 4, last)
        segs = ad.Segments([0, 2], 4, [1, 3])
        for arr in (segs.starts, segs.lengths, segs.last_rows):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert len(ad.Segments([], 0)) == 0

    def test_ggnn_on_the_union_equals_each_graph_alone(self):
        rng = np.random.default_rng(3)
        params = init_ggnn(4, Rng(0, "g"), steps=2)
        graphs = [build_graph(list(rng.integers(0, 6, size=k))) for k in (5, 1, 8, 3)]
        union = union_graphs(graphs)
        v0 = rng.normal(size=(len(union.nodes), 4))
        got = ggnn_forward(union.adj_out, union.adj_in, Tensor(v0), params).data
        for g, lo in zip(graphs, union.segments.starts):
            alone = ggnn_forward(g.adj_out, g.adj_in, Tensor(v0[lo : lo + g.n]), params).data
            np.testing.assert_allclose(got[lo : lo + g.n], alone, rtol=1e-13, atol=1e-15)


class TestChunkMemory:
    def test_no_rows_by_rows_array(self):
        """Segments plus the dual intent at λ = 0.5, forward and backward, on
        a chunk of 500 four-node sessions: 2,000 rows of 2d = 32 columns,
        0.5 MB per row array.  Its traced peak was 4.8 MB, and stays under
        8 MB; one 2,000 × 2,000 float64 array alone takes 32 MB."""
        d, sizes = 16, np.full(500, 4)
        rng = np.random.default_rng(0)
        starts = np.cumsum([0, *sizes[:-1]])
        n = int(sizes.sum())
        last_rows = starts + rng.integers(0, 4, size=len(sizes))
        v = Tensor(rng.normal(0, 0.6, size=(n, d)), requires_grad=True)
        t = Tensor(rng.normal(0, 0.6, size=(n, d)), requires_grad=True)
        params = init_intent(d, Rng(0, "intent"))
        tracemalloc.start()
        try:
            segs = ad.Segments(starts, n, last_rows)
            with ad.Tape() as tape:
                result = compute_intent(v, t, segs, params, 0.5, beta_mode="mean")
                tape.backward(ad.reduce_sum(result.i))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.i.shape == (500, 2 * d)
        assert v.grad is not None and t.grad is not None
        assert peak < 8e6, f"traced peak {peak / 1e6:.1f} MB"


class TestChunkGradients:
    """A batch's gradients equal those of per-session tapes within 1e-10,
    however the batch splits into chunks."""

    @pytest.mark.parametrize("mode", model_mod.CANDIDATE_MODES)
    def test_several_chunks_match_per_session_tapes(self, mode, monkeypatch):
        data = tiny_data(n_items=40)
        cfg = one_batch(data, candidate_mode=mode)
        got, sizes = chunked_grads(data, cfg, monkeypatch, chunk_nodes=4)
        assert len(sizes) > 1 and max(sizes) > 1 and sum(sizes) == len(data.train)
        assert_grads_match(got, per_session_grads(data, cfg))

    def test_single_node_history_leaks_into_no_other_session(self, monkeypatch):
        """[3, 3] has one node, Beta std 0 and a β scale of 1e8; in one
        chunk with ordinary sessions, every gradient still matches."""
        data = tiny_data(n_items=40)
        data.train = [
            EncodedSession("a", [1, 2, 5], 4),
            EncodedSession("single", [3, 3], 6),
            EncodedSession("b", [7, 8, 7, 9], 10),
            EncodedSession("c", [11, 2], 12),
        ]
        cfg = one_batch(data)
        got, sizes = chunked_grads(data, cfg, monkeypatch)
        assert sizes == [4]
        want = per_session_grads(data, cfg)
        assert max(float(np.max(np.abs(g))) for g in want.values()) > 1e3
        assert_grads_match(got, want)

    @pytest.mark.parametrize("over", [
        {"lambda_": 0.0}, {"lambda_": 1.0}, {"gamma": 1.0}, {"t_steps": 2},
        {"propagate_taxonomy": True},
    ])
    def test_configurations_match_per_session_tapes(self, over, monkeypatch):
        data = tiny_data(n_items=40)
        cfg = one_batch(data, **over)
        got, sizes = chunked_grads(data, cfg, monkeypatch, chunk_nodes=5)
        assert max(sizes) > 1
        assert_grads_match(got, per_session_grads(data, cfg))
        skipped = {0.0: ("intent.W1", "intent.W2"), 1.0: ("intent.W3",)}.get(cfg.lambda_, ())
        for name in skipped:
            assert not np.any(got[name]), name

    def test_lambda_one_needs_no_beta_stream(self, monkeypatch):
        """At λ = 1 the chunk never samples: a β seed changes nothing."""
        data = tiny_data(n_items=40)
        a, _ = chunked_grads(data, one_batch(data, lambda_=1.0, beta_seed=1), monkeypatch)
        b, _ = chunked_grads(data, one_batch(data, lambda_=1.0, beta_seed=2), monkeypatch)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestChunkFaults:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_in_the_second_session_of_a_chunk_names_it(self):
        """A real overflow: the item embeddings of one session's items are
        huge, so its GGNN messages overflow.  The chunk fails as a whole;
        re-run alone, the first session passes and the second is named."""
        data = tiny_data(n_items=40)
        cfg = small_cfg(epochs=1, batch_size=3)
        sessions = [
            EncodedSession("fine-a", [1, 2, 3], 4),
            EncodedSession("boom", [7, 8], 9),
            EncodedSession("fine-b", [2, 3], 5),
        ]
        order = Rng(cfg.seed, "train").derive("shuffle", 1).permutation(3)
        data.train = [None] * 3
        for pos, sess in zip(order, sessions):
            data.train[int(pos)] = sess
        params = init_params(data, cfg)
        params.encoder.item_table.data[[7, 8]] = 1e308
        with pytest.raises(TrainingError) as info:
            train(data, cfg, params=params)
        assert str(info.value).startswith("non-finite value in session 'boom' (epoch 1)")


class TestChunkedEvaluate:
    """Chunked evaluation ranks every session exactly as a chunk of one."""

    @pytest.mark.parametrize("beta_mode", ["mean", "sample"])
    def test_rankings_equal_chunks_of_one(self, beta_mode, tmp_path, monkeypatch):
        data = prepare(*write_toy_dataset(tmp_path))
        cfg = small_cfg(epochs=1, batch_size=8)
        params = train(data, cfg).params
        ev = EvalOptions("sampled", 1) if beta_mode == "sample" else EvalOptions()
        sizes = []
        real = model_mod.encode_chunk

        def counting(histories, *args, **kwargs):
            sizes.append(len(histories))
            return real(histories, *args, **kwargs)

        monkeypatch.setattr("nirrec.evaluate.encode_chunk", counting)
        chunked = evaluate(params, data, cfg, ev)
        assert max(sizes) > 1
        sizes.clear()
        monkeypatch.setattr(model_mod, "CHUNK_NODES", 1)
        alone = evaluate(params, data, cfg, ev)
        assert set(sizes) == {1} and len(sizes) == len(data.test)
        assert len(chunked.results) == len(alone.results) == len(data.test)
        for a, b in zip(chunked.results, alone.results):
            assert a.session_id == b.session_id and a.gt_rank == b.gt_rank
            np.testing.assert_array_equal(a.ranking, b.ranking)

    def test_sampled_passes_encode_each_chunk_once(self, tmp_path, monkeypatch):
        """Only the Beta draw differs between passes: under three sampled
        passes the encoder runs once per chunk, as in mean mode, and the
        intent step three times.  The counters wrap the names in
        ``nirrec.model`` that the benchmark's tracer wraps."""
        data = prepare(*write_toy_dataset(tmp_path))
        cfg = small_cfg(epochs=1, batch_size=8)
        params = train(data, cfg).params
        calls = {"embed_session": 0, "compute_intent": 0}

        def counted(name):
            real = getattr(model_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(model_mod, name, counted(name))
        monkeypatch.setattr(model_mod, "CHUNK_NODES", 8)
        chunks = len(list(chunk_slices([sess.history for sess in data.test])))
        assert chunks > 1
        assert evaluate(params, data, cfg).skipped == 0
        assert calls == {"embed_session": chunks, "compute_intent": chunks}
        calls.update(dict.fromkeys(calls, 0))
        evaluate(params, data, cfg, EvalOptions("sampled", 3))
        assert calls == {"embed_session": chunks, "compute_intent": 3 * chunks}
