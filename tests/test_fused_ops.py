"""The fused ops against the op chains they replace: `gated_graph_step`,
`log_beta_density`, the taxonomy embedding's `path_embedding`, θ's `mlp`
and the dual intent's `attention_readout`, `beta_shapes`, `beta_density`,
`standardized_readout` and `mix`.  Straight-line copies of those chains are
kept here as references, matched in value bit for bit (the two readouts,
which sum in row order where their chains multiply by 0/1 matrices, within
1e-14 of the largest magnitude) and in gradient within 1e-12 (`mlp` bit for
bit), and the ops are checked against central finite differences.  The
last class bounds the ops and tensors that the request path builds."""

from dataclasses import replace

import numpy as np
import pytest

import nirrec.autodiff as ad
import nirrec.model as model_mod
import nirrec.zeroshot as zeroshot
from nirrec.autodiff import Rng, Tensor
from nirrec.datagen import write_toy_dataset
from nirrec.encoder import (
    GgnnParams,
    embed_session,
    ggnn_forward,
    init_encoder,
    init_ggnn,
    taxonomy_embed,
)
from nirrec.errors import DimensionError, DomainError, NonFiniteError
from nirrec.evaluate import evaluate
from nirrec.ingest import prepare
from nirrec.intent import (
    PDF_FLOOR,
    STD_EPS,
    alpha_intent,
    beta_intent,
    beta_weights,
    compute_intent,
    init_intent,
)
from nirrec.model import init_params, train
from nirrec.sessiongraph import build_graph, union_graphs

from test_model import small_cfg, tiny_data
from test_tensor_ops import numeric_grad

GGNN_WEIGHTS = ("h", "b", "wz", "uz", "wr", "ur", "wo", "uo")


def ggnn_step_chain(adj_out, adj_in, v, p: GgnnParams) -> Tensor:
    """One gated step spelled as the 23 ops it was before the fused op."""
    a_out = Tensor(adj_out)
    a_in = Tensor(adj_in)
    msg = ad.concat([ad.matmul(a_out, v), ad.matmul(a_in, v)])
    a = ad.add(ad.matmul(msg, ad.transpose(p.h)), p.b)
    z = ad.sigmoid(ad.add(ad.matmul(a, p.wz), ad.matmul(v, p.uz)))
    r = ad.sigmoid(ad.add(ad.matmul(a, p.wr), ad.matmul(v, p.ur)))
    cand = ad.tanh(ad.add(ad.matmul(a, p.wo), ad.matmul(ad.mul(r, v), p.uo)))
    return ad.add(ad.mul(ad.sub(1.0, z), v), ad.mul(z, cand))


def ggnn_step_fused(adj_out, adj_in, v, p: GgnnParams) -> Tensor:
    return ad.gated_graph_step(adj_out, adj_in, v, *(getattr(p, w) for w in GGNN_WEIGHTS))


def log_beta_density_chain(a, c, x) -> Tensor:
    """ln Beta(x; a, c) spelled as the 12 ops it was before the fused op."""
    log_delta = ad.sub(ad.log_gamma(ad.add(a, c)), ad.add(ad.log_gamma(a), ad.log_gamma(c)))
    log_kernel = ad.add(
        ad.mul(ad.sub(a, 1.0), Tensor(np.log(x))),
        ad.mul(ad.sub(c, 1.0), Tensor(np.log1p(-x))),
    )
    return ad.add(log_delta, log_kernel)


def awkward_graph():
    """Five nodes: a self-loop on node 0, an isolated node 4, rows
    normalized by degree as the session graph builds them."""
    counts = np.zeros((5, 5))
    for i, j in [(0, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]:
        counts[i, j] += 1.0

    def normalize(m):
        deg = m.sum(axis=1, keepdims=True)
        return np.where(deg > 0, m / np.where(deg > 0, deg, 1.0), 0.0)

    return normalize(counts), normalize(counts.T)


def random_ggnn(d, seed, steps=1):
    p = init_ggnn(d, Rng(seed, "fused"), steps=steps)
    # Larger weights than the ±1/√d init push the gates off their linear
    # middle, so a wrong derivative term shows.
    for w in GGNN_WEIGHTS:
        getattr(p, w).data *= 2.5
    return p


def grads_of(build, leaves, weights):
    """Gradients of sum(weights ⊙ build()) into every leaf, None for a leaf
    that takes none."""
    for t in leaves:
        t.grad = None
    with ad.Tape() as tape:
        out = build()
        tape.backward(ad.reduce_sum(ad.mul(out, Tensor(weights))))
    return out, [None if t.grad is None else t.grad.copy() for t in leaves]


def assert_close_to(got, want, rel=1e-12, err_msg=""):
    """Equal within ``rel`` of the largest magnitude of ``want``."""
    scale = max(float(np.abs(want).max()), 1e-300)
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * scale, err_msg=err_msg)


class TestGatedGraphStep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_matches_op_chain(self, seed, steps):
        """Values equal the chain's bit for bit, gradients within 1e-12."""
        adj_out, adj_in = awkward_graph()
        p = random_ggnn(4, seed, steps=steps)
        rng = np.random.default_rng(seed)
        v0 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        leaves = [v0] + [getattr(p, w) for w in GGNN_WEIGHTS]
        weights = rng.normal(size=(5, 4))

        def run(step):
            v = v0
            for _ in range(steps):
                v = step(adj_out, adj_in, v, p)
            return v

        got, got_grads = grads_of(lambda: run(ggnn_step_fused), leaves, weights)
        want, want_grads = grads_of(lambda: run(ggnn_step_chain), leaves, weights)
        np.testing.assert_array_equal(got.data, want.data)
        for name, g, w in zip(("v",) + GGNN_WEIGHTS, got_grads, want_grads):
            assert_close_to(g, w, err_msg=name)

    def test_finite_differences_for_every_input(self):
        """Two steps on a graph with an isolated node and a self-loop: the
        gradient into v and into each of the eight weights."""
        adj_out, adj_in = awkward_graph()
        p = random_ggnn(3, 7)
        rng = np.random.default_rng(7)
        v0 = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, 3))
        base = {"v": v0, **{w: getattr(p, w).data.copy() for w in GGNN_WEIGHTS}}

        def two_steps(leaves):
            v = leaves["v"]
            for _ in range(2):
                v = ad.gated_graph_step(adj_out, adj_in, v, *(leaves[w] for w in GGNN_WEIGHTS))
            return v

        leaves = {k: Tensor(x, requires_grad=True) for k, x in base.items()}
        grads_of(lambda: two_steps(leaves), list(leaves.values()), weights)
        for name, x in base.items():

            def f(arr, name=name):
                values = {k: Tensor(arr if k == name else y) for k, y in base.items()}
                return float(np.sum(two_steps(values).data * weights))

            np.testing.assert_allclose(
                leaves[name].grad, numeric_grad(f, x), rtol=1e-6, atol=1e-9, err_msg=name
            )

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_one_tape_op_per_step(self, steps):
        adj_out, adj_in = awkward_graph()
        p = random_ggnn(4, 0, steps=steps)
        v0 = Tensor(np.random.default_rng(0).normal(size=(5, 4)), requires_grad=True)
        with ad.Tape() as tape:
            ggnn_forward(adj_out, adj_in, v0, p)
        assert len(tape) == steps

    def test_no_tape_entry_without_a_gradient(self):
        adj_out, adj_in = awkward_graph()
        p = random_ggnn(4, 0)
        for w in GGNN_WEIGHTS:
            getattr(p, w).requires_grad = False
        with ad.Tape() as tape:
            out = ggnn_forward(adj_out, adj_in, Tensor(np.ones((5, 4))), p)
        assert len(tape) == 0 and not out.requires_grad

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_before_a_saturating_gate_raises(self):
        """σ and tanh map an overflowed pre-activation to a finite value; the
        op still raises, as the chain does at the overflowing op."""
        adj_out, adj_in = awkward_graph()
        p = random_ggnn(4, 0)
        v = Tensor(np.full((5, 4), 3e307))
        with pytest.raises(NonFiniteError):
            ggnn_step_chain(adj_out, adj_in, v, p)
        with pytest.raises(NonFiniteError, match="pre-activation"):
            ggnn_step_fused(adj_out, adj_in, v, p)

    def test_shape_errors(self):
        adj_out, adj_in = awkward_graph()
        p = random_ggnn(4, 0)
        with pytest.raises(DimensionError, match="adjacency"):
            ggnn_step_fused(adj_out[:4, :4], adj_in, Tensor(np.ones((5, 4))), p)
        with pytest.raises(DimensionError, match="weights"):
            ggnn_step_fused(adj_out, adj_in, Tensor(np.ones((5, 3))), p)
        with pytest.raises(DimensionError, match="node rows"):
            ggnn_step_fused(adj_out, adj_in, Tensor(np.ones(5)), p)


def beta_inputs(seed, n=7):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.3, 6.0, size=n)
    c = rng.uniform(0.3, 6.0, size=n)
    x = rng.uniform(0.0, 1.0, size=n)
    x[:4] = [1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9]
    return a, c, x


class TestLogBetaDensity:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_op_chain(self, seed):
        a0, c0, x = beta_inputs(seed)
        a = Tensor(a0, requires_grad=True)
        c = Tensor(c0, requires_grad=True)
        weights = np.random.default_rng(seed + 100).normal(size=a0.shape)
        got, got_grads = grads_of(lambda: ad.log_beta_density(a, c, x), [a, c], weights)
        want, want_grads = grads_of(lambda: log_beta_density_chain(a, c, x), [a, c], weights)
        np.testing.assert_array_equal(got.data, want.data)
        for g, w in zip(got_grads, want_grads):
            assert_close_to(g, w)

    def test_matches_closed_form(self):
        """Beta(1, 1) is uniform; Beta(2, 3) at x is 12 x (1−x)²."""
        x = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(
            ad.log_beta_density(np.ones(3), np.ones(3), x).data, 0.0, atol=1e-13
        )
        np.testing.assert_allclose(
            ad.log_beta_density(np.full(3, 2.0), np.full(3, 3.0), x).data,
            np.log(12.0 * x * (1.0 - x) ** 2),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences_in_a_and_c(self, seed):
        """x at 1e-9, 1e-4, 1 − 1e-4 and 1 − 1e-9 among random points."""
        a0, c0, x = beta_inputs(seed)
        weights = np.random.default_rng(seed + 50).normal(size=a0.shape)
        a = Tensor(a0, requires_grad=True)
        c = Tensor(c0, requires_grad=True)
        grads_of(lambda: ad.log_beta_density(a, c, x), [a, c], weights)

        def f_a(arr):
            return float(weights @ ad.log_beta_density(arr, c0, x).data)

        def f_c(arr):
            return float(weights @ ad.log_beta_density(a0, arr, x).data)

        np.testing.assert_allclose(a.grad, numeric_grad(f_a, a0), rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(c.grad, numeric_grad(f_c, c0), rtol=1e-6, atol=1e-7)

    def test_one_tape_op(self):
        a0, c0, x = beta_inputs(0)
        with ad.Tape() as tape:
            ad.log_beta_density(Tensor(a0, requires_grad=True), Tensor(c0, requires_grad=True), x)
        assert len(tape) == 1

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("point", [0.0, 1.0, -0.5, 1.5])
    def test_point_outside_the_open_interval_is_non_finite(self, point):
        """As in the chain, whose ln x or ln(1−x) tensor was not finite."""
        a, c = np.full(3, 2.0), np.full(3, 3.0)
        x = np.array([0.5, point, 0.2])
        with pytest.raises(NonFiniteError):
            log_beta_density_chain(a, c, x)
        with pytest.raises(NonFiniteError):
            ad.log_beta_density(a, c, x)

    def test_domain_and_shape_errors(self):
        ones = np.ones(3)
        with pytest.raises(DomainError):
            ad.log_beta_density(np.array([1.0, -1.0, 1.0]), ones, np.full(3, 0.5))
        with pytest.raises(DimensionError):
            ad.log_beta_density(ones, np.ones(2), np.full(3, 0.5))


def taxonomy_chain(enc, ids) -> Tensor:
    """The taxonomy embedding spelled as the 7 ops it was before the fused op."""
    rows = ad.concat([
        ad.take_rows(enc.tax1, ids[:, 0]),
        ad.take_rows(enc.tax2, ids[:, 1]),
        ad.take_rows(enc.tax3, ids[:, 2]),
    ])
    return ad.tanh(ad.add(ad.matmul(rows, enc.w_tax), enc.b_tax))


TAX_LEAVES = ("tax1", "tax2", "tax3", "w_tax", "b_tax")


def toy_taxonomy(seed=0, d=4, scale=3.0):
    enc = init_encoder(9, (4, 5, 6), d, Rng(seed, "tax"))
    # Larger weights push tanh off its linear middle.
    enc.w_tax.data *= scale
    # Repeated paths and levels exercise the scatter-add into each table.
    ids = np.array([[1, 2, 3], [3, 4, 5], [0, 0, 0], [1, 2, 3], [1, 4, 0]])
    return enc, ids


class TestPathEmbedding:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_op_chain(self, seed):
        enc, ids = toy_taxonomy(seed)
        leaves = [getattr(enc, name) for name in TAX_LEAVES]
        weights = np.random.default_rng(seed).normal(size=(len(ids), enc.d))
        got, got_grads = grads_of(lambda: taxonomy_embed(enc, ids), leaves, weights)
        want, want_grads = grads_of(lambda: taxonomy_chain(enc, ids), leaves, weights)
        np.testing.assert_array_equal(got.data, want.data)
        for name, g, w in zip(TAX_LEAVES, got_grads, want_grads):
            assert_close_to(g, w, err_msg=name)

    def test_finite_differences_for_every_input(self):
        """The three taxonomy tables, Wtax and Wtax_b."""
        enc, ids = toy_taxonomy(5)
        weights = np.random.default_rng(5).normal(size=(len(ids), enc.d))
        leaves = [getattr(enc, name) for name in TAX_LEAVES]
        grads_of(lambda: taxonomy_embed(enc, ids), leaves, weights)
        for name, leaf in zip(TAX_LEAVES, leaves):
            base = leaf.data.copy()

            def f(arr, name=name):
                setattr(enc, name, Tensor(arr))
                return float(np.sum(taxonomy_embed(enc, ids).data * weights))

            numeric = numeric_grad(f, base)
            setattr(enc, name, leaf)
            np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-6, atol=1e-9, err_msg=name)

    def test_one_tape_op(self):
        enc, ids = toy_taxonomy()
        with ad.Tape() as tape:
            taxonomy_embed(enc, ids)
        assert len(tape) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_before_tanh_raises(self):
        """tanh maps an overflowed pre-activation to ±1; the op still raises,
        as the chain does at the overflowing op."""
        enc, ids = toy_taxonomy()
        enc.tax1.data[:] = 1e307
        enc.w_tax.data[:] = 100.0
        with pytest.raises(NonFiniteError):
            taxonomy_chain(enc, ids)
        with pytest.raises(NonFiniteError, match="pre-activation"):
            taxonomy_embed(enc, ids)

    def test_index_and_shape_errors(self):
        enc, _ = toy_taxonomy()
        with pytest.raises(DomainError, match="index 9 out of range for 5 rows"):
            taxonomy_embed(enc, np.array([[1, 9, 1]]))
        tables = (enc.tax1, enc.tax2, enc.tax3)
        with pytest.raises(DimensionError, match="ids"):
            ad.path_embedding(tables, np.array([[1, 1]]), enc.w_tax, enc.b_tax)
        with pytest.raises(DimensionError, match="weights"):
            ad.path_embedding(tables, np.array([[1, 1, 1]]), enc.w_tax.data[1:], enc.b_tax)


def theta_chain(x, h_w, h_b, o_w, o_b) -> Tensor:
    """θ spelled as the 5 ops it was before the fused op."""
    hidden = ad.tanh(ad.add(ad.matmul(x, h_w), h_b))
    return ad.add(ad.matmul(hidden, o_w), o_b)


def mlp_case(seed, x_grad=True, m=7, k=5, h=6, d=4):
    """Rows x, the four θ weights and output weights for a backward seed.
    Weights of scale 1.5 push tanh off its linear middle, so a wrong
    derivative term shows."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(m, k)), requires_grad=x_grad)
    weights = [
        Tensor(rng.normal(scale=1.5, size=shape), requires_grad=True)
        for shape in ((k, h), (h,), (h, d), (d,))
    ]
    return x, weights, rng.normal(size=(m, d))


class TestMlp:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_matches_op_chain(self, seed, x_grad):
        """Values and all five gradients equal the chain's bit for bit,
        added into gradients the leaves already hold; a constant x takes
        none."""
        x, weights, seed_grad = mlp_case(seed, x_grad=x_grad)
        leaves = [x, *weights]
        prior = [np.random.default_rng(seed + 10).normal(size=t.shape) for t in leaves]

        def run(op):
            for t, p in zip(leaves, prior):
                t.grad = p.copy() if t.requires_grad else None
            with ad.Tape() as tape:
                out = op(*leaves)
                tape.backward(out, seed=seed_grad)
            return out.data, [t.grad for t in leaves]

        got, got_grads = run(ad.mlp)
        want, want_grads = run(theta_chain)
        np.testing.assert_array_equal(got, want)
        for name, g, w in zip(("x", "h_w", "h_b", "o_w", "o_b"), got_grads, want_grads):
            if w is None:
                assert g is None and not x_grad, name
            else:
                np.testing.assert_array_equal(g, w, err_msg=name)

    def test_finite_differences_for_every_input(self):
        x, weights, seed_grad = mlp_case(3)
        base = [t.data.copy() for t in (x, *weights)]
        leaves = [Tensor(b, requires_grad=True) for b in base]
        with ad.Tape() as tape:
            tape.backward(ad.mlp(*leaves), seed=seed_grad)
        for i, name in enumerate(("x", "h_w", "h_b", "o_w", "o_b")):

            def f(arr, i=i):
                args = [arr if j == i else b for j, b in enumerate(base)]
                return float(np.sum(ad.mlp(*args).data * seed_grad))

            np.testing.assert_allclose(
                leaves[i].grad, numeric_grad(f, base[i]), rtol=1e-6, atol=1e-9, err_msg=name
            )

    def test_one_tape_op(self):
        x, weights, _ = mlp_case(0)
        with ad.Tape() as tape:
            ad.mlp(x, *weights)
        assert len(tape) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_before_tanh_raises(self):
        """tanh maps an overflowed pre-activation to ±1; the op still raises,
        as the chain does at the overflowing op."""
        x, weights, _ = mlp_case(0)
        x.data *= 1e10
        weights[0].data *= 1e300
        with pytest.raises(NonFiniteError):
            theta_chain(x, *weights)
        with pytest.raises(NonFiniteError, match="pre-activation"):
            ad.mlp(x, *weights)

    def test_shape_errors(self):
        x, (h_w, h_b, o_w, o_b), _ = mlp_case(0)
        with pytest.raises(DimensionError, match="2-d"):
            ad.mlp(x.data[0], h_w, h_b, o_w, o_b)
        for args in (
            (x.data[:, 1:], h_w, h_b, o_w, o_b),
            (x, h_w, h_b.data[1:], o_w, o_b),
            (x, h_w, h_b, o_w.data[1:], o_b),
            (x, h_w, h_b, o_w, o_b.data[1:]),
        ):
            with pytest.raises(DimensionError, match="do not fit"):
                ad.mlp(*args)

    def test_training_saves_the_same_bytes_as_the_chain(self, tmp_path, monkeypatch):
        """Two epochs on the toy corpus, with trainable attributes, save the
        same checkpoint bytes as with θ spelled as its chain."""
        data = prepare(*write_toy_dataset(tmp_path))
        cfg = small_cfg(epochs=2, batch_size=8)
        assert data.attr_vectors is None

        def saved(name):
            path = tmp_path / name
            train(data, cfg).params.save(path)
            return path.read_bytes()

        fused = saved("fused.bin")
        calls = []

        def chain(params, atr):
            calls.append(len(atr.data))
            return theta_chain(atr, params.h_w, params.h_b, params.o_w, params.o_b)

        monkeypatch.setattr(zeroshot, "theta_forward", chain)
        monkeypatch.setattr(model_mod, "theta_forward", chain)
        assert saved("chain.bin") == fused
        assert calls


def segment_matrices(starts, last_rows, n):
    """The constant 0/1 arrays that the chain moves values between sessions
    and rows with, for sessions starting at ``starts`` over n rows and
    anchored on ``last_rows``: ``member @ x`` sums each session's rows,
    ``spread @ y`` copies each session's row to all of its rows,
    ``to_last @ x`` gives every row its session's last row and
    ``last_minus_mean @ x`` is each session's last row minus its mean
    row."""
    lengths = np.diff(starts, append=n)
    member = np.repeat(np.eye(len(starts)), lengths, axis=1)
    spread = member.T.copy()
    last = np.zeros_like(member)
    last[np.arange(len(starts)), last_rows] = 1.0
    return member, spread, spread @ last, last - member / lengths[:, None]


def intent_chain(v, t, segs, params, lam, rngs=None, mode="sample", draws=None):
    """The dual intent spelled as the 33 ops it was before the fused ops
    (with the fused log-density): returns (I, gates, b, scores), None for
    a skipped branch's."""
    member, spread, to_last, last_minus_mean = (
        Tensor(m) for m in segment_matrices(segs.starts, segs.last_rows, segs.n)
    )
    e = ad.concat([v, t])
    i_alpha = gates = i_beta = b = scores = None
    if lam > 0.0:
        logits = ad.add(ad.matmul(e, params.w1), ad.matmul(to_last, ad.matmul(e, params.w2)))
        gates = ad.sigmoid(logits)
        i_alpha = ad.matmul(member, ad.mul(gates, e))
    if lam < 1.0:
        a = ad.softplus(ad.reduce_mean(ad.softplus(v), axis=1))
        c = ad.softplus(ad.reduce_mean(ad.softplus(t), axis=1))
        if mode == "sample":
            bounds = [*segs.starts, segs.n]
            x = np.concatenate([
                ad.sample_beta(r, a.data[lo:hi], c.data[lo:hi])
                for r, lo, hi in zip(rngs, bounds, bounds[1:])
            ])
        elif mode == "mean":
            x = a.data / (a.data + c.data)
        else:
            x = draws
        b = ad.clamp_min(ad.exp(ad.log_beta_density(a, c, x)), PDF_FLOOR)
        scaled = ad.mul(ad.reshape(b, (segs.n, 1)), e)
        shift = ad.matmul(last_minus_mean, scaled)
        s = ad.reshape(ad.add(ad.segment_std(b, segs), STD_EPS), (len(segs), 1))
        standardized = ad.div(ad.add(scaled, ad.matmul(spread, shift)), ad.matmul(spread, s))
        scores = ad.matmul(standardized, params.w3)
        i_beta = ad.matmul(member, ad.mul(scores, e))
    if lam >= 1.0:
        i = i_alpha
    elif lam <= 0.0:
        i = i_beta
    else:
        i = ad.add(ad.mul(i_alpha, lam), ad.mul(i_beta, 1.0 - lam))
    return i, gates, b, scores


D = 4
READOUT_REL = 1e-14
INTENT_LEAVES = ("v", "t", "w1", "w2", "w3")


def intent_case(seed, sizes=(3, 1, 4, 2), offsets=(1, 0, 3, 0)):
    """A chunk of sessions of the given sizes (a single-node session among
    them, whose β std is exactly 0), the last item of each at the given
    offset, with node rows, parameters and fixed draws."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0, *sizes[:-1]])
    n = int(sum(sizes))
    segs = ad.Segments(starts, n, starts + np.array(offsets))
    v = Tensor(rng.normal(0, 0.6, size=(n, D)), requires_grad=True)
    t = Tensor(rng.normal(0, 0.6, size=(n, D)), requires_grad=True)
    params = init_intent(D, Rng(seed, "intent"))
    for w in (params.w1, params.w2, params.w3):
        w.data *= 3.0  # gates off σ's linear middle
    draws = rng.uniform(0.05, 0.95, size=n)
    return segs, v, t, params, draws


def intent_leaves(v, t, params):
    return [v, t, params.w1, params.w2, params.w3]


def streams(seed, k):
    return [Rng(seed, "chunk", r) for r in range(k)]


class TestIntentOps:
    @pytest.mark.parametrize("mode", ["sample", "mean", "fixed"])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_op_chain(self, mode, lam, seed):
        """The gates and weights equal the chain's bit for bit, the intent
        and the β scores within READOUT_REL of their largest magnitude;
        gradients agree within 1e-12, and a skipped branch's weights take
        none."""
        segs, v, t, params, draws = intent_case(seed)
        leaves = intent_leaves(v, t, params)
        weights = np.random.default_rng(seed + 10).normal(size=(len(segs), 2 * D))

        def fused():
            return compute_intent(
                v, t, segs, params, lam, rng=streams(seed, len(segs)), beta_mode=mode, draws=draws
            ).i

        def chain():
            return intent_chain(v, t, segs, params, lam, streams(seed, len(segs)), mode, draws)[0]

        got, got_grads = grads_of(fused, leaves, weights)
        want, want_grads = grads_of(chain, leaves, weights)
        assert_close_to(got.data, want.data, rel=READOUT_REL)
        for name, g, w in zip(INTENT_LEAVES, got_grads, want_grads):
            if w is None:
                assert g is None, name
            else:
                assert_close_to(g, w, err_msg=name)
        if lam == 1.0:
            assert got_grads[4] is None
        if lam == 0.0:
            assert got_grads[2] is None and got_grads[3] is None

        _, gates, b, scores = intent_chain(
            v, t, segs, params, 0.5, streams(seed, len(segs)), mode, draws
        )
        e = ad.concat([v, t])
        np.testing.assert_array_equal(alpha_intent(e, segs, params)[1], gates.data)
        got_b, _, _ = beta_weights(
            v, t, segs, rng=streams(seed, len(segs)), mode=mode, draws=draws
        )
        np.testing.assert_array_equal(got_b.data, b.data)
        assert_close_to(beta_intent(e, got_b, segs, params)[1], scores.data, rel=READOUT_REL)

    def test_single_node_session_has_zero_std(self):
        """The chunk's single-node session standardizes by ε alone."""
        segs, v, t, params, draws = intent_case(0)
        b, _, _ = beta_weights(v, t, segs, mode="fixed", draws=draws)
        assert ad.segment_std(b, segs).data[1] == 0.0

    def test_finite_differences_for_every_input(self):
        """v, t, W1, W2 and W3 at λ = 0.3 with fixed draws, on a chunk whose
        sessions each have more than one node."""
        segs, v, t, params, draws = intent_case(3, sizes=(3, 4, 2), offsets=(2, 1, 0))
        weights = np.random.default_rng(3).normal(size=(len(segs), 2 * D))
        leaves = dict(zip(INTENT_LEAVES, intent_leaves(v, t, params)))

        def intent(values):
            p = type(params)(w1=values["w1"], w2=values["w2"], w3=values["w3"])
            return compute_intent(
                values["v"], values["t"], segs, p, 0.3, beta_mode="fixed", draws=draws
            ).i

        grads_of(lambda: intent(leaves), list(leaves.values()), weights)
        base = {k: leaf.data.copy() for k, leaf in leaves.items()}
        for name, x in base.items():

            def f(arr, name=name):
                values = {k: Tensor(arr if k == name else y) for k, y in base.items()}
                return float(np.sum(intent(values).data * weights))

            numeric = numeric_grad(f, x)
            scale = float(np.abs(numeric).max())
            np.testing.assert_allclose(
                leaves[name].grad, numeric, rtol=1e-6, atol=1e-7 * scale, err_msg=name
            )

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_ops_per_branch(self, lam):
        """concat, then one op for α, and four for β: shapes, density, floor
        and the readout; fusion is one more."""
        segs, v, t, params, _ = intent_case(0)
        with ad.Tape() as tape:
            compute_intent(v, t, segs, params, lam, beta_mode="mean")
        assert len(tape) == {0.0: 5, 0.5: 7, 1.0: 2}[lam]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_before_the_gate_raises(self):
        """σ maps an overflowed gate logit to 0 or 1; the op still raises, as
        the chain does at the overflowing op."""
        segs, v, t, params, _ = intent_case(0)
        params.w1.data[:] = 1e308
        with pytest.raises(NonFiniteError):
            intent_chain(v, t, segs, params, 1.0)
        with pytest.raises(NonFiniteError, match="pre-activation"):
            compute_intent(v, t, segs, params, 1.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowed_weight_std_raises(self):
        """x / inf is a finite 0; a std that overflows still raises, as the
        chain's segment_std did."""
        e = Tensor(np.ones((2, 2)))
        b = np.array([1e300, -1e300])
        segs = ad.Segments([0], 2, [1])
        with pytest.raises(NonFiniteError, match="std"):
            ad.standardized_readout(e, b, np.ones((2, 1)), segs, STD_EPS)

    def test_beta_density_is_exp_of_log_density(self):
        a0, c0, x = beta_inputs(0)
        got = ad.beta_density(np.stack([a0, c0]), x).data
        np.testing.assert_array_equal(got, np.exp(ad.log_beta_density(a0, c0, x).data))

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_point_on_the_boundary_raises(self):
        """exp maps a log-density of −inf to a finite 0; the op raises."""
        shapes = np.full((2, 3), 2.0)
        with pytest.raises(NonFiniteError, match="log-density"):
            ad.beta_density(shapes, np.array([0.5, 0.0, 0.2]))

    def test_mix_is_the_convex_combination(self):
        a, b = np.arange(6.0).reshape(2, 3), np.ones((2, 3))
        want = ad.add(ad.mul(Tensor(a), 0.3), ad.mul(Tensor(b), 1.0 - 0.3)).data
        np.testing.assert_array_equal(ad.mix(a, b, 0.3).data, want)
        with pytest.raises(DimensionError):
            ad.mix(a, np.ones(3), 0.3)

    def test_shape_errors(self):
        segs, v, t, params, _ = intent_case(0)
        e = ad.concat([v, t])
        with pytest.raises(DimensionError, match="weights"):
            ad.attention_readout(e, params.w1.data[1:], params.w2, segs)
        with pytest.raises(DimensionError, match="weights"):
            ad.standardized_readout(e, np.ones(segs.n), params.w3.data[1:], segs, STD_EPS)
        with pytest.raises(DimensionError):
            ad.beta_shapes(v, t.data[1:])
        with pytest.raises(DimensionError):
            ad.beta_density(np.ones((3, segs.n)), np.full(segs.n, 0.5))

    @pytest.mark.parametrize(
        "op", ["attention_readout", "standardized_readout", "segment_std", "segment_mean"]
    )
    def test_row_layout_errors(self, op):
        """Sessions of 3, 1, 4 and 2 rows, starting at rows 0, 3, 4 and 8 of
        10: each op raises DimensionError for segments over another row
        count, and a readout for segments without last rows.  A malformed
        layout fails earlier, when its Segments is built
        (test_chunks.TestGraphUnion)."""
        segs, v, t, params, _ = intent_case(0)
        e = ad.concat([v, t])
        run = {
            "attention_readout": lambda s: ad.attention_readout(e, params.w1, params.w2, s),
            "standardized_readout": lambda s: ad.standardized_readout(
                e, np.ones(segs.n), params.w3, s, STD_EPS
            ),
            "segment_std": lambda s: ad.segment_std(np.ones(segs.n), s),
            "segment_mean": lambda s: ad.segment_mean(np.ones((3, 2)), np.zeros(segs.n, int), s),
        }[op]
        np.testing.assert_array_equal(segs.starts, [0, 3, 4, 8])
        run(segs)
        for other in (ad.Segments([0, 3, 4, 8], 11, [1, 3, 7, 8]), ad.Segments([0, 3], 4, [0, 3])):
            with pytest.raises(DimensionError, match=f"{op}: segments over {other.n} rows given 10"):
                run(other)
        unanchored = ad.Segments(segs.starts, segs.n)
        if op.endswith("readout"):
            with pytest.raises(DimensionError, match="without last rows"):
                run(unanchored)
        else:
            run(unanchored)


class TestRequestPathSize:
    """Bounds on the tensors and tape ops of the request path: each was
    several times larger when every step was a chain of elementary ops."""

    @staticmethod
    def count_tensors(monkeypatch):
        made = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        return made

    def test_one_session_evaluate_builds_few_tensors(self, monkeypatch):
        data = tiny_data()
        cfg = small_cfg()
        params = init_params(data, cfg)
        one = replace(data, test=data.test[:1])
        evaluate(params, one, cfg)  # maps the catalog index
        made = self.count_tensors(monkeypatch)
        evaluate(params, one, cfg)
        assert len(made) <= 20

    def test_compute_intent_records_few_ops(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 7, size=16)
        segs, v, t, params, _ = intent_case(0, sizes=tuple(sizes), offsets=tuple(sizes - 1))
        with ad.Tape() as tape:
            compute_intent(v, t, segs, params, 0.5, rng=streams(0, 16))
        assert len(tape) <= 8

    def test_embed_session_records_few_ops(self):
        enc = init_encoder(9, (4, 5, 6), D, Rng(0, "enc"), steps=1)
        tax_paths = toy_taxonomy()[1][np.arange(9) % 5]
        graph = union_graphs([build_graph([1, 2, 3, 1]), build_graph([4, 5])])
        with ad.Tape() as tape:
            embed_session(graph, enc, tax_paths)
        assert len(tape) <= 3
