"""The fused ops `gated_graph_step` and `log_beta_density` against the op
chains they replace: straight-line copies of those chains are kept here as
references, matched in value bit for bit and in gradient within 1e-12, and
both ops are checked against central finite differences."""

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import Rng, Tensor
from nirrec.encoder import GgnnParams, ggnn_forward, init_ggnn
from nirrec.errors import DimensionError, DomainError, NonFiniteError

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
    """Gradients of sum(weights ⊙ build()) into every leaf."""
    for t in leaves:
        t.grad = None
    with ad.Tape() as tape:
        out = build()
        tape.backward(ad.reduce_sum(ad.mul(out, Tensor(weights))))
    return out, [t.grad.copy() for t in leaves]


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
