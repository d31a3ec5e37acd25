"""Zero-shot mapping and alignment loss: θ behavior, Bhattacharyya
properties against a NumPy oracle, and L_zero summation."""

import math

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import Adam, Rng, Tensor, zero_grads
from nirrec.errors import DimensionError
from nirrec.zeroshot import BC_EPS, ThetaParams, bhattacharyya, init_theta, l_zero, theta_forward

D_A = 3
D = 5


def np_softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def bc_oracle(v, w):
    """Bhattacharyya distance recomputed directly in NumPy."""
    p, q = np_softmax(v), np_softmax(w)
    rho = np.sum(np.sqrt(p * q))
    return -math.log(rho) if rho > 1e-12 else 0.0, rho


def zero_theta(out_bias=None):
    h = 2 * D
    return ThetaParams(
        h_w=Tensor(np.zeros((D_A, h))),
        h_b=Tensor(np.zeros(h)),
        o_w=Tensor(np.zeros((h, D))),
        o_b=Tensor(np.zeros(D) if out_bias is None else out_bias),
    )


class TestTheta:
    """v* = W_o·tanh(W_h·atr + b_h) + b_o."""

    def test_zero_weights_return_output_bias(self):
        """All-zero layers map every attribute vector to the output bias."""
        bias = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        theta = zero_theta(bias)
        out = theta_forward(theta, Tensor(np.random.default_rng(0).normal(size=(4, D_A))))
        np.testing.assert_array_equal(out.data, np.tile(bias, (4, 1)))

    def test_deterministic(self):
        """Same attribute embedding → same inferred embedding."""
        theta = init_theta(D_A, D, Rng(1, "t"))
        atr = np.random.default_rng(1).normal(size=(2, D_A))
        a = theta_forward(theta, Tensor(atr)).data
        b = theta_forward(theta, Tensor(atr)).data
        np.testing.assert_array_equal(a, b)

    def test_matches_straight_line_recomputation(self):
        """The op equals tanh-affine-affine done in raw NumPy."""
        theta = init_theta(D_A, D, Rng(2, "t"))
        atr = np.random.default_rng(2).normal(size=(6, D_A))
        got = theta_forward(theta, Tensor(atr)).data
        want = np.tanh(atr @ theta.h_w.data + theta.h_b.data) @ theta.o_w.data + theta.o_b.data
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_gradient_wrt_hidden_weights(self):
        """d(Σ tanh(θ(atr)))/d W_h matches finite differences, rel. 1e-4."""
        theta = init_theta(D_A, D, Rng(3, "t"))
        atr = np.random.default_rng(3).normal(size=(3, D_A))
        base = theta.h_w.data.copy()

        def value(arr):
            theta.h_w = Tensor(arr)
            return ad.reduce_sum(ad.tanh(theta_forward(theta, Tensor(atr)))).item()

        h = 1e-5
        numeric = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                up, dn = base.copy(), base.copy()
                up[i, j] += h
                dn[i, j] -= h
                numeric[i, j] = (value(up) - value(dn)) / (2 * h)
        theta.h_w = Tensor(base, requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(ad.tanh(theta_forward(theta, Tensor(atr)))))
        np.testing.assert_allclose(theta.h_w.grad, numeric, rtol=1e-4, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        """Wrong attribute width is a dimension error."""
        theta = init_theta(D_A, D, Rng(4, "t"))
        with pytest.raises(DimensionError):
            theta_forward(theta, Tensor(np.zeros((2, D_A + 1))))


class TestBhattacharyya:
    """Distance on softmax-normalized vectors."""

    def test_identical_vectors_give_zero(self):
        """BC(v, v) = 0 for any v."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(0, 3, size=D)
            assert abs(bhattacharyya(Tensor(v), Tensor(v)).item()) < 1e-12

    def test_symmetry(self):
        """BC(v, w) = BC(w, v) within 1e-12."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            v, w = rng.normal(0, 2, size=(2, D))
            d1 = bhattacharyya(Tensor(v), Tensor(w)).item()
            d2 = bhattacharyya(Tensor(w), Tensor(v)).item()
            assert abs(d1 - d2) < 1e-12

    def test_matches_oracle_and_rho_in_unit_interval(self):
        """10^4 random pairs: distance equals the oracle; ρ ∈ (0, 1]."""
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            v, w = rng.normal(0, 2, size=(2, 4))
            want, rho = bc_oracle(v, w)
            got = bhattacharyya(Tensor(v), Tensor(w)).item()
            assert 0.0 < rho <= 1.0 + 1e-15
            assert got >= -1e-12
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_hand_value_half_half_vs_ninety_ten(self):
        """p = [.5,.5], q = [.9,.1]: distance = −log(√0.45 + √0.05)."""
        v = Tensor([0.0, 0.0])
        w = Tensor(np.log([0.9, 0.1]))
        want = -math.log(math.sqrt(0.45) + math.sqrt(0.05))
        np.testing.assert_allclose(bhattacharyya(v, w).item(), want, rtol=1e-12)

    def test_disjoint_limit_returns_zero_branch(self):
        """±huge logits drive ρ under the threshold; the branch returns 0."""
        v = Tensor([800.0, -800.0])
        w = Tensor([-800.0, 800.0])
        assert bhattacharyya(v, w).item() == 0.0

    def test_gradient_flows_through_both_sides(self):
        """Both inputs receive finite, FD-consistent gradients."""
        rng = np.random.default_rng(8)
        v = rng.normal(size=D)
        w = rng.normal(size=D)

        def value(v_arr):
            return bhattacharyya(Tensor(v_arr), Tensor(w)).item()

        h = 1e-5
        numeric = np.array(
            [
                (value(v + h * np.eye(D)[i]) - value(v - h * np.eye(D)[i])) / (2 * h)
                for i in range(D)
            ]
        )
        vt = Tensor(v, requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(bhattacharyya(vt, Tensor(w)))
        np.testing.assert_allclose(vt.grad, numeric, rtol=1e-4, atol=1e-8)


class TestLZero:
    """Per-session alignment loss."""

    def test_theta_reproducing_nodes_gives_zero(self):
        """If θ outputs exactly v_i, every Bhattacharyya term is 0."""
        bias = np.array([0.3, -1.0, 2.0, 0.0, 1.0])
        theta = zero_theta(bias)
        v_nodes = Tensor(np.tile(bias, (3, 1)))
        atr = Tensor(np.random.default_rng(9).normal(size=(3, D_A)))
        assert abs(l_zero(v_nodes, atr, theta).item()) < 1e-12

    def test_single_node_single_term(self):
        """A 1-node session contributes exactly one distance."""
        theta = init_theta(D_A, D, Rng(10, "t"))
        rng = np.random.default_rng(10)
        v = rng.normal(size=(1, D))
        atr = rng.normal(size=(1, D_A))
        direct = bhattacharyya(
            Tensor(v[0]), Tensor(theta_forward(theta, Tensor(atr)).data[0])
        ).item()
        np.testing.assert_allclose(l_zero(Tensor(v), Tensor(atr), theta).item(), direct, rtol=1e-12)

    def test_matches_term_by_term_oracle(self):
        """3-node loss equals the sum of oracle distances within 1e-12."""
        theta = init_theta(D_A, D, Rng(11, "t"))
        rng = np.random.default_rng(11)
        v = rng.normal(size=(3, D))
        atr = rng.normal(size=(3, D_A))
        v_star = np.tanh(atr @ theta.h_w.data + theta.h_b.data) @ theta.o_w.data + theta.o_b.data
        want = sum(bc_oracle(v[i], v_star[i])[0] for i in range(3))
        np.testing.assert_allclose(l_zero(Tensor(v), Tensor(atr), theta).item(), want, atol=1e-12)

    def test_zero_branch_row_beside_normal_rows(self):
        """A row with ρ ≤ BC_EPS adds 0 and takes no gradient; the total is
        the 1-d distances summed over rows and matches finite differences."""
        theta = init_theta(D_A, D, Rng(13, "t"))
        theta.o_b.data[:] = [40.0, -40.0, 0.0, 0.0, 0.0]
        rng = np.random.default_rng(13)
        v = rng.normal(size=(3, D))
        v[1] = [-40.0, 40.0, 0.0, 0.0, 0.0]
        atr = Tensor(rng.normal(size=(3, D_A)))
        v_star = theta_forward(theta, atr).data
        rows = [bhattacharyya(Tensor(v[i]), Tensor(v_star[i])).item() for i in range(3)]
        assert bc_oracle(v[1], v_star[1])[1] <= BC_EPS
        assert rows[1] == 0.0 and rows[0] > 0.0 and rows[2] > 0.0
        np.testing.assert_allclose(l_zero(Tensor(v), atr, theta).item(), sum(rows), rtol=1e-12)

        vt = Tensor(v, requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(l_zero(vt, atr, theta))
        h = 1e-5
        numeric = np.zeros_like(v)
        for idx in np.ndindex(*v.shape):
            step = np.zeros_like(v)
            step[idx] = h
            up = l_zero(Tensor(v + step), atr, theta).item()
            down = l_zero(Tensor(v - step), atr, theta).item()
            numeric[idx] = (up - down) / (2 * h)
        np.testing.assert_allclose(vt.grad, numeric, rtol=1e-4, atol=1e-8)
        np.testing.assert_array_equal(vt.grad[1], np.zeros(D))

    def test_tape_length_independent_of_node_count(self):
        """The nodes are one row-wise computation, not one per node."""
        theta = init_theta(D_A, D, Rng(14, "t"))
        rng = np.random.default_rng(14)
        lengths = []
        for n in (2, 30):
            v = Tensor(rng.normal(size=(n, D)), requires_grad=True)
            with ad.Tape() as tape:
                l_zero(v, Tensor(rng.normal(size=(n, D_A))), theta)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_training_theta_alone_decreases_loss(self):
        """100 Adam steps on L_zero with frozen node embeddings shrink it."""
        theta = init_theta(D_A, D, Rng(12, "t"))
        rng = np.random.default_rng(12)
        v = Tensor(rng.normal(size=(4, D)))
        atr = Tensor(rng.normal(size=(4, D_A)))
        params = theta.named()
        opt = Adam(lr=0.01)
        history = []
        for _ in range(100):
            zero_grads(params)
            with ad.Tape() as tape:
                loss = l_zero(v, atr, theta)
                history.append(loss.item())
                tape.backward(loss)
            opt.step(params)
        assert history[-1] < history[0] * 0.9
