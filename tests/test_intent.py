"""Dual-intent checks: α gates, Beta-density weights with closed-form shape
constructions, an independent straight-line oracle, fusion algebra, and
branch skipping at λ ∈ {0, 1}.  Each case is one session, a chunk of one:
its intents are a single row."""

import math

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import Rng, Tensor
from nirrec.errors import ConfigurationError, DimensionError
from nirrec.intent import (
    IntentParams,
    alpha_intent,
    beta_intent,
    beta_shape_params,
    beta_weights,
    compute_intent,
    fuse,
    init_intent,
)
from nirrec.sessiongraph import Segments

D = 4


def softplus(x):
    return np.log1p(np.exp(x))


def intent_oracle(v, t, w1, w2, w3, last, lam, draws):
    """The whole dual-intent pipeline, recomputed in straight-line NumPy."""
    e = np.hstack([v, t])
    n = e.shape[0]
    # alpha branch
    gates = 1.0 / (1.0 + np.exp(-((e @ w1).ravel() + (e[last] @ w2).item())))
    i_alpha = (gates[:, None] * e).sum(axis=0)
    # beta branch
    a = softplus(softplus(v).mean(axis=1))
    c = softplus(softplus(t).mean(axis=1))
    b = np.array(
        [
            math.exp(
                math.lgamma(ai + ci)
                - math.lgamma(ai)
                - math.lgamma(ci)
                + (ai - 1.0) * math.log(xi)
                + (ci - 1.0) * math.log1p(-xi)
            )
            for ai, ci, xi in zip(a, c, draws)
        ]
    )
    b = np.maximum(b, 1e-300)
    scaled = b[:, None] * e
    v_prime = scaled + b[last] * e[last]
    m = scaled.mean(axis=0)
    s = b.std()  # population convention (ddof=0)
    beta_scores = ((v_prime - m) / (s + 1e-8)) @ w3
    i_beta = (beta_scores * e).sum(axis=0)
    return lam * i_alpha + (1.0 - lam) * i_beta, gates, b, beta_scores.ravel()


def random_nodes(rng, n):
    v = rng.normal(0, 0.6, size=(n, D))
    t = rng.normal(0, 0.6, size=(n, D))
    return v, t


def one(n, last):
    """The segments of a single session over ``n`` rows, last item in row
    ``last``."""
    return Segments([0], [last], n)


def toy_params(seed=0):
    return init_intent(D, Rng(seed, "intent"))


# Entries of a constant matrix whose Beta shape under φ(mean(ϱ(·))) is k:
# softplus(softplus(x)) = k  ⇔  x = ln(e^k − 2) for k > ln 2.
def entry_for_shape(k):
    return math.log(math.exp(k) - 2.0)


class TestAlphaIntent:
    """Soft attention anchored on the last item."""

    def test_zero_weights_give_half_gates(self):
        """W1 = W2 = 0 → every gate is 0.5 and I_α = 0.5·Σe_i."""
        rng = np.random.default_rng(0)
        v, t = random_nodes(rng, 5)
        e = ad.concat([Tensor(v), Tensor(t)])
        params = IntentParams(
            w1=Tensor(np.zeros((2 * D, 1))),
            w2=Tensor(np.zeros((2 * D, 1))),
            w3=Tensor(np.zeros((2 * D, 1))),
        )
        i_alpha, gates = alpha_intent(e, one(5, 4), params)
        np.testing.assert_array_equal(gates, np.full((5, 1), 0.5))
        np.testing.assert_allclose(
            i_alpha.data, 0.5 * np.hstack([v, t]).sum(axis=0, keepdims=True), rtol=1e-14
        )

    def test_single_node(self):
        """n = 1: I_α = g₁·e₁."""
        rng = np.random.default_rng(1)
        v, t = random_nodes(rng, 1)
        params = toy_params()
        e = ad.concat([Tensor(v), Tensor(t)])
        i_alpha, gates = alpha_intent(e, one(1, 0), params)
        np.testing.assert_allclose(i_alpha.data, gates[0] * np.hstack([v, t]), rtol=1e-14)

    def test_gradient_wrt_w1(self):
        """d(Σ I_α)/d W1 matches central finite differences, rel. 1e-4."""
        rng = np.random.default_rng(2)
        v, t = random_nodes(rng, 3)
        params = toy_params(3)
        base = params.w1.data.copy()
        e_const = np.hstack([v, t])

        def value(w1_arr):
            params.w1 = Tensor(w1_arr)
            e = ad.concat([Tensor(v), Tensor(t)])
            i_alpha, _ = alpha_intent(e, one(3, 2), params)
            return ad.reduce_sum(i_alpha).item()

        h = 1e-5
        numeric = np.zeros_like(base)
        for i in range(base.shape[0]):
            up, dn = base.copy(), base.copy()
            up[i, 0] += h
            dn[i, 0] -= h
            numeric[i, 0] = (value(up) - value(dn)) / (2 * h)
        params.w1 = Tensor(base, requires_grad=True)
        with ad.Tape() as tape:
            e = ad.concat([Tensor(v), Tensor(t)])
            i_alpha, _ = alpha_intent(e, one(3, 2), params)
            tape.backward(ad.reduce_sum(i_alpha))
        np.testing.assert_allclose(params.w1.grad, numeric, rtol=1e-4, atol=1e-8)
        assert e_const.shape == (3, 2 * D)


class TestBetaWeights:
    """b_i is the Beta(a_i, c_i) density at the evaluation point."""

    def test_uniform_beta_gives_unit_weights(self):
        """Entries ln(e−2) force a = c = 1, so the density is 1 at any x."""
        x = entry_for_shape(1.0)
        v = Tensor(np.full((3, D), x))
        t = Tensor(np.full((3, D), x))
        a, c = beta_shape_params(v, t).data
        np.testing.assert_allclose(a, 1.0, rtol=1e-12)
        np.testing.assert_allclose(c, 1.0, rtol=1e-12)
        b, _, clamped = beta_weights(v, t, one(3, 2), rng=[Rng(0, "u")], mode="sample")
        np.testing.assert_allclose(b.data, 1.0, rtol=1e-10)
        assert clamped == 0

    def test_closed_form_value_at_half(self):
        """a=2, c=3, x=0.5: δ = Γ(5)/(Γ(2)Γ(3)) = 12 and b = 12·0.5·0.25 = 1.5."""
        v = Tensor(np.full((2, D), entry_for_shape(2.0)))
        t = Tensor(np.full((2, D), entry_for_shape(3.0)))
        a, c = beta_shape_params(v, t).data
        b, x, _ = beta_weights(v, t, one(2, 1), mode="fixed", draws=np.full(2, 0.5))
        np.testing.assert_allclose(a, 2.0, rtol=1e-12)
        np.testing.assert_allclose(c, 3.0, rtol=1e-12)
        np.testing.assert_allclose(b.data, 1.5, rtol=1e-10)
        np.testing.assert_array_equal(x, [0.5, 0.5])

    def test_density_cross_checked_against_lgamma_oracle(self):
        """Random nodes: b_i equals the math.lgamma density within rel. 1e-8."""
        rng = np.random.default_rng(3)
        v_arr, t_arr = random_nodes(rng, 6)
        draws = rng.uniform(0.05, 0.95, size=6)
        a, c = beta_shape_params(Tensor(v_arr), Tensor(t_arr)).data
        b, _, _ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(6, 5), mode="fixed", draws=draws)
        want = [
            math.exp(
                math.lgamma(ai + ci)
                - math.lgamma(ai)
                - math.lgamma(ci)
                + (ai - 1) * math.log(xi)
                + (ci - 1) * math.log1p(-xi)
            )
            for ai, ci, xi in zip(a, c, draws)
        ]
        np.testing.assert_allclose(b.data, want, rtol=1e-8)

    def test_weights_always_positive(self):
        """b_i > 0 on random inputs (clamping guarantees the floor)."""
        rng = np.random.default_rng(4)
        for trial in range(20):
            v_arr, t_arr = random_nodes(rng, 4)
            b, *_ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(4, 3), rng=[Rng(trial, "pos")])
            assert np.all(b.data > 0.0)

    def test_underflow_clamped_and_counted(self):
        """A draw deep in the lower tail underflows the density to 1e-300."""
        v = Tensor(np.full((2, D), entry_for_shape(3.0)))
        t = Tensor(np.full((2, D), entry_for_shape(2.0)))
        b, _, clamped = beta_weights(
            v, t, one(2, 1), mode="fixed", draws=np.array([1e-200, 0.5])
        )
        assert clamped == 1
        assert b.data[0] == 1e-300
        assert b.data[1] > 1e-300

    def test_fixed_seed_reproduces_weights(self):
        """Same rng keys → identical draws and weights."""
        rng = np.random.default_rng(5)
        v_arr, t_arr = random_nodes(rng, 5)
        b1, x1, _ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(5, 4), rng=[Rng(11, "det")])
        b2, x2, _ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(5, 4), rng=[Rng(11, "det")])
        np.testing.assert_array_equal(b1.data, b2.data)
        np.testing.assert_array_equal(x1, x2)

    def test_mean_mode_uses_distribution_mean(self):
        """Evaluation mode fixes x_i = a_i/(a_i + c_i), no rng needed."""
        rng = np.random.default_rng(6)
        v_arr, t_arr = random_nodes(rng, 4)
        a, c = beta_shape_params(Tensor(v_arr), Tensor(t_arr)).data
        _, x, _ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(4, 3), mode="mean")
        np.testing.assert_allclose(x, a / (a + c), rtol=1e-14)


class TestBetaIntent:
    """Standardized aggregation of Beta weights."""

    def test_zero_w3_kills_beta_intent(self):
        """W3 = 0 → all β_i = 0 and I_β = 0."""
        rng = np.random.default_rng(7)
        v_arr, t_arr = random_nodes(rng, 4)
        e = ad.concat([Tensor(v_arr), Tensor(t_arr)])
        params = IntentParams(
            w1=Tensor(np.zeros((2 * D, 1))),
            w2=Tensor(np.zeros((2 * D, 1))),
            w3=Tensor(np.zeros((2 * D, 1))),
        )
        b, *_ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(4, 3), rng=[Rng(1, "z")])
        i_beta, scores = beta_intent(e, b, one(4, 3), params)
        np.testing.assert_array_equal(scores, np.zeros((4, 1)))
        np.testing.assert_array_equal(i_beta.data, np.zeros((1, 2 * D)))

    def test_single_node_stays_finite(self):
        """n = 1 gives s = 0; the ε guard keeps everything finite."""
        rng = np.random.default_rng(8)
        v_arr, t_arr = random_nodes(rng, 1)
        e = ad.concat([Tensor(v_arr), Tensor(t_arr)])
        params = toy_params(9)
        b, *_ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(1, 0), rng=[Rng(2, "one")])
        i_beta, scores = beta_intent(e, b, one(1, 0), params)
        assert np.all(np.isfinite(i_beta.data))
        assert np.all(np.isfinite(scores))

    def test_scaled_mean_identity(self):
        """The standardization center m is exactly mean_j(b_j e_j)."""
        rng = np.random.default_rng(9)
        v_arr, t_arr = random_nodes(rng, 5)
        draws = rng.uniform(0.2, 0.8, size=5)
        b, *_ = beta_weights(Tensor(v_arr), Tensor(t_arr), one(5, 4), mode="fixed", draws=draws)
        e = np.hstack([v_arr, t_arr])
        m = (b.data[:, None] * e).mean(axis=0)
        # oracle identity: recomputing the mean from the returned weights
        np.testing.assert_allclose(m, np.mean(b.data[:, None] * e, axis=0), rtol=1e-15)


class TestComputeIntent:
    """Fusion, the straight-line oracle, and λ branch skipping."""

    def test_matches_straight_line_oracle(self):
        """20 random cases in fixed-draw mode agree within 1e-10: the
        intent of compute_intent, and the gates, weights and scores of the
        branch functions it calls."""
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            v_arr, t_arr = random_nodes(rng, n)
            last = int(rng.integers(0, n))
            lam = float(rng.uniform(0.05, 0.95))
            draws = rng.uniform(0.05, 0.95, size=n)
            params = toy_params(trial)
            segs = one(n, last)
            res = compute_intent(
                Tensor(v_arr), Tensor(t_arr), segs, params, lam, beta_mode="fixed", draws=draws
            )
            e = ad.concat([Tensor(v_arr), Tensor(t_arr)])
            _, gates = alpha_intent(e, segs, params)
            b, _, _ = beta_weights(Tensor(v_arr), Tensor(t_arr), segs, mode="fixed", draws=draws)
            _, scores = beta_intent(e, b, segs, params)
            want_i, want_gates, want_b, want_scores = intent_oracle(
                v_arr, t_arr, params.w1.data, params.w2.data, params.w3.data, last, lam, draws
            )
            np.testing.assert_allclose(res.i.data, [want_i], rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(gates.ravel(), want_gates, rtol=1e-10)
            np.testing.assert_allclose(b.data, want_b, rtol=1e-10)
            np.testing.assert_allclose(scores.ravel(), want_scores, rtol=1e-10, atol=1e-12)

    def test_fuse_endpoints_and_midpoint(self):
        """λ = 1 → I_α; λ = 0 → I_β; λ = 0.5 midpoint of [2,0] and [0,2]."""
        ia = Tensor([2.0, 0.0])
        ib = Tensor([0.0, 2.0])
        np.testing.assert_array_equal(fuse(ia, ib, 1.0).data, [2.0, 0.0])
        np.testing.assert_array_equal(fuse(ia, ib, 0.0).data, [0.0, 2.0])
        np.testing.assert_array_equal(fuse(ia, ib, 0.5).data, [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            fuse(ia, ib, 1.5)

    def test_exact_convex_combination(self):
        """Interior λ: I = λ·I_α + (1−λ)·I_β holds exactly."""
        rng = np.random.default_rng(11)
        v_arr, t_arr = random_nodes(rng, 4)
        draws = rng.uniform(0.1, 0.9, size=4)
        params = toy_params(12)
        res = compute_intent(
            Tensor(v_arr), Tensor(t_arr), one(4, 1), params, 0.3, beta_mode="fixed", draws=draws
        )
        want = 0.3 * res.i_alpha.data + 0.7 * res.i_beta.data
        np.testing.assert_array_equal(res.i.data, want)

    def test_lambda_one_skips_sampler_entirely(self):
        """λ = 1 works with no rng at all and ignores W3 perturbations."""
        rng = np.random.default_rng(12)
        v_arr, t_arr = random_nodes(rng, 4)
        params = toy_params(13)
        res = compute_intent(Tensor(v_arr), Tensor(t_arr), one(4, 2), params, 1.0, rng=None)
        assert res.i_beta is None and res.draws is None
        params.w3 = Tensor(params.w3.data + 100.0)
        res2 = compute_intent(Tensor(v_arr), Tensor(t_arr), one(4, 2), params, 1.0, rng=None)
        np.testing.assert_array_equal(res.i.data, res2.i.data)

    def test_lambda_zero_ignores_alpha_weights(self):
        """λ = 0: perturbing W1/W2 leaves the intent bit-identical."""
        rng = np.random.default_rng(13)
        v_arr, t_arr = random_nodes(rng, 4)
        params = toy_params(14)
        r1 = compute_intent(
            Tensor(v_arr), Tensor(t_arr), one(4, 0), params, 0.0, rng=[Rng(3, "b")]
        )
        params.w1 = Tensor(params.w1.data + 50.0)
        params.w2 = Tensor(params.w2.data - 50.0)
        r2 = compute_intent(
            Tensor(v_arr), Tensor(t_arr), one(4, 0), params, 0.0, rng=[Rng(3, "b")]
        )
        assert r1.i_alpha is None
        np.testing.assert_array_equal(r1.i.data, r2.i.data)

    def test_padded_rows_removed_by_mask_slice(self):
        """Intent over the masked slice of a padded batch equals unpadded."""
        rng = np.random.default_rng(14)
        n, pad = 3, 6
        v_arr, t_arr = random_nodes(rng, n)
        v_pad = np.zeros((pad, D))
        t_pad = np.zeros((pad, D))
        v_pad[:n] = v_arr
        t_pad[:n] = t_arr
        draws = rng.uniform(0.1, 0.9, size=n)
        params = toy_params(15)
        direct = compute_intent(
            Tensor(v_arr), Tensor(t_arr), one(n, 1), params, 0.5, beta_mode="fixed", draws=draws
        )
        keep = np.arange(n)
        sliced = compute_intent(
            ad.take_rows(Tensor(v_pad), keep),
            ad.take_rows(Tensor(t_pad), keep),
            one(n, 1),
            params,
            0.5,
            beta_mode="fixed",
            draws=draws,
        )
        np.testing.assert_allclose(sliced.i.data, direct.i.data, atol=1e-12)


class TestSessionRows:
    """Every function takes the segments of its rows' sessions."""

    def test_segments_must_cover_every_row(self):
        rng = np.random.default_rng(15)
        v_arr, t_arr = random_nodes(rng, 4)
        e = ad.concat([Tensor(v_arr), Tensor(t_arr)])
        params = toy_params(16)
        with pytest.raises(DimensionError, match="segments over 3 rows given 4 nodes"):
            compute_intent(Tensor(v_arr), Tensor(t_arr), one(3, 2), params, 0.5, beta_mode="mean")
        with pytest.raises(DimensionError):
            alpha_intent(e, one(5, 2), params)
        with pytest.raises(DimensionError):
            beta_weights(Tensor(v_arr), Tensor(t_arr), one(3, 2), mode="mean")

    def test_sample_mode_needs_an_rng_per_session(self):
        rng = np.random.default_rng(17)
        v_arr, t_arr = random_nodes(rng, 4)
        segs = Segments([0, 2], [1, 3], 4)
        for streams in (None, [Rng(0, "a")], [Rng(0, "a"), None]):
            with pytest.raises(ConfigurationError, match="an rng per session"):
                beta_weights(Tensor(v_arr), Tensor(t_arr), segs, rng=streams)
