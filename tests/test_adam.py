"""Adam optimizer behavior: descent, convergence, moment persistence."""

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff import Adam, zero_grads
from nirrec.errors import ConfigurationError, NonFiniteError


class TestAdam:
    """Scalar-objective checks against the optimizer's contract."""

    def test_zero_gradient_leaves_parameter_unchanged(self):
        """A zero grad must not move the parameter (bias correction included)."""
        w = ad.Tensor([1.5, -2.0], requires_grad=True)
        w.zero_grad()
        Adam(lr=0.1).step({"w": w})
        np.testing.assert_array_equal(w.data, [1.5, -2.0])

    def test_single_step_descends_on_square(self):
        """One step on f(w) = w² at w = 1 decreases w."""
        w = ad.Tensor(1.0, requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.mul(w, w))
        Adam(lr=0.1).step({"w": w})
        assert w.data < 1.0

    def test_converges_on_shifted_quadratic(self):
        """500 steps on f(w) = (w−3)² reach |w−3| < 1e-3."""
        w = ad.Tensor(0.0, requires_grad=True)
        opt = Adam(lr=0.05)
        for _ in range(500):
            w.zero_grad()
            with ad.Tape() as tape:
                diff = ad.sub(w, 3.0)
                tape.backward(ad.mul(diff, diff))
            opt.step({"w": w})
        assert abs(w.item() - 3.0) < 1e-3

    def test_missing_gradient_names_parameter(self):
        """Stepping with an unpopulated grad raises and names the tensor."""
        w = ad.Tensor(1.0, requires_grad=True)
        with pytest.raises(ConfigurationError) as exc:
            Adam().step({"theta.w": w})
        assert "theta.w" in str(exc.value)

    def test_moments_persist_across_steps(self):
        """The same constant gradient accelerates later steps (momentum)."""
        w = ad.Tensor(0.0, requires_grad=True)
        opt = Adam(lr=0.1)
        deltas = []
        for _ in range(3):
            w.grad = np.asarray(1.0)
            before = float(w.data)
            opt.step({"w": w})
            deltas.append(before - float(w.data))
        assert all(d > 0 for d in deltas)
        assert opt._t == 3

    def test_zero_grads_helper(self):
        """zero_grads fills every named parameter with a zero buffer."""
        params = {
            "a": ad.Tensor(np.ones(3), requires_grad=True),
            "b": ad.Tensor(np.ones((2, 2)), requires_grad=True),
        }
        zero_grads(params)
        for p in params.values():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))

    def test_gradient_buffers_are_reused(self):
        """zero_grads zeroes each gradient buffer in place, and a backward
        pass adds into it: the array stays the same across steps."""
        params = {
            "a": ad.Tensor(np.ones(3), requires_grad=True),
            "b": ad.Tensor(np.ones((2, 2)), requires_grad=True),
        }
        zero_grads(params)
        before = {name: p.grad for name, p in params.items()}
        for _ in range(2):
            with ad.Tape() as tape:
                tape.backward(ad.add(ad.reduce_sum(params["a"]), ad.reduce_sum(params["b"])))
            for name, p in params.items():
                assert p.grad is before[name]
                np.testing.assert_array_equal(p.grad, np.ones_like(p.data))
            zero_grads(params)
            for name, p in params.items():
                assert p.grad is before[name]
                np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))

    def test_steps_equal_the_update_expressions(self):
        """Five steps over parameters of three sizes, the smaller updated
        through views of the larger one's scratch, equal the update written
        as expressions bit for bit, and leave the gradients as they were."""
        rng = np.random.default_rng(0)
        shapes = {"a": (4, 3), "b": (5,), "c": ()}
        params = {k: ad.Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = Adam(lr=0.01)
        b1, b2, lr, eps = opt.beta1, opt.beta2, opt.lr, opt.eps
        for t in range(1, 6):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-9, 3), size=s)
                     for k, s in shapes.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt.step(params)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                want[k] = want[k] - lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
                np.testing.assert_array_equal(params[k].data, want[k], err_msg=f"{k} step {t}")
                np.testing.assert_array_equal(opt._m[k], m[k])
                np.testing.assert_array_equal(opt._v[k], v[k])
                np.testing.assert_array_equal(params[k].grad, g)

    def test_invalid_hyperparameters_rejected(self):
        """Non-positive or non-finite lr and out-of-range betas are
        configuration errors."""
        for lr in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="lr must be finite and positive"):
                Adam(lr=lr)
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected_before_any_update(self, bad):
        """Every gradient is checked before any parameter or moment moves,
        also those of parameters stepped before the faulty one."""
        a = ad.Tensor(np.ones(3), requires_grad=True)
        b = ad.Tensor(np.ones(2), requires_grad=True)
        a.grad = np.full(3, 0.5)
        b.grad = np.array([1.0, bad])
        opt = Adam(lr=0.1)
        with pytest.raises(NonFiniteError, match="'b'"):
            opt.step({"a": a, "b": b})
        np.testing.assert_array_equal(a.data, np.ones(3))
        np.testing.assert_array_equal(b.data, np.ones(2))
        assert opt._t == 0 and not opt._m and not opt._v

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_gradient_accepted(self):
        """A gradient whose sum overflows is still finite element by element,
        so the step is taken."""
        w = ad.Tensor(np.ones(2), requires_grad=True)
        w.grad = np.array([1e308, 1e308])
        opt = Adam(lr=0.1)
        opt.step({"w": w})
        assert opt._t == 1 and np.isfinite(w.data).all()
