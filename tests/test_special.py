"""Special functions and sampling: log-gamma accuracy, Beta pdf
normalization under quadrature, sampler moments, and stream determinism."""

import math

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.autodiff.special import _LANCZOS_COEF as LANCZOS_COEF
from nirrec.autodiff.special import _series_terms, digamma, log_gamma
from nirrec.errors import DomainError

EULER_GAMMA = 0.5772156649015329


def warped_unit_grid(n=10_000):
    """Trapezoid abscissae on (0,1), doubly warped toward the endpoints.

    The composition x = sin^2(pi/2 * sin^2(pi/2 * v)) clusters points hard
    enough near 0 and 1 to integrate the x^{-1/2} endpoint singularities of
    Beta(0.5, *) densities; exact endpoints are dropped.
    """
    v = np.linspace(0.0, 1.0, n)
    u = np.sin(0.5 * np.pi * v) ** 2
    x = np.sin(0.5 * np.pi * u) ** 2
    return x[1:-1]


def beta_log_pdf(x, a, b):
    """Beta density via the package's log-gamma normalizing constant."""
    log_delta = log_gamma(np.array(a + b)) - log_gamma(np.array(a)) - log_gamma(np.array(b))
    return log_delta + (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)


class TestLogGamma:
    """Accuracy of the Lanczos log-gamma on the positive axis."""

    def test_factorial_and_half_integer_values(self):
        """ln Γ(5) = ln 24 and ln Γ(0.5) = ln √π within 1e-10."""
        np.testing.assert_allclose(log_gamma(np.array(5.0)), math.log(24.0), rtol=1e-10)
        np.testing.assert_allclose(log_gamma(np.array(0.5)), 0.5 * math.log(math.pi), rtol=1e-10)
        np.testing.assert_allclose(log_gamma(np.array(1.0)), 0.0, atol=1e-13)
        np.testing.assert_allclose(log_gamma(np.array(2.0)), 0.0, atol=1e-13)

    def test_relative_accuracy_across_range(self):
        """Relative error vs math.lgamma stays below 1e-10 on [0.01, 50].

        Near the zeros of lgamma (x = 1, 2) a pure relative error is
        ill-posed, so the error is scaled by max(|reference|, 1).
        """
        xs = np.concatenate([np.linspace(0.01, 50.0, 4001), [1.0, 2.0, 0.01, 50.0]])
        got = log_gamma(xs)
        ref = np.array([math.lgamma(float(x)) for x in xs])
        err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
        assert err.max() < 1e-10

    def test_domain_error_on_nonpositive(self):
        """x ≤ 0 is rejected for both log_gamma and digamma."""
        with pytest.raises(DomainError):
            log_gamma(np.array(0.0))
        with pytest.raises(DomainError):
            digamma(np.array(-1.0))


def lanczos_loop(x):
    """The series as a loop over the coefficients, one addition at a time:
    the reference :func:`nirrec.autodiff.special._series_terms` must
    reproduce bit for bit."""
    u = x - 1.0
    series = np.full_like(u, LANCZOS_COEF[0])
    dseries = np.zeros_like(u)
    for i, c in enumerate(LANCZOS_COEF[1:], start=1):
        denom = u + i
        series = series + c / denom
        dseries = dseries - c / (denom * denom)
    return series, dseries, u + 7.0 + 0.5


class TestLanczosSeries:
    """The vectorised series adds its terms in the loop's order."""

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (4,), (3, 2), (100_000,)])
    def test_bit_identical_to_the_loop(self, shape):
        x = np.asarray(np.random.default_rng(len(shape)).uniform(0.01, 50.0, size=shape))
        series, dseries, t = _series_terms(x)
        want_series, want_dseries, want_t = lanczos_loop(x)
        assert series.shape == dseries.shape == x.shape
        assert np.array_equal(series, want_series)
        assert np.array_equal(dseries, want_dseries)
        assert np.array_equal(t, want_t)


class TestDigamma:
    """The digamma is the analytic derivative of the same Lanczos series."""

    def test_known_value_at_one(self):
        """ψ(1) = −γ (Euler–Mascheroni)."""
        np.testing.assert_allclose(digamma(np.array(1.0)), -EULER_GAMMA, rtol=1e-10)

    def test_matches_central_differences_of_log_gamma(self):
        """ψ(x) ≈ (lnΓ(x+h) − lnΓ(x−h)) / 2h over a log-spaced grid."""
        xs = np.geomspace(0.05, 40.0, 200)
        h = 1e-6
        fd = (log_gamma(xs + h) - log_gamma(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(digamma(xs), fd, rtol=1e-6, atol=1e-6)


class TestBetaPdfNormalization:
    """The log-gamma-based Beta density integrates to one."""

    def test_integrates_to_one_on_parameter_grid(self):
        """∫ pdf = 1 ± 1e-3 under 10^4-point trapezoid quadrature on (ε,1−ε),
        for every (a, b) in {0.5, 1, 2, 5}²."""
        x = warped_unit_grid()
        for a in (0.5, 1.0, 2.0, 5.0):
            for b in (0.5, 1.0, 2.0, 5.0):
                pdf = np.exp(beta_log_pdf(x, a, b))
                integral = np.trapezoid(pdf, x)
                assert abs(integral - 1.0) < 1e-3, (a, b, integral)

    def test_hand_value_at_two_three_half(self):
        """Beta(2,3) density at x = 0.5 equals 12 · 0.5 · 0.25 = 1.5."""
        np.testing.assert_allclose(np.exp(beta_log_pdf(0.5, 2.0, 3.0)), 1.5, rtol=1e-10)

    def test_uniform_density_is_one(self):
        """Beta(1,1) has pdf ≡ 1 at any interior point."""
        xs = np.array([0.1, 0.37, 0.9])
        np.testing.assert_allclose(np.exp(beta_log_pdf(xs, 1.0, 1.0)), 1.0, rtol=1e-12)


class TestSampleBeta:
    """Two-gamma-ratio Beta sampling: moments, support, determinism."""

    def test_uniform_case_mean(self):
        """a = b = 1: empirical mean over 10^5 draws is 0.5 ± 0.01."""
        rng = ad.Rng(123, "beta-uniform")
        draws = ad.sample_beta(rng, np.ones(100_000), np.ones(100_000))
        assert abs(draws.mean() - 0.5) < 0.01

    def test_beta_two_three_mean(self):
        """a=2, b=3: empirical mean ≈ a/(a+b) = 0.4 ± 0.01."""
        rng = ad.Rng(123, "beta-23")
        draws = ad.sample_beta(rng, np.full(100_000, 2.0), np.full(100_000, 3.0))
        assert abs(draws.mean() - 0.4) < 0.01

    def test_draws_stay_in_open_interval(self):
        """Samples never touch 0 or 1, even for extreme shape parameters."""
        rng = ad.Rng(5, "beta-extreme")
        draws = ad.sample_beta(rng, np.full(1000, 0.05), np.full(1000, 20.0))
        assert np.all(draws > 0.0)
        assert np.all(draws < 1.0)

    def test_same_seed_identical_samples(self):
        """Re-creating the stream reproduces the draw bit-for-bit."""
        a = ad.sample_beta(ad.Rng(9, "s"), 2.0, 3.0)
        b = ad.sample_beta(ad.Rng(9, "s"), 2.0, 3.0)
        assert np.array_equal(a, b)

    def test_nonpositive_parameters_rejected(self):
        """a ≤ 0 or b ≤ 0 is a domain error."""
        with pytest.raises(DomainError):
            ad.sample_beta(ad.Rng(1), 0.0, 1.0)
        with pytest.raises(DomainError):
            ad.sample_beta(ad.Rng(1), 1.0, -2.0)


class TestRngStreams:
    """Substream derivation is a pure function of (seed, key path)."""

    def test_derive_equals_direct_construction(self):
        """Rng(7).derive('a').derive('b') equals Rng(7, 'a', 'b')."""
        a = ad.Rng(7).derive("a").derive("b").uniform(size=8)
        b = ad.Rng(7, "a", "b").uniform(size=8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        """Sibling substreams are distinct."""
        a = ad.Rng(7, "x").uniform(size=8)
        b = ad.Rng(7, "y").uniform(size=8)
        assert not np.array_equal(a, b)

    def test_derive_does_not_advance_parent(self):
        """Creating substreams leaves the parent's sequence untouched."""
        r1 = ad.Rng(3)
        r2 = ad.Rng(3)
        r2.derive("anything")
        assert np.array_equal(r1.uniform(size=4), r2.uniform(size=4))

    def test_integer_and_string_keys(self):
        """Both key types address stable streams; other types are rejected."""
        assert np.array_equal(ad.Rng(1, 42).uniform(size=3), ad.Rng(1, 42).uniform(size=3))
        with pytest.raises(DomainError):
            ad.Rng(1, 3.5)
