import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.stats import chisquare, norm

from polarexp.distributions import (
    Ar1Params,
    MacgParams,
    SeKernelParams,
    ar1_loglik_grad,
    log_arcsine,
    log_halfnormal,
    log_invgamma,
    log_macg_density,
    log_matrix_normal,
    sample_ar1,
    sample_macg,
    sample_uniform_stiefel,
    se_kernel,
)
from polarexp.matcore import SpdMatrix


class TestUniformStiefel:
    def test_zero_sphere(self):
        rng = np.random.default_rng(0)
        vals = [sample_uniform_stiefel(1, 1, rng)[0, 0] for _ in range(200)]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        assert abs(np.mean(vals)) < 0.3

    def test_sphere_moments(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_uniform_stiefel(5, 1, rng).ravel() for _ in range(50_000)])
        assert np.linalg.norm(draws.mean(axis=0)) <= 0.02
        second = draws.T @ draws / draws.shape[0]
        assert np.linalg.norm(second - np.eye(5) / 5) <= 0.02

    def test_stiefel_second_moment(self):
        rng = np.random.default_rng(2)
        acc = np.zeros((4, 4))
        n = 50_000
        for _ in range(n):
            q = sample_uniform_stiefel(4, 2, rng)
            acc += q @ q.T
        assert np.linalg.norm(acc / n - 0.5 * np.eye(4)) <= 0.02

    def test_bad_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_uniform_stiefel(2, 3, rng)


class TestMacgDensity:
    def test_identity_sigma_is_uniform(self):
        rng = np.random.default_rng(3)
        params = MacgParams(sigma=SpdMatrix(np.eye(4)))
        for _ in range(5):
            q = sample_uniform_stiefel(4, 2, rng)
            assert log_macg_density(q, params) == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        a, b = 3.0, 0.5
        params = MacgParams(sigma=SpdMatrix(np.diag([a, b])))
        q = np.array([[1.0], [0.0]])
        assert log_macg_density(q, params) == pytest.approx(0.5 * np.log(a / b), abs=1e-12)

    def test_integrates_to_one_on_circle(self):
        params = MacgParams(sigma=SpdMatrix(np.diag([4.0, 1.0])))

        def dens(theta):
            q = np.array([[np.cos(theta)], [np.sin(theta)]])
            # uniform probability measure on the circle is d(theta)/(2 pi)
            return np.exp(log_macg_density(q, params)) / (2 * np.pi)

        total = quad(dens, 0, 2 * np.pi, epsabs=1e-10)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_scale_invariance_in_sigma(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        q = sample_uniform_stiefel(3, 2, rng)
        base = log_macg_density(q, MacgParams(sigma=SpdMatrix(sigma)))
        for c in (0.2, 5.0, 123.0):
            val = log_macg_density(q, MacgParams(sigma=SpdMatrix(c * sigma)))
            assert val == pytest.approx(base, abs=1e-10)


class TestMacgSampler:
    def test_identity_matches_uniform_sampler(self):
        params = MacgParams(sigma=SpdMatrix(np.eye(5)))
        q1 = sample_macg(params, 2, np.random.default_rng(42))
        q2 = sample_uniform_stiefel(5, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(q1, q2)

    def test_sigma_scale_gives_identical_draws(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 4 * np.eye(4)
        q1 = sample_macg(MacgParams(sigma=SpdMatrix(sigma)), 2, np.random.default_rng(9))
        q2 = sample_macg(
            MacgParams(sigma=SpdMatrix(9.0 * sigma)), 2, np.random.default_rng(9)
        )
        np.testing.assert_allclose(q1, q2, atol=1e-12)

    def test_circle_histogram_vs_density(self):
        rng = np.random.default_rng(6)
        params = MacgParams(sigma=SpdMatrix(np.diag([4.0, 1.0])))
        n = 50_000
        angles = np.empty(n)
        for i in range(n):
            q = sample_macg(params, 1, rng)
            angles[i] = np.arctan2(q[1, 0], q[0, 0])
        edges = np.linspace(-np.pi, np.pi, 25)
        counts, _ = np.histogram(angles, bins=edges)

        def dens(theta):
            q = np.array([[np.cos(theta)], [np.sin(theta)]])
            return np.exp(log_macg_density(q, params)) / (2 * np.pi)

        expected = np.array(
            [quad(dens, lo, hi, epsabs=1e-10)[0] for lo, hi in zip(edges[:-1], edges[1:])]
        )
        stat = chisquare(counts, n * expected / expected.sum())
        assert stat.pvalue > 0.01

    def test_second_moment_p3_k2(self):
        rng = np.random.default_rng(7)
        params = MacgParams(sigma=SpdMatrix(np.eye(3)))
        acc = np.zeros((3, 3))
        n = 50_000
        for _ in range(n):
            q = sample_macg(params, 2, rng)
            acc += q @ q.T
        assert np.linalg.norm(acc / n - (2 / 3) * np.eye(3)) <= 0.02

    def test_gram_independent_of_polar_factor(self):
        # for sigma = I, log|S_X| should be uncorrelated with entries of Q_X
        rng = np.random.default_rng(8)
        n = 50_000
        logdets = np.empty(n)
        q00 = np.empty(n)
        for i in range(n):
            x = rng.standard_normal((4, 2))
            s = x.T @ x
            logdets[i] = np.log(np.linalg.det(s))
            u, _, vt = np.linalg.svd(x, full_matrices=False)
            q00[i] = (u @ vt)[0, 0]
        assert abs(np.corrcoef(logdets, q00)[0, 1]) <= 0.02


class TestMatrixNormal:
    def test_zero_point(self):
        val = log_matrix_normal(np.zeros((2, 1)), SpdMatrix(np.eye(2)))
        assert val == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_separability(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 2))
        val = log_matrix_normal(x, SpdMatrix(np.eye(3)))
        assert val == pytest.approx(np.sum(norm.logpdf(x)), abs=1e-10)

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(10)
        sigma = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        x = rng.standard_normal((3, 2))
        inv = np.linalg.inv(sigma)
        expected = (
            -3.0 * np.log(2 * np.pi)
            - np.log(np.linalg.det(sigma))
            - 0.5 * np.trace(x.T @ inv @ x)
        )
        assert log_matrix_normal(x, SpdMatrix(sigma)) == pytest.approx(expected, abs=1e-10)


class TestSeKernel:
    def test_diagonal_and_lengthscale(self):
        grid = np.array([0.0, 3.0, 10.0])
        k = se_kernel(SeKernelParams(grid=grid, rho=3.0, nugget=1e-6))
        np.testing.assert_allclose(np.diag(k.mat), 1.0 + 1e-6)
        assert k.mat[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_dense_grid_factors(self):
        grid = np.linspace(1.0, 365.0, 73)
        k = se_kernel(SeKernelParams(grid=grid, rho=29.0, nugget=1e-6))
        recon = k.chol @ k.chol.T
        assert np.linalg.norm(recon - k.mat) <= 1e-8

    def test_singular_without_nugget_mentions_nugget(self):
        grid = np.linspace(0.0, 10.0, 60)
        with pytest.raises(Exception, match="nugget"):
            se_kernel(SeKernelParams(grid=grid, rho=50.0, nugget=0.0))


class TestAr1:
    def test_p1(self):
        assert ar1_loglik_grad(np.array([[1.3]]), 0.7, 2.0)[0] == pytest.approx(
            norm.logpdf(1.3, scale=np.sqrt(2.0)), abs=1e-12
        )

    def test_p2_at_zero(self):
        expected = -np.log(2 * np.pi) - 0.5 * np.log(1 - 0.25)
        assert ar1_loglik_grad(np.zeros((1, 2)), 0.5, 1.0)[0] == pytest.approx(
            expected, abs=1e-12
        )

    def test_dense_covariance_oracle(self):
        rng = np.random.default_rng(11)
        p = 10
        phi, sigma2 = 0.6, 1.7
        x = rng.standard_normal(p)
        omega = phi ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        cov = sigma2 * omega
        chol = sla.cholesky(cov, lower=True)
        sol = sla.cho_solve((chol, True), x)
        expected = (
            -0.5 * p * np.log(2 * np.pi)
            - np.sum(np.log(np.diag(chol)))
            - 0.5 * x @ sol
        )
        assert ar1_loglik_grad(x[None, :], phi, sigma2)[0] == pytest.approx(
            expected, abs=1e-10
        )

    def test_phi_zero_is_iid(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 6))
        assert ar1_loglik_grad(x, 0.0, 1.3)[0] == pytest.approx(
            np.sum(-0.5 * np.log(2 * np.pi * 1.3) - x**2 / (2 * 1.3)), abs=1e-12
        )

    def test_sampler_matches_loglik_model(self):
        rng = np.random.default_rng(13)
        params = Ar1Params(phi=0.8, sigma2=2.0)
        draws = sample_ar1(4000, 50, params, rng)
        lag1 = np.mean(draws[:, 1:] * draws[:, :-1]) / np.mean(draws**2)
        assert lag1 == pytest.approx(0.8, abs=0.03)
        assert np.var(draws) == pytest.approx(2.0, rel=0.05)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            Ar1Params(phi=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            Ar1Params(phi=0.5, sigma2=0.0)


class TestScalarPriors:
    def test_arcsine_at_zero(self):
        assert log_arcsine(0.0) == pytest.approx(-np.log(np.pi), abs=1e-14)

    def test_invgamma_mode_stationary(self):
        alpha, beta = 3.0, 5.0
        mode = beta / (alpha + 1)
        h = 1e-6
        deriv = (log_invgamma(mode + h, alpha, beta) - log_invgamma(mode - h, alpha, beta)) / (2 * h)
        assert deriv == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "fn, lo, hi",
        [
            (log_arcsine, -1.0, 1.0),
            (lambda x: log_invgamma(x, 3.0, 5.0), 0.0, np.inf),
            (lambda x: log_halfnormal(x, 2.0), 0.0, np.inf),
        ],
    )
    def test_integrates_to_one(self, fn, lo, hi):
        total = quad(lambda x: np.exp(fn(x)), lo + 1e-12, hi, epsabs=1e-9, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_arcsine(1.0)
        with pytest.raises(ValueError):
            log_invgamma(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_halfnormal(-1.0, 1.0)
