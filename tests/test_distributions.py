import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.stats import chisquare, norm

from polarexp.distributions import (
    Ar1Params,
    SeKernelParams,
    ar1_loglik_grad,
    log_arcsine_grad,
    log_halfnormal_grad,
    log_invgamma_grad,
    log_matrix_normal_grad,
    sample_ar1,
    sample_macg,
    sample_uniform_stiefel,
    se_gram,
    se_kernel,
)
from polarexp.matcore import SpdMatrix

from stiefel_densities import log_macg_density


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
        sigma = SpdMatrix(np.eye(4))
        for _ in range(5):
            q = sample_uniform_stiefel(4, 2, rng)
            assert log_macg_density(q, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        a, b = 3.0, 0.5
        sigma = SpdMatrix(np.diag([a, b]))
        q = np.array([[1.0], [0.0]])
        assert log_macg_density(q, sigma) == pytest.approx(0.5 * np.log(a / b), abs=1e-12)

    def test_integrates_to_one_on_circle(self):
        sigma = SpdMatrix(np.diag([4.0, 1.0]))

        def dens(theta):
            q = np.array([[np.cos(theta)], [np.sin(theta)]])
            # uniform probability measure on the circle is d(theta)/(2 pi)
            return np.exp(log_macg_density(q, sigma)) / (2 * np.pi)

        total = quad(dens, 0, 2 * np.pi, epsabs=1e-10)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_scale_invariance_in_sigma(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        q = sample_uniform_stiefel(3, 2, rng)
        base = log_macg_density(q, SpdMatrix(sigma))
        for c in (0.2, 5.0, 123.0):
            val = log_macg_density(q, SpdMatrix(c * sigma))
            assert val == pytest.approx(base, abs=1e-10)


class TestMacgSampler:
    def test_identity_matches_uniform_sampler(self):
        sigma = SpdMatrix(np.eye(5))
        q1 = sample_macg(sigma, 2, np.random.default_rng(42))
        q2 = sample_uniform_stiefel(5, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(q1, q2)

    def test_sigma_scale_gives_identical_draws(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 4 * np.eye(4)
        q1 = sample_macg(SpdMatrix(sigma), 2, np.random.default_rng(9))
        q2 = sample_macg(
            SpdMatrix(9.0 * sigma), 2, np.random.default_rng(9)
        )
        np.testing.assert_allclose(q1, q2, atol=1e-12)

    def test_circle_histogram_vs_density(self):
        rng = np.random.default_rng(6)
        sigma = SpdMatrix(np.diag([4.0, 1.0]))
        n = 50_000
        angles = np.empty(n)
        for i in range(n):
            q = sample_macg(sigma, 1, rng)
            angles[i] = np.arctan2(q[1, 0], q[0, 0])
        edges = np.linspace(-np.pi, np.pi, 25)
        counts, _ = np.histogram(angles, bins=edges)

        def dens(theta):
            q = np.array([[np.cos(theta)], [np.sin(theta)]])
            return np.exp(log_macg_density(q, sigma)) / (2 * np.pi)

        expected = np.array(
            [quad(dens, lo, hi, epsabs=1e-10)[0] for lo, hi in zip(edges[:-1], edges[1:])]
        )
        stat = chisquare(counts, n * expected / expected.sum())
        assert stat.pvalue > 0.01

    def test_second_moment_p3_k2(self):
        rng = np.random.default_rng(7)
        sigma = SpdMatrix(np.eye(3))
        acc = np.zeros((3, 3))
        n = 50_000
        for _ in range(n):
            q = sample_macg(sigma, 2, rng)
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
        val = log_matrix_normal_grad(np.zeros((2, 1)), SpdMatrix(np.eye(2)))[0]
        assert val == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_separability(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 2))
        val = log_matrix_normal_grad(x, SpdMatrix(np.eye(3)))[0]
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
        assert log_matrix_normal_grad(x, SpdMatrix(sigma))[0] == pytest.approx(expected, abs=1e-10)

    @staticmethod
    def row_covariance(kind, rng):
        """None, or a random 4 x 4 SPD matrix for kind "spd"."""
        if kind is None:
            return None
        a = rng.standard_normal((4, 4))
        return SpdMatrix(a @ a.T + 4 * np.eye(4))

    @pytest.mark.parametrize("kind", [None, "spd"])
    def test_gradient_finite_difference(self, kind):
        rng = np.random.default_rng(11)
        sigma = self.row_covariance(kind, rng)
        x = rng.standard_normal((4, 3))
        h = 1e-6
        numeric = np.empty_like(x)
        for idx in np.ndindex(x.shape):
            e = np.zeros_like(x)
            e[idx] = h
            numeric[idx] = (
                log_matrix_normal_grad(x + e, sigma)[0] - log_matrix_normal_grad(x - e, sigma)[0]
            ) / (2 * h)
        np.testing.assert_allclose(log_matrix_normal_grad(x, sigma)[1], numeric, atol=1e-7)

    @pytest.mark.parametrize("kind", [None, "spd"])
    def test_stack_rows_equal_single_calls(self, kind):
        rng = np.random.default_rng(12)
        sigma = self.row_covariance(kind, rng)
        xs = rng.standard_normal((5, 4, 2))
        vals, grads = log_matrix_normal_grad(xs, sigma)
        assert vals.shape == (5,) and grads.shape == xs.shape
        for i in range(5):
            val, grad = log_matrix_normal_grad(xs[i], sigma)
            assert vals[i] == val
            np.testing.assert_array_equal(grads[i], grad)

    def test_none_is_bit_equal_to_identity(self):
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((3, 4, 2))
        for x in (xs, xs[0]):
            val, grad = log_matrix_normal_grad(x, None)
            val_eye, grad_eye = log_matrix_normal_grad(x, SpdMatrix(np.eye(4)))
            np.testing.assert_array_equal(val, val_eye)
            np.testing.assert_array_equal(grad, grad_eye)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            log_matrix_normal_grad(np.zeros((3, 2)), SpdMatrix(np.eye(4)))


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

    @pytest.mark.parametrize("grid", [[1.0, np.nan, 3.0], [1.0, 2.0, np.inf], [2.0, 1.0, 3.0]])
    def test_bad_grid_rejected(self, grid):
        # a NaN point used to pass and fail later in se_kernel, which advised a larger nugget
        with pytest.raises(ValueError, match="strictly increasing"):
            SeKernelParams(grid=grid, rho=2.0)

    @pytest.mark.parametrize("nugget", [{"nugget": 0.0}, {"nugget": 1e-9}, {}],
                             ids=["zero", "1e-9", "default"])
    def test_matrix_is_se_gram(self, nugget):
        grid = np.linspace(1.0, 365.0, 73)
        kern = se_kernel(SeKernelParams(grid=grid, rho=6.0, **nugget))
        sqdist = (grid[:, None] - grid[None, :]) ** 2
        np.testing.assert_array_equal(kern.mat, se_gram(sqdist, 6.0, **nugget))

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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(14)
        r = rng.standard_normal((3, 4, 6))
        phi, sig2 = np.array([0.2, -0.5, 0.9]), np.array([0.7, 1.0, 2.5])
        stacked = ar1_loglik_grad(r, phi, sig2)
        for i in range(3):
            for got, want in zip(stacked, ar1_loglik_grad(r[i], phi[i], sig2[i])):
                np.testing.assert_allclose(got[i], want, rtol=1e-13)

    def test_stack_rows_equal_lone_matrices_bit_for_bit(self):
        # a batched FPCA evaluation must equal each state's own, also at the
        # paper's 35 x 365 size
        rng = np.random.default_rng(15)
        r = rng.standard_normal((3, 35, 365))
        phi, sig2 = np.array([0.2, -0.5, 0.9]), np.array([0.7, 1.0, 2.5])
        stacked = ar1_loglik_grad(r, phi, sig2)
        for i in range(3):
            lone = ar1_loglik_grad(r[i : i + 1], phi[i : i + 1], sig2[i : i + 1])
            for got, want in zip(stacked, lone):
                np.testing.assert_array_equal(got[i], want[0])

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


# each prior with its extra arguments and its support
PRIORS = [
    (log_arcsine_grad, (), -1.0, 1.0),
    (log_invgamma_grad, (3.0, 5.0), 0.0, np.inf),
    (log_halfnormal_grad, (2.0,), 0.0, np.inf),
]
PRIOR_IDS = ["arcsine", "invgamma", "halfnormal"]


class TestScalarPriors:
    def test_arcsine_at_zero(self):
        val, deriv = log_arcsine_grad(0.0)
        assert val == pytest.approx(-np.log(np.pi), abs=1e-14)
        assert deriv == 0.0

    def test_invgamma_mode_stationary(self):
        alpha, beta = 3.0, 5.0
        mode = beta / (alpha + 1)
        assert log_invgamma_grad(mode, alpha, beta)[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fn, args, lo, hi", PRIORS, ids=PRIOR_IDS)
    def test_integrates_to_one(self, fn, args, lo, hi):
        total = quad(lambda x: np.exp(fn(x, *args)[0]), lo + 1e-12, hi, epsabs=1e-9, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("fn, args, lo, hi", PRIORS, ids=PRIOR_IDS)
    def test_derivative_matches_central_differences(self, fn, args, lo, hi):
        inside = [-0.93, -0.4, 0.05, 0.6, 0.97] if lo < 0 else [0.02, 0.3, 1.7, 6.0, 40.0]
        x = np.array(inside)
        h = 1e-6 * np.maximum(np.abs(x), 1e-2)
        numeric = (fn(x + h, *args)[0] - fn(x - h, *args)[0]) / (2 * h)
        np.testing.assert_allclose(fn(x, *args)[1], numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("fn, args, lo, hi", PRIORS, ids=PRIOR_IDS)
    def test_broadcasts_elementwise(self, fn, args, lo, hi):
        x = np.array([[0.1, 0.5, 0.9], [0.2, 0.4, 0.8]])
        val, deriv = fn(x, *args)
        assert val.shape == deriv.shape == x.shape
        for idx in np.ndindex(x.shape):
            one = fn(x[idx], *args)
            assert one[0] == val[idx] and one[1] == deriv[idx]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_arcsine_grad(1.0)
        with pytest.raises(ValueError):
            log_invgamma_grad(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_halfnormal_grad(-1.0, 1.0)
        # one point outside the support fails the whole batch
        with pytest.raises(ValueError, match="-0.5"):
            log_halfnormal_grad(np.array([1.0, -0.5, 2.0]), 1.0)
