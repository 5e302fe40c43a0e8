import numpy as np
import pytest
from scipy.integrate import quad

from polarexp.expansion import check_gradient
from polarexp.models import (
    FpcaData,
    FpcaHyper,
    align_fpca_draws,
    center_data,
    fpca_empirical_bayes,
    fpca_point_estimate_v,
    fpca_target,
    invgamma_from_moments,
    pack_fpca_params,
    simulate_fpca,
    unpack_fpca_params,
)
from polarexp.distributions import ar1_loglik_grad
from polarexp.models.fpca import DEFAULT_RHO_MEAN


def random_stiefel(rng, p, k):
    return np.linalg.qr(rng.standard_normal((p, k)))[0]


class TestCentering:
    def test_double_centering(self):
        rng = np.random.default_rng(0)
        y_raw = rng.standard_normal((6, 9)) + 3.0
        data = center_data(y_raw)
        assert np.max(np.abs(data.y.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(data.y.mean(axis=1))) <= 1e-12
        np.testing.assert_array_equal(data.y_raw, y_raw)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        data = center_data(rng.standard_normal((5, 7)))
        again = center_data(data.y)
        np.testing.assert_allclose(again.y, data.y, atol=1e-12)

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            FpcaData(y_raw=np.ones((3, 4)), y=np.ones((3, 4)), grid=np.arange(4.0))

    def test_grid_length_checked(self):
        y = center_data(np.random.default_rng(2).standard_normal((4, 6))).y
        with pytest.raises(ValueError, match="grid"):
            FpcaData(y_raw=y, y=y, grid=np.arange(5.0))


class TestEmpiricalBayes:
    def test_rho_prior_moments(self):
        # alpha, beta must reproduce the requested mean/sd of rho under
        # 1/rho ~ Gamma; verify by quadrature against the implied density
        alpha, beta = invgamma_from_moments(DEFAULT_RHO_MEAN, 5.0)
        assert alpha == pytest.approx(35.75, abs=0.01)
        assert beta == pytest.approx(1009.4, abs=0.5)

        from scipy.stats import invgamma as ig

        mean = ig.mean(alpha, scale=beta)
        sd = ig.std(alpha, scale=beta)
        assert mean == pytest.approx(DEFAULT_RHO_MEAN, rel=1e-10)
        assert sd == pytest.approx(5.0, rel=1e-10)

    def test_rho_density_integrates(self):
        alpha, beta = invgamma_from_moments(DEFAULT_RHO_MEAN, 5.0)
        from scipy.stats import invgamma as ig

        total = quad(lambda r: ig.pdf(r, alpha, scale=beta), 1e-6, 200.0)[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_tau2_trace_identity(self):
        # a rank-k matrix has tau2 = sum of squared singular values / k
        rng = np.random.default_rng(3)
        n, p, k = 8, 12, 2
        u = random_stiefel(rng, n, k)
        v = random_stiefel(rng, p, k)
        d = np.array([4.0, 2.0])
        y = center_data((u * d) @ v.T + 0.01 * rng.standard_normal((n, p))).y
        hyper = fpca_empirical_bayes(y, k)
        svals = np.linalg.svd(y, compute_uv=False)
        assert hyper.tau2 == pytest.approx(np.sum(svals[:k] ** 2) / k, rel=1e-10)

    def test_s2_from_residual_variance(self):
        rng = np.random.default_rng(4)
        y = center_data(rng.standard_normal((10, 14))).y
        hyper = fpca_empirical_bayes(y, 2)
        u, d, vt = np.linalg.svd(y, full_matrices=False)
        resid = y - (u[:, :2] * d[:2]) @ vt[:2]
        assert hyper.s2 == pytest.approx(3.0 * np.var(resid, ddof=1), rel=1e-10)

    def test_noiseless_floor_warns(self):
        rng = np.random.default_rng(5)
        u = random_stiefel(rng, 6, 2)
        v = random_stiefel(rng, 8, 2)
        y = center_data((u * np.array([3.0, 1.0])) @ v.T).y
        with pytest.warns(UserWarning, match="floor"):
            hyper = fpca_empirical_bayes(y, 2)
        assert hyper.s2 > 0

    def test_k_bound(self):
        with pytest.raises(ValueError):
            fpca_empirical_bayes(np.zeros((4, 6)), 4)


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        n, p, k = 4, 6, 2
        x_u = rng.standard_normal((n, k))
        x_v = rng.standard_normal((p, k))
        theta = pack_fpca_params(x_u, x_v, [2.0, 0.5], 1.3, 0.4, 29.0)
        xu2, xv2, eta_d, eta_s, eta_p, eta_r = unpack_fpca_params(theta, n, p, k)
        np.testing.assert_array_equal(xu2, x_u)
        np.testing.assert_array_equal(xv2, x_v)
        np.testing.assert_allclose(np.exp(eta_d), [2.0, 0.5], rtol=1e-14)
        assert np.exp(eta_s) == pytest.approx(1.3, rel=1e-14)
        assert np.tanh(eta_p) == pytest.approx(0.4, rel=1e-14)
        assert np.exp(eta_r) == pytest.approx(29.0, rel=1e-14)

    def test_size_check(self):
        with pytest.raises(ValueError):
            unpack_fpca_params(np.zeros(10), 4, 6, 2)


class TestAr1Grad:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((3, 8))
        phi, sig2 = 0.6, 1.4
        ll, g_r, d_sig2, d_phi = ar1_loglik_grad(r, phi, sig2)
        h = 1e-6
        assert d_sig2 == pytest.approx(
            (ar1_loglik_grad(r, phi, sig2 + h)[0] - ar1_loglik_grad(r, phi, sig2 - h)[0])
            / (2 * h),
            rel=1e-5,
        )
        assert d_phi == pytest.approx(
            (ar1_loglik_grad(r, phi + h, sig2)[0] - ar1_loglik_grad(r, phi - h, sig2)[0])
            / (2 * h),
            rel=1e-5,
        )
        for idx in [(0, 0), (1, 3), (2, 7)]:
            e = np.zeros_like(r)
            e[idx] = h
            fd = (ar1_loglik_grad(r + e, phi, sig2)[0] - ar1_loglik_grad(r - e, phi, sig2)[0]) / (
                2 * h
            )
            assert g_r[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestTarget:
    @staticmethod
    def make_target(seed=8, n=6, p=16, k=2):
        rng = np.random.default_rng(seed)
        grid = np.linspace(1.0, 365.0, p)
        data = simulate_fpca(n, grid, k, [5.0, 2.5], 0.5, 0.3, 29.0, rng)
        hyper = fpca_empirical_bayes(data.y, k)
        return fpca_target(data, hyper), rng

    def test_gradient_finite_difference(self):
        target, rng = self.make_target()
        for _ in range(5):
            theta = 0.5 * rng.standard_normal(target.dim)
            assert check_gradient(target, theta).max_rel_error <= 1e-5

    def test_sign_permutation_invariance(self):
        target, rng = self.make_target(seed=9)
        n, p, k = 6, 16, 2
        theta = 0.5 * rng.standard_normal(target.dim)
        base = target.log_density(theta)
        x_u, x_v, eta_d, es, ep, er = unpack_fpca_params(theta, n, p, k)
        # swap both columns and flip a joint sign: U D V^T is unchanged
        perm = [1, 0]
        s = np.array([-1.0, 1.0])
        theta2 = np.concatenate(
            [
                (x_u[:, perm] * s).ravel(),
                (x_v[:, perm] * s).ravel(),
                eta_d[perm],
                [es, ep, er],
            ]
        )
        assert target.log_density(theta2) == pytest.approx(base, abs=1e-10)

    def test_finite_at_dispersed_points(self):
        target, rng = self.make_target(seed=10)
        for scale in (0.1, 1.0, 2.0):
            theta = scale * rng.standard_normal(target.dim)
            val, grad = target.value_and_grad(theta)
            assert np.isfinite(val)
            assert np.all(np.isfinite(grad))


class TestSimulator:
    def test_shapes_and_centering(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(1.0, 365.0, 20)
        data = simulate_fpca(7, grid, 2, [4.0, 2.0], 0.3, 0.5, 30.0, rng)
        assert data.y.shape == (7, 20)
        assert np.max(np.abs(data.y.mean(axis=0))) <= 1e-10

    def test_noiseless_rank(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(1.0, 365.0, 15)
        data = simulate_fpca(6, grid, 2, [4.0, 2.0], 0.0, 0.0, 30.0, rng)
        svals = np.linalg.svd(data.y_raw, compute_uv=False)
        assert svals[2] <= 1e-10 * svals[0]

    def test_smooth_loadings_have_few_zero_crossings(self):
        # long length scale -> slowly varying V columns
        rng = np.random.default_rng(13)
        grid = np.linspace(1.0, 365.0, 73)
        crossings = []
        for _ in range(20):
            data = simulate_fpca(6, grid, 1, [5.0], 0.0, 0.0, 60.0, rng)
            v = np.linalg.svd(data.y_raw, full_matrices=False)[2][0]
            crossings.append(np.sum(np.diff(np.sign(v)) != 0))
        # rice-type rate T / (2 pi rho) ~ 365 / (2 pi 60) ~ 1
        assert np.mean(crossings) <= 4


class TestPointEstimateAndAlignment:
    def test_point_estimate_recovers_exact_factors(self):
        rng = np.random.default_rng(14)
        n, p, k = 8, 12, 2
        u = random_stiefel(rng, n, k)
        v = random_stiefel(rng, p, k)
        fit = (u * np.array([5.0, 2.0])) @ v.T
        v_est = fpca_point_estimate_v(fit, k)
        # same subspace: principal angles all ~ 0
        s = np.linalg.svd(v_est.T @ v, compute_uv=False)
        assert np.min(s) >= 1.0 - 1e-10

    def test_alignment_preserves_fit(self):
        rng = np.random.default_rng(15)
        t, n, p, k = 12, 5, 9, 2
        u_draws = np.array([random_stiefel(rng, n, k) for _ in range(t)])
        v_draws = np.array([random_stiefel(rng, p, k) for _ in range(t)])
        d_draws = 1.0 + rng.random((t, k)) * 4.0
        u_out, d_out, v_out = align_fpca_draws(u_draws, d_draws, v_draws)
        for i in range(t):
            before = (u_draws[i] * d_draws[i]) @ v_draws[i].T
            after = (u_out[i] * d_out[i]) @ v_out[i].T
            np.testing.assert_allclose(after, before, atol=1e-12)

    def test_alignment_resolves_scrambling(self):
        rng = np.random.default_rng(16)
        t, n, p, k = 20, 5, 9, 3
        base_u = random_stiefel(rng, n, k)
        base_v = random_stiefel(rng, p, k)
        base_d = np.array([6.0, 3.0, 1.0])
        u_draws = np.empty((t, n, k))
        v_draws = np.empty((t, p, k))
        d_draws = np.empty((t, k))
        for i in range(t):
            perm = rng.permutation(k)
            sign = rng.choice([-1.0, 1.0], size=k)
            u_draws[i] = base_u[:, perm] * sign
            v_draws[i] = base_v[:, perm] * sign
            d_draws[i] = base_d[perm]
        u_out, d_out, v_out = align_fpca_draws(
            u_draws, d_draws, v_draws, reference=base_v
        )
        for i in range(t):
            np.testing.assert_allclose(v_out[i], base_v, atol=1e-12)
            np.testing.assert_allclose(u_out[i], base_u, atol=1e-12)
            np.testing.assert_allclose(d_out[i], base_d, atol=1e-12)
