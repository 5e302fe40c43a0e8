import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from polarexp.expansion import check_gradient
from polarexp.hmc import leapfrog
from polarexp.models import (
    FpcaData,
    align_fpca_draws,
    center_data,
    fpca_basis,
    fpca_empirical_bayes,
    fpca_initial_points,
    fpca_point_estimate_v,
    fpca_scalars,
    fpca_target,
    invgamma_from_moments,
    pack_fpca_params,
    simulate_fpca,
    unpack_fpca_params,
)
from polarexp.diagnostics import split_rhat
from polarexp.distributions import ar1_loglik_grad, se_gram
from polarexp.hmc import HmcConfig, run_chains
from polarexp.matcore import InputError, match_columns
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

    def test_large_offset_accepted(self):
        # rounding at 1e9 leaves centred means of about 1e-7, above the unit-scale 1e-8
        rng = np.random.default_rng(3)
        y_raw = rng.standard_normal((35, 73)) + 1e9
        data = center_data(y_raw)
        assert np.max(np.abs(data.y.mean(axis=0))) > 1e-8
        again = center_data(y_raw - 1e9)
        np.testing.assert_allclose(data.y, again.y, atol=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, bad):
        y_raw = np.random.default_rng(7).standard_normal((6, 20))
        y_raw[2, 11] = bad
        with pytest.raises(InputError, match="finite numbers"):
            center_data(y_raw)

    def test_grid_length_checked(self):
        y_raw = np.random.default_rng(2).standard_normal((4, 6))
        with pytest.raises(InputError, match="grid"):
            FpcaData(y_raw=y_raw, grid=np.arange(5.0))

    @pytest.mark.parametrize(
        "y_raw",
        [np.full((3, 5), 0.1), np.repeat([[0.1], [0.7], [-2.3]], 5, axis=1),
         np.repeat(np.random.default_rng(4).standard_normal((1, 8)) + 1e9, 5, axis=0),
         np.random.default_rng(5).standard_normal((6, 1))
         + np.random.default_rng(6).standard_normal((1, 24))],
        ids=["constant", "constant-rows", "constant-columns", "additive"],
    )
    def test_no_variation_rejected(self, y_raw):
        # rounding leaves each of these a few eps off 0 after centering, not exactly 0
        with pytest.raises(InputError, match="no variation"):
            center_data(y_raw)

    @pytest.mark.parametrize(
        "grid",
        [np.arange(6.0, 0.0, -1.0), np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0]),
         np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0]), np.arange(6.0).reshape(1, 6)],
        ids=["reversed", "repeated", "nan", "2-d"],
    )
    def test_bad_grid_rejected(self, grid):
        # the kernel is built from the grid without further checks, so a grid
        # that is not strictly increasing must fail here, before any sampling
        y_raw = np.random.default_rng(2).standard_normal((4, 6))
        with pytest.raises(ValueError, match="grid"):
            center_data(y_raw, grid=grid)


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
        y = center_data(np.random.default_rng(6).standard_normal((4, 6))).y
        for k in (0, 4):
            with pytest.raises(InputError, match="1 <= k < min"):
                fpca_empirical_bayes(y, k)


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        n, m, k = 4, 6, 2
        x_u = rng.standard_normal((n, k))
        z = rng.standard_normal((m, k))
        theta = pack_fpca_params(x_u, z, [2.0, 0.5], 1.3, 0.4, 29.0)
        xu2, z2, eta_d, eta_s, eta_p, eta_r = unpack_fpca_params(theta, n, m, k)
        np.testing.assert_array_equal(xu2, x_u)
        np.testing.assert_array_equal(z2, z)
        np.testing.assert_allclose(np.exp(eta_d), [2.0, 0.5], rtol=1e-14)
        assert np.exp(eta_s) == pytest.approx(1.3, rel=1e-14)
        assert np.tanh(eta_p) == pytest.approx(0.4, rel=1e-14)
        assert np.exp(eta_r) == pytest.approx(29.0, rel=1e-14)

    def test_size_check(self):
        with pytest.raises(ValueError):
            unpack_fpca_params(np.zeros(10), 4, 6, 2)

    def test_batched_round_trip_and_rows(self):
        rng = np.random.default_rng(26)
        n, m, k = 4, 6, 2
        theta = rng.standard_normal((2, 3, n * k + m * k + k + 3))
        blocks = unpack_fpca_params(theta, n, m, k)
        assert [b.shape for b in blocks] == [(2, 3, n, k), (2, 3, m, k), (2, 3, k),
                                             (2, 3), (2, 3), (2, 3)]
        for idx in np.ndindex(2, 3):
            for got, want in zip(blocks, unpack_fpca_params(theta[idx], n, m, k)):
                np.testing.assert_array_equal(got[idx], want)
        again = pack_fpca_params(blocks[0], blocks[1], *fpca_scalars(*blocks[2:]))
        np.testing.assert_allclose(again, theta, rtol=1e-14, atol=1e-14)


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
    def make_model(seed=8, n=6, p=16, k=2):
        rng = np.random.default_rng(seed)
        grid = np.linspace(1.0, 365.0, p)
        data = simulate_fpca(n, grid, k, [5.0, 2.5], 0.5, 0.3, 29.0, rng)
        return data, fpca_empirical_bayes(data.y, k), rng

    @staticmethod
    def make_target(seed=8):
        data, hyper, rng = TestTarget.make_model(seed)
        return fpca_target(data, hyper), rng

    def test_gradient_finite_difference(self):
        target, rng = self.make_target()
        for _ in range(5):
            theta = 0.5 * rng.standard_normal(target.dim)
            assert check_gradient(target, theta).max_rel_error <= 1e-5

    def test_overflowing_trajectory_diverges(self):
        # chain 1's X blocks overflow to inf on its first position update while
        # its scalars stay put; it diverges, and chain 0 carries on
        target, rng = self.make_target()
        x_end = target.dim - 2 - 3  # the X_U and Z blocks precede k = 2 and 3 scalars
        x0 = 0.5 * rng.standard_normal((2, target.dim))
        _, g0 = target.value_and_grad(x0)
        m0 = np.zeros_like(x0)
        m0[1, :x_end] = 1e308
        m0[1, x_end:] = -g0[1, x_end:]  # the half step cancels it
        with np.errstate(over="ignore"):
            _, _, val, _ = leapfrog(
                target, x0, m0, g0, np.array([0.01, 2.0]), 1, np.ones_like(x0)
            )
        assert np.isfinite(val[0]) and np.isnan(val[1])

    @staticmethod
    def make_73_day_grid():
        # 35 stations on every fifth day of a year: the benchmark's fpca-p73 shape
        rng = np.random.default_rng(19)
        grid = np.arange(1.0, 366.0, 5.0)
        data = simulate_fpca(35, grid, 3, [40.0, 25.0, 12.0], 1.0, 0.5, 29.0, rng)
        return data, fpca_empirical_bayes(data.y, 3), rng

    def test_gradient_finite_difference_73_day_grid(self):
        data, hyper, rng = self.make_73_day_grid()
        target = fpca_target(data, hyper)
        for _ in range(4):
            theta = 0.5 * rng.standard_normal(target.dim)
            assert check_gradient(target, theta).max_rel_error <= 1e-5

    def test_gradient_at_initial_point(self):
        data, hyper, _ = self.make_73_day_grid()
        target = fpca_target(data, hyper)
        assert check_gradient(target, fpca_initial_points(data, hyper, 4, 3)[0]).ok

    def test_sign_permutation_invariance(self):
        data, hyper, rng = self.make_model(seed=9)
        target = fpca_target(data, hyper)
        theta = 0.5 * rng.standard_normal(target.dim)
        base = target.log_density(theta)
        x_u, z, eta_d, es, ep, er = unpack_fpca_params(
            theta, data.n, fpca_basis(data.grid, hyper).m, hyper.k)
        # swap both columns and flip a joint sign: U D V^T is unchanged, and
        # X_V = Phi diag(sqrt S) Z permutes and flips with Z's columns
        perm = [1, 0]
        s = np.array([-1.0, 1.0])
        theta2 = pack_fpca_params(
            x_u[:, perm] * s, z[:, perm] * s, *fpca_scalars(eta_d[perm], es, ep, er)
        )
        assert target.log_density(theta2) == pytest.approx(base, abs=1e-10)

    def test_finite_at_dispersed_points(self):
        target, rng = self.make_target(seed=10)
        for scale in (0.1, 1.0, 2.0):
            theta = scale * rng.standard_normal(target.dim)
            val, grad = target.value_and_grad(theta)
            assert np.isfinite(val)
            assert np.all(np.isfinite(grad))


class TestKernelTerms:
    """The V block's reduced-rank kernel against the dense K(rho) as an oracle."""

    RHOS = (None, 29.0, 60.0)  # None: the rho_lo the rank is sized at

    @staticmethod
    def basis_error(grid, rho):
        """Largest entry of |A A^T - K(rho)|, A = x_v(I) the Z -> X_V map, K nugget-free.

        X_V = A Z with Z ~ N(0, I) has the row covariance A A^T = Phi diag(S_rho) Phi^T.
        """
        data = simulate_fpca(6, grid, 2, [5.0, 2.5], 0.5, 0.3, 29.0, np.random.default_rng(21))
        basis = fpca_basis(grid, fpca_empirical_bayes(data.y, 2))
        rho = basis.rho_lo if rho is None else rho
        a = basis.x_v(np.eye(basis.m), rho)
        dense = se_gram((grid[:, None] - grid[None, :]) ** 2, rho, 0.0)
        return float(np.max(np.abs(a @ a.T - dense)))

    @staticmethod
    def tolerance(grid, rho):
        # the truncation is sized to 1e-8 at rho_lo (None). At large rho the
        # zero boundary dominates: a grid end's first mirror image lies a range
        # L away, so the error is exp(-L^2 / (2 rho^2)), 1.5e-8 at rho = 60 on
        # the 73-day grid, a rho above the prior's 1 - 4e-5 quantile
        span = grid[-1] - grid[0]
        return 1e-8 if rho is None or rho <= 50.0 else 1.05 * np.exp(-span**2 / (2 * rho**2))

    def test_73_day_grid_matches_reference(self):
        grid = np.arange(1.0, 366.0, 5.0)
        for rho in self.RHOS:
            assert self.basis_error(grid, rho) <= self.tolerance(grid, rho), rho

    def test_365_day_grid_matches_reference(self):
        grid = np.arange(1.0, 366.0)
        for rho in self.RHOS:
            assert self.basis_error(grid, rho) <= self.tolerance(grid, rho), rho

    def test_rank_rule(self):
        # rho_lo is the prior's 1e-3 quantile: 17.7 at the default rho prior,
        # where 79 frequencies cover the 73-day grid and 80 the 365-day grid
        data, hyper, _ = TestTarget.make_73_day_grid()
        basis = fpca_basis(data.grid, hyper)
        assert basis.rho_lo == pytest.approx(17.675, abs=1e-3)
        from scipy.stats import invgamma as ig

        assert ig.cdf(basis.rho_lo, hyper.alpha, scale=hyper.beta) == pytest.approx(1e-3)
        assert basis.m == 79
        assert fpca_basis(np.arange(1.0, 366.0), hyper).m == 80

    def test_rank_at_least_k_on_short_grid(self):
        # 12 days need 3 frequencies at rho_lo; the rank stays at k = 5 all the same
        rng = np.random.default_rng(22)
        grid = np.arange(1.0, 13.0)
        data = simulate_fpca(8, grid, 5, [9.0, 7.0, 5.0, 4.0, 3.0], 0.3, 0.2, 3.0, rng)
        hyper = fpca_empirical_bayes(data.y, 5)
        assert fpca_basis(grid, hyper).m == 5
        assert fpca_basis(grid, fpca_empirical_bayes(data.y, 2)).m == 3

    def test_no_factorisation(self, monkeypatch):
        # one 2-row gradient: Phi products, elementwise terms and the thin SVDs
        # of the polar factors; no Cholesky, LU, inverse or determinant
        data, hyper, _ = TestTarget.make_73_day_grid()
        target = fpca_target(data, hyper)
        theta = np.array(fpca_initial_points(data, hyper, 2, 4))
        import scipy.linalg
        import scipy.linalg.lapack

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called in the gradient")

            return call

        for name in ("cholesky", "solve", "inv", "pinv", "det", "slogdet", "lstsq", "eigh"):
            monkeypatch.setattr(np.linalg, name, forbidden(f"np.linalg.{name}"))
        for name in ("cholesky", "cho_factor", "cho_solve", "lu_factor", "solve", "inv"):
            monkeypatch.setattr(scipy.linalg, name, forbidden(f"scipy.linalg.{name}"))
        for name in ("dpotrf", "dpotrs", "dpotri", "dgetrf", "dgesv", "dposv"):
            monkeypatch.setattr(scipy.linalg.lapack, name, forbidden(f"lapack.{name}"))
        val, grad = target.value_and_grad(theta)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(grad))

class TestRhoRecovery:
    def test_two_chains_agree_on_the_true_rho(self):
        # the centred prior left chains stuck near rho = 9-13 on year-long grids
        # (R-hat alone misses two chains stuck at the same wrong rho); a truth
        # below the prior mean of 29 must pull both chains down to it
        rho_true = 23.0
        rng = np.random.default_rng(3)
        grid = np.arange(1.0, 366.0, 15.0)
        data = simulate_fpca(10, grid, 2, [15.0, 10.0], 1.0, 0.3, rho_true, rng)
        hyper = fpca_empirical_bayes(data.y, 2)
        cfg = HmcConfig(chains=2, warmup=500, samples=1000, seed=3)
        outs = run_chains(fpca_target(data, hyper), cfg,
                          init=fpca_initial_points(data, hyper, cfg.chains, cfg.seed))
        rho = np.exp(np.array([o.draws[:, -1] for o in outs]))
        assert split_rhat(rho) <= 1.05
        sd = np.std(rho, ddof=1)
        for chain_mean in rho.mean(axis=1):
            assert abs(chain_mean - rho_true) <= 3.0 * sd


class TestBatch:
    def test_rows_equal_single_calls(self):
        target, rng = TestTarget.make_target(seed=17)
        theta = 0.5 * rng.standard_normal((3, target.dim))
        val, grad = target.value_and_grad(theta)
        assert val.shape == (3,) and grad.shape == (3, target.dim)
        for i in range(3):
            v1, g1 = target.value_and_grad(theta[i])
            assert isinstance(v1, float)
            assert v1 == pytest.approx(val[i], rel=1e-12)
            np.testing.assert_allclose(g1, grad[i], rtol=1e-12, atol=1e-12)

    def test_phi_overflow_is_minus_inf(self):
        # at atanh(phi) = 19.5, tanh rounds to 1 and the AR(1) innovation
        # variance sigma2 (1 - phi^2) is zero
        target, rng = TestTarget.make_target(seed=18)
        theta = 0.5 * rng.standard_normal((3, target.dim))
        theta[1, -2] = 19.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, grad = target.value_and_grad(theta[1])
            assert val == -np.inf and not np.any(grad)
            val, grad = target.value_and_grad(theta)
        assert val[1] == -np.inf and not np.any(grad[1])
        for i in (0, 2):
            assert np.isfinite(val[i])
            assert val[i] == target.log_density(theta[i])
            # a row in support keeps its own gradient beside one out of support
            np.testing.assert_array_equal(grad[i], target.value_and_grad(theta[i])[1])


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
        d_out, v_out = align_fpca_draws(d_draws, v_draws, reference=v_draws[0])
        perm, sign = match_columns(v_draws, v_draws[0])
        for i in range(t):
            np.testing.assert_array_equal(v_out[i], v_draws[i][:, perm[i]] * sign[i])
            u_out = u_draws[i][:, perm[i]] * sign[i]
            before = (u_draws[i] * d_draws[i]) @ v_draws[i].T
            after = (u_out * d_out[i]) @ v_out[i].T
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
        d_out, v_out = align_fpca_draws(d_draws, v_draws, reference=base_v)
        perm, sign = match_columns(v_draws, base_v)
        for i in range(t):
            np.testing.assert_allclose(v_out[i], base_v, atol=1e-12)
            np.testing.assert_allclose(u_draws[i][:, perm[i]] * sign[i], base_u, atol=1e-12)
            np.testing.assert_allclose(d_out[i], base_d, atol=1e-12)
