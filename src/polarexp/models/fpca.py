"""Bayesian functional PCA with a smoothness-inducing MACG prior.

Model: the doubly centered n x p data matrix satisfies
Y = U D V^T + sigma E Omega(phi)^{1/2}, with U (n x k) and V (p x k)
orthonormal, D = diag(d) positive, and the noise rows independent AR(1)
series across the day grid. V gets a MACG(K(rho)) prior with a
squared-exponential kernel, U a uniform prior, and the scalars get
inverse-gamma / arcsine / half-normal priors with empirical-Bayes
hyperparameters.

The flat parameter vector is
[vec(X_U), vec(X_V), log d_1..k, log sigma2, atanh phi, log rho],
length n*k + p*k + k + 3; constrained scalars enter the posterior with
their change-of-variable Jacobians so the HMC engine sees an
unconstrained density.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ..distributions import (
    LOG_2PI,
    Ar1Params,
    MacgParams,
    SeKernelParams,
    ar1_loglik_grad,
    sample_ar1,
    sample_macg,
    sample_uniform_stiefel,
    se_kernel,
)
from ..expansion import UnconstrainedTarget
from ..matcore import match_columns, polar_decompose, thin_svd

DEFAULT_RHO_MEAN = 365.0 / (4.0 * np.pi)
DEFAULT_RHO_SD = 5.0


@dataclass(frozen=True)
class FpcaData:
    """Raw and doubly centered station-by-day matrices plus the day grid."""

    y_raw: np.ndarray
    y: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        n, p = y.shape
        if np.max(np.abs(y.mean(axis=0))) > 1e-8 or np.max(np.abs(y.mean(axis=1))) > 1e-8:
            raise ValueError("y must be doubly centered (row and column means zero)")
        if np.asarray(self.grid).size != p:
            raise ValueError("grid length must match the number of columns")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]


def center_data(y_raw, grid=None) -> FpcaData:
    """Subtract row and column means (double centering) from the raw matrix."""
    y_raw = np.asarray(y_raw, dtype=float)
    n, p = y_raw.shape
    row = y_raw.mean(axis=1, keepdims=True)
    col = y_raw.mean(axis=0, keepdims=True)
    y = y_raw - row - col + y_raw.mean()
    if grid is None:
        grid = np.arange(1.0, p + 1.0)
    return FpcaData(y_raw=y_raw, y=y, grid=np.asarray(grid, dtype=float))


@dataclass(frozen=True)
class FpcaHyper:
    """Hyperparameters; alpha/beta are the Gamma parameters for 1/rho."""

    k: int = 3
    nu: float = 1.0
    s2: float = 1.0
    tau2: float = 1.0
    alpha: float = 35.75
    beta: float = 1009.4
    nugget: float = 1e-6

    def __post_init__(self):
        for name in ("nu", "s2", "tau2", "alpha", "beta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def invgamma_from_moments(mean: float, sd: float):
    """Shape/scale of an inverse gamma with the given mean and sd."""
    var = sd * sd
    alpha = mean * mean / var + 2.0
    beta = mean * (alpha - 1.0)
    return alpha, beta


def fpca_empirical_bayes(
    y,
    k: int,
    rho_mean: float = DEFAULT_RHO_MEAN,
    rho_sd: float = DEFAULT_RHO_SD,
    nugget: float = 1e-6,
) -> FpcaHyper:
    """Empirical-Bayes hyperparameters from the centered data matrix.

    The rank-k truncated SVD Yhat sets the residual variance (prior mode of
    sigma2 via nu=1, s2 = 3 * sigma2_hat) and tau2 = Tr(Yhat^T Yhat)/k so the
    prior expectation of sum d_i^2 matches the captured energy. The
    rho prior solves the inverse-gamma moment equations for the given
    mean and sd.
    """
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    if k >= min(n, p):
        raise ValueError(f"need k < min(n, p) = {min(n, p)}, got {k}")
    u, d, v = thin_svd(y)
    yhat = (u[:, :k] * d[:k]) @ v[:, :k].T
    resid = y - yhat
    sigma2_hat = float(np.var(resid, ddof=1))
    if sigma2_hat < 1e-8:
        warnings.warn(
            "residual variance is (near) zero; flooring s2 at 1e-8", stacklevel=2
        )
        sigma2_hat = max(sigma2_hat, 1e-8 / 3.0)
    tau2 = float(np.sum(d[:k] ** 2)) / k
    alpha, beta = invgamma_from_moments(rho_mean, rho_sd)
    return FpcaHyper(
        k=k, nu=1.0, s2=3.0 * sigma2_hat, tau2=tau2, alpha=alpha, beta=beta, nugget=nugget
    )


def unpack_fpca_params(theta, n: int, p: int, k: int):
    """Split the flat vector into (x_u, x_v, eta_d, eta_sigma, eta_phi, eta_rho)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != n * k + p * k + k + 3:
        raise ValueError(f"expected {n * k + p * k + k + 3} parameters, got {theta.size}")
    x_u = theta[: n * k].reshape(n, k)
    x_v = theta[n * k : n * k + p * k].reshape(p, k)
    eta_d = theta[n * k + p * k : n * k + p * k + k]
    eta_sigma, eta_phi, eta_rho = theta[-3:]
    return x_u, x_v, eta_d, float(eta_sigma), float(eta_phi), float(eta_rho)


def pack_fpca_params(x_u, x_v, d, sigma2, phi, rho):
    """Inverse of unpack: natural-scale scalars go through their transforms."""
    return np.concatenate(
        [
            np.ravel(x_u),
            np.ravel(x_v),
            np.log(np.asarray(d, dtype=float)),
            [np.log(sigma2), np.arctanh(phi), np.log(rho)],
        ]
    )


def fpca_target(data: FpcaData, hyper: FpcaHyper) -> UnconstrainedTarget:
    """Expanded log posterior over the flat FPCA parameter vector.

    Each evaluation factors K(rho) afresh (it depends on the state); a
    Cholesky failure at extreme rho surfaces as an ill-conditioning error,
    which the HMC engine treats as a divergence.
    """
    y = data.y
    grid = np.asarray(data.grid, dtype=float)
    n, p = y.shape
    k = hyper.k
    a_sig = hyper.nu / 2.0
    b_sig = hyper.nu * hyper.s2 / 2.0
    alpha, beta, tau2, nugget = hyper.alpha, hyper.beta, hyper.tau2, hyper.nugget
    sqdist = (grid[:, None] - grid[None, :]) ** 2
    dim = n * k + p * k + k + 3

    def value_and_grad(theta):
        x_u, x_v, eta_d, eta_sigma, eta_phi, eta_rho = unpack_fpca_params(theta, n, p, k)
        # far outside any plausible scale the exp/tanh transforms overflow or
        # underflow; report -inf so the sampler treats the state as divergent
        if max(abs(eta_sigma), abs(eta_rho), float(np.max(np.abs(eta_d)))) > 40.0:
            return -np.inf, np.zeros(dim)
        d_vec = np.exp(eta_d)
        sig2 = float(np.exp(eta_sigma))
        phi = float(np.tanh(eta_phi))
        rho = float(np.exp(eta_rho))
        omphi2 = 1.0 - phi * phi

        polar_u = polar_decompose(x_u)
        polar_v = polar_decompose(x_v)
        u, v = polar_u.q, polar_v.q
        r = y - (u * d_vec) @ v.T

        ll, g_r, d_sig2, d_phi = ar1_loglik_grad(r, phi, sig2)

        kern = se_kernel(SeKernelParams(grid=grid, rho=rho, nugget=nugget))
        kinv_xv = kern.solve(x_v)
        lmn_v = (
            -0.5 * p * k * LOG_2PI
            - 0.5 * k * kern.logdet()
            - 0.5 * float(np.sum(x_v * kinv_xv))
        )
        lmn_u = -0.5 * n * k * LOG_2PI - 0.5 * float(np.sum(x_u * x_u))

        lp_rho = alpha * np.log(beta) - gammaln(alpha) - (alpha + 1) * np.log(rho) - beta / rho
        lp_phi = -np.log(np.pi) - 0.5 * np.log(omphi2)
        lp_sig = (
            a_sig * np.log(b_sig)
            - gammaln(a_sig)
            - (a_sig + 1) * np.log(sig2)
            - b_sig / sig2
        )
        lp_d = float(
            np.sum(0.5 * np.log(2.0 / (np.pi * tau2)) - d_vec**2 / (2.0 * tau2))
        )
        jac = float(np.sum(eta_d)) + eta_sigma + np.log(omphi2) + eta_rho
        val = ll + lmn_v + lmn_u + lp_rho + lp_phi + lp_sig + lp_d + jac

        # likelihood gradients through the low-rank fit
        g_m = -g_r
        g_u = g_m @ (v * d_vec)
        g_v = g_m.T @ (u * d_vec)
        g_d_ll = np.sum(u * (g_m @ v), axis=0)
        g_xu = polar_u.vjp(g_u) - x_u
        g_xv = polar_v.vjp(g_v) - kinv_xv
        g_eta_d = (g_d_ll - d_vec / tau2) * d_vec + 1.0

        d_sig2_total = d_sig2 - (a_sig + 1.0) / sig2 + b_sig / sig2**2
        g_eta_sigma = d_sig2_total * sig2 + 1.0

        d_phi_total = d_phi + phi / omphi2
        g_eta_phi = d_phi_total * omphi2 - 2.0 * phi

        # dK/drho has entries K_ij * (t_i - t_j)^2 / rho^3 (nugget drops out)
        kprime = kern.mat * (sqdist / rho**3)
        kinv = kern.solve(np.eye(p))
        d_rho_mn = -0.5 * k * float(np.sum(kinv * kprime)) + 0.5 * float(
            np.sum((kinv_xv @ kinv_xv.T) * kprime)
        )
        d_rho_total = d_rho_mn - (alpha + 1.0) / rho + beta / rho**2
        g_eta_rho = d_rho_total * rho + 1.0

        grad = np.concatenate(
            [g_xu.ravel(), g_xv.ravel(), g_eta_d, [g_eta_sigma, g_eta_phi, g_eta_rho]]
        )
        return val, grad

    return UnconstrainedTarget(dim=dim, value_and_grad=value_and_grad)


def fpca_initial_points(data: FpcaData, hyper: FpcaHyper, chains: int, seed: int, jitter: float = 0.05):
    """Per-chain starting vectors near the truncated-SVD estimate.

    The posterior concentrates sharply around the low-rank fit when the
    signal is strong; random N(0, 1) starts can leave step-size adaptation
    stranded far from the mode. Each chain gets an independent relative
    jitter so the chains remain distinguishable for convergence diagnostics.
    """
    y = data.y
    n, p = y.shape
    k = hyper.k
    u, d, v = thin_svd(y)
    resid = y - (u[:, :k] * d[:k]) @ v[:, :k].T
    sigma2 = max(float(np.var(resid, ddof=1)), 1e-6)
    rho0 = hyper.beta / (hyper.alpha + 1.0)
    base = pack_fpca_params(
        u[:, :k], v[:, :k], np.maximum(d[:k], 1e-3), sigma2, 0.0, rho0
    )
    # jitter relative to each block's natural entry scale (orthonormal columns
    # have entries of order 1/sqrt(rows); the scalar etas are order 1)
    scale = np.concatenate(
        [
            np.full(n * k, jitter / np.sqrt(n)),
            np.full(p * k, jitter / np.sqrt(p)),
            np.full(k + 3, jitter),
        ]
    )
    points = []
    for c in range(chains):
        rng = np.random.default_rng([seed, c, 104729])
        points.append(base + scale * rng.standard_normal(base.size))
    return points


def simulate_fpca(n, grid, k, d, sigma2, phi, rho, rng, nugget: float = 1e-6) -> FpcaData:
    """Synthetic data from the FPCA model, assembled and doubly centered."""
    grid = np.asarray(grid, dtype=float)
    p = grid.size
    kern = se_kernel(SeKernelParams(grid=grid, rho=rho, nugget=nugget))
    v = sample_macg(MacgParams(sigma=kern), k, rng)
    u = sample_uniform_stiefel(n, k, rng)
    noise = (
        sample_ar1(n, p, Ar1Params(phi=phi, sigma2=sigma2), rng)
        if sigma2 > 0
        else np.zeros((n, p))
    )
    y_raw = (u * np.asarray(d, dtype=float)) @ v.T + noise
    return center_data(y_raw, grid=grid)


def fpca_point_estimate_v(mean_fit, k: int) -> np.ndarray:
    """Leading k right singular vectors of the posterior mean of U D V^T."""
    u, d, v = thin_svd(np.asarray(mean_fit, dtype=float))
    return v[:, :k]


def align_fpca_draws(u_draws, d_draws, v_draws, reference=None):
    """Column sign/permutation alignment for (U, D, V) draws.

    Columns are greedily matched to the reference V (default: first draw) in
    decreasing d order; sign flips are applied jointly to the matched columns
    of U and V, leaving U D V^T unchanged.
    """
    u_draws = np.asarray(u_draws, dtype=float)
    d_draws = np.asarray(d_draws, dtype=float)
    v_draws = np.asarray(v_draws, dtype=float)
    if reference is None:
        ref_v = v_draws[0]
        order = np.argsort(-np.abs(d_draws[0]))
    else:
        # an external reference (e.g. an SVD point estimate) is already sorted
        ref_v = np.asarray(reference, dtype=float)
        order = np.arange(v_draws.shape[2])
    perm, sign = match_columns(ref_v, v_draws, order)
    cols, flip = perm[:, None, :], sign[:, None, :]
    u_out = np.take_along_axis(u_draws, cols, axis=2) * flip
    v_out = np.take_along_axis(v_draws, cols, axis=2) * flip
    return u_out, np.take_along_axis(d_draws, perm, axis=1), v_out
