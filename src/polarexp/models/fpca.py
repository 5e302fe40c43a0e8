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
unconstrained density. Only unpack_fpca_params knows this layout: the
other code reads and writes the blocks through its views. fpca_scalars
holds the exp/tanh transforms and pack_fpca_params their inverses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from ..distributions import (
    LOG_2PI,
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
from ..expansion import UnconstrainedTarget, batched
from ..matcore import IllConditionedError, InputError, match_columns, polar_decompose, thin_svd

DEFAULT_RHO_MEAN = 365.0 / (4.0 * np.pi)
DEFAULT_RHO_SD = 5.0
# relative scale of the per-chain jitter on the initial points
INIT_JITTER = 0.05
# Largest |atanh phi| whose tanh stays below 1; past it 1 - phi^2 can round to 0.
ETA_PHI_MAX = float(np.arctanh(np.nextafter(1.0, 0.0)))


@dataclass(frozen=True)
class FpcaData:
    """Station-by-day data y_raw, its day grid, and y: y_raw doubly centered, variation left."""

    y_raw: np.ndarray
    grid: np.ndarray
    y: np.ndarray = field(init=False)

    def __post_init__(self):
        y_raw = np.asarray(self.y_raw, dtype=float)
        if y_raw.ndim != 2 or y_raw.size == 0 or not np.all(np.isfinite(y_raw)):
            raise InputError("data must be a non-empty matrix of finite numbers")
        p = y_raw.shape[1]
        grid = np.asarray(self.grid, dtype=float)
        if grid.shape != (p,) or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
            raise InputError("grid must be finite, strictly increasing and one point per column")
        row = y_raw.mean(axis=1, keepdims=True)
        col = y_raw.mean(axis=0, keepdims=True)
        y = y_raw - row - col + y_raw.mean()
        # a row effect plus a column effect, constants included, centres to rounding noise
        if np.max(np.abs(y)) <= 64.0 * np.finfo(float).eps * np.max(np.abs(y_raw)):
            raise InputError("data have no variation left after double centering")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]


def center_data(y_raw, grid=None) -> FpcaData:
    """FpcaData of the raw matrix, on the grid 1..p unless one is given."""
    if grid is None:
        grid = np.arange(1.0, np.shape(y_raw)[1] + 1.0)
    return FpcaData(y_raw=y_raw, grid=grid)


@dataclass(frozen=True)
class FpcaHyper:
    """Hyperparameters; alpha/beta are the Gamma parameters for 1/rho.

    These fields are the `hyper` entry of the CLI's run_meta.json. The kernel's
    diagonal jitter is not among them: K(rho) is `distributions.se_gram` at its default.
    """

    k: int
    nu: float
    s2: float
    tau2: float
    alpha: float
    beta: float

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


def _rank_k_fit(y, k: int):
    """The rank-k truncated SVD factors (u, d, v) of y and its residual variance."""
    u, d, v = thin_svd(y)
    u, d, v = u[:, :k], d[:k], v[:, :k]
    return u, d, v, float(np.var(y - (u * d) @ v.T, ddof=1))


def fpca_empirical_bayes(y, k: int) -> FpcaHyper:
    """Empirical-Bayes hyperparameters from the centered data matrix.

    The rank-k truncated SVD Yhat sets the residual variance (prior mode of
    sigma2 via nu=1, s2 = 3 * sigma2_hat) and tau2 = Tr(Yhat^T Yhat)/k so the
    prior expectation of sum d_i^2 matches the captured energy. The
    rho prior solves the inverse-gamma moment equations for the mean
    DEFAULT_RHO_MEAN and the sd DEFAULT_RHO_SD.
    """
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    if not 1 <= k < min(n, p):
        raise InputError(f"need 1 <= k < min(n, p) = {min(n, p)}, got k = {k}")
    _, d, _, sigma2_hat = _rank_k_fit(y, k)
    if sigma2_hat < 1e-8:
        warnings.warn(
            "residual variance is (near) zero; flooring s2 at 1e-8", stacklevel=2
        )
        sigma2_hat = max(sigma2_hat, 1e-8 / 3.0)
    tau2 = float(np.sum(d**2)) / k
    alpha, beta = invgamma_from_moments(DEFAULT_RHO_MEAN, DEFAULT_RHO_SD)
    return FpcaHyper(k=k, nu=1.0, s2=3.0 * sigma2_hat, tau2=tau2, alpha=alpha, beta=beta)


def _fpca_dim(n: int, p: int, k: int) -> int:
    return n * k + p * k + k + 3


def unpack_fpca_params(theta, n: int, p: int, k: int):
    """Split flat vectors (..., dim) into (x_u, x_v, eta_d, eta_sigma, eta_phi, eta_rho).

    The blocks are views with the leading shape (...): x_u (..., n, k),
    x_v (..., p, k), eta_d (..., k) and the three scalar etas (...).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != _fpca_dim(n, p, k):
        raise ValueError(f"expected {_fpca_dim(n, p, k)} parameters, got {theta.shape[-1]}")
    lead = theta.shape[:-1]
    x_u = theta[..., : n * k].reshape(*lead, n, k)
    x_v = theta[..., n * k : (n + p) * k].reshape(*lead, p, k)
    eta_d = theta[..., (n + p) * k : -3]
    return x_u, x_v, eta_d, theta[..., -3], theta[..., -2], theta[..., -1]


def pack_fpca_params(x_u, x_v, d, sigma2, phi, rho):
    """Flat vectors from natural-scale scalars: the inverse of fpca_scalars after unpack."""
    (n, k), p = np.shape(x_u)[-2:], np.shape(x_v)[-2]
    theta = np.empty((*np.shape(sigma2), _fpca_dim(n, p, k)))
    blocks = (x_u, x_v, np.log(d), np.log(sigma2), np.arctanh(phi), np.log(rho))
    for view, block in zip(unpack_fpca_params(theta, n, p, k), blocks):
        view[...] = block
    return theta


def fpca_scalars(eta_d, eta_sigma, eta_phi, eta_rho):
    """Natural-scale (d, sigma2, phi, rho) of the unconstrained scalars, elementwise."""
    return np.exp(eta_d), np.exp(eta_sigma), np.tanh(eta_phi), np.exp(eta_rho)


def _kernel_terms(sqdist, rho, x_v):
    """log N(x_v | 0, K(rho), I), its x_v-gradient and its rho-derivative, per state.

    Per state: one Cholesky factorisation of K(rho), one k-column solve for
    G = K^{-1} x_v and one dpotri for the lower triangle of K^{-1}. With
    K' = dK/drho = K o sqdist / rho^3, the rho-derivative is
    -(k/2) tr(K^{-1} K') + (1/2) <G, K' G> (Rasmussen & Williams 2006, 5.4.1);
    K' is symmetric with a zero diagonal, so tr(K^{-1} K') = 2 <tril(K^{-1}), K'>.
    """
    p, k = x_v.shape[-2:]
    lmn, d_rho_mn = np.empty((2, rho.size))
    g_lmn = np.empty_like(x_v)
    for i in range(rho.size):
        kern = se_gram(sqdist, rho[i])
        chol, info = dpotrf(kern, lower=1, clean=1)
        if info > 0:
            raise IllConditionedError(f"Cholesky of K(rho = {rho[i]:.6g}) failed at minor {info}")
        solved = dpotrs(chol, x_v[i], lower=1)[0]
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        lmn[i] = -0.5 * p * k * LOG_2PI - 0.5 * k * logdet - 0.5 * np.sum(x_v[i] * solved)
        g_lmn[i] = -solved
        # rho^3 K'; the nugget sits on the diagonal, where sqdist is 0
        kern *= sqdist
        # clean=1 left the factor's upper triangle zero, and dpotri leaves it so;
        # the Fortran-ordered result's transpose is C-ordered, as vdot wants
        inv_lower = dpotri(chol, lower=1, overwrite_c=1)[0]
        d_rho_mn[i] = (-k * np.vdot(inv_lower.T, kern)
                       + 0.5 * np.vdot(solved, kern @ solved)) / rho[i] ** 3
    return lmn, g_lmn, d_rho_mn


def fpca_target(data: FpcaData, hyper: FpcaHyper) -> UnconstrainedTarget:
    """Expanded log posterior over the flat FPCA parameter vector.

    Each evaluation factors K(rho) afresh (it depends on the state); a
    Cholesky failure at extreme rho surfaces as an ill-conditioning error,
    which the HMC engine treats as a divergence. A batch of states is
    evaluated in one pass, except for the kernel: per state, one Cholesky
    factorisation of K(rho), one solve with it for K^{-1} X_V and one dpotri
    for the lower triangle of K^{-1} (see _kernel_terms).
    """
    y = data.y
    grid = np.asarray(data.grid, dtype=float)
    n, p = y.shape
    k = hyper.k
    sqdist = (grid[:, None] - grid[None, :]) ** 2

    def in_support(theta):
        eta_d, eta_sigma, eta_phi, eta_rho = unpack_fpca_params(theta, n, p, k)[2:]
        # far outside any plausible scale the exp/tanh transforms overflow or
        # underflow, or tanh rounds to 1; report -inf so the sampler treats
        # the state as divergent
        return (
            (np.abs(eta_sigma) <= 40.0)
            & (np.abs(eta_rho) <= 40.0)
            & np.all(np.abs(eta_d) <= 40.0, axis=1)
            & (np.abs(eta_phi) <= ETA_PHI_MAX)
        )

    def value_and_grad(theta):
        x_u, x_v, eta_d, eta_sigma, eta_phi, eta_rho = unpack_fpca_params(theta, n, p, k)
        d_vec, sig2, phi, rho = fpca_scalars(eta_d, eta_sigma, eta_phi, eta_rho)
        omphi2 = 1.0 - phi * phi

        polar_u = polar_decompose(x_u)
        polar_v = polar_decompose(x_v)
        u, v = polar_u.q, polar_v.q
        ud = u * d_vec[:, None, :]
        r = y - ud @ v.swapaxes(1, 2)

        ll, g_r, d_sig2, d_phi = ar1_loglik_grad(r, phi, sig2)

        lmn_v, g_lmn_v, d_rho_mn = _kernel_terms(sqdist, rho, x_v)
        lmn_u, g_lmn_u = log_matrix_normal_grad(x_u, None)

        lp_d, dlp_d = log_halfnormal_grad(d_vec, hyper.tau2)
        lp_sig, dlp_sig = log_invgamma_grad(sig2, hyper.nu / 2.0, hyper.nu * hyper.s2 / 2.0)
        lp_phi, dlp_phi = log_arcsine_grad(phi)
        lp_rho, dlp_rho = log_invgamma_grad(rho, hyper.alpha, hyper.beta)
        # log-Jacobians of the exp and tanh transforms
        jac = np.sum(eta_d, axis=1) + eta_sigma + np.log(omphi2) + eta_rho
        val = ll + lmn_v + lmn_u + lp_rho + lp_phi + lp_sig + np.sum(lp_d, axis=1) + jac

        # likelihood gradients through the low-rank fit
        g_m = -g_r
        g_mv = g_m @ v
        g_u = g_mv * d_vec[:, None, :]
        g_v = g_m.swapaxes(1, 2) @ ud
        g_d_ll = np.sum(u * g_mv, axis=1)
        # chain rule through each transform, plus its log-Jacobian's derivative,
        # written into the blocks of a C-ordered array, which unpack as views
        grad = np.empty_like(theta)
        gx_u, gx_v, g_d, g_sig, g_phi, g_rho = unpack_fpca_params(grad, n, p, k)
        np.add(polar_u.vjp(g_u), g_lmn_u, out=gx_u)
        np.add(polar_v.vjp(g_v), g_lmn_v, out=gx_v)
        g_d[...] = (g_d_ll + dlp_d) * d_vec + 1.0
        g_sig[...] = (d_sig2 + dlp_sig) * sig2 + 1.0
        g_phi[...] = (d_phi + dlp_phi) * omphi2 - 2.0 * phi
        g_rho[...] = (d_rho_mn + dlp_rho) * rho + 1.0
        return val, grad

    return UnconstrainedTarget(_fpca_dim(n, p, k), batched(value_and_grad, in_support))


def fpca_initial_points(data: FpcaData, hyper: FpcaHyper, chains: int, seed: int):
    """Per-chain starting vectors near the truncated-SVD estimate.

    The posterior concentrates sharply around the low-rank fit when the
    signal is strong; random N(0, 1) starts can leave step-size adaptation
    stranded far from the mode. Each chain gets an independent relative
    jitter so the chains remain distinguishable for convergence diagnostics.
    """
    n, p = data.y.shape
    k = hyper.k
    u, d, v, sigma2 = _rank_k_fit(data.y, k)
    rho0 = hyper.beta / (hyper.alpha + 1.0)
    base = pack_fpca_params(u, v, np.maximum(d, 1e-3), max(sigma2, 1e-6), 0.0, rho0)
    # jitter relative to each block's natural entry scale (orthonormal columns
    # have entries of order 1/sqrt(rows); the scalar etas are order 1)
    scale = np.full(base.size, INIT_JITTER)
    x_u, x_v = unpack_fpca_params(scale, n, p, k)[:2]
    x_u /= np.sqrt(n)
    x_v /= np.sqrt(p)
    points = []
    for c in range(chains):
        rng = np.random.default_rng([seed, c, 104729])
        points.append(base + scale * rng.standard_normal(base.size))
    return points


def simulate_fpca(n, grid, k, d, sigma2, phi, rho, rng) -> FpcaData:
    """Synthetic data from the FPCA model, assembled and doubly centered."""
    grid = np.asarray(grid, dtype=float)
    p = grid.size
    v = sample_macg(se_kernel(SeKernelParams(grid=grid, rho=rho)), k, rng)
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


def align_fpca_draws(d_draws, v_draws, reference):
    """(d, V) draws with each V's columns matched to the reference by `match_columns`.

    d follows V's columns; with U's columns permuted and signed the same way,
    U D V^T is unchanged. The CLI passes fpca_point_estimate_v.
    """
    perm, sign = match_columns(v_draws, reference)
    v_out = np.take_along_axis(np.asarray(v_draws, dtype=float), perm[:, None, :], axis=2)
    d_out = np.take_along_axis(np.asarray(d_draws, dtype=float), perm, axis=1)
    return d_out, v_out * sign[:, None, :]
