"""Bayesian functional PCA with a smoothness-inducing MACG prior.

Model: the doubly centered n x p data matrix satisfies
Y = U D V^T + sigma E Omega(phi)^{1/2}, with U (n x k) and V (p x k)
orthonormal, D = diag(d) positive, and the noise rows independent AR(1)
series across the day grid. V gets a MACG prior whose kernel is the
rank-m spectral approximation Phi diag(S_rho) Phi^T of the
squared-exponential K(rho) (SpectralBasis), U a uniform prior, and the
scalars get inverse-gamma / arcsine / half-normal priors with
empirical-Bayes hyperparameters.

V is the polar factor of X_V = Phi diag(sqrt S_rho) Z with Z ~ N(0, I), the
non-centred form of the MACG expansion: no state factors a kernel, and
rho moves without dragging X_V's prior scale along. The flat parameter
vector is [vec(X_U), vec(Z), log d_1..k, log sigma2, atanh phi, log rho],
length n*k + m*k + k + 3; constrained scalars enter the posterior with
their change-of-variable Jacobians so the HMC engine sees an
unconstrained density. Only unpack_fpca_params knows this layout: the
other code reads and writes the blocks through its views. fpca_scalars
holds the exp/tanh transforms, pack_fpca_params their inverses, and
SpectralBasis.x_v the map from Z to X_V.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainccinv

from ..distributions import (
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
    se_kernel,
)
from ..expansion import UnconstrainedTarget, batched
from ..matcore import InputError, match_columns, polar_decompose, thin_svd

DEFAULT_RHO_MEAN = 365.0 / (4.0 * np.pi)
DEFAULT_RHO_SD = 5.0
# relative scale of the per-chain jitter on the initial points
INIT_JITTER = 0.05
# Largest |atanh phi| whose tanh stays below 1; past it 1 - phi^2 can round to 0.
ETA_PHI_MAX = float(np.arctanh(np.nextafter(1.0, 0.0)))
# The basis is sized at the prior's RHO_LO_QUANTILE quantile of rho: there its
# first dropped frequency omega has rho * omega >= SPECTRAL_CUTOFF, so it
# carries at most 1e-8 of the spectral density's peak.
RHO_LO_QUANTILE = 1e-3
SPECTRAL_CUTOFF = float(np.sqrt(2.0 * np.log(1e8)))
# sqrt S_rho never falls below this fraction of its peak. On a grid short
# against rho the exact density would leave X_V's high-frequency columns
# below polar_decompose's rank tolerance (sqrt S_3 / sqrt S_1 is 4e-14 on 12
# days at rho = 27.5); the floor moves K(rho)'s entries by about 3e-9.
SPECTRAL_FLOOR = 1e-9
# ridge of the least-squares Z whose X_V starts at the truncated-SVD V
INIT_RIDGE = 0.01


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

    These fields are the `hyper` entry of the CLI's run_meta.json. The kernel
    has no nugget: its rank m and the rho it is sized at follow from the grid
    and alpha/beta (fpca_basis) and are run_meta.json's `kernel_basis`.
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


def _fpca_dim(n: int, m: int, k: int) -> int:
    return n * k + m * k + k + 3


def unpack_fpca_params(theta, n: int, m: int, k: int):
    """Split flat vectors (..., dim) into (x_u, z, eta_d, eta_sigma, eta_phi, eta_rho).

    The blocks are views with the leading shape (...): x_u (..., n, k),
    z (..., m, k) for a basis of m functions, eta_d (..., k) and the three
    scalar etas (...).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != _fpca_dim(n, m, k):
        raise ValueError(f"expected {_fpca_dim(n, m, k)} parameters, got {theta.shape[-1]}")
    lead = theta.shape[:-1]
    x_u = theta[..., : n * k].reshape(*lead, n, k)
    z = theta[..., n * k : (n + m) * k].reshape(*lead, m, k)
    eta_d = theta[..., (n + m) * k : -3]
    return x_u, z, eta_d, theta[..., -3], theta[..., -2], theta[..., -1]


def pack_fpca_params(x_u, z, d, sigma2, phi, rho):
    """Flat vectors from natural-scale scalars: the inverse of fpca_scalars after unpack."""
    (n, k), m = np.shape(x_u)[-2:], np.shape(z)[-2]
    theta = np.empty((*np.shape(sigma2), _fpca_dim(n, m, k)))
    blocks = (x_u, z, np.log(d), np.log(sigma2), np.arctanh(phi), np.log(rho))
    for view, block in zip(unpack_fpca_params(theta, n, m, k), blocks):
        view[...] = block
    return theta


def fpca_scalars(eta_d, eta_sigma, eta_phi, eta_rho):
    """Natural-scale (d, sigma2, phi, rho) of the unconstrained scalars, elementwise."""
    return np.exp(eta_d), np.exp(eta_sigma), np.tanh(eta_phi), np.exp(eta_rho)


@dataclass(frozen=True)
class SpectralBasis:
    """Rank-m squared-exponential kernel on a day grid: K(rho) ~ phi diag(S_rho) phi^T.

    phi (p, m) holds the first m sine eigenfunctions of the Laplacian with a
    zero boundary on [c - L, c + L], c the grid's midpoint and L its range,
    at the grid: phi_j(t) = L^{-1/2} sin(omega_j (t - c + L)), omega_j = pi j / (2L).
    S_rho is the unit-variance SE spectral density at omega_j (Solin & Sarkka,
    arXiv:1401.5508). rho_lo is the rho the rank is sized at (fpca_basis).
    """

    phi: np.ndarray
    omega: np.ndarray
    rho_lo: float

    @property
    def m(self) -> int:
        return self.omega.size

    def sqrt_density(self, rho):
        """sqrt S_rho(omega_j) and its rho-derivative, each (..., m) for rho of shape (...).

        sqrt S_rho(omega) = (2 pi)^{1/4} sqrt(rho) (exp(-rho^2 omega^2 / 4) + SPECTRAL_FLOOR).
        """
        rho = np.asarray(rho, dtype=float)[..., None]
        decay = np.exp(-0.25 * (rho * self.omega) ** 2)
        peak = (2.0 * np.pi) ** 0.25 * np.sqrt(rho)
        sqrt_s = peak * (decay + SPECTRAL_FLOOR)
        return sqrt_s, 0.5 * sqrt_s / rho - peak * decay * (0.5 * rho * self.omega**2)

    def x_v(self, z, rho):
        """X_V = phi diag(sqrt S_rho) Z for Z (..., m, k) and rho (...): the (..., p, k) stack."""
        return self.phi @ (self.sqrt_density(rho)[0][..., None] * z)


def fpca_basis(grid, hyper: FpcaHyper) -> SpectralBasis:
    """The SpectralBasis of the grid, sized at the prior's RHO_LO_QUANTILE quantile of rho.

    With 1/rho ~ Gamma(alpha, beta), rho_lo = beta / Q^{-1}(alpha, RHO_LO_QUANTILE),
    and m = ceil(SPECTRAL_CUTOFF 2L / (pi rho_lo)), at least k, is the
    fewest frequencies with rho_lo omega_{m+1} above the cutoff.
    """
    grid = np.asarray(grid, dtype=float)
    center, span = 0.5 * (grid[0] + grid[-1]), grid[-1] - grid[0]
    rho_lo = float(hyper.beta / gammainccinv(hyper.alpha, RHO_LO_QUANTILE))
    m = max(hyper.k, int(np.ceil(SPECTRAL_CUTOFF * 2.0 * span / (np.pi * rho_lo))))
    omega = np.pi * np.arange(1.0, m + 1.0) / (2.0 * span)
    phi = np.sin(np.outer(grid - center + span, omega)) / np.sqrt(span)
    return SpectralBasis(phi=phi, omega=omega, rho_lo=rho_lo)


def fpca_target(data: FpcaData, hyper: FpcaHyper) -> UnconstrainedTarget:
    """Expanded log posterior over the flat FPCA parameter vector of fpca_basis's rank.

    A batch of states is evaluated in one pass of stacked array operations;
    no state factors a matrix other than by the thin SVDs of its polar
    factors. Z has the N(0, I) prior. With G = Phi^T g_X, g_X the likelihood's
    gradient pulled back through V's polar factor to X_V, the Z-gradient is
    sqrt S_rho o G - Z and the rho-derivative sum G o Z o d sqrt S_rho / d rho.
    """
    y = data.y
    n, p = y.shape
    k = hyper.k
    basis = fpca_basis(data.grid, hyper)
    m = basis.m

    def in_support(theta):
        eta_d, eta_sigma, eta_phi, eta_rho = unpack_fpca_params(theta, n, m, k)[2:]
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
        x_u, z, eta_d, eta_sigma, eta_phi, eta_rho = unpack_fpca_params(theta, n, m, k)
        d_vec, sig2, phi, rho = fpca_scalars(eta_d, eta_sigma, eta_phi, eta_rho)
        omphi2 = 1.0 - phi * phi

        polar_u = polar_decompose(x_u)
        polar_v = polar_decompose(basis.x_v(z, rho))
        u, v = polar_u.q, polar_v.q
        ud = u * d_vec[:, None, :]
        r = y - ud @ v.swapaxes(1, 2)

        ll, g_r, d_sig2, d_phi = ar1_loglik_grad(r, phi, sig2)

        lmn_z, g_lmn_z = log_matrix_normal_grad(z, None)
        lmn_u, g_lmn_u = log_matrix_normal_grad(x_u, None)

        lp_d, dlp_d = log_halfnormal_grad(d_vec, hyper.tau2)
        lp_sig, dlp_sig = log_invgamma_grad(sig2, hyper.nu / 2.0, hyper.nu * hyper.s2 / 2.0)
        lp_phi, dlp_phi = log_arcsine_grad(phi)
        lp_rho, dlp_rho = log_invgamma_grad(rho, hyper.alpha, hyper.beta)
        # log-Jacobians of the exp and tanh transforms
        jac = np.sum(eta_d, axis=1) + eta_sigma + np.log(omphi2) + eta_rho
        val = ll + lmn_z + lmn_u + lp_rho + lp_phi + lp_sig + np.sum(lp_d, axis=1) + jac

        # likelihood gradients through the low-rank fit
        g_m = -g_r
        g_mv = g_m @ v
        g_u = g_mv * d_vec[:, None, :]
        g_v = g_m.swapaxes(1, 2) @ ud
        g_d_ll = np.sum(u * g_mv, axis=1)
        # G: the pullback to X_V in the basis coordinates
        g_w = basis.phi.T @ polar_v.vjp(g_v)
        sqrt_s, d_sqrt_s = basis.sqrt_density(rho)
        # chain rule through each transform, plus its log-Jacobian's derivative,
        # written into the blocks of a C-ordered array, which unpack as views
        grad = np.empty_like(theta)
        gx_u, g_z, g_d, g_sig, g_phi, g_rho = unpack_fpca_params(grad, n, m, k)
        np.add(polar_u.vjp(g_u), g_lmn_u, out=gx_u)
        np.multiply(sqrt_s[..., None], g_w, out=g_z)
        g_z += g_lmn_z
        g_d[...] = (g_d_ll + dlp_d) * d_vec + 1.0
        g_sig[...] = (d_sig2 + dlp_sig) * sig2 + 1.0
        g_phi[...] = (d_phi + dlp_phi) * omphi2 - 2.0 * phi
        d_rho_v = np.sum(np.sum(g_w * z, axis=2) * d_sqrt_s, axis=1)
        g_rho[...] = (d_rho_v + dlp_rho) * rho + 1.0
        return val, grad

    return UnconstrainedTarget(_fpca_dim(n, m, k), batched(value_and_grad, in_support))


def fpca_initial_points(data: FpcaData, hyper: FpcaHyper, chains: int, seed: int):
    """Per-chain starting vectors near the truncated-SVD estimate.

    The posterior concentrates sharply around the low-rank fit when the
    signal is strong; random N(0, 1) starts can leave step-size adaptation
    stranded far from the mode. Z starts at the ridge solution
    A^T (A A^T + INIT_RIDGE I)^{-1} V of A Z = V, A = Phi diag(sqrt S_rho0) at
    the prior mode rho0, scaled to the root-mean-square entry 1 of Z's
    prior; X_V's polar factor does not depend on that scale. Each chain gets
    an independent relative jitter so the chains remain distinguishable for
    convergence diagnostics.
    """
    n, p = data.y.shape
    k = hyper.k
    basis = fpca_basis(data.grid, hyper)
    u, d, v, sigma2 = _rank_k_fit(data.y, k)
    rho0 = hyper.beta / (hyper.alpha + 1.0)
    a = basis.phi * basis.sqrt_density(rho0)[0]
    z0 = a.T @ np.linalg.solve(a @ a.T + INIT_RIDGE * np.eye(p), v)
    z0 *= np.sqrt(z0.size) / np.linalg.norm(z0)
    base = pack_fpca_params(u, z0, np.maximum(d, 1e-3), max(sigma2, 1e-6), 0.0, rho0)
    # jitter relative to each block's natural entry scale (orthonormal columns
    # have entries of order 1/sqrt(rows); Z's and the scalar etas are order 1)
    scale = np.full(base.size, INIT_JITTER)
    x_u = unpack_fpca_params(scale, n, basis.m, k)[0]
    x_u /= np.sqrt(n)
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
