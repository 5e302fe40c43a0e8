"""Densities and exact samplers on the Stiefel manifold plus scalar building blocks.

Log densities on the Stiefel manifold are taken with respect to the uniform
*probability* measure, so the uniform density is identically 1 (log 0). All
samplers take an injected numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .matcore import SpdMatrix, polar_decompose

LOG_2PI = np.log(2.0 * np.pi)
# the diagonal jitter that keeps the squared-exponential kernel K(rho) factorable
SE_NUGGET = 1e-6


@dataclass(frozen=True)
class Ar1Params:
    """Stationary AR(1): lag-1 correlation phi, marginal variance sigma2."""

    phi: float
    sigma2: float

    def __post_init__(self):
        if not abs(self.phi) < 1.0:
            raise ValueError(f"need |phi| < 1, got {self.phi}")
        if not self.sigma2 > 0.0:
            raise ValueError(f"need sigma2 > 0, got {self.sigma2}")


@dataclass(frozen=True)
class SeKernelParams:
    """Squared-exponential kernel on a strictly increasing grid of time points."""

    grid: np.ndarray
    rho: float
    nugget: float = SE_NUGGET

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        # NaN fails every comparison, so np.diff(grid) <= 0 alone lets it through
        if grid.ndim != 1 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be 1-D, finite and strictly increasing")
        if not self.rho > 0:
            raise ValueError(f"need rho > 0, got {self.rho}")
        if self.nugget < 0:
            raise ValueError("nugget must be nonnegative")


def sample_uniform_stiefel(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from V(k, p): polar factor of a standard normal matrix."""
    if not (p >= k >= 1):
        raise ValueError(f"need p >= k >= 1, got p={p}, k={k}")
    x = rng.standard_normal((p, k))
    return polar_decompose(x).q


def sample_macg(sigma: SpdMatrix, k: int, rng: np.random.Generator) -> np.ndarray:
    """Exact MACG(sigma) draw: polar factor of L Z with L = chol(sigma)."""
    z = rng.standard_normal((sigma.dim, k))
    return polar_decompose(sigma.chol @ z).q


def log_matrix_normal_grad(x, sigma: SpdMatrix | None):
    """Centered matrix normal N(0, sigma, I) log density at x (p x k) and its gradient -sigma^{-1} x.

    sigma None is the identity. For a stack x (..., p, k) it returns one
    density per matrix and gradients of the shape of x.
    """
    x = np.asarray(x, dtype=float)
    p, k = x.shape[-2:]
    if sigma is None:
        solved, logdet = x, 0.0
    elif sigma.dim != p:
        raise ValueError("row-covariance dimension mismatch")
    else:
        solved, logdet = sigma.solve(x), sigma.logdet()
    quad = np.sum(x * solved, axis=(-2, -1))
    return -0.5 * p * k * LOG_2PI - 0.5 * k * logdet - 0.5 * quad, -solved


def se_gram(sqdist, rho, nugget=SE_NUGGET) -> np.ndarray:
    """Squared-exponential Gram matrix exp[-sqdist / (2 rho^2)] plus nugget on the diagonal.

    sqdist is the square matrix of squared distances (t_i - t_j)^2. rho is the
    standard Gaussian-process length-scale: a zero-mean process with this
    covariance has an expected zero-upcrossing rate of 1/(2 pi rho) per unit time.
    """
    k = np.exp(-sqdist / (2.0 * rho**2))
    k.flat[:: k.shape[0] + 1] += nugget
    return k


def se_kernel(params: SeKernelParams) -> SpdMatrix:
    """K(rho) of se_gram on the grid, with its Cholesky factor."""
    t = params.grid
    try:
        return SpdMatrix(se_gram((t[:, None] - t[None, :]) ** 2, params.rho, params.nugget))
    except Exception as exc:
        raise type(exc)(
            f"{exc}; the squared-exponential kernel is near singular on this grid, "
            f"increase the nugget (current {params.nugget:g})"
        ) from exc


def ar1_loglik_grad(r, phi, sig2):
    """Gaussian log density of the rows of r under covariance sig2 * Omega(phi), with gradients.

    Uses the Markov factorization, O(p) per row: x_1 ~ N(0, sig2),
    x_t | x_{t-1} ~ N(phi x_{t-1}, sig2 (1 - phi^2)). The rows of the n x p
    matrix r are independent series (summed). A stack r (..., n, p) takes
    phi and sig2 of shape (...), one pair per matrix.
    Returns (ll, d ll/d r, d ll/d sig2, d ll/d phi), each with a leading (...).
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sig2 = np.asarray(sig2, dtype=float)
    n, p = r.shape[-2:]
    s1 = np.sum(r[..., 0] ** 2, axis=-1)
    ll = -0.5 * n * (LOG_2PI + np.log(sig2)) - s1 / (2.0 * sig2)
    g = np.zeros_like(r)
    g[..., 0] = -r[..., 0] / sig2[..., None]
    d_sig2 = -n / (2.0 * sig2) + s1 / (2.0 * sig2 * sig2)
    d_phi = np.zeros_like(ll)
    if p > 1:
        omphi2 = 1.0 - phi * phi
        v = sig2 * omphi2
        phi_m, v_m = phi[..., None, None], v[..., None, None]
        e = r[..., 1:] - phi_m * r[..., :-1]
        se = np.sum(e * e, axis=(-2, -1))
        sc = np.sum(e * r[..., :-1], axis=(-2, -1))
        ll = ll - 0.5 * n * (p - 1) * (LOG_2PI + np.log(v)) - se / (2.0 * v)
        e /= v_m
        g[..., :-1] += phi_m * e
        g[..., 1:] -= e
        d_sig2 = d_sig2 - n * (p - 1) / (2.0 * sig2) + se / (2.0 * sig2 * sig2 * omphi2)
        d_phi = n * (p - 1) * phi / omphi2 + sc / v - phi * sig2 * se / (v * v)
    return ll, g, d_sig2, d_phi


def sample_ar1(n: int, p: int, params: Ar1Params, rng: np.random.Generator) -> np.ndarray:
    """n independent stationary AR(1) rows of length p."""
    phi, sigma2 = params.phi, params.sigma2
    x = np.empty((n, p))
    x[:, 0] = np.sqrt(sigma2) * rng.standard_normal(n)
    innov_sd = np.sqrt(sigma2 * (1.0 - phi**2))
    for t in range(1, p):
        x[:, t] = phi * x[:, t - 1] + innov_sd * rng.standard_normal(n)
    return x


def _check_support(x, inside, need):
    if not np.all(inside):
        raise ValueError(f"need {need}, got {x[~inside].flat[0]}")


def log_arcsine_grad(phi):
    """Standard arcsine log density on (-1, 1) and its derivative in phi, elementwise."""
    phi = np.asarray(phi, dtype=float)
    _check_support(phi, np.abs(phi) < 1.0, "|phi| < 1")
    return -np.log(np.pi) - 0.5 * np.log1p(-phi * phi), phi / (1.0 - phi * phi)


def log_invgamma_grad(x, alpha: float, beta: float):
    """Inverse-gamma log density (shape alpha, scale beta) and its derivative in x, elementwise."""
    x = np.asarray(x, dtype=float)
    _check_support(x, x > 0, "x > 0")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    val = alpha * np.log(beta) - gammaln(alpha) - (alpha + 1) * np.log(x) - beta / x
    return val, -(alpha + 1.0) / x + beta / x**2


def log_halfnormal_grad(d, tau2: float):
    """Half-normal log density (N(0, tau2) on d > 0) and its derivative in d, elementwise."""
    d = np.asarray(d, dtype=float)
    _check_support(d, d > 0, "d > 0")
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    return 0.5 * np.log(2.0 / (np.pi * tau2)) - d * d / (2.0 * tau2), -d / tau2
