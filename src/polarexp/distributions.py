"""Densities and exact samplers on the Stiefel manifold plus scalar building blocks.

Log densities on the Stiefel manifold are taken with respect to the uniform
*probability* measure, so the uniform density is identically 1 (log 0). All
samplers take an injected numpy Generator; one generator per chain gives
thread safety.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .matcore import SpdMatrix, polar_decompose

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class MacgParams:
    """Matrix angular central Gaussian with row covariance sigma."""

    sigma: SpdMatrix


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
    nugget: float = 1e-6

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be 1-D and strictly increasing")
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


def log_macg_density(q, params: MacgParams) -> float:
    """Log MACG(sigma) density of q, w.r.t. the uniform probability measure.

    -(k/2) log|sigma| - (p/2) log|q^T sigma^{-1} q|; zero when sigma = I.
    """
    q = np.asarray(q, dtype=float)
    p, k = q.shape
    if params.sigma.dim != p:
        raise ValueError("dimension mismatch between q and sigma")
    inner = SpdMatrix(q.T @ params.sigma.solve(q))
    return -0.5 * k * params.sigma.logdet() - 0.5 * p * inner.logdet()


def sample_macg(params: MacgParams, k: int, rng: np.random.Generator) -> np.ndarray:
    """Exact MACG(sigma) draw: polar factor of L Z with L = chol(sigma)."""
    p = params.sigma.dim
    z = rng.standard_normal((p, k))
    return polar_decompose(params.sigma.chol @ z).q


def log_matrix_normal(x, sigma: SpdMatrix) -> float:
    """Log density of the centered matrix normal N(0, sigma, I) at x (p x k)."""
    x = np.asarray(x, dtype=float)
    p, k = x.shape
    if sigma.dim != p:
        raise ValueError("row-covariance dimension mismatch")
    quad = float(np.sum(x * sigma.solve(x)))
    return -0.5 * p * k * LOG_2PI - 0.5 * k * sigma.logdet() - 0.5 * quad


def se_kernel(params: SeKernelParams) -> SpdMatrix:
    """Squared-exponential Gram matrix K_ij = exp[-(t_i - t_j)^2 / (2 rho^2)] + nugget 1{i=j}.

    rho is the standard Gaussian-process length-scale: a zero-mean process
    with this covariance has an expected zero-upcrossing rate of 1/(2 pi rho)
    per unit time.
    """
    t = params.grid
    diff = t[:, None] - t[None, :]
    k = np.exp(-(diff**2) / (2.0 * params.rho**2))
    if params.nugget > 0:
        k[np.diag_indices_from(k)] += params.nugget
    try:
        return SpdMatrix(k)
    except Exception as exc:
        raise type(exc)(
            f"{exc}; the squared-exponential kernel is near singular on this grid, "
            f"increase the nugget (current {params.nugget:g})"
        ) from exc


def ar1_loglik_grad(r, phi, sig2):
    """Gaussian log density of the rows of r under covariance sig2 * Omega(phi), with gradients.

    Uses the Markov factorization, O(p) per row: x_1 ~ N(0, sig2),
    x_t | x_{t-1} ~ N(phi x_{t-1}, sig2 (1 - phi^2)). The rows of the 2-D
    array r are independent series (summed).
    Returns (ll, d ll/d r, d ll/d sig2, d ll/d phi).
    """
    n, p = r.shape
    s1 = float(np.sum(r[:, 0] ** 2))
    ll = -0.5 * n * (LOG_2PI + np.log(sig2)) - s1 / (2.0 * sig2)
    g = np.zeros_like(r)
    g[:, 0] = -r[:, 0] / sig2
    d_sig2 = -n / (2.0 * sig2) + s1 / (2.0 * sig2 * sig2)
    d_phi = 0.0
    if p > 1:
        omphi2 = 1.0 - phi * phi
        v = sig2 * omphi2
        e = r[:, 1:] - phi * r[:, :-1]
        se = float(np.sum(e * e))
        sc = float(np.sum(e * r[:, :-1]))
        ll += -0.5 * n * (p - 1) * (LOG_2PI + np.log(v)) - se / (2.0 * v)
        g[:, :-1] += phi * e / v
        g[:, 1:] += -e / v
        d_sig2 += -n * (p - 1) / (2.0 * sig2) + se / (2.0 * sig2 * sig2 * omphi2)
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


def log_arcsine(phi: float) -> float:
    """Standard arcsine log density on (-1, 1)."""
    if not abs(phi) < 1.0:
        raise ValueError(f"need |phi| < 1, got {phi}")
    return float(-np.log(np.pi) - 0.5 * np.log1p(-phi * phi))


def log_invgamma(x: float, alpha: float, beta: float) -> float:
    """Inverse-gamma log density with shape alpha, scale beta."""
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    return float(
        alpha * np.log(beta) - gammaln(alpha) - (alpha + 1) * np.log(x) - beta / x
    )


def log_halfnormal(d: float, tau2: float) -> float:
    """Half-normal log density (N(0, tau2) restricted to d > 0)."""
    if not d > 0:
        raise ValueError(f"need d > 0, got {d}")
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    return float(0.5 * np.log(2.0 / (np.pi * tau2)) - d * d / (2.0 * tau2))
