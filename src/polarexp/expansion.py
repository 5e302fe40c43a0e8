"""Polar expansion: turn Stiefel-manifold targets into unconstrained targets.

The central identity: the polar orthogonal factor Q_X of an unconstrained
matrix X has the target law on V(k, p) when X carries the expanded density.
With the Wishart conditional for the Gram factor, the expanded log density is

    log f_X(x) = -(pk/2) log 2pi - ||X||_F^2 / 2 + log f_Q(Q_X),

so a uniform f_Q makes X iid standard normal. Gradients flow through the
polar factor via an SVD-based vector-Jacobian product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import LOG_2PI, log_matrix_normal
from .matcore import SpdMatrix, polar_decompose

# check_gradient's base finite-difference step and its pass threshold
FD_STEP = 1e-4
GRADIENT_TOL = 1e-5


@dataclass(frozen=True)
class StiefelTarget:
    """Differentiable log density (up to a constant) on V(k, p).

    value_and_grad(q) returns (log density, p x k array of partials with the
    entries of q treated as free).
    """

    p: int
    k: int
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]

    def log_density(self, q) -> float:
        return self.value_and_grad(q)[0]

    def grad(self, q) -> np.ndarray:
        return self.value_and_grad(q)[1]


@dataclass(frozen=True)
class UnconstrainedTarget:
    """Differentiable log density (up to a constant) on a flat real vector.

    value_and_grad maps a batch of states (chains, dim) to (chains,) values
    and (chains, dim) gradients, one row per state, and a single state (dim,)
    to (float, (dim,)). A state outside the density's support gets -inf.
    """

    dim: int
    value_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def log_density(self, x) -> float:
        return self.value_and_grad(x)[0]

    def grad(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]


def batched(fn):
    """A value_and_grad for UnconstrainedTarget from fn, which takes only batches.

    fn maps (chains, dim) to ((chains,), (chains, dim)); the result also takes
    one (dim,) state, as a batch of one.
    """

    def value_and_grad(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            val, grad = fn(x[None, :])
            return float(val[0]), grad[0]
        return fn(x)

    return value_and_grad


def polar_vjp(x, g) -> np.ndarray:
    """Gradient w.r.t. X of f(Q_X), given g = df/dQ evaluated at Q_X."""
    return polar_decompose(x).vjp(np.asarray(g, dtype=float))


def _per_q(fn, qs):
    """fn, a per-matrix (value, gradient) function, over a stack of matrices."""
    pairs = [fn(q) for q in qs]
    return np.array([f for f, _ in pairs], dtype=float), np.array([g for _, g in pairs])


def expand_general(target: StiefelTarget) -> UnconstrainedTarget:
    """Expanded target with the Wishart conditional on the Gram factor.

    The returned log density is normalized whenever target.log_density is a
    normalized density w.r.t. the uniform probability measure on V(k, p).
    The per-Q target is called once per row of a batch.
    """
    p, k = target.p, target.k
    const = -0.5 * p * k * LOG_2PI

    def value_and_grad(x):
        mat = x.reshape(-1, p, k)
        polar = polar_decompose(mat)
        f, gq = _per_q(target.value_and_grad, polar.q)
        val = const - 0.5 * np.sum(mat * mat, axis=(1, 2)) + f
        grad = -mat + polar.vjp(gq)
        return val, grad.reshape(x.shape)

    return UnconstrainedTarget(dim=p * k, value_and_grad=batched(value_and_grad))


def expand_macg_posterior(
    p: int,
    k: int,
    loglik: Callable[[np.ndarray], tuple[float, np.ndarray]],
    sigma: SpdMatrix,
) -> UnconstrainedTarget:
    """Expanded posterior for a likelihood in Q with a fixed MACG(sigma) prior.

    log f_X(x) = loglik(Q_X) + log N(X | 0, sigma, I); the matrix-normal
    gradient -sigma^{-1} X combines with the VJP of the likelihood gradient.
    The likelihood is called once per row of a batch.
    """
    if sigma.dim != p:
        raise ValueError("sigma must be p x p")

    def value_and_grad(x):
        mat = x.reshape(-1, p, k)
        polar = polar_decompose(mat)
        f, gq = _per_q(loglik, polar.q)
        val = f + log_matrix_normal(mat, sigma)
        grad = -sigma.solve(mat) + polar.vjp(gq)
        return val, grad.reshape(x.shape)

    return UnconstrainedTarget(dim=p * k, value_and_grad=batched(value_and_grad))


@dataclass(frozen=True)
class GradientReport:
    """Per-coordinate comparison of an analytic gradient to finite differences."""

    rel_errors: np.ndarray
    max_rel_error: float
    worst_coordinate: int

    @property
    def ok(self) -> bool:
        return bool(self.max_rel_error <= GRADIENT_TOL)


def check_gradient(target: UnconstrainedTarget, x) -> GradientReport:
    """Compare target.grad(x) against Richardson-refined central differences."""
    x = np.asarray(x, dtype=float)
    analytic = target.value_and_grad(x)[1]
    numeric = np.empty_like(x)
    scale = np.linalg.norm(analytic) / max(1, np.sqrt(x.size))

    def central(i, h):
        e = np.zeros_like(x)
        e[i] = h
        return (target.log_density(x + e) - target.log_density(x - e)) / (2 * h)

    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        d1 = central(i, h)
        d2 = central(i, h / 2)
        numeric[i] = (4 * d2 - d1) / 3  # Richardson refinement
    denom = np.maximum(np.abs(numeric), np.maximum(np.abs(analytic), 1e-8 * max(scale, 1.0)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradientReport(
        rel_errors=rel, max_rel_error=float(rel[worst]), worst_coordinate=worst
    )
