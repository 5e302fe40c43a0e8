"""Polar expansion: turn Stiefel-manifold targets into unconstrained targets.

The central identity: the polar orthogonal factor Q_X of an unconstrained
matrix X has the target law on V(k, p) when X carries the expanded density

    log f_X(x) = log f_Q(Q_X) + log N(X | 0, sigma, I).

expand(target, sigma) builds it, with the matrix-normal base from
distributions.log_matrix_normal_grad. sigma None (the identity) is the
Wishart conditional for the Gram factor, so a uniform f_Q makes X iid
standard normal; an SPD sigma is the posterior of a likelihood in Q under an
MACG(sigma) prior. Gradients flow through the polar factor via an SVD-based
vector-Jacobian product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import log_matrix_normal_grad
from .matcore import SpdMatrix, polar_decompose

# check_gradient's pass threshold
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


@dataclass(frozen=True)
class UnconstrainedTarget:
    """Differentiable log density (up to a constant) on a flat real vector.

    value_and_grad maps a batch of states (chains, dim) to (chains,) values
    and (chains, dim) gradients, one row per state, and a single state (dim,)
    to (float, (dim,)). A state outside the density's support gets -inf and a
    zero gradient; `batched` owns that contract and the single-state form.
    """

    dim: int
    value_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def log_density(self, x) -> float:
        return self.value_and_grad(x)[0]


def batched(fn, in_support=None):
    """A value_and_grad for UnconstrainedTarget from fn, which sees only rows in support.

    fn maps (rows, dim) to ((rows,), (rows, dim)). in_support(batch) marks the
    rows fn sees, in order, every row when it is None; the other rows get -inf
    and a zero gradient, and fn is not called without a row in support. One
    (dim,) state is taken as a batch of one.
    """

    def value_and_grad(x):
        x = np.asarray(x, dtype=float)
        batch = np.atleast_2d(x)
        val = np.full(batch.shape[0], -np.inf)
        grad = np.zeros_like(batch)
        ok = np.ones(batch.shape[0], dtype=bool) if in_support is None else in_support(batch)
        if np.any(ok):
            val[ok], grad[ok] = fn(batch[ok])
        if x.ndim == 1:
            return float(val[0]), grad[0]
        return val, grad

    return value_and_grad


def polar_vjp(x, g) -> np.ndarray:
    """Gradient w.r.t. X of f(Q_X), given g = df/dQ evaluated at Q_X."""
    return polar_decompose(x).vjp(np.asarray(g, dtype=float))


def expand(target: StiefelTarget, sigma: SpdMatrix | None) -> UnconstrainedTarget:
    """Expanded target log f_X(x) = target(Q_X) + log N(X | 0, sigma, I).

    sigma None (the identity) is the Wishart conditional on the Gram factor:
    the result is normalized whenever target is a normalized density w.r.t.
    the uniform probability measure on V(k, p). An SPD sigma gives the
    posterior of a likelihood target under a fixed MACG(sigma) prior. The
    per-Q target is called once per row of a batch.
    """
    p, k = target.p, target.k
    if sigma is not None and sigma.dim != p:
        raise ValueError("sigma must be p x p")

    def value_and_grad(x):
        mat = x.reshape(-1, p, k)
        polar = polar_decompose(mat)
        pairs = [target.value_and_grad(q) for q in polar.q]
        f = np.array([v for v, _ in pairs], dtype=float)
        base, g_base = log_matrix_normal_grad(mat, sigma)
        grad = g_base + polar.vjp(np.array([g for _, g in pairs]))
        return base + f, grad.reshape(x.shape)

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
    """Compare the gradient of target at x against Richardson-refined central differences.

    The step h = (eps max(1, |log pi(x)|))^(1/5) balances the roundoff in each
    difference, about eps |log pi| / h, against the O(h^4) Richardson error.
    """
    x = np.asarray(x, dtype=float)
    val, analytic = target.value_and_grad(x)
    h = (np.finfo(float).eps * max(1.0, abs(val))) ** 0.2
    numeric = np.empty_like(x)
    scale = np.linalg.norm(analytic) / max(1, np.sqrt(x.size))

    def central(i, h):
        e = np.zeros_like(x)
        e[i] = h
        return (target.log_density(x + e) - target.log_density(x - e)) / (2 * h)

    for i in range(x.size):
        d1 = central(i, h)
        d2 = central(i, h / 2)
        numeric[i] = (4 * d2 - d1) / 3  # Richardson refinement
    denom = np.maximum(np.abs(numeric), np.maximum(np.abs(analytic), 1e-8 * max(scale, 1.0)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradientReport(
        rel_errors=rel, max_rel_error=float(rel[worst]), worst_coordinate=worst
    )
