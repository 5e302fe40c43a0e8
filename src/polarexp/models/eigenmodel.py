"""Probit network eigenmodel with a low-rank latent structure.

Binary symmetric adjacency Y with edge probabilities Phi[c + (Q L Q^T)_ij],
Q a p x k orthonormal matrix with a uniform prior (expanded to an
unconstrained X), L = diag(lambda) with N(0, p) priors, and c ~ N(0, 100).
The flat parameter vector is [c, vec(X), lambda], length 1 + p*k + k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ..expansion import UnconstrainedTarget
from ..matcore import check_stiefel, match_columns, polar_decompose
from ..matcore import thin_svd  # noqa: F401  (perfbench/launch.py patches it here)

_LOG_NORM_CONST = -0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class EigenmodelData:
    """Symmetric binary adjacency matrix; the diagonal is ignored."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {y.shape}")
        # report the first bad cell of the upper triangle, in row-major order
        bad = np.argwhere(np.triu((y != y.T) | ~np.isin(y, (0, 1)), 1))
        if bad.size:
            i, j = bad[0]
            if y[i, j] != y[j, i]:
                raise ValueError(
                    f"asymmetric at cell ({i + 1}, {j + 1}): {y[i, j]:g} vs {y[j, i]:g}"
                )
            raise ValueError(
                f"non-binary cell ({i + 1}, {j + 1}): {y[i, j]:g}; "
                "off-diagonal entries must be 0 or 1"
            )
        object.__setattr__(self, "y", y)

    @property
    def p(self) -> int:
        return self.y.shape[0]


def unpack_eigen_params(theta, p: int, k: int):
    """Split the flat vector into (c, X, lambda)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != 1 + p * k + k:
        raise ValueError(f"expected {1 + p * k + k} parameters, got {theta.size}")
    c = float(theta[0])
    x = theta[1 : 1 + p * k].reshape(p, k)
    lam = theta[1 + p * k :]
    return c, x, lam


def eigenmodel_target(data: EigenmodelData, k: int = 3) -> UnconstrainedTarget:
    """Expanded log posterior of (c, X, lambda) given the adjacency.

    The dyad log likelihood uses log Phi evaluated through a stable
    complementary-error-function path, finite out to |eta| ~ 40.
    """
    p = data.p
    iu = np.triu_indices(p, 1)
    yv = data.y[iu]

    def value_and_grad(theta):
        c, x, lam = unpack_eigen_params(theta, p, k)
        # runaway warmup trajectories overflow the quadratic prior terms;
        # report -inf so the sampler counts the state as divergent
        if np.max(np.abs(theta)) > 1e8:
            return -np.inf, np.zeros(theta.size)
        polar = polar_decompose(x)
        q = polar.q
        qlam = q * lam
        eta = c + (qlam @ q.T)[iu]
        lp1 = log_ndtr(eta)
        lp0 = log_ndtr(-eta)
        ll = float(yv @ lp1 + (1.0 - yv) @ lp0)
        val = (
            ll
            - c * c / 200.0
            - 0.5 * float(np.sum(x * x))
            - float(np.sum(lam * lam)) / (2.0 * p)
        )
        # dyad weights d ll / d eta, written as ratios of logs for stability
        log_pdf = _LOG_NORM_CONST - 0.5 * eta * eta
        w = yv * np.exp(log_pdf - lp1) - (1.0 - yv) * np.exp(log_pdf - lp0)
        wmat = np.zeros((p, p))
        wmat[iu] = w
        wmat += wmat.T
        gc = float(np.sum(w)) - c / 100.0
        gq = wmat @ qlam
        gx = polar.vjp(gq) - x
        glam = 0.5 * np.sum(q * (wmat @ q), axis=0) - lam / p
        return val, np.concatenate(([gc], gx.ravel(), glam))

    return UnconstrainedTarget(dim=1 + p * k + k, value_and_grad=value_and_grad)


def eigenmodel_initial_points(data: EigenmodelData, k: int, chains: int, seed: int,
                              jitter: float = 0.05):
    """Moment-matched starting points for the sampler, one per chain.

    A first-order probit inversion turns the adjacency into an estimate of the
    latent symmetric structure: with edge density r, c0 = Phi^{-1}(r) and
    (Y - r) / phi(c0) approximates Q L Q^T, whose top-k eigenpairs (by
    magnitude) seed (X, lambda). Each chain adds small Gaussian jitter from an
    independent stream derived from (seed, chain index).
    """
    p = data.p
    iu = np.triu_indices(p, 1)
    dens = float(np.clip(np.mean(data.y[iu]), 1.0 / (2 * iu[0].size), 1.0 - 1.0 / (2 * iu[0].size)))
    c0 = float(ndtri(dens))
    pdf = float(np.exp(_LOG_NORM_CONST - 0.5 * c0 * c0))
    m = (data.y - dens) / pdf
    np.fill_diagonal(m, 0.0)
    evals, evecs = np.linalg.eigh(m)
    top = np.argsort(-np.abs(evals))[:k]
    q0 = evecs[:, top]
    lam0 = evals[top]
    base = np.concatenate(([c0], q0.ravel(), lam0))
    inits = []
    for c in range(chains):
        rng = np.random.default_rng([seed, c, 7919])
        inits.append(base + jitter * rng.standard_normal(base.size))
    return inits


def simulate_eigenmodel(p, c, q, lam, rng) -> EigenmodelData:
    """Draw a symmetric binary adjacency from the probit eigenmodel."""
    q = check_stiefel(q)
    lam = np.asarray(lam, dtype=float)
    prob = ndtr(c + (q * lam) @ q.T)
    y = np.zeros((p, p))
    iu = np.triu_indices(p, 1)
    y[iu] = (rng.random(iu[0].size) < prob[iu]).astype(float)
    y += y.T
    return EigenmodelData(y=y)


def align_eigen_draws(q_draws, lam_draws, reference=None):
    """Resolve the column sign/permutation symmetry for reporting.

    Each draw's columns are greedily matched to the reference (default: the
    first draw), processing reference columns in decreasing |lambda| order and
    picking the unmatched column with the largest |inner product|; signs follow
    the inner products. Identifiable functions (Q L Q^T) are untouched.
    """
    q_draws = np.asarray(q_draws, dtype=float)
    lam_draws = np.asarray(lam_draws, dtype=float)
    ref_q = q_draws[0] if reference is None else np.asarray(reference, dtype=float)
    perm, sign = match_columns(ref_q, q_draws, np.argsort(-np.abs(lam_draws[0])))
    q_out = np.take_along_axis(q_draws, perm[:, None, :], axis=2) * sign[:, None, :]
    return q_out, np.take_along_axis(lam_draws, perm, axis=1)
