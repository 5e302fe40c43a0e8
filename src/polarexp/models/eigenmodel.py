"""Probit network eigenmodel with a low-rank latent structure.

Binary symmetric adjacency Y with edge probabilities Phi[c + (Q L Q^T)_ij],
Q a p x k orthonormal matrix with a uniform prior (expanded to an
unconstrained X), L = diag(lambda) with N(0, p) priors, and c ~ N(0, 100).
The flat parameter vector is [c, vec(X), lambda], length 1 + p*k + k;
only unpack_eigen_params knows this layout: pack_eigen_params writes
through its views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ..expansion import UnconstrainedTarget, batched
from ..matcore import InputError, check_stiefel, match_columns, polar_decompose
from ..matcore import thin_svd  # noqa: F401  (perfbench/launch.py patches it here)

_LOG_NORM_CONST = -0.5 * np.log(2.0 * np.pi)
# scale of the per-chain jitter on the initial points
INIT_JITTER = 0.05


@dataclass(frozen=True)
class EigenmodelData:
    """Symmetric binary adjacency matrix; the diagonal is ignored."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise InputError(f"adjacency must be square, got shape {y.shape}")
        if y.shape[0] < 2:
            raise InputError(f"adjacency needs at least 2 nodes, got {y.shape[0]}")
        # report the first bad cell of the upper triangle, in row-major order
        bad = np.argwhere(np.triu((y != y.T) | ~np.isin(y, (0, 1)), 1))
        if bad.size:
            i, j = bad[0]
            if y[i, j] != y[j, i]:
                raise InputError(
                    f"asymmetric at cell ({i + 1}, {j + 1}): {y[i, j]:g} vs {y[j, i]:g}"
                )
            raise InputError(
                f"non-binary cell ({i + 1}, {j + 1}): {y[i, j]:g}; "
                "off-diagonal entries must be 0 or 1"
            )
        object.__setattr__(self, "y", y)

    @property
    def p(self) -> int:
        return self.y.shape[0]


def _eigen_dim(p: int, k: int) -> int:
    return 1 + p * k + k


def unpack_eigen_params(theta, p: int, k: int):
    """Split flat vectors (..., dim) into views (c, X, lambda).

    Their shapes are (...), (..., p, k) and (..., k).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != _eigen_dim(p, k):
        raise ValueError(f"expected {_eigen_dim(p, k)} parameters, got {theta.shape[-1]}")
    x = theta[..., 1 : 1 + p * k].reshape(*theta.shape[:-1], p, k)
    return theta[..., 0], x, theta[..., 1 + p * k :]


def pack_eigen_params(c, x, lam):
    """The flat vectors (..., dim) of (c, X, lambda), written into unpack_eigen_params's views."""
    p, k = np.shape(x)[-2:]
    theta = np.empty((*np.shape(c), _eigen_dim(p, k)))
    for view, block in zip(unpack_eigen_params(theta, p, k), (c, x, lam)):
        view[...] = block
    return theta


def eigenmodel_target(data: EigenmodelData, k: int) -> UnconstrainedTarget:
    """Expanded log posterior of (c, X, lambda) given the adjacency.

    The dyad log likelihood uses log Phi evaluated through a stable
    complementary-error-function path, finite out to |eta| ~ 40. A batch of
    states is evaluated in one pass, with one stacked SVD. k must lie in 1..p.
    """
    p = data.p
    if not 1 <= k <= p:
        raise InputError(f"need 1 <= k <= {p} on a {p}-node graph, got k = {k}")
    iu = np.triu_indices(p, 1)
    upper = iu[0] * p + iu[1]  # the dyads as flat indices into a p x p matrix
    # dyad signs s = 2y - 1: the likelihood is log Phi(s eta) for either y
    sign = 2.0 * data.y[iu] - 1.0

    def in_support(theta):
        # runaway warmup trajectories overflow the quadratic prior terms;
        # report -inf so the sampler counts the state as divergent
        return np.max(np.abs(theta), axis=1) <= 1e8

    def value_and_grad(theta):
        c, x, lam = unpack_eigen_params(theta, p, k)
        polar = polar_decompose(x)
        q = polar.q
        qlam = q * lam[:, None, :]
        # take, not fancy indexing, and row sums, not a matrix-vector product:
        # C-ordered rows keep each state's value independent of the batch
        eta = c[:, None] + np.take((qlam @ q.swapaxes(1, 2)).reshape(-1, p * p), upper, axis=1)
        lp = log_ndtr(sign * eta)
        val = (
            np.sum(lp, axis=1)
            - c * c / 200.0
            - 0.5 * np.sum(x * x, axis=(1, 2))
            - np.sum(lam * lam, axis=1) / (2.0 * p)
        )
        # dyad weights d ll / d eta = s phi(eta) / Phi(s eta), taken as
        # exp(log phi - log Phi) to stay finite in the tails
        w = sign * np.exp(_LOG_NORM_CONST - 0.5 * eta * eta - lp)
        wmat = np.zeros((c.size, p * p))
        wmat[:, upper] = w
        wmat = wmat.reshape(-1, p, p)
        wmat += wmat.swapaxes(1, 2)
        return val, pack_eigen_params(
            np.sum(w, axis=1) - c / 100.0,
            polar.vjp(wmat @ qlam) - x,
            0.5 * np.sum(q * (wmat @ q), axis=1) - lam / p,
        )

    return UnconstrainedTarget(_eigen_dim(p, k), batched(value_and_grad, in_support))


def eigenmodel_point_estimate(mat, k: int):
    """(Q, lambda): the k eigenpairs of the symmetric mat largest in |lambda|, in that order."""
    evals, evecs = np.linalg.eigh(mat)
    top = np.argsort(-np.abs(evals))[:k]
    return evecs[:, top], evals[top]


def eigenmodel_initial_points(data: EigenmodelData, k: int, chains: int, seed: int):
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
    base = pack_eigen_params(c0, *eigenmodel_point_estimate(m, k))
    inits = []
    for c in range(chains):
        rng = np.random.default_rng([seed, c, 7919])
        inits.append(base + INIT_JITTER * rng.standard_normal(base.size))
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


def align_eigen_draws(q_draws, lam_draws, reference):
    """lambda draws following each Q's columns as `match_columns` matches them to the reference.

    Q L Q^T is unchanged by that match. The CLI passes eigenmodel_point_estimate.
    """
    perm = match_columns(q_draws, reference)[0]
    return np.take_along_axis(np.asarray(lam_draws, dtype=float), perm, axis=1)
