"""Closed-form densities and Jacobians on the Stiefel manifold that only tests use.

They serve as exact oracles: the MACG density for the expansion and sampler
tests (criterion 3 included), and the polar Jacobian for the change of
variables X -> (Q_X, S_X).
"""

import numpy as np
from scipy.special import gammaln

from polarexp.matcore import SpdMatrix


def log_multigamma(k: int, a: float) -> float:
    """Log of the multivariate gamma function Gamma_k(a)."""
    if a <= (k - 1) / 2:
        raise ValueError(f"log_multigamma requires a > (k-1)/2, got a={a}, k={k}")
    j = np.arange(1, k + 1)
    return float(k * (k - 1) / 4 * np.log(np.pi) + np.sum(gammaln(a + (1 - j) / 2)))


def log_polar_jacobian(s: SpdMatrix, p: int) -> float:
    """Log Jacobian of the map X -> (Q_X, S_X) for a p x k matrix.

    log J = log Gamma_k(p/2) - (pk/2) log pi - ((p-k-1)/2) log|S|.
    """
    k = s.dim
    if p < k:
        raise ValueError(f"need p >= k, got p={p}, k={k}")
    return (
        log_multigamma(k, p / 2)
        - (p * k / 2) * np.log(np.pi)
        - ((p - k - 1) / 2) * s.logdet()
    )


def log_macg_density(q, sigma: SpdMatrix) -> float:
    """Log density of q under the matrix angular central Gaussian MACG(sigma).

    Taken w.r.t. the uniform probability measure:
    -(k/2) log|sigma| - (p/2) log|q^T sigma^{-1} q|; zero when sigma = I.
    """
    q = np.asarray(q, dtype=float)
    p, k = q.shape
    if sigma.dim != p:
        raise ValueError("dimension mismatch between q and sigma")
    inner = SpdMatrix(q.T @ sigma.solve(q))
    return -0.5 * k * sigma.logdet() - 0.5 * p * inner.logdet()
