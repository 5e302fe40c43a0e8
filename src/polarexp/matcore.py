"""Dense linear-algebra primitives behind the polar-factor machinery.

Everything here is a pure function of its inputs. Matrices are plain
float64 numpy arrays; the only stateful-looking object is :class:`SpdMatrix`,
which caches its Cholesky factor at construction and is immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln

# Orthonormality tolerance for Stiefel-point validation.
ORTH_TOL = 1e-10
# Smallest acceptable d_k / d_1 before an input counts as rank deficient.
RANK_TOL = 1e-12
# Relative symmetry tolerance for SPD construction.
SYM_TOL = 1e-12
# Floor on the Sylvester denominators d_i + d_j of the polar pullback, relative to d_1.
VJP_DENOM_TOL = 1e-10


class DegenerateMatrixError(ValueError):
    """Input matrix is (numerically) rank deficient."""


class IllConditionedError(ValueError):
    """A symmetric matrix failed an SPD / conditioning requirement."""


class SvdConvergenceError(RuntimeError):
    """The SVD iteration did not converge."""


class SpdMatrix:
    """Symmetric positive definite matrix with a cached lower Cholesky factor.

    Construction validates symmetry (relative Frobenius tolerance) and
    positive definiteness (the Cholesky must succeed). Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("mat", "chol")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        scale = np.linalg.norm(mat)
        asym = np.linalg.norm(mat - mat.T)
        if scale > 0 and asym > SYM_TOL * scale * 10:
            raise IllConditionedError(
                f"matrix is not symmetric: ||S - S^T|| = {asym:.3e} vs ||S|| = {scale:.3e}"
            )
        mat = 0.5 * (mat + mat.T)
        try:
            chol = sla.cholesky(mat, lower=True)
        except sla.LinAlgError as exc:
            raise IllConditionedError(f"Cholesky failed: {exc}") from exc
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "chol", chol)
        mat.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("SpdMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def logdet(self) -> float:
        """log|S| from the cached Cholesky factor."""
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def solve(self, b):
        """S^{-1} b via the cached factor."""
        return sla.cho_solve((self.chol, True), np.asarray(b, dtype=float))


@dataclass(frozen=True)
class PolarPair:
    """Polar factor q = u v^T of X together with the thin SVD X = u diag(d) v^T."""

    q: np.ndarray
    u: np.ndarray
    d: np.ndarray
    v: np.ndarray

    def vjp(self, g) -> np.ndarray:
        """Gradient w.r.t. X of f(Q_X), given the cotangent g = df/dQ at Q_X.

        With ghat = u^T g v, the tangent action on the singular-vector pair is
        the antisymmetric system h_ij = (ghat_ij - ghat_ji) / (d_i + d_j); for
        p > k the orthogonal complement contributes (I - uu^T) g v d^{-1} v^T.
        """
        u, d, v = self.u, self.d, self.v
        denom = d[:, None] + d[None, :]
        if denom.min() <= VJP_DENOM_TOL * max(d[0], 1e-300):
            raise DegenerateMatrixError(
                f"clustered singular values near zero: min(d_i + d_j) = {denom.min():.3e}"
            )
        ghat = u.T @ g @ v
        h = (ghat - ghat.T) / denom
        comp = g - u @ ghat @ v.T  # (I - uu^T) g, written without forming uu^T
        return u @ h @ v.T + comp @ (v / d) @ v.T


def check_stiefel(q, tol: float = ORTH_TOL) -> np.ndarray:
    """Validate that q has orthonormal columns; returns q as float64."""
    q = np.asarray(q, dtype=float)
    p, k = q.shape
    if p < k:
        raise ValueError(f"need p >= k, got {p} x {k}")
    err = np.linalg.norm(q.T @ q - np.eye(k))
    if err > tol:
        raise ValueError(f"columns are not orthonormal: ||Q^T Q - I|| = {err:.3e}")
    return q


def thin_svd(x):
    """Thin SVD of a p x k matrix (p >= k).

    Returns (u, d, v) with u of shape (p, k), d descending nonnegative,
    and v the k x k right factor (columns are right singular vectors),
    so that x = u @ diag(d) @ v.T.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix has non-finite entries")
    try:
        u, d, vt = sla.svd(x, full_matrices=False)
    except sla.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    return u, d, vt.T


def polar_decompose(x) -> PolarPair:
    """Polar decomposition of a full-rank p x k matrix.

    Computed through the thin SVD x = u diag(d) v^T: the orthonormal factor
    is q = u v^T (the Frobenius-nearest matrix with orthonormal columns).
    The SVD is kept for the pullback PolarPair.vjp.

    Raises DegenerateMatrixError when d_k < RANK_TOL * d_1.
    """
    u, d, v = thin_svd(x)
    if d[0] == 0.0 or d[-1] < RANK_TOL * d[0]:
        ratio = d[-1] / d[0] if d[0] > 0 else 0.0
        raise DegenerateMatrixError(
            f"rank-deficient input: d_k/d_1 = {ratio:.3e} < {RANK_TOL:.0e}"
        )
    return PolarPair(q=u @ v.T, u=u, d=d, v=v)


def match_columns(ref, mats, order):
    """Greedy sign/permutation matching of the columns of each matrix to ref.

    For each of the t matrices in mats (t x p x k), the reference columns are
    visited in `order`; each takes the unmatched column with the largest
    |inner product| and the sign of that inner product. Returns (perm, sign),
    both t x k: column j of aligned matrix i is sign[i, j] * mats[i][:, perm[i, j]].
    """
    t, _, k = mats.shape
    perm = np.empty((t, k), dtype=int)
    sign = np.empty((t, k))
    for i in range(t):
        used = np.zeros(k, dtype=bool)
        for j in order:
            dots = ref[:, j] @ mats[i]
            dots = np.where(used, 0.0, dots)
            m = int(np.argmax(np.abs(dots)))
            perm[i, j] = m
            sign[i, j] = 1.0 if dots[m] >= 0 else -1.0
            used[m] = True
    return perm, sign


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
