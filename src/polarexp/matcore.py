"""Dense linear-algebra primitives behind the polar-factor machinery.

Everything here is a pure function of its inputs. Matrices are plain
float64 numpy arrays; the only stateful-looking object is :class:`SpdMatrix`,
which caches its Cholesky factor at construction and is immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# Orthonormality tolerance for Stiefel-point validation.
ORTH_TOL = 1e-10
# Smallest acceptable d_k / d_1 before an input counts as rank deficient.
RANK_TOL = 1e-12
# Relative symmetry tolerance for SPD construction.
SYM_TOL = 1e-12
# Floor on the Sylvester denominators d_i + d_j of the polar pullback, relative to d_1.
VJP_DENOM_TOL = 1e-10


class DegenerateMatrixError(ValueError):
    """Input matrix is (numerically) rank deficient or non-finite, or its SVD failed."""


class IllConditionedError(ValueError):
    """A symmetric matrix failed an SPD / conditioning requirement."""


class SvdConvergenceError(DegenerateMatrixError):
    """The SVD iteration did not converge."""


class InputError(ValueError):
    """Bad data, option or model setting, refused where it is read, before any sampling."""


class SpdMatrix:
    """Symmetric positive definite matrix with a cached lower Cholesky factor.

    Construction validates symmetry (relative Frobenius tolerance) and
    positive definiteness (the Cholesky must succeed). Instances are
    immutable.
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
        """S^{-1} b via the cached factor; b is (p, m) or a stack (..., p, m)."""
        b = np.asarray(b, dtype=float)
        # rows to the front; the other axes only index right-hand sides, so their
        # order is free, and swapaxes costs a sixth of moveaxis
        cols = np.swapaxes(b, 0, -2)
        sol = sla.cho_solve((self.chol, True), cols.reshape(self.dim, -1))
        return np.swapaxes(sol.reshape(cols.shape), 0, -2)


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
        Works on stacks: g has the shape of q, (..., p, k).
        """
        u, d, v = self.u, self.d, self.v
        denom = d[..., :, None] + d[..., None, :]
        low = denom.min(axis=(-2, -1)) <= VJP_DENOM_TOL * np.maximum(d[..., 0], 1e-300)
        if np.any(low):
            raise DegenerateMatrixError(
                f"clustered singular values near zero: min(d_i + d_j) = {denom.min():.3e}"
            )
        vt = v.swapaxes(-1, -2)
        ghat = u.swapaxes(-1, -2) @ g @ v
        h = (ghat - ghat.swapaxes(-1, -2)) / denom
        comp = g - u @ ghat @ vt  # (I - uu^T) g, written without forming uu^T
        return u @ h @ vt + comp @ (v / d[..., None, :]) @ vt


def check_stiefel(q) -> np.ndarray:
    """Validate that q has orthonormal columns; returns q as float64."""
    q = np.asarray(q, dtype=float)
    p, k = q.shape
    if p < k:
        raise ValueError(f"need p >= k, got {p} x {k}")
    err = np.linalg.norm(q.T @ q - np.eye(k))
    if err > ORTH_TOL:
        raise ValueError(f"columns are not orthonormal: ||Q^T Q - I|| = {err:.3e}")
    return q


def thin_svd(x):
    """Thin SVD of a p x k matrix (p >= k), or of each matrix in a stack (..., p, k).

    Returns (u, d, v) with u of shape (..., p, k), d descending nonnegative,
    and v the k x k right factor (columns are right singular vectors),
    so that x = u @ diag(d) @ v.T.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(x)):
        raise DegenerateMatrixError("matrix has non-finite entries")
    try:
        u, d, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    return u, d, vt.swapaxes(-1, -2)


def polar_decompose(x) -> PolarPair:
    """Polar decomposition of a full-rank p x k matrix, or of each matrix in a stack.

    Computed through the thin SVD x = u diag(d) v^T: the orthonormal factor
    is q = u v^T (the Frobenius-nearest matrix with orthonormal columns).
    The SVD is kept for the pullback PolarPair.vjp.

    Raises DegenerateMatrixError when d_k < RANK_TOL * d_1 for any matrix.
    """
    u, d, v = thin_svd(x)
    first, last = d[..., 0], d[..., -1]
    if np.any((first == 0.0) | (last < RANK_TOL * first)):
        ratio = np.min(last / np.maximum(first, np.finfo(float).tiny))
        raise DegenerateMatrixError(
            f"rank-deficient input: d_k/d_1 = {ratio:.3e} < {RANK_TOL:.0e}"
        )
    return PolarPair(q=u @ v.swapaxes(-1, -2), u=u, d=d, v=v)


def match_columns(mats, reference):
    """Resolve the column sign/order symmetry of a stack mats (t x p x k) against a reference.

    The reference (p x k), such as a point estimate or a true Q, is visited in
    column order. Each reference column takes, in every matrix at once, the
    unmatched column with the largest |inner product| and the sign of that
    inner product. Returns (perm, sign), both t x k: column j of the aligned
    mats[i] is sign[i, j] * mats[i][:, perm[i, j]].
    """
    mats, ref = np.asarray(mats, dtype=float), np.asarray(reference, dtype=float)
    t, _, k = mats.shape
    dots = ref.T @ mats  # dots[i, j, m] = <ref[:, j], mats[i][:, m]>
    rows = np.arange(t)
    perm = np.empty((t, k), dtype=int)
    sign = np.empty((t, k))
    used = np.zeros((t, k), dtype=bool)
    for j in range(k):
        col = np.where(used, 0.0, dots[:, j])
        m = np.argmax(np.abs(col), axis=1)
        perm[:, j] = m
        sign[:, j] = np.where(col[rows, m] >= 0, 1.0, -1.0)
        used[rows, m] = True
    return perm, sign
