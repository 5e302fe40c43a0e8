import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import chi2

from polarexp.matcore import (
    DegenerateMatrixError,
    IllConditionedError,
    SpdMatrix,
    SvdConvergenceError,
    match_columns,
    polar_decompose,
    thin_svd,
)

from stiefel_densities import log_multigamma, log_polar_jacobian

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def random_stiefel(rng, p, k):
    return np.linalg.qr(rng.standard_normal((p, k)))[0]


def gram(pair):
    """X^T X = v diag(d)^2 v^T from the SVD that a PolarPair carries."""
    return (pair.v * pair.d**2) @ pair.v.T


class TestThinSvd:
    def test_identity(self):
        u, d, v = thin_svd(np.eye(3))
        np.testing.assert_allclose(d, np.ones(3))
        np.testing.assert_allclose(u @ np.diag(d) @ v.T, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        u, d, v = thin_svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(d, [3.0, 2.0])

    def test_golden_ratio_singular_values(self):
        # eigenvalues of X^T X for X=[[1,1],[0,1]] solve t^2 - 3t + 1 = 0,
        # giving t = (3 +- sqrt 5)/2 = golden^2 and 1/golden^2
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        _, d, _ = thin_svd(x)
        np.testing.assert_allclose(d, [GOLDEN, 1.0 / GOLDEN], rtol=1e-12)

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((6, 3))
            u, d, v = thin_svd(x)
            assert np.all(np.diff(d) <= 0) and np.all(d >= 0)
            assert np.linalg.norm(u @ np.diag(d) @ v.T - x) <= 1e-10 * np.linalg.norm(x)


class TestPolarDecompose:
    def test_orthonormal_input(self):
        rng = np.random.default_rng(1)
        q0 = random_stiefel(rng, 5, 3)
        pair = polar_decompose(q0)
        np.testing.assert_allclose(pair.q, q0, atol=1e-12)
        np.testing.assert_allclose(gram(pair), np.eye(3), atol=1e-12)

    def test_positive_scaling(self):
        rng = np.random.default_rng(2)
        q0 = random_stiefel(rng, 4, 2)
        pair = polar_decompose(3.5 * q0)
        np.testing.assert_allclose(pair.q, q0, atol=1e-12)
        np.testing.assert_allclose(gram(pair), 3.5**2 * np.eye(2), atol=1e-10)

    def test_2x2_closed_form(self):
        # independent oracle: Q = X (X^T X)^{-1/2} via a 2x2 eigendecomposition
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        s = x.T @ x
        w, vec = np.linalg.eigh(s)
        s_inv_half = (vec / np.sqrt(w)) @ vec.T
        np.testing.assert_allclose(polar_decompose(x).q, x @ s_inv_half, atol=1e-12)

    def test_rank_deficient_raises(self):
        x = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(DegenerateMatrixError, match="d_k/d_1"):
            polar_decompose(x)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((5, 2))
            pair = polar_decompose(x)
            recon = pair.q @ (pair.v * pair.d) @ pair.v.T
            assert np.linalg.norm(recon - x) <= 1e-8 * np.linalg.norm(x)

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        q = polar_decompose(x).q
        pair = polar_decompose(q)
        assert np.linalg.norm(pair.q - q) <= 1e-10
        assert np.linalg.norm(gram(pair) - np.eye(3)) <= 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        base = polar_decompose(x)
        for c in (0.1, 2.0, 117.0):
            scaled = polar_decompose(c * x)
            assert np.max(np.abs(scaled.q - base.q)) <= 1e-10
            np.testing.assert_allclose(gram(scaled), c**2 * gram(base), rtol=1e-10)

    def test_nearest_point_property(self):
        rng = np.random.default_rng(6)
        for p, k in [(3, 1), (4, 2), (2, 2)]:
            x = rng.standard_normal((p, k))
            qx = polar_decompose(x).q
            best = np.linalg.norm(x - qx)
            for _ in range(1000):
                q = random_stiefel(rng, p, k)
                assert best <= np.linalg.norm(x - q) + 1e-12


class TestStacks:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 7, 3))
        g = rng.standard_normal((4, 7, 3))
        pair = polar_decompose(x)
        grads = pair.vjp(g)
        for i in range(4):
            one = polar_decompose(x[i])
            np.testing.assert_allclose(pair.q[i], one.q, rtol=0, atol=1e-14)
            np.testing.assert_allclose(grads[i], one.vjp(g[i]), rtol=0, atol=1e-13)

    def test_one_degenerate_matrix_raises(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, 5, 2))
        x[1, :, 1] = 2.0 * x[1, :, 0]
        with pytest.raises(DegenerateMatrixError):
            polar_decompose(x)

    def test_lapack_failure_is_svd_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(SvdConvergenceError):
            thin_svd(np.ones((4, 2, 2)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_is_degenerate(self, bad):
        x = np.ones((3, 4, 2))
        x[2, 1, 0] = bad
        with pytest.raises(DegenerateMatrixError, match="non-finite"):
            thin_svd(x)


def match_columns_per_draw(ref, mats):
    """The aligner as a loop over draws and reference columns: the oracle for match_columns."""
    t, _, k = mats.shape
    perm = np.empty((t, k), dtype=int)
    sign = np.empty((t, k))
    for i in range(t):
        used = np.zeros(k, dtype=bool)
        for j in range(k):
            dots = np.where(used, 0.0, ref[:, j] @ mats[i])
            m = int(np.argmax(np.abs(dots)))
            perm[i, j] = m
            sign[i, j] = 1.0 if dots[m] >= 0 else -1.0
            used[m] = True
    return perm, sign


class TestMatchColumns:
    @pytest.mark.parametrize("p,k", [(1, 1), (3, 2), (4, 4), (8, 3), (30, 4)])
    @pytest.mark.parametrize("given", [False, True])
    def test_matches_per_draw_oracle(self, p, k, given):
        rng = np.random.default_rng(100 * p + k)
        t = 200
        mats = np.array([random_stiefel(rng, p, k) for _ in range(t)])
        reference = random_stiefel(rng, p, k) if given else mats[0]
        perm, sign = match_columns(mats, reference)
        perm_1, sign_1 = match_columns_per_draw(reference, mats)
        np.testing.assert_array_equal(perm, perm_1)
        np.testing.assert_array_equal(sign, sign_1)
        for i in range(t):
            assert sorted(perm[i]) == list(range(k))


class TestLogMultigamma:
    def test_k1(self):
        assert log_multigamma(1, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_multigamma(1, 0.5) == pytest.approx(np.log(np.sqrt(np.pi)), abs=1e-12)

    def test_term_by_term(self):
        expected = 0.5 * np.log(np.pi) + gammaln(2.0) + gammaln(1.5)
        assert log_multigamma(2, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_multigamma(3, 1.0)


class TestLogPolarJacobian:
    def test_exponent_cancellation_p2_k1(self):
        for s in (0.3, 1.0, 7.0):
            val = log_polar_jacobian(SpdMatrix([[s]]), 2)
            assert val == pytest.approx(-np.log(np.pi), abs=1e-12)

    def test_p3_k1(self):
        val = log_polar_jacobian(SpdMatrix([[2.0]]), 3)
        expected = gammaln(1.5) - 1.5 * np.log(np.pi) - 0.5 * np.log(2.0)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_p4_k2_determinant_oracle(self):
        s = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        det = 2.0 * 2.0 - 1.0 * 1.0
        expected = log_multigamma(2, 2.0) - 4.0 * np.log(np.pi) - 0.5 * np.log(det)
        assert log_polar_jacobian(s, 4) == pytest.approx(expected, abs=1e-12)


def test_change_of_variables_quadrature():
    # p=2, k=1: integrating f_{S|Q} * f_Q * J over the plane recovers mass 1,
    # with f_Q = 1 w.r.t. the uniform probability measure and S|Q ~ chi^2_2
    def radial(theta):
        def integrand(r):
            s = r * r
            dens = chi2.pdf(s, 2) * 1.0 * np.exp(log_polar_jacobian(SpdMatrix([[s]]), 2))
            return dens * r

        return quad(integrand, 1e-12, 12.0, epsabs=1e-12)[0]

    thetas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    mass = np.mean([radial(t) for t in thetas]) * 2.0 * np.pi
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_spd_rejects_asymmetric_and_indefinite():
    with pytest.raises(IllConditionedError):
        SpdMatrix([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(IllConditionedError):
        SpdMatrix([[1.0, 2.0], [2.0, 1.0]])


def test_spd_logdet_via_cholesky():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    s = SpdMatrix(a @ a.T + 4 * np.eye(4))
    assert s.logdet() == pytest.approx(np.log(np.linalg.det(s.mat)), rel=1e-10)
