import numpy as np
import pytest
from scipy.stats import chisquare, norm

from polarexp.expansion import (
    StiefelTarget,
    UnconstrainedTarget,
    batched,
    check_gradient,
    expand,
    polar_vjp,
)
from polarexp.matcore import DegenerateMatrixError, SpdMatrix

from stiefel_densities import log_macg_density


def uniform_target(p, k):
    return StiefelTarget(p=p, k=k, value_and_grad=lambda q: (0.0, np.zeros((p, k))))


def fd_gradient(target, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (target.log_density(x + e) - target.log_density(x - e)) / (2 * h)
    return g


class TestPolarVjp:
    def test_orthonormal_point_closed_form(self):
        # at orthonormal X the chain rule reduces to G - X sym(X^T G)
        rng = np.random.default_rng(0)
        x = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        g = rng.standard_normal((5, 3))
        xtg = x.T @ g
        expected = g - x @ (xtg + xtg.T) / 2
        np.testing.assert_allclose(polar_vjp(x, g), expected, atol=1e-12)

    def test_homogeneity_orthogonal_to_x(self):
        # Q_{cX} = Q_X for c > 0 implies <grad, X> = 0
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((6, 2))
            g = rng.standard_normal((6, 2))
            assert abs(np.sum(polar_vjp(x, g) * x)) <= 1e-10 * np.linalg.norm(g)

    def test_linearity_in_cotangent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 2))
        g1 = rng.standard_normal((4, 2))
        g2 = rng.standard_normal((4, 2))
        lhs = polar_vjp(x, 2.0 * g1 - 0.5 * g2)
        rhs = 2.0 * polar_vjp(x, g1) - 0.5 * polar_vjp(x, g2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        p, k = 5, 3
        c = rng.standard_normal((p, k))

        def f(xflat):
            x = xflat.reshape(p, k)
            u, d, vt = np.linalg.svd(x, full_matrices=False)
            return float(np.sum(c * (u @ vt)))

        for _ in range(10):
            x = rng.standard_normal((p, k))
            tgt = UnconstrainedTarget(dim=p * k, value_and_grad=lambda z: (f(z), None))
            numeric = fd_gradient(tgt, x.ravel())
            analytic = polar_vjp(x, c).ravel()
            assert np.max(np.abs(analytic - numeric)) <= 1e-6

    def test_degenerate_raises(self):
        x = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(DegenerateMatrixError):
            polar_vjp(x, np.ones((4, 2)))


class TestBatched:
    @staticmethod
    def recording(seen):
        """A batch fn that records its input: value the row sum, gradient the row plus 1."""

        def fn(rows):
            seen.append(rows.copy())
            return rows.sum(axis=1), rows + 1.0

        return fn

    @staticmethod
    def first_positive(batch):
        return batch[:, 0] > 0

    def test_fn_sees_only_rows_in_support(self):
        seen = []
        vag = batched(self.recording(seen), self.first_positive)
        x = np.array([[1.0, 2.0], [-1.0, 5.0], [3.0, -4.0], [-2.0, 0.5]])
        val, grad = vag(x)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], x[[0, 2]])
        np.testing.assert_array_equal(val, [3.0, -np.inf, -1.0, -np.inf])
        np.testing.assert_array_equal(grad, [[2.0, 3.0], [0.0, 0.0], [4.0, -3.0], [0.0, 0.0]])

    def test_no_row_in_support_never_calls_fn(self):
        seen = []
        vag = batched(self.recording(seen), self.first_positive)
        val, grad = vag(-np.ones((3, 2)))
        np.testing.assert_array_equal(val, np.full(3, -np.inf))
        np.testing.assert_array_equal(grad, np.zeros((3, 2)))
        val, grad = vag(np.array([-1.0, 2.0]))
        assert type(val) is float and val == -np.inf
        np.testing.assert_array_equal(grad, np.zeros(2))
        assert seen == []

    def test_no_predicate_means_every_row(self):
        seen = []
        vag = batched(self.recording(seen))
        x = np.array([[1.0, 2.0], [-1.0, 5.0]])
        val, grad = vag(x)
        np.testing.assert_array_equal(seen[0], x)
        np.testing.assert_array_equal(val, [3.0, 4.0])
        val, grad = vag(x[1])
        assert type(val) is float and val == 4.0
        np.testing.assert_array_equal(grad, [0.0, 6.0])


class TestExpandGeneral:
    """expand(target, None): the Wishart conditional on the Gram factor."""

    def test_uniform_is_standard_normal(self):
        # f_Q == 1 -> expanded density is an exact iid N(0,1) log density
        tgt = expand(uniform_target(3, 2), None)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.standard_normal(6) * rng.uniform(0.2, 3.0)
            expected = float(np.sum(norm.logpdf(x)))
            assert tgt.log_density(x) == pytest.approx(expected, abs=1e-12)
            np.testing.assert_allclose(tgt.value_and_grad(x)[1], -x, atol=1e-12)

    def test_radial_ratio_ignores_angular_part(self):
        # the log-density difference along a ray depends only on ||x||, not f_Q
        rng = np.random.default_rng(5)
        sigma = SpdMatrix(np.diag([3.0, 1.0, 0.5]))

        def vag(q):
            return log_macg_density(q, sigma), np.zeros_like(q)

        shaped = expand(StiefelTarget(p=3, k=1, value_and_grad=vag), None)
        flat = expand(uniform_target(3, 1), None)
        for _ in range(10):
            x = rng.standard_normal(3)
            d_shaped = shaped.log_density(2.0 * x) - shaped.log_density(x)
            d_flat = flat.log_density(2.0 * x) - flat.log_density(x)
            assert d_shaped == pytest.approx(d_flat, abs=1e-12)

    def test_gradient_with_macg_target(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        sigma = SpdMatrix(a @ a.T + 4 * np.eye(4))

        def vag(q):
            val = log_macg_density(q, sigma)
            h = 1e-7
            g = np.empty_like(q)
            for idx in np.ndindex(q.shape):
                e = np.zeros_like(q)
                e[idx] = h
                g[idx] = (
                    log_macg_density(q + e, sigma) - log_macg_density(q - e, sigma)
                ) / (2 * h)
            return val, g

        tgt = expand(StiefelTarget(p=4, k=2, value_and_grad=vag), None)
        x = rng.standard_normal(8)
        report = check_gradient(tgt, x)
        assert report.max_rel_error <= 1e-5


class TestExpandMacgPosterior:
    """expand(likelihood, sigma): a likelihood in Q under a fixed MACG(sigma) prior."""

    def test_flat_likelihood_identity_sigma(self):
        tgt = expand(uniform_target(3, 2), SpdMatrix(np.eye(3)))
        ref = expand(uniform_target(3, 2), None)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(6)
            assert tgt.log_density(x) == pytest.approx(ref.log_density(x), abs=1e-12)
            np.testing.assert_allclose(
                tgt.value_and_grad(x)[1], ref.value_and_grad(x)[1], atol=1e-12
            )

    def test_polar_law_matches_density(self):
        # sample the expanded flat-likelihood target directly in X and compare
        # the circle angle histogram to the matching angular density
        rng = np.random.default_rng(8)
        sigma = SpdMatrix(np.diag([4.0, 1.0]))
        chol = np.linalg.cholesky(sigma.mat)
        n = 40_000
        angles = np.empty(n)
        for i in range(n):
            x = chol @ rng.standard_normal((2, 1))
            angles[i] = np.arctan2(x[1, 0], x[0, 0])
        edges = np.linspace(-np.pi, np.pi, 21)
        counts, _ = np.histogram(angles, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.array(
            [
                np.exp(
                    log_macg_density(
                        np.array([[np.cos(t)], [np.sin(t)]]), sigma
                    )
                )
                for t in centers
            ]
        )
        expected = n * dens / dens.sum()
        assert chisquare(counts, expected).pvalue > 0.01

    def test_sigma_shape_validation(self):
        with pytest.raises(ValueError):
            expand(uniform_target(4, 2), SpdMatrix(np.eye(3)))

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        sigma = SpdMatrix(a @ a.T + 5 * np.eye(5))
        c = rng.standard_normal((5, 2))

        def loglik(q):
            return float(np.sum(c * q)), c

        tgt = expand(StiefelTarget(p=5, k=2, value_and_grad=loglik), sigma)
        for _ in range(5):
            x = rng.standard_normal(10)
            assert check_gradient(tgt, x).max_rel_error <= 1e-5


class TestCheckGradient:
    def test_exact_gradient_tiny_error(self):
        tgt = UnconstrainedTarget(
            dim=4, value_and_grad=lambda x: (-0.5 * float(x @ x), -x)
        )
        report = check_gradient(tgt, np.array([0.3, -1.2, 2.0, 0.05]))
        assert report.max_rel_error <= 1e-8
        assert report.ok

    def test_broken_gradient_flagged(self):
        def vag(x):
            g = -x.copy()
            g[2] *= 1.5  # deliberately wrong coordinate
            return -0.5 * float(x @ x), g

        report = check_gradient(UnconstrainedTarget(dim=4, value_and_grad=vag), np.ones(4))
        assert not report.ok
        assert report.worst_coordinate == 2

    def test_large_log_density_offset(self):
        # |log pi| ~ 1e8 swamps a fixed small step with roundoff; the step
        # taken from |log pi| passes the right gradient and flags the wrong one
        def vag(x, wrong):
            g = -x.copy()
            g[2] *= wrong
            return 1e8 - 0.5 * float(x @ x), g

        right = UnconstrainedTarget(dim=4, value_and_grad=lambda x: vag(x, 1.0))
        assert check_gradient(right, np.array([0.3, -1.2, 2.0, 0.05])).ok
        report = check_gradient(
            UnconstrainedTarget(dim=4, value_and_grad=lambda x: vag(x, 1.5)), np.ones(4)
        )
        assert not report.ok
        assert report.worst_coordinate == 2
