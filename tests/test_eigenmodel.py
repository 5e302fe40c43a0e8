import itertools

import numpy as np
import pytest
from scipy.stats import norm

from polarexp.expansion import check_gradient
from polarexp.models import (
    EigenmodelData,
    align_eigen_draws,
    eigenmodel_target,
    simulate_eigenmodel,
    unpack_eigen_params,
)


def random_stiefel(rng, p, k):
    return np.linalg.qr(rng.standard_normal((p, k)))[0]


def make_data(seed=0, p=12, k=2):
    rng = np.random.default_rng(seed)
    q = random_stiefel(rng, p, k)
    lam = np.array([4.0, -3.0, 2.0])[:k] * np.sqrt(p)
    return simulate_eigenmodel(p, -0.5, q, lam, rng), rng


class TestData:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            EigenmodelData(y=np.zeros((3, 4)))
        y = np.zeros((3, 3))
        y[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            EigenmodelData(y=y)
        y = np.zeros((3, 3))
        y[0, 1] = y[1, 0] = 2.0
        with pytest.raises(ValueError, match="0 or 1"):
            EigenmodelData(y=y)

    def test_first_bad_cell_matches_loop(self):
        # reference: scan the upper triangle row by row, asymmetry first
        def first_bad(y):
            for i in range(y.shape[0]):
                for j in range(i + 1, y.shape[0]):
                    if y[i, j] != y[j, i]:
                        return f"asymmetric at cell ({i + 1}, {j + 1})"
                    if y[i, j] not in (0.0, 1.0):
                        return f"non-binary cell ({i + 1}, {j + 1})"
            return None

        rng = np.random.default_rng(2)
        for _ in range(200):
            y = (rng.random((6, 6)) < 0.5).astype(float)
            y = np.triu(y, 1) + np.triu(y, 1).T
            for _ in range(rng.integers(1, 4)):
                i, j = rng.integers(0, 6, 2)
                y[i, j] = rng.choice([0.0, 1.0, 2.0, -0.5])
                if rng.random() < 0.5:
                    y[j, i] = y[i, j]
            expected = first_bad(y)
            if expected is None:
                EigenmodelData(y=y)
                continue
            with pytest.raises(ValueError) as err:
                EigenmodelData(y=y)
            assert str(err.value).startswith(expected)

    def test_diagonal_ignored(self):
        y = np.eye(4) * 7.0  # nonsense diagonal is fine
        data = EigenmodelData(y=y)
        assert data.p == 4


class TestUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(1 + 5 * 2 + 2)
        c, x, lam = unpack_eigen_params(theta, 5, 2)
        assert c == theta[0]
        np.testing.assert_array_equal(x.ravel(), theta[1:11])
        np.testing.assert_array_equal(lam, theta[11:])

    def test_size_check(self):
        with pytest.raises(ValueError):
            unpack_eigen_params(np.zeros(10), 5, 2)


class TestTarget:
    def test_likelihood_small_example(self):
        # p=3, k=1 computed directly from edge probabilities
        y = np.zeros((3, 3))
        y[0, 1] = y[1, 0] = 1.0
        data = EigenmodelData(y=y)
        target = eigenmodel_target(data, k=1)
        c = 0.3
        x = np.array([1.0, 0.0, 0.0])
        lam = np.array([2.0])
        theta = np.concatenate(([c], x, lam))
        q = x[:, None]
        eta = c + (q * lam) @ q.T
        expected_ll = (
            np.log(norm.cdf(eta[0, 1]))
            + np.log(norm.cdf(-eta[0, 2]))
            + np.log(norm.cdf(-eta[1, 2]))
        )
        expected = (
            expected_ll - c * c / 200.0 - 0.5 * np.sum(x * x) - np.sum(lam**2) / 6.0
        )
        assert target.log_density(theta) == pytest.approx(expected, abs=1e-10)

    def test_gradient_finite_difference(self):
        data, rng = make_data(seed=2, p=12, k=2)
        target = eigenmodel_target(data, k=2)
        for _ in range(5):
            theta = rng.standard_normal(target.dim)
            assert check_gradient(target, theta).max_rel_error <= 1e-5

    def test_extreme_linear_predictor_stays_finite(self):
        data, _ = make_data(seed=3, p=8, k=1)
        target = eigenmodel_target(data, k=1)
        theta = np.zeros(target.dim)
        theta[0] = 30.0  # pushes many dyads deep into the probit tail
        theta[1:9] = np.linspace(1.0, 2.0, 8)
        theta[-1] = -50.0
        val, grad = target.value_and_grad(theta)
        assert np.isfinite(val)
        assert np.all(np.isfinite(grad))

    def test_sign_and_permutation_invariance(self):
        # the posterior depends on (Q, lambda) only through Q L Q^T
        data, rng = make_data(seed=4, p=10, k=3)
        target = eigenmodel_target(data, k=3)
        theta = rng.standard_normal(target.dim)
        base = target.log_density(theta)
        c, x, lam = unpack_eigen_params(theta, 10, 3)
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product([1.0, -1.0], repeat=3):
                s = np.array(signs)
                theta2 = np.concatenate(
                    ([c], (x[:, perm] * s).ravel(), lam[list(perm)])
                )
                assert target.log_density(theta2) == pytest.approx(base, abs=1e-12)


class TestSimulator:
    def test_edge_rate_tracks_intercept(self):
        rng = np.random.default_rng(5)
        p = 40
        q = random_stiefel(rng, p, 2)
        lam = np.array([1.0, -1.0])
        dens = []
        for c in (-1.0, 1.0):
            data = simulate_eigenmodel(p, c, q, lam, rng)
            iu = np.triu_indices(p, 1)
            dens.append(data.y[iu].mean())
        assert dens[0] < 0.35
        assert dens[1] > 0.65

    def test_symmetric_binary_output(self):
        data, _ = make_data(seed=6)
        assert np.array_equal(data.y, data.y.T)
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_edge_frequency_matches_probability(self):
        rng = np.random.default_rng(7)
        p = 10
        q = random_stiefel(rng, p, 1)
        lam = np.array([3.0])
        c = 0.2
        prob = norm.cdf(c + (q * lam) @ q.T)
        iu = np.triu_indices(p, 1)
        acc = np.zeros(iu[0].size)
        reps = 4000
        for _ in range(reps):
            acc += simulate_eigenmodel(p, c, q, lam, rng).y[iu]
        freq = acc / reps
        assert np.max(np.abs(freq - prob[iu])) <= 0.04


class TestAlignment:
    def test_recovers_permuted_signed_draws(self):
        rng = np.random.default_rng(8)
        p, k, t = 8, 3, 30
        base_q = random_stiefel(rng, p, k)
        base_lam = np.array([5.0, -3.0, 1.5])
        q_draws = np.empty((t, p, k))
        lam_draws = np.empty((t, k))
        for i in range(t):
            perm = rng.permutation(k)
            sign = rng.choice([-1.0, 1.0], size=k)
            q_draws[i] = base_q[:, perm] * sign
            lam_draws[i] = base_lam[perm]
        q_out, lam_out = align_eigen_draws(q_draws, lam_draws, reference=base_q)
        for i in range(t):
            np.testing.assert_allclose(np.abs(q_out[i]), np.abs(base_q), atol=1e-12)
            np.testing.assert_allclose(lam_out[i], base_lam, atol=1e-12)
            # signs must agree with the reference, not just up to a flip
            assert np.all(np.sum(q_out[i] * base_q, axis=0) > 0)

    def test_identifiable_function_untouched(self):
        rng = np.random.default_rng(9)
        p, k, t = 6, 2, 10
        q_draws = np.array([random_stiefel(rng, p, k) for _ in range(t)])
        lam_draws = rng.standard_normal((t, k)) * 3.0
        q_out, lam_out = align_eigen_draws(q_draws, lam_draws)
        for i in range(t):
            before = (q_draws[i] * lam_draws[i]) @ q_draws[i].T
            after = (q_out[i] * lam_out[i]) @ q_out[i].T
            np.testing.assert_allclose(after, before, atol=1e-12)
