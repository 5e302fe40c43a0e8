import numpy as np
import pytest

from polarexp.expansion import UnconstrainedTarget
from polarexp.hmc import (
    ChainInitializationError,
    HmcConfig,
    leapfrog,
    run_chains,
)
from polarexp.matcore import DegenerateMatrixError


def gaussian_target(dim, cov=None):
    if cov is None:
        return UnconstrainedTarget(
            dim=dim, value_and_grad=lambda x: (-0.5 * float(x @ x), -x)
        )
    prec = np.linalg.inv(cov)

    def vag(x):
        px = prec @ x
        return -0.5 * float(x @ px), -px

    return UnconstrainedTarget(dim=dim, value_and_grad=vag)


def energy_error(tgt, q, m, eps, steps, mass=None):
    """Run the sampler's leapfrog from (q, m); returns (q, m, Hamiltonian error)."""
    mass = np.ones_like(q) if mass is None else mass
    val0, grad0 = tgt.value_and_grad(q)
    q1, m1, val1, _ = leapfrog(tgt, q, m, grad0, eps, steps, mass)
    h0 = -val0 + 0.5 * float(np.sum(m * m / mass))
    h1 = -val1 + 0.5 * float(np.sum(m1 * m1 / mass))
    return q1, m1, h1 - h0


class TestLeapfrog:
    def test_energy_error_scales_quadratically(self):
        # symplectic integrator: the per-trajectory Hamiltonian error is
        # O(eps^2), so halving eps should shrink it by roughly 4x (we run a
        # fixed path length, so halving eps doubles the step count; the error
        # constant then gives close to an 8x per-step / 4x global reduction)
        tgt = gaussian_target(3)
        rng = np.random.default_rng(0)
        q = rng.standard_normal(3)
        m = rng.standard_normal(3)
        errs = []
        for eps, steps in [(0.2, 10), (0.1, 20), (0.05, 40)]:
            _, _, de = energy_error(tgt, q, m, eps, steps)
            errs.append(abs(de))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.5)

    def test_reversibility(self):
        tgt = gaussian_target(5)
        rng = np.random.default_rng(1)
        q0 = rng.standard_normal(5)
        m0 = rng.standard_normal(5)
        q1, m1, _ = energy_error(tgt, q0, m0, 0.1, 25)
        q2, m2, _ = energy_error(tgt, q1, -m1, 0.1, 25)
        np.testing.assert_allclose(q2, q0, atol=1e-10)
        np.testing.assert_allclose(-m2, m0, atol=1e-10)

    def test_long_run_stability(self):
        # a stable step size keeps the energy bounded over 10^4 steps
        tgt = gaussian_target(2)
        q, m, de = energy_error(tgt, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.05, 10_000)
        assert abs(de) < 0.1
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(m))

    def test_mass_matrix_rescaling(self):
        # with diagonal mass M, (q, m) trajectories map onto unit-mass
        # trajectories of z = M^{1/2} q, r = M^{-1/2} m on the rescaled target
        cov = np.diag([4.0, 0.25])
        mass = np.array([0.25, 4.0])
        q0, m0 = np.array([1.0, 1.0]), np.array([0.5, 0.5])
        q, m, de = energy_error(gaussian_target(2, cov), q0, m0, 0.1, 7, mass)
        root = np.sqrt(mass)
        z, r, de_unit = energy_error(gaussian_target(2, cov * mass), root * q0, m0 / root, 0.1, 7)
        np.testing.assert_allclose(root * q, z, atol=1e-14)
        np.testing.assert_allclose(m / root, r, atol=1e-14)
        assert de == pytest.approx(de_unit, abs=1e-14)

    def test_one_gradient_per_step(self):
        calls = []

        def vag(x):
            calls.append(x)
            return -0.5 * float(x @ x), -x

        tgt = UnconstrainedTarget(dim=2, value_and_grad=vag)
        q0 = np.array([0.3, -0.2])
        leapfrog(tgt, q0, np.ones(2), -q0, 0.1, 5, np.ones(2))
        assert len(calls) == 5

    @pytest.mark.parametrize("bad", ["nan_value", "nan_grad", "degenerate"])
    def test_divergence_reported(self, bad):
        # the trajectory's third position is past the bad boundary
        def vag(x):
            if x[0] > 0.25:
                if bad == "degenerate":
                    raise DegenerateMatrixError("rank-deficient state")
                return (np.nan, -x) if bad == "nan_value" else (0.0, x * np.nan)
            return -0.5 * float(x @ x), -x

        tgt = UnconstrainedTarget(dim=1, value_and_grad=vag)
        assert leapfrog(tgt, np.zeros(1), np.ones(1), np.zeros(1), 0.1, 10, np.ones(1)) is None


class TestRunChains:
    def test_standard_normal_moments(self):
        cfg = HmcConfig(chains=2, warmup=500, samples=3000, seed=10)
        outs = run_chains(gaussian_target(10), cfg)
        draws = np.concatenate([o.draws for o in outs])
        assert np.max(np.abs(draws.mean(axis=0))) <= 0.1
        np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.1)

    def test_correlated_normal(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        cfg = HmcConfig(chains=2, warmup=500, samples=5000, seed=11)
        outs = run_chains(gaussian_target(2, cov), cfg)
        draws = np.concatenate([o.draws for o in outs])
        assert np.corrcoef(draws.T)[0, 1] == pytest.approx(0.9, abs=0.02)

    def test_acceptance_near_target(self):
        cfg = HmcConfig(chains=4, warmup=1000, samples=2000, target_accept=0.8, seed=12)
        outs = run_chains(gaussian_target(10), cfg)
        mean_acc = np.mean([o.accept_rate for o in outs])
        assert mean_acc == pytest.approx(0.8, abs=0.05)

    def test_deterministic_given_seed(self):
        cfg = HmcConfig(chains=2, warmup=200, samples=500, seed=13)
        a = run_chains(gaussian_target(4), cfg)
        b = run_chains(gaussian_target(4), cfg)
        for oa, ob in zip(a, b):
            np.testing.assert_array_equal(oa.draws, ob.draws)
            assert oa.step_size == ob.step_size

    def test_chains_differ_from_each_other(self):
        cfg = HmcConfig(chains=2, warmup=200, samples=500, seed=14)
        outs = run_chains(gaussian_target(4), cfg)
        assert not np.array_equal(outs[0].draws, outs[1].draws)

    def test_divergences_counted_on_pathological_target(self):
        # Neal's funnel: v ~ N(0, 9), x|v ~ N(0, e^v); tight neck regions
        # blow up fixed-step trajectories and should register as divergences
        def vag(z):
            v, x = np.clip(z[0], -60.0, 60.0), z[1:]
            val = -0.5 * v * v / 9.0 - 0.5 * float(x @ x) * np.exp(-v) - 4.5 * v
            gx = -x * np.exp(-v)
            gv = -v / 9.0 + 0.5 * float(x @ x) * np.exp(-v) - 4.5
            return val, np.concatenate([[gv], gx])

        tgt = UnconstrainedTarget(dim=10, value_and_grad=vag)
        cfg = HmcConfig(
            chains=1, warmup=100, samples=500, init_step_size=2.0,
            max_energy_error=25.0, seed=15,
        )
        out = run_chains(tgt, cfg)[0]
        assert 0 < out.divergences <= 500

    def test_all_divergent_raises_initialization_error(self):
        def vag(x):
            return np.inf if np.any(x != 0) else 0.0, np.full_like(x, np.nan)

        tgt = UnconstrainedTarget(dim=3, value_and_grad=lambda x: (np.nan, x * np.nan))
        cfg = HmcConfig(chains=1, warmup=50, samples=10, seed=16)
        with pytest.raises(ChainInitializationError):
            run_chains(tgt, cfg)

    def test_init_shape_validated(self):
        cfg = HmcConfig(chains=1, warmup=50, samples=10, seed=17)
        with pytest.raises(ValueError):
            run_chains(gaussian_target(3), cfg, init=[np.zeros(4)])
        with pytest.raises(ValueError):
            run_chains(gaussian_target(3), cfg, init=[np.zeros(3), np.zeros(3)])

    def test_marginal_histogram_symmetry(self):
        # stationarity sanity check: the 1-d standard normal marginal should
        # put equal mass in mirrored bins
        cfg = HmcConfig(chains=2, warmup=500, samples=10_000, seed=18)
        outs = run_chains(gaussian_target(1), cfg)
        draws = np.concatenate([o.draws for o in outs]).ravel()
        edges = np.array([-np.inf, -2.0, -1.0, 0.0, 1.0, 2.0, np.inf])
        counts, _ = np.histogram(draws, bins=edges)
        total = counts.sum()
        for lo, hi in [(0, 5), (1, 4), (2, 3)]:
            assert abs(counts[lo] - counts[hi]) / total <= 0.03

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(warmup=0)
        with pytest.raises(ValueError):
            HmcConfig(target_accept=1.0)
        with pytest.raises(ValueError):
            HmcConfig(max_leapfrog=0)

    def test_mass_adaptation_on_anisotropic_target(self):
        # scales 1 and 100: the adapted (inverse-variance) mass should be much
        # smaller for the wide coordinate
        cov = np.diag([1.0, 100.0])
        cfg = HmcConfig(chains=1, warmup=1000, samples=2000, seed=19)
        out = run_chains(gaussian_target(2, cov), cfg)[0]
        assert out.mass_diag[0] / out.mass_diag[1] > 10.0
        assert out.draws[:, 1].var() == pytest.approx(100.0, rel=0.25)
