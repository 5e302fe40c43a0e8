import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from polarexp import hmc
from polarexp.diagnostics import ebfmi
from polarexp.expansion import UnconstrainedTarget
from polarexp.hmc import (
    ChainInitializationError,
    HmcConfig,
    leapfrog,
    run_chains,
)
from polarexp.matcore import DegenerateMatrixError, InputError, SvdConvergenceError
from polarexp.models import (
    eigenmodel_initial_points,
    eigenmodel_target,
    fpca_empirical_bayes,
    fpca_initial_points,
    fpca_target,
    simulate_eigenmodel,
    simulate_fpca,
)


def gaussian_target(dim, cov=None):
    """N(0, cov) on one state (dim,) or on a batch of states (chains, dim)."""
    prec = np.eye(dim) if cov is None else np.linalg.inv(cov)

    def vag(x):
        px = x @ prec
        return -0.5 * np.sum(x * px, axis=-1), -px

    return UnconstrainedTarget(dim=dim, value_and_grad=vag)


def funnel_target():
    """Neal's funnel: v ~ N(0, 9), x | v ~ N(0, e^v), 9 x-coordinates; one state at a time."""

    def one(z):
        v, x = np.clip(z[0], -60.0, 60.0), z[1:]
        val = -0.5 * v * v / 9.0 - 0.5 * float(x @ x) * np.exp(-v) - 4.5 * v
        gx = -x * np.exp(-v)
        gv = -v / 9.0 + 0.5 * float(x @ x) * np.exp(-v) - 4.5
        return val, np.concatenate([[gv], gx])

    def vag(z):
        pairs = [one(row) for row in z]
        return np.array([val for val, _ in pairs]), np.array([g for _, g in pairs])

    return UnconstrainedTarget(dim=10, value_and_grad=vag)


def counting(target):
    """target, with a list of the number of rows in each call it gets."""
    rows = []

    def vag(x):
        rows.append(x.shape[0])
        return target.value_and_grad(x)

    return UnconstrainedTarget(dim=target.dim, value_and_grad=vag), rows


def energy_error(tgt, q, m, eps, steps, mass=None):
    """The sampler's leapfrog from (q, m), as a batch of one; returns (q, m, energy error)."""
    mass = np.ones_like(q) if mass is None else mass
    val0, grad0 = tgt.value_and_grad(q)
    q1, m1, val1, _ = leapfrog(tgt, q[None], m[None], grad0[None], eps, steps, mass[None])
    assert np.isfinite(val1[0])
    h0 = -val0 + 0.5 * float(np.sum(m * m / mass))
    h1 = -val1[0] + 0.5 * float(np.sum(m1[0] * m1[0] / mass))
    return q1[0], m1[0], h1 - h0


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
        # one gradient row per chain and step; a finished chain leaves the batch
        tgt, rows = counting(gaussian_target(2))
        q0 = np.array([[0.3, -0.2], [0.1, 0.0], [-0.5, 0.4]])
        steps = np.array([5, 2, 4])
        evals = np.zeros(3, dtype=int)
        leapfrog(tgt, q0, np.ones((3, 2)), -q0, 0.1, steps, np.ones((3, 2)), evals)
        assert rows == [3, 3, 2, 2, 1]
        np.testing.assert_array_equal(evals, steps)

    @pytest.mark.parametrize("bad", ["nan_value", "nan_grad", "degenerate", "no_convergence"])
    def test_divergence_reported(self, bad, monkeypatch):
        # the trajectory's third position is past the bad boundary
        def vag(x):
            val, grad = -0.5 * np.sum(x * x, axis=1), -x.copy()
            past = x[:, 0] > 0.25
            if np.any(past):
                if bad == "degenerate":
                    raise DegenerateMatrixError("rank-deficient state")
                if bad == "no_convergence":
                    raise SvdConvergenceError("SVD did not converge")
                if bad == "nan_value":
                    val[past] = np.nan
                else:
                    grad[past] = np.nan
            return val, grad

        tgt = UnconstrainedTarget(dim=1, value_and_grad=vag)
        one = np.ones((1, 1))
        # the trajectory stops at the bad state with a NaN value
        _, _, val, _ = leapfrog(tgt, np.zeros((1, 1)), one, np.zeros((1, 1)), 0.1, 10, one)
        assert np.isnan(val[0])
        # the transition the sampler runs counts it as a divergence
        class UpwardRng:
            # the longest path (32 steps of 0.1) at momentum 1, from 0 past 0.25
            def integers(self, low, high):
                return high - 1

            def standard_normal(self, size):
                return np.ones(size)

        ends = []
        end = hmc._end

        def recording(*args):
            ends.append(end(*args))
            return ends[-1]

        monkeypatch.setattr(hmc, "_end", recording)
        # its one warmup transition, at the initial step size 0.1, diverges, so
        # the chain never accepted a state
        with pytest.raises(ChainInitializationError):
            hmc._run_batch(tgt, HmcConfig(chains=1, warmup=1, samples=1), np.zeros((1, 1)),
                           [UpwardRng()])
        assert ends == [(0.0, False, True)]

    def test_degenerate_row_diverges_alone(self):
        # chain 1 crosses into a degenerate region on its third step; the
        # batched call raises there, and the other chains carry on unchanged
        gauss = gaussian_target(2)

        def vag(x):
            if np.any(x[:, 0] > 0.25):
                raise DegenerateMatrixError("rank-deficient state")
            return gauss.value_and_grad(x)

        tgt, rows = counting(UnconstrainedTarget(dim=2, value_and_grad=vag))
        q0 = np.array([[-1.0, 0.5], [0.0, 0.0], [-0.8, -0.3]])
        m0 = np.array([[0.2, 0.0], [1.0, 1.0], [0.5, -1.0]])
        evals = np.zeros(3, dtype=int)
        q, m, val, grad = leapfrog(tgt, q0, m0, -q0, 0.1, 10, np.ones((3, 2)), evals)
        np.testing.assert_array_equal(np.isnan(val), [False, True, False])
        keep = [0, 2]
        q_ref, m_ref, val_ref, grad_ref = leapfrog(
            gauss, q0[keep], m0[keep], -q0[keep], 0.1, 10, np.ones((2, 2))
        )
        assert np.all(np.isfinite(val_ref))
        np.testing.assert_array_equal(q[keep], q_ref)
        np.testing.assert_array_equal(m[keep], m_ref)
        np.testing.assert_array_equal(val[keep], val_ref)
        np.testing.assert_array_equal(grad[keep], grad_ref)
        # the failing call is evaluated again row by row
        assert sum(rows) == evals.sum() == 3 * 3 + 3 + 2 * 7


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

    def test_divergences_counted_on_pathological_target(self, monkeypatch):
        # Neal's funnel: tight neck regions blow up fixed-step trajectories
        # and should register as divergences
        monkeypatch.setattr(hmc, "INIT_STEP_SIZE", 2.0)
        monkeypatch.setattr(hmc, "MAX_ENERGY_ERROR", 25.0)
        cfg = HmcConfig(chains=1, warmup=100, samples=500, seed=15)
        out = run_chains(funnel_target(), cfg)[0]
        assert 0 < out.divergences <= 500

    def test_all_divergent_raises_initialization_error(self):
        tgt = UnconstrainedTarget(
            dim=3, value_and_grad=lambda x: (np.full(x.shape[0], np.nan), x * np.nan)
        )
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
        with pytest.raises(InputError):
            HmcConfig(warmup=0)
        with pytest.raises(InputError):
            HmcConfig(target_accept=1.0)
        with pytest.raises(InputError):
            HmcConfig(seed=-1)

    @pytest.mark.parametrize("warmup", [1, 5, 9, 200])
    def test_short_warmup_step_size_is_tail_mean(self, warmup, monkeypatch):
        # the frozen step size averages the last max(10, 5%) log step sizes
        # of warmup, all of them when warmup is shorter than that tail; the
        # dual-averaging updates are recomputed here from the accept
        # probabilities of the warmup transitions
        aprobs = [[], []]
        end = hmc._end

        def recording(b, j, *args):
            out = end(b, j, *args)
            aprobs[b.rows[j]].append(out[0])
            return out

        monkeypatch.setattr(hmc, "_end", recording)
        cfg = HmcConfig(chains=2, warmup=warmup, samples=10, seed=25)
        outs = run_chains(gaussian_target(3), cfg)
        n_tail = min(warmup, max(10, int(round(0.05 * warmup))))
        for c, out in enumerate(outs):
            # Hoffman & Gelman (2014), Algorithm 5, with gamma 0.05 and t0 10, in
            # the engine's operation order so that the step sizes match exactly
            mu, h_bar, seen = np.log(10 * hmc.INIT_STEP_SIZE), 0.0, []
            for t, aprob in enumerate(aprobs[c][:warmup], start=1):
                eta = 1.0 / (t + 10.0)
                h_bar = (1.0 - eta) * h_bar + eta * (cfg.target_accept - aprob)
                seen.append(mu - np.sqrt(t) / 0.05 * h_bar)
            assert len(aprobs[c]) == warmup + cfg.samples
            assert np.isfinite(out.step_size)
            expected = np.exp(np.mean(seen[-n_tail:]))
            assert out.step_size == pytest.approx(expected, rel=1e-12)
            # each iteration runs at the step size of the update before it
            trace = [np.exp(np.log(hmc.INIT_STEP_SIZE))]
            trace += [np.exp(log_eps) for log_eps in seen[:-1]]
            np.testing.assert_array_equal(out.step_size_trace, trace)

    def test_mass_adaptation_on_anisotropic_target(self):
        # scales 1 and 100: the adapted (inverse-variance) mass should be much
        # smaller for the wide coordinate
        cov = np.diag([1.0, 100.0])
        cfg = HmcConfig(chains=1, warmup=1000, samples=2000, seed=19)
        out = run_chains(gaussian_target(2, cov), cfg)[0]
        assert out.mass_diag[0] / out.mass_diag[1] > 10.0
        assert out.draws[:, 1].var() == pytest.approx(100.0, rel=0.25)


def linear_target(dim):
    """log pi(x) = sum(x): a constant gradient, so the leapfrog conserves energy exactly."""
    return UnconstrainedTarget(dim=dim, value_and_grad=lambda x: (np.sum(x, axis=1),
                                                                    np.ones_like(x)))


def most_steps(eps, transitions, seed):
    """The most leapfrog steps each chain took in `transitions` transitions at step sizes eps.

    The chains run through the sampler's own transition functions, as in
    hmc._run_batch, with the step sizes held fixed.
    """
    tgt = linear_target(3)
    eps = np.array(eps)
    n_chains = eps.size
    rngs = [np.random.default_rng([seed, c]) for c in range(n_chains)]
    q = np.zeros((n_chains, 3))
    val, grad = tgt.value_and_grad(q)
    mass = np.ones_like(q)
    evals, before, done, most = (np.zeros(n_chains, dtype=int) for _ in range(4))
    ceiling = hmc._path_ceiling(eps)
    h0 = np.empty(n_chains)
    batch = SimpleNamespace(rows=np.arange(n_chains), q=q.copy(), m=q.copy(), grad=q.copy(),
                            eps=np.empty((n_chains, 1)), mass=mass.copy(), left=done.copy())

    def on_end(b, j, val_end):
        c = b.rows[j]
        most[c] = max(most[c], evals[c] - before[c])
        before[c] = evals[c]
        _, accepted, _ = hmc._end(b, j, val_end, h0[c], rngs[c])
        if accepted:
            q[c], val[c], grad[c] = b.q[j], val_end, b.grad[j]
        done[c] += 1
        if done[c] < transitions:
            h0[c] = hmc._begin(b, j, rngs[c], q[c], val[c], grad[c], eps[c], mass[c],
                               ceiling[c])

    for c in range(n_chains):
        h0[c] = hmc._begin(batch, c, rngs[c], q[c], val[c], grad[c], eps[c], mass[c],
                           ceiling[c])
    hmc._integrate(tgt, batch, evals, on_end)
    assert np.all(done == transitions)
    return most


class TestPathLength:
    def test_at_most_half_a_period(self):
        # ceil(pi / eps) capped at MAX_LEAPFROG = 32: eps = 0.5 allows 7 steps,
        # eps = 0.05 would allow 63, and eps = 10 or inf one
        most = most_steps([1e-300, 0.05, 0.5, 10.0, np.inf], 300, seed=27)
        assert np.all(most <= [32, 32, 7, 1, 1])
        assert most[2] == 7
        assert most[1] > 7

    def test_extreme_step_sizes_are_quiet(self):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            most = most_steps([0.0, 1e-300, np.inf], 50, seed=28)
        assert most[2] == 1

    def test_ceiling_computed_only_where_the_step_size_changes(self, monkeypatch):
        # once for all chains at the start, then once per chain per warmup
        # update; sampling transitions run at the frozen step size
        calls = []
        ceiling = hmc._path_ceiling

        def counted(eps):
            calls.append(eps)
            return ceiling(eps)

        monkeypatch.setattr(hmc, "_path_ceiling", counted)
        outs = run_chains(gaussian_target(3), HmcConfig(chains=3, warmup=40, samples=60, seed=29))
        assert len(calls) <= 1 + 3 * 40
        eps = np.array([o.step_size for o in outs])
        assert [o.max_leapfrog for o in outs] == ceiling(eps).tolist()


class TestMassWindows:
    @pytest.mark.parametrize(
        "warmup, first, ends",
        [(1, 1, []), (5, 1, [4]), (20, 3, [18]), (100, 15, [40, 90]), (150, 22, [47, 135]),
         (1000, 150, [175, 225, 325, 525, 900])],
    )
    def test_schedule(self, warmup, first, ends):
        assert hmc._mass_windows(warmup) == (first, ends)


class TestBatch:
    def test_one_traced_call_per_run(self, monkeypatch):
        # the benchmark traces the whole batch through hmc._run_single_chain
        calls = []
        run = hmc._run_single_chain

        def counted(target, config, q, rngs):
            calls.append(q.shape)
            return run(target, config, q, rngs)

        monkeypatch.setattr(hmc, "_run_single_chain", counted)
        run_chains(gaussian_target(3), HmcConfig(chains=3, warmup=20, samples=10, seed=26))
        assert calls == [(3, 3)]

    def test_chain_zero_does_not_depend_on_chain_count(self):
        for chains in (1, 4):
            cfg = HmcConfig(chains=chains, warmup=200, samples=300, seed=21)
            out = run_chains(gaussian_target(5, np.diag([1.0, 2.0, 0.5, 3.0, 1.0])), cfg)[0]
            if chains == 1:
                ref = out
        np.testing.assert_allclose(out.draws, ref.draws, rtol=1e-12, atol=1e-12)
        assert out.step_size == pytest.approx(ref.step_size, rel=1e-12)

    def test_chain_zero_does_not_depend_on_chain_count_eigenmodel(self):
        rng = np.random.default_rng(22)
        q = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        data = simulate_eigenmodel(10, -0.3, q, np.array([4.0, -3.0]) * np.sqrt(10), rng)
        target = eigenmodel_target(data, k=2)
        outs = {}
        for chains in (1, 4):
            cfg = HmcConfig(chains=chains, warmup=100, samples=100, seed=23)
            inits = eigenmodel_initial_points(data, 2, chains, cfg.seed)
            outs[chains] = run_chains(target, cfg, init=inits)[0]
        np.testing.assert_allclose(outs[4].draws, outs[1].draws, rtol=1e-12, atol=1e-12)
        assert outs[4].step_size == pytest.approx(outs[1].step_size, rel=1e-12)

    def test_chain_zero_does_not_depend_on_chain_count_fpca(self):
        # 6 stations on 16 days: every state of a call evaluated in one batched pass
        rng = np.random.default_rng(22)
        data = simulate_fpca(6, np.linspace(1.0, 365.0, 16), 2, [5.0, 2.5], 0.5, 0.3, 29.0, rng)
        hyper = fpca_empirical_bayes(data.y, 2)
        target = fpca_target(data, hyper)
        outs = {}
        for chains in (1, 3):
            cfg = HmcConfig(chains=chains, warmup=100, samples=100, seed=23)
            inits = fpca_initial_points(data, hyper, chains, cfg.seed)
            outs[chains] = run_chains(target, cfg, init=inits)[0]
        np.testing.assert_array_equal(outs[3].draws, outs[1].draws)
        assert outs[3].step_size == outs[1].step_size

    def test_grad_evals_count_every_row(self, monkeypatch):
        # the rows the target saw, initial points included, are the chains'
        # counts: a chain that finished its transitions was not evaluated further
        monkeypatch.setattr(hmc, "INIT_STEP_SIZE", 2.0)
        monkeypatch.setattr(hmc, "MAX_ENERGY_ERROR", 25.0)
        tgt, rows = counting(funnel_target())
        cfg = HmcConfig(chains=3, warmup=100, samples=100, seed=24)
        outs = run_chains(tgt, cfg)
        assert sum(o.divergences for o in outs) > 0
        assert sum(o.grad_evals for o in outs) == sum(rows)
        assert max(rows) == 3 and min(rows) == 1

    def test_every_call_carries_every_running_chain(self):
        # chains run out of step: until the first chain has finished its last
        # transition every call carries all four, and the chain that finishes
        # last is in every call
        tgt, rows = counting(gaussian_target(5, np.diag([1.0, 2.0, 0.5, 3.0, 1.0])))
        outs = run_chains(tgt, HmcConfig(chains=4, warmup=100, samples=200, seed=30))
        evals = [o.grad_evals for o in outs]
        assert rows[: min(evals)] == [4] * min(evals)
        assert len(rows) == max(evals) and sum(rows) == sum(evals)
        assert rows == sorted(rows, reverse=True)

    def test_divergence_iterations_and_ebfmi(self, monkeypatch):
        # each sampling transition's divergence flag and starting Hamiltonian,
        # recorded at the engine's own _begin and _end, give the run's record
        monkeypatch.setattr(hmc, "INIT_STEP_SIZE", 2.0)
        monkeypatch.setattr(hmc, "MAX_ENERGY_ERROR", 25.0)
        cfg = HmcConfig(chains=3, warmup=100, samples=300, seed=31)
        flags, energies = [[] for _ in range(3)], [[] for _ in range(3)]
        begin, end = hmc._begin, hmc._end

        def begin_recording(b, j, *args):
            energies[b.rows[j]].append(begin(b, j, *args))
            return energies[b.rows[j]][-1]

        def end_recording(b, j, *args):
            out = end(b, j, *args)
            flags[b.rows[j]].append(out[2])
            return out

        monkeypatch.setattr(hmc, "_begin", begin_recording)
        monkeypatch.setattr(hmc, "_end", end_recording)
        outs = run_chains(funnel_target(), cfg)
        assert sum(o.divergences for o in outs) > 0
        for c, out in enumerate(outs):
            assert len(out.divergence_iterations) == out.divergences
            assert all(0 <= it < cfg.samples for it in out.divergence_iterations)
            assert out.divergence_iterations == np.flatnonzero(flags[c][cfg.warmup:]).tolist()
            assert out.ebfmi == ebfmi(energies[c][cfg.warmup:])
            assert np.isfinite(out.ebfmi) and out.ebfmi > 0


# The lockstep engine that the out-of-step one replaced, kept as a reference:
# every chain ran each transition in step with the others, and a transition
# ended when the longest of its trajectories did.


def lockstep_leapfrog(target, position, momentum, grad, step, steps, mass, evals):
    n_chains = position.shape[0]
    step = np.broadcast_to(np.asarray(step, dtype=float), (n_chains,))[:, None]
    steps = np.broadcast_to(np.asarray(steps), (n_chains,))
    mass = np.broadcast_to(mass, position.shape)
    q = position.copy()
    m = momentum + 0.5 * step * grad
    grad = grad.copy()
    val = np.full(n_chains, np.nan)
    rows = np.arange(n_chains)
    qa, ma, sa, wa, left = q, m, step, mass, steps
    taken = 0
    while rows.size:
        qa = qa + sa * ma / wa
        va, ga = hmc._evaluate(target, qa, rows, evals)
        taken += 1
        ok = np.isfinite(va) & np.all(np.isfinite(ga), axis=1)
        end = ok & (left == taken)
        if not ok.all() or end.any():
            r = rows[end]
            q[r], val[r], grad[r] = qa[end], va[end], ga[end]
            m[r] = ma[end] + 0.5 * sa[end] * ga[end]
            keep = ok & ~end
            rows, qa, ma, ga, sa, wa, left = (a[keep] for a in (rows, qa, ma, ga, sa, wa, left))
        ma = ma + sa * ga
    return q, m, val, grad


def lockstep_transition(target, q, val, grad, eps, mass, rngs, evals):
    n_steps = [rng.integers(1, n + 1) for rng, n in zip(rngs, hmc._path_ceiling(eps))]
    m0 = np.sqrt(mass) * np.array([rng.standard_normal(q.shape[1]) for rng in rngs])
    h0 = -val + 0.5 * np.sum(m0 * m0 / mass, axis=1)
    q_new, m, val_new, grad_new = lockstep_leapfrog(target, q, m0, grad, eps, n_steps, mass,
                                                    evals)
    delta = -val_new + 0.5 * np.sum(m * m / mass, axis=1) - h0
    diverged = ~(delta <= hmc.MAX_ENERGY_ERROR)
    accept_prob = np.where(diverged, 0.0, np.exp(-np.maximum(delta, 0.0)))
    accepted = np.zeros(len(rngs), dtype=bool)
    for c in np.flatnonzero(~diverged):
        accepted[c] = rngs[c].random() < accept_prob[c]
    q = np.where(accepted[:, None], q_new, q)
    val = np.where(accepted, val_new, val)
    grad = np.where(accepted[:, None], grad_new, grad)
    return q, val, grad, accept_prob, accepted, diverged


def lockstep_run_batch(target, config, q, rngs):
    n_chains, dim = q.shape
    evals = np.zeros(n_chains, dtype=int)
    val, grad = hmc._evaluate(target, q, np.arange(n_chains), evals)
    mass = np.ones((n_chains, dim))
    first, window_ends = hmc._mass_windows(config.warmup)
    log_eps = np.empty((n_chains, config.warmup + 1))
    log_eps[:, 0] = np.log(hmc.INIT_STEP_SIZE)
    mu = np.log(10.0 * hmc.INIT_STEP_SIZE)
    h_bar = np.zeros(n_chains)
    window_draws = []
    for it in range(config.warmup):
        q, val, grad, aprob, accepted, _ = lockstep_transition(
            target, q, val, grad, np.exp(log_eps[:, it]), mass, rngs, evals
        )
        eta = 1.0 / (it + 1 + hmc.DA_T0)
        h_bar = (1.0 - eta) * h_bar + eta * (config.target_accept - aprob)
        log_eps[:, it + 1] = mu - np.sqrt(it + 1) / hmc.DA_GAMMA * h_bar
        if it + 1 > first:
            window_draws.append(q)
        if (it + 1) in window_ends and len(window_draws) >= 10:
            n = len(window_draws)
            var = np.var(window_draws, axis=0, ddof=1)
            var = n / (n + 5.0) * var + 1e-3 * (5.0 / (n + 5.0))
            mass = 1.0 / np.maximum(var, 1e-10)
            window_draws = []
    n_tail = min(config.warmup, max(10, int(round(0.05 * config.warmup))))
    eps = np.exp(np.mean(log_eps[:, -n_tail:], axis=1))
    draws = np.empty((n_chains, config.samples, dim))
    divergences = np.zeros(n_chains, dtype=int)
    accept_sum = np.zeros(n_chains)
    for it in range(config.samples):
        q, val, grad, aprob, _, diverged = lockstep_transition(
            target, q, val, grad, eps, mass, rngs, evals
        )
        divergences += diverged
        accept_sum += aprob
        draws[:, it] = q
    return [
        dict(draws=draws[c], accept_rate=float(accept_sum[c] / config.samples),
             divergences=int(divergences[c]), step_size=float(eps[c]),
             step_size_trace=np.exp(log_eps[c, :-1]), mass_diag=mass[c],
             grad_evals=int(evals[c]))
        for c in range(n_chains)
    ]


class TestLockstepReference:
    """Each chain's arithmetic and generator order are those of the lockstep engine."""

    @staticmethod
    def assert_same_as_lockstep(target, config, init):
        outs = run_chains(target, config, init=init)
        rngs = [np.random.default_rng([config.seed, c]) for c in range(config.chains)]
        refs = lockstep_run_batch(target, config, np.array(init, dtype=float), rngs)
        for out, ref in zip(outs, refs):
            for name in ("draws", "step_size_trace", "mass_diag"):
                np.testing.assert_array_equal(getattr(out, name), ref[name])
            for name in ("accept_rate", "divergences", "step_size", "grad_evals"):
                assert getattr(out, name) == ref[name], name
        return outs

    def test_anisotropic_gaussian(self):
        cfg = HmcConfig(chains=4, warmup=150, samples=200, seed=40)
        init = np.random.default_rng(40).standard_normal((4, 6))
        cov = np.diag([0.01, 0.5, 1.0, 4.0, 25.0, 100.0])
        self.assert_same_as_lockstep(gaussian_target(6, cov), cfg, init)

    def test_funnel_with_divergences(self, monkeypatch):
        monkeypatch.setattr(hmc, "INIT_STEP_SIZE", 2.0)
        monkeypatch.setattr(hmc, "MAX_ENERGY_ERROR", 25.0)
        cfg = HmcConfig(chains=3, warmup=100, samples=200, seed=41)
        init = np.random.default_rng(41).standard_normal((3, 10))
        outs = self.assert_same_as_lockstep(funnel_target(), cfg, init)
        assert sum(o.divergences for o in outs) > 0

    def test_eigenmodel(self):
        rng = np.random.default_rng(42)
        q = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        data = simulate_eigenmodel(10, -0.3, q, np.array([4.0, -3.0]) * np.sqrt(10), rng)
        cfg = HmcConfig(chains=4, warmup=100, samples=100, seed=42)
        init = eigenmodel_initial_points(data, 2, 4, cfg.seed)
        self.assert_same_as_lockstep(eigenmodel_target(data, k=2), cfg, init)
