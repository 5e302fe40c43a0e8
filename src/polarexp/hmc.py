"""Adaptive Hamiltonian Monte Carlo for unconstrained differentiable targets.

Static-path HMC with jittered leapfrog length, dual-averaging step-size
adaptation toward a target acceptance rate, and windowed diagonal mass
estimation during warmup. Chains are independent and deterministic given
(seed, chain index); they may run in parallel threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .expansion import UnconstrainedTarget
from .matcore import DegenerateMatrixError, IllConditionedError

_RECOVERABLE = (DegenerateMatrixError, IllConditionedError, FloatingPointError)


@dataclass
class HmcConfig:
    chains: int = 4
    warmup: int = 1000
    samples: int = 5000
    target_accept: float = 0.8
    init_step_size: float = 0.1
    max_leapfrog: int = 32
    max_energy_error: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if self.warmup <= 0 or self.samples <= 0 or self.chains <= 0:
            raise ValueError("chains, warmup and samples must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if self.max_leapfrog < 1:
            raise ValueError("max_leapfrog must be >= 1")


@dataclass
class ChainOutput:
    draws: np.ndarray
    accept_rate: float
    divergences: int
    step_size: float
    step_size_trace: np.ndarray
    mass_diag: np.ndarray
    seed: int


class ChainInitializationError(RuntimeError):
    """Warmup never produced a finite, accepted state."""


class _DualAveraging:
    """Nesterov dual averaging of log step size (gamma=0.05, t0=10, kappa=0.75)."""

    def __init__(self, eps0, target, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = np.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.log_eps = np.log(eps0)
        self.log_eps_bar = np.log(eps0)
        self.h_bar = 0.0
        self.t = 0

    def update(self, accept_prob):
        self.t += 1
        eta = 1.0 / (self.t + self.t0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept_prob)
        self.log_eps = self.mu - np.sqrt(self.t) / self.gamma * self.h_bar
        w = self.t ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar

    @property
    def eps(self):
        return float(np.exp(self.log_eps))

    @property
    def eps_final(self):
        return float(np.exp(self.log_eps_bar))


def leapfrog(target: UnconstrainedTarget, position, momentum, grad, step, steps, mass):
    """Run `steps` >= 1 leapfrog steps from a state whose gradient is `grad`.

    Kinetic energy is (1/2) m^T M^{-1} m with diagonal M = `mass`. Returns
    (q, m, val, grad) at the end of the trajectory, or None when the target
    turns non-finite or raises one of its degenerate-state errors on the way:
    the trajectory has diverged.
    """
    q = position
    m = momentum + 0.5 * step * grad
    try:
        for i in range(steps):
            q = q + step * m / mass
            val, grad = target.value_and_grad(q)
            if not np.isfinite(val) or not np.all(np.isfinite(grad)):
                return None
            if i < steps - 1:
                m = m + step * grad
    except _RECOVERABLE:
        return None
    return q, m + 0.5 * step * grad, val, grad


def _transition(target, q, val, grad, eps, n_steps, mass, rng, max_energy_error):
    """One HMC transition; returns (q, val, grad, accept_prob, accepted, diverged)."""
    m0 = np.sqrt(mass) * rng.standard_normal(q.size)
    h0 = -val + 0.5 * float(np.sum(m0 * m0 / mass))
    end = leapfrog(target, q, m0, grad, eps, n_steps, mass)
    if end is None:
        return q, val, grad, 0.0, False, True
    q_new, m, val_new, grad_new = end
    h1 = -val_new + 0.5 * float(np.sum(m * m / mass))
    delta = h1 - h0
    if not np.isfinite(delta) or delta > max_energy_error:
        return q, val, grad, 0.0, False, True
    accept_prob = min(1.0, float(np.exp(-max(delta, 0.0))) if delta > 0 else 1.0)
    if rng.random() < accept_prob:
        return q_new, val_new, grad_new, accept_prob, True, False
    return q, val, grad, accept_prob, False, False


def _mass_windows(n_adapt):
    """Stan-style schedule: 15% step-size-only, doubling mass windows, 10% tail.

    Returns (first, window_ends, last) where window_ends are the iteration
    indices at which the mass matrix is re-estimated.
    """
    first = max(1, int(round(0.15 * n_adapt)))
    last = max(1, int(round(0.10 * n_adapt)))
    middle = n_adapt - first - last
    ends = []
    if middle > 0:
        size = 25
        pos = first
        while True:
            if pos + size >= first + middle - size:
                ends.append(first + middle)
                break
            pos += size
            ends.append(pos)
            size *= 2
    return first, ends, last


def _run_single_chain(target, config, chain_idx, init):
    rng = np.random.default_rng([config.seed, chain_idx])
    dim = target.dim
    if init is None:
        # iid N(0,1) coordinates: for expanded targets this makes Q_X uniform.
        q = rng.standard_normal(dim)
    else:
        q = np.array(init, dtype=float)
        if q.shape != (dim,):
            raise ValueError(f"init has shape {q.shape}, expected ({dim},)")
    try:
        val, grad = target.value_and_grad(q)
    except _RECOVERABLE as exc:
        raise ChainInitializationError(f"target failed at the initial point: {exc}")
    if not np.isfinite(val):
        raise ChainInitializationError("target is non-finite at the initial point")

    mass = np.ones(dim)
    da = _DualAveraging(config.init_step_size, config.target_accept)
    first, window_ends, _ = _mass_windows(config.warmup)
    step_trace = np.empty(config.warmup)
    window_draws = []
    tail_start = config.warmup - max(10, int(round(0.05 * config.warmup)))
    tail_log_eps = []
    any_accept = False

    def draw_steps():
        return int(rng.integers(1, config.max_leapfrog + 1))

    for it in range(config.warmup):
        eps = da.eps
        q, val, grad, aprob, accepted, _ = _transition(
            target, q, val, grad, eps, draw_steps(), mass, rng, config.max_energy_error
        )
        any_accept = any_accept or accepted
        da.update(aprob)
        step_trace[it] = eps
        if it >= tail_start:
            tail_log_eps.append(da.log_eps)
        if it + 1 > first:
            window_draws.append(q.copy())
        if (it + 1) in window_ends and len(window_draws) >= 10:
            w = np.asarray(window_draws)
            n = w.shape[0]
            var = np.var(w, axis=0, ddof=1)
            # shrink toward unit scale, Stan-style regularization; the mass
            # matrix diagonal is the inverse of the estimated variance so that
            # position updates move eps * sd per unit momentum
            var = n / (n + 5.0) * var + 1e-3 * (5.0 / (n + 5.0))
            mass = 1.0 / np.maximum(var, 1e-10)
            window_draws = []

    if not any_accept:
        raise ChainInitializationError(
            f"chain {chain_idx}: every warmup transition diverged or was rejected "
            f"(final step size {da.eps:.3e}); check the target or initialization"
        )

    # freeze at the tail-averaged iterate; less biased than eps_bar when the
    # adaptation keeps oscillating late in warmup
    eps = float(np.exp(np.mean(tail_log_eps)))
    draws = np.empty((config.samples, dim))
    divergences = 0
    accept_sum = 0.0
    for it in range(config.samples):
        q, val, grad, aprob, _, diverged = _transition(
            target, q, val, grad, eps, draw_steps(), mass, rng, config.max_energy_error
        )
        divergences += int(diverged)
        accept_sum += aprob
        draws[it] = q
    return ChainOutput(
        draws=draws,
        accept_rate=accept_sum / config.samples,
        divergences=divergences,
        step_size=eps,
        step_size_trace=step_trace,
        mass_diag=mass,
        seed=chain_idx,
    )


def run_chains(target: UnconstrainedTarget, config: HmcConfig, init=None):
    """Run config.chains independent chains; returns a list of ChainOutput.

    `init`, if given, is a list of per-chain initial vectors. Parallelism is
    capped by the POLAR_THREADS environment variable (default: one thread per
    chain); results are ordered by chain index regardless of scheduling.
    """
    inits = init if init is not None else [None] * config.chains
    if len(inits) != config.chains:
        raise ValueError("need one init per chain")
    max_workers = int(os.environ.get("POLAR_THREADS", config.chains))
    max_workers = max(1, min(max_workers, config.chains))
    if max_workers == 1:
        return [
            _run_single_chain(target, config, c, inits[c]) for c in range(config.chains)
        ]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_run_single_chain, target, config, c, inits[c])
            for c in range(config.chains)
        ]
        return [f.result() for f in futures]
