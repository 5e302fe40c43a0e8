"""Adaptive Hamiltonian Monte Carlo for unconstrained differentiable targets.

Static-path HMC with jittered leapfrog length, dual-averaging step-size
adaptation toward a target acceptance rate, and windowed diagonal mass
estimation during warmup. A transition at step size eps takes 1..n leapfrog
steps, drawn uniformly, with n = ceil(pi / eps) capped at MAX_LEAPFROG: the
adapted mass is the inverse variance, so a Gaussian coordinate oscillates
with period 2 pi, and a path time jittered over (0, pi] leaves it close to
uncorrelated with its last draw. A trajectory stops at its first non-finite
state, and the energy error alone decides divergence. The warmup step sizes
are one record, a (chains, warmup + 1) array of log step sizes. Chains are
independent and deterministic given (seed, chain index). They run as one
batch in one thread: the target is called on the states of all chains at
once, and a chain whose trajectory has ended leaves the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expansion import UnconstrainedTarget
from .matcore import DegenerateMatrixError, IllConditionedError

_RECOVERABLE = (DegenerateMatrixError, IllConditionedError, FloatingPointError)
# the step size that dual averaging starts from
INIT_STEP_SIZE = 0.1
# the cap on ceil(pi / eps), the most leapfrog steps one transition may take
MAX_LEAPFROG = 32
# an energy error above this counts as a divergence
MAX_ENERGY_ERROR = 1000.0


@dataclass
class HmcConfig:
    chains: int = 4
    warmup: int = 1000
    samples: int = 5000
    target_accept: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.warmup <= 0 or self.samples <= 0 or self.chains <= 0:
            raise ValueError("chains, warmup and samples must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class ChainOutput:
    draws: np.ndarray
    accept_rate: float
    divergences: int
    step_size: float
    step_size_trace: np.ndarray
    mass_diag: np.ndarray
    grad_evals: int
    # the most leapfrog steps a sampling transition may take, from step_size
    max_leapfrog: int


class ChainInitializationError(RuntimeError):
    """Warmup never produced a finite, accepted state."""


# dual averaging of the log step size (Hoffman & Gelman, JMLR 2014): shrinkage
# toward log(10 eps0) and the early-iteration offset
DA_GAMMA = 0.05
DA_T0 = 10.0


def _evaluate(target, x, rows, evals):
    """Values and gradients of target at the states x, one per chain in rows.

    One batched call; evals[c] counts the rows evaluated for chain c. If the
    call raises a degenerate-state error (a rank-deficient, non-finite or
    ill-conditioned matrix, an SVD that did not converge, or a floating-point
    error), the rows are evaluated one at a time, and a row that raises gets
    a NaN value, which the transition counts as a divergence.
    """
    evals[rows] += 1
    try:
        return target.value_and_grad(x)
    except _RECOVERABLE:
        pass
    val = np.full(rows.size, np.nan)
    grad = np.zeros_like(x)
    for j, c in enumerate(rows):
        evals[c] += 1
        try:
            v, g = target.value_and_grad(x[j : j + 1])
        except _RECOVERABLE:
            continue
        val[j], grad[j] = v[0], g[0]
    return val, grad


def leapfrog(target: UnconstrainedTarget, position, momentum, grad, step, steps, mass,
             evals=None):
    """Run steps[c] >= 1 leapfrog steps for each chain c of a batch.

    position, momentum, grad and mass are (chains, dim), with grad the
    gradient at position; step and steps are per chain. Kinetic energy is
    (1/2) m^T M^{-1} m with diagonal M = mass. A chain whose trajectory has
    ended leaves the batch, which is compacted only on steps where a chain
    ends or fails. Returns (q, m, val, grad) at the ends of the trajectories.
    A chain whose target turns non-finite or raises one of its degenerate-state
    errors stops at that step with a NaN value; the caller's energy test
    counts it as a divergence. evals, if given, counts the rows per chain.
    """
    n_chains = position.shape[0]
    step = np.broadcast_to(np.asarray(step, dtype=float), (n_chains,))[:, None]
    steps = np.broadcast_to(np.asarray(steps), (n_chains,))
    mass = np.broadcast_to(mass, position.shape)
    if evals is None:
        evals = np.zeros(n_chains, dtype=int)
    q = position.copy()
    m = momentum + 0.5 * step * grad
    grad = grad.copy()
    val = np.full(n_chains, np.nan)
    # the chains still moving, and their states, compacted
    rows = np.arange(n_chains)
    qa, ma, sa, wa, left = q, m, step, mass, steps
    taken = 0
    while rows.size:
        qa = qa + sa * ma / wa
        va, ga = _evaluate(target, qa, rows, evals)
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


def _path_ceiling(eps):
    """Per chain, ceil(pi / eps) clipped to 1..MAX_LEAPFROG: at most half a period."""
    # eps = 0 divides by zero and gets the cap; eps = inf gets one step
    with np.errstate(divide="ignore"):
        return np.clip(np.ceil(np.pi / eps), 1, MAX_LEAPFROG).astype(int)


def _transition(target, q, val, grad, eps, mass, rngs, evals):
    """One HMC transition of every chain at its step size eps[c].

    Chain c draws its path length from 1.._path_ceiling(eps[c]), its momentum
    and, unless it diverged, its accept uniform from rngs[c]. The energy error
    alone decides divergence: above MAX_ENERGY_ERROR or NaN, as it is for a
    trajectory that stopped at a non-finite state. Returns (q, val, grad,
    accept_prob, accepted, diverged), per chain.
    """
    n_steps = [rng.integers(1, n + 1) for rng, n in zip(rngs, _path_ceiling(eps))]
    m0 = np.sqrt(mass) * np.array([rng.standard_normal(q.shape[1]) for rng in rngs])
    h0 = -val + 0.5 * np.sum(m0 * m0 / mass, axis=1)
    q_new, m, val_new, grad_new = leapfrog(target, q, m0, grad, eps, n_steps, mass, evals)
    delta = -val_new + 0.5 * np.sum(m * m / mass, axis=1) - h0
    diverged = ~(delta <= MAX_ENERGY_ERROR)
    accept_prob = np.where(diverged, 0.0, np.exp(-np.maximum(delta, 0.0)))
    accepted = np.zeros(len(rngs), dtype=bool)
    for c in np.flatnonzero(~diverged):
        accepted[c] = rngs[c].random() < accept_prob[c]
    q = np.where(accepted[:, None], q_new, q)
    val = np.where(accepted, val_new, val)
    grad = np.where(accepted[:, None], grad_new, grad)
    return q, val, grad, accept_prob, accepted, diverged


def _mass_windows(n_adapt):
    """Stan-style schedule: 15% step-size-only, doubling mass windows, 10% tail.

    Returns (first, window_ends) where window_ends are the iteration indices
    at which the mass matrix is re-estimated.
    """
    first = max(1, int(round(0.15 * n_adapt)))
    last = n_adapt - max(1, int(round(0.10 * n_adapt)))
    ends = []
    pos, size = first, 25
    while pos < last:
        # a window that would leave at most its own size before last runs to last
        pos = pos + size if pos + 2 * size < last else last
        ends.append(pos)
        size *= 2
    return first, ends


def _run_batch(target, config, q, rngs):
    """All chains as one batch from the states q, chain c drawing from rngs[c]."""
    n_chains, dim = q.shape
    evals = np.zeros(n_chains, dtype=int)
    val, grad = _evaluate(target, q, np.arange(n_chains), evals)
    bad = np.flatnonzero(~np.isfinite(val))
    if bad.size:
        raise ChainInitializationError(
            f"chain {bad[0]}: target is non-finite or degenerate at the initial point"
        )

    mass = np.ones((n_chains, dim))
    first, window_ends = _mass_windows(config.warmup)
    # column it: the log step size of warmup iteration it; last: the final update
    log_eps = np.empty((n_chains, config.warmup + 1))
    log_eps[:, 0] = np.log(INIT_STEP_SIZE)
    mu = np.log(10.0 * INIT_STEP_SIZE)
    h_bar = np.zeros(n_chains)
    window_draws = []
    any_accept = np.zeros(n_chains, dtype=bool)

    for it in range(config.warmup):
        q, val, grad, aprob, accepted, _ = _transition(
            target, q, val, grad, np.exp(log_eps[:, it]), mass, rngs, evals
        )
        any_accept |= accepted
        eta = 1.0 / (it + 1 + DA_T0)
        h_bar = (1.0 - eta) * h_bar + eta * (config.target_accept - aprob)
        log_eps[:, it + 1] = mu - np.sqrt(it + 1) / DA_GAMMA * h_bar
        if it + 1 > first:
            window_draws.append(q)
        if (it + 1) in window_ends and len(window_draws) >= 10:
            n = len(window_draws)
            var = np.var(window_draws, axis=0, ddof=1)
            # shrink toward unit scale, Stan-style regularization; the mass
            # matrix diagonal is the inverse of the estimated variance so that
            # position updates move eps * sd per unit momentum
            var = n / (n + 5.0) * var + 1e-3 * (5.0 / (n + 5.0))
            mass = 1.0 / np.maximum(var, 1e-10)
            window_draws = []

    stuck = np.flatnonzero(~any_accept)
    if stuck.size:
        raise ChainInitializationError(
            f"chain {stuck[0]}: every warmup transition diverged or was rejected "
            f"(final step size {np.exp(log_eps[stuck[0], -1]):.3e}); "
            "check the target or initialization"
        )

    # freeze at the mean of the last updates; less biased than the dual-averaging
    # iterate average when the adaptation keeps oscillating late in warmup
    n_tail = min(config.warmup, max(10, int(round(0.05 * config.warmup))))
    eps = np.exp(np.mean(log_eps[:, -n_tail:], axis=1))
    draws = np.empty((n_chains, config.samples, dim))
    max_leapfrog = _path_ceiling(eps)
    divergences = np.zeros(n_chains, dtype=int)
    accept_sum = np.zeros(n_chains)
    for it in range(config.samples):
        q, val, grad, aprob, _, diverged = _transition(
            target, q, val, grad, eps, mass, rngs, evals
        )
        divergences += diverged
        accept_sum += aprob
        draws[:, it] = q
    return [
        ChainOutput(
            draws=draws[c],
            accept_rate=float(accept_sum[c] / config.samples),
            divergences=int(divergences[c]),
            step_size=float(eps[c]),
            step_size_trace=np.exp(log_eps[c, :-1]),
            mass_diag=mass[c],
            grad_evals=int(evals[c]),
            max_leapfrog=int(max_leapfrog[c]),
        )
        for c in range(n_chains)
    ]


# perfbench/launch.py traces the batch through this name
_run_single_chain = _run_batch


def run_chains(target: UnconstrainedTarget, config: HmcConfig, init=None):
    """Run config.chains independent chains; returns a list of ChainOutput.

    `init` is None, when chain c starts from iid N(0, 1) coordinates drawn
    from its generator (seeded by (config.seed, c)), or one initial vector per
    chain, read as a (chains, dim) array. The chains run as one batch in one
    thread: every gradient evaluation takes the states of all chains still
    moving. Each chain's draws depend only on (seed, chain index).
    """
    rngs = [np.random.default_rng([config.seed, c]) for c in range(config.chains)]
    if init is None:
        # iid N(0,1) coordinates: for expanded targets this makes Q_X uniform.
        q = np.array([rng.standard_normal(target.dim) for rng in rngs])
    else:
        q = np.array(init, dtype=float)
        if q.shape != (config.chains, target.dim):
            raise ValueError(f"init has shape {q.shape}, expected ({config.chains}, {target.dim})")
    return _run_single_chain(target, config, q, rngs)
