"""Adaptive Hamiltonian Monte Carlo for unconstrained differentiable targets.

Static-path HMC with jittered leapfrog length, dual-averaging step-size
adaptation toward a target acceptance rate, and windowed diagonal mass
estimation during warmup. A transition at step size eps takes 1..n leapfrog
steps, drawn uniformly, with n = ceil(pi / eps) capped at MAX_LEAPFROG: with
the mass at the inverse variance a Gaussian coordinate has period 2 pi, and a
path time jittered over (0, pi] leaves it close to uncorrelated with its last
draw. A trajectory stops at its first non-finite state, and the energy error
alone decides divergence. Chains are independent and deterministic given
(seed, chain index). They run as one batch in one thread, out of step: a
chain finishes each transition on the step its trajectory ends and joins the
next call of the target with its next one, until it has done them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .diagnostics import ebfmi
from .expansion import UnconstrainedTarget
from .matcore import DegenerateMatrixError, IllConditionedError, InputError

_RECOVERABLE = (DegenerateMatrixError, IllConditionedError, FloatingPointError)
# the step size that dual averaging starts from
INIT_STEP_SIZE = 0.1
# the cap on ceil(pi / eps), the most leapfrog steps one transition may take
MAX_LEAPFROG = 32
# an energy error above this counts as a divergence
MAX_ENERGY_ERROR = 1000.0


@dataclass
class HmcConfig:
    """Sampler settings; each field is also a flag and a config key of `eigenmodel` and `fpca`."""

    seed: int = 0
    chains: int = 4
    warmup: int = 1000
    samples: int = 5000
    target_accept: float = 0.8

    def __post_init__(self):
        if self.warmup <= 0 or self.samples <= 0 or self.chains <= 0:
            raise InputError("chains, warmup and samples must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise InputError("target_accept must lie in (0, 1)")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


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
    # the sampling iterations, from 0, whose transitions diverged
    divergence_iterations: list
    # E-BFMI of the starting Hamiltonians of the sampling transitions
    ebfmi: float


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


def _integrate(target, b, evals, on_end):
    """Leapfrog steps for every row of the batch b, until no row is left.

    Row j is chain b.rows[j] mid-trajectory: position q, momentum m half a
    step ahead, grad at q, step size eps (rows, 1), diagonal mass and left
    steps to go. Where a trajectory ends, on_end(b, j, val) gets its row at
    left 0, with m the end momentum, or val NaN if the target failed there,
    and may start the row's next trajectory; a row left at 0 leaves the batch.
    """
    while b.rows.size:
        b.q += b.eps * b.m / b.mass
        val, b.grad[...] = _evaluate(target, b.q, b.rows, evals)
        b.left -= 1
        ok = np.isfinite(val) & np.all(np.isfinite(b.grad), axis=1)
        ended = ~ok | (b.left < 1)
        if not ended.any():
            b.m += b.eps * b.grad
            continue
        kick = np.where(ended, 0.5, 1.0)[:, None] * b.eps  # an ended row's closing half kick
        b.m[ok] += kick[ok] * b.grad[ok]
        b.left[ended] = 0
        for j in np.flatnonzero(ended):
            on_end(b, j, val[j] if ok[j] else np.nan)
        if not b.left.all():
            vars(b).update({name: a[b.left > 0] for name, a in vars(b).items()})


def leapfrog(target: UnconstrainedTarget, position, momentum, grad, step, steps, mass,
             evals=None):
    """Run steps[c] >= 1 leapfrog steps for each chain c of a batch.

    position, momentum, grad and mass are (chains, dim), with grad the
    gradient at position; step and steps are per chain. Kinetic energy is
    (1/2) m^T M^{-1} m with diagonal M = mass. This is the sampler's step loop,
    where a chain whose trajectory has ended leaves the batch. Returns (q, m,
    val, grad) at the trajectories' ends. A chain whose target turns
    non-finite or raises a degenerate-state error stops there with a NaN value,
    which the caller's energy test counts as a divergence. evals, if given,
    counts the rows per chain.
    """
    n_chains = position.shape[0]
    step = np.broadcast_to(np.asarray(step, dtype=float), (n_chains,))[:, None]
    evals = np.zeros(n_chains, dtype=int) if evals is None else evals
    q, grad, val = position.copy(), np.array(grad, dtype=float), np.full(n_chains, np.nan)
    m = momentum + 0.5 * step * grad

    def record(b, j, v):
        if not np.isnan(v):
            c = b.rows[j]
            q[c], m[c], val[c], grad[c] = b.q[j], b.m[j], v, b.grad[j]

    _integrate(target, SimpleNamespace(
        rows=np.arange(n_chains), q=q.copy(), m=m.copy(), grad=grad.copy(), eps=step,
        mass=np.broadcast_to(mass, position.shape),
        left=np.array(np.broadcast_to(steps, (n_chains,)), dtype=int)), evals, record)
    return q, m, val, grad


def _path_ceiling(eps):
    """Per chain, ceil(pi / eps) clipped to 1..MAX_LEAPFROG: at most half a period."""
    # eps = 0 divides by zero and gets the cap; eps = inf gets one step
    with np.errstate(divide="ignore"):
        return np.clip(np.ceil(np.pi / eps), 1, MAX_LEAPFROG).astype(int)


def _begin(b, j, rng, q, val, grad, eps, mass, ceiling):
    """Start row j's transition of 1..ceiling steps at (q, val, grad); returns its h0."""
    b.left[j] = rng.integers(1, ceiling + 1)
    m0 = np.sqrt(mass) * rng.standard_normal(q.size)
    b.q[j], b.grad[j], b.eps[j], b.mass[j] = q, grad, eps, mass
    b.m[j] = m0 + 0.5 * eps * grad
    return -val + 0.5 * np.sum(m0 * m0 / mass)


def _end(b, j, val, h0, rng):
    """(accept_prob, accepted, diverged) of row j, whose trajectory ended at val.

    The energy error from h0 alone decides divergence: above MAX_ENERGY_ERROR
    or NaN, as at a failed state (val NaN). Else rng draws the accept uniform.
    """
    delta = -val + 0.5 * np.sum(b.m[j] * b.m[j] / b.mass[j]) - h0
    if not delta <= MAX_ENERGY_ERROR:
        return 0.0, False, True
    aprob = np.exp(-max(delta, 0.0))
    return aprob, rng.random() < aprob, False


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
    warmup, n_iter = config.warmup, config.warmup + config.samples
    evals = np.zeros(n_chains, dtype=int)
    val, grad = _evaluate(target, q, np.arange(n_chains), evals)
    bad = np.flatnonzero(~np.isfinite(val))
    if bad.size:
        raise ChainInitializationError(f"chain {bad[0]}: target is non-finite or degenerate "
                                       "at the initial point")
    q, val, grad = (np.array(a, dtype=float) for a in (q, val, grad))  # the chains' states
    mass = np.ones((n_chains, dim))
    first, window_ends = _mass_windows(warmup)
    # column it: the log step size of warmup iteration it; last: the final update
    log_eps = np.full((n_chains, warmup + 1), np.log(INIT_STEP_SIZE))
    mu = np.log(10.0 * INIT_STEP_SIZE)
    # freeze at the mean of the last updates; less biased than the dual-averaging
    # iterate average when the adaptation keeps oscillating late in warmup
    n_tail = min(warmup, max(10, int(round(0.05 * warmup))))
    # per chain: the next step size, transitions done, current starting Hamiltonian
    eps, done, h0 = np.exp(log_eps[:, 0]), np.zeros(n_chains, dtype=int), np.empty(n_chains)
    ceiling = _path_ceiling(eps)  # per chain, updated wherever eps changes
    h_bar, accept_sum, any_accept = np.zeros(n_chains), np.zeros(n_chains), np.zeros(n_chains, bool)
    window_draws, divergence_iterations = [[] for _ in rngs], [[] for _ in rngs]
    draws, energy = np.empty((n_chains, config.samples, dim)), np.empty((n_chains, config.samples))

    def on_end(b, j, val_end):
        c = b.rows[j]
        it = int(done[c])
        aprob, accepted, diverged = _end(b, j, val_end, h0[c], rngs[c])
        if accepted:
            q[c], val[c], grad[c] = b.q[j], val_end, b.grad[j]
        if it >= warmup:
            draws[c, it - warmup], energy[c, it - warmup] = q[c], h0[c]
            accept_sum[c] += aprob
            if diverged:
                divergence_iterations[c].append(it - warmup)
        else:
            any_accept[c] |= accepted
            eta = 1.0 / (it + 1 + DA_T0)
            h_bar[c] = (1.0 - eta) * h_bar[c] + eta * (config.target_accept - aprob)
            log_eps[c, it + 1] = mu - np.sqrt(it + 1) / DA_GAMMA * h_bar[c]
            eps[c] = np.exp(log_eps[c, it + 1])
            if it + 1 > first:
                window_draws[c].append(q[c].copy())
            if (it + 1) in window_ends and len(window_draws[c]) >= 10:
                n = len(window_draws[c])
                var = np.var(window_draws[c], axis=0, ddof=1)
                # shrink toward unit scale, Stan-style; the mass diagonal is the inverse
                # variance, so that position updates move eps * sd per unit momentum
                var = n / (n + 5.0) * var + 1e-3 * (5.0 / (n + 5.0))
                mass[c] = 1.0 / np.maximum(var, 1e-10)
                window_draws[c] = []
            if it + 1 == warmup:
                if not any_accept[c]:
                    raise ChainInitializationError(
                        f"chain {c}: every warmup transition diverged or was rejected (final "
                        f"step size {eps[c]:.3e}); check the target or initialization")
                eps[c] = np.exp(np.mean(log_eps[c, -n_tail:]))
            ceiling[c] = _path_ceiling(eps[c])
        done[c] = it + 1
        if it + 1 < n_iter:
            h0[c] = _begin(b, j, rngs[c], q[c], val[c], grad[c], eps[c], mass[c], ceiling[c])

    batch = SimpleNamespace(rows=np.arange(n_chains), q=q.copy(), m=q.copy(), grad=q.copy(),
                            eps=np.empty((n_chains, 1)), mass=mass.copy(), left=done.copy())
    for c in range(n_chains):
        h0[c] = _begin(batch, c, rngs[c], q[c], val[c], grad[c], eps[c], mass[c], ceiling[c])
    _integrate(target, batch, evals, on_end)
    return [ChainOutput(draws=draws[c], accept_rate=float(accept_sum[c] / config.samples),
                        divergences=len(divergence_iterations[c]), step_size=float(eps[c]),
                        step_size_trace=np.exp(log_eps[c, :-1]), mass_diag=mass[c],
                        grad_evals=int(evals[c]), max_leapfrog=int(ceiling[c]),
                        divergence_iterations=divergence_iterations[c], ebfmi=ebfmi(energy[c]))
            for c in range(n_chains)]


# perfbench/launch.py traces the batch through this name
_run_single_chain = _run_batch


def run_chains(target: UnconstrainedTarget, config: HmcConfig, init=None):
    """Run config.chains independent chains; returns a list of ChainOutput.

    `init` is None, when chain c starts from iid N(0, 1) coordinates drawn
    from its generator (seeded by (config.seed, c)), or one initial vector per
    chain, read as a (chains, dim) array. Every batched gradient evaluation
    takes the states of all chains with transitions left, in one thread. Each
    chain's draws depend only on (seed, chain index).
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
