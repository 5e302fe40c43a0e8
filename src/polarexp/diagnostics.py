"""Convergence and efficiency diagnostics: ESS, split R-hat, summaries."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Fewest draws per chain that ess and split_rhat accept.
MIN_DRAWS = 100


@dataclass(frozen=True)
class SummaryRow:
    name: str
    mean: float
    sd: float
    q5: float
    q50: float
    q95: float
    ess: float
    ess_per_iter: float
    rhat: float


def _autocov(x):
    """Biased autocovariance sequence via FFT."""
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    return acov


def ess(series) -> float:
    """Effective sample size via Geyer's initial monotone sequence estimator.

    Autocovariances are truncated at the first negative even/odd pair sum and
    the pair-sum sequence is forced nonincreasing. A constant series has
    ESS defined as 0 (with a warning).
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws, got {n}")
    gamma = _autocov(x)
    if gamma[0] <= 0 or not np.isfinite(gamma[0]):
        warnings.warn("constant or degenerate series: ESS set to 0", stacklevel=2)
        return 0.0
    _, pair = _geyer_truncation(gamma)
    if pair.size == 0:
        return float(n)
    var = -gamma[0] + 2.0 * float(np.sum(pair))
    if var <= 0:
        return float(n)
    return float(min(n * gamma[0] / var, n * 1.05))


def _geyer_truncation(gamma):
    """Geyer's initial monotone sequence from the autocovariances gamma.

    Sums gamma over (even, odd) lag pairs, truncates at the first nonpositive
    pair sum (initial positive sequence) and forces the kept sums
    nonincreasing. Returns (truncation lag, which is even; the pair sums).
    """
    m_max = (gamma.size - 1) // 2
    pair = gamma[0 : 2 * m_max : 2] + gamma[1 : 2 * m_max : 2]
    neg = np.nonzero(pair <= 0)[0]
    cut = neg[0] if neg.size else pair.size
    return 2 * cut, np.minimum.accumulate(pair[:cut])


def split_rhat(chains) -> float:
    """Classic potential scale reduction computed on split half-chains."""
    arrs = [np.asarray(c, dtype=float).ravel() for c in chains]
    if len(arrs) < 1:
        raise ValueError("need at least one chain")
    lengths = {a.size for a in arrs}
    if len(lengths) != 1:
        raise ValueError(f"chains have unequal lengths: {sorted(lengths)}")
    n_full = arrs[0].size
    if n_full < MIN_DRAWS:
        raise ValueError(f"need chains of length >= {MIN_DRAWS}")
    half = n_full // 2
    halves = []
    for a in arrs:
        halves.append(a[:half])
        halves.append(a[n_full - half :])
    h = np.asarray(halves)
    m, n = h.shape
    within = np.mean(np.var(h, axis=1, ddof=1))
    between = n * np.var(np.mean(h, axis=1), ddof=1)
    if within == 0:
        return np.inf if between > 0 else 1.0
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def summarize(chain_draws, names) -> list[SummaryRow]:
    """Per-parameter summaries from draws shaped (chains, iterations, dim).

    ESS is summed across chains; ess_per_iter divides by the total number of
    post-warmup iterations, matching the per-iteration efficiency convention.
    """
    draws = np.asarray(chain_draws, dtype=float)
    if draws.ndim == 2:
        draws = draws[None, :, :]
    n_chains, n_iter, dim = draws.shape
    if len(names) != dim:
        raise ValueError("one name per column required")
    rows = []
    for j, name in enumerate(names):
        pooled = draws[:, :, j].ravel()
        ess_total = float(sum(ess(draws[c, :, j]) for c in range(n_chains)))
        if n_chains >= 2 or n_iter >= 200:
            rhat = split_rhat([draws[c, :, j] for c in range(n_chains)])
        else:
            rhat = np.nan
        q5, q50, q95 = np.quantile(pooled, [0.05, 0.50, 0.95])
        rows.append(
            SummaryRow(
                name=name,
                mean=float(pooled.mean()),
                sd=float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0,
                q5=float(q5),
                q50=float(q50),
                q95=float(q95),
                ess=ess_total,
                ess_per_iter=ess_total / (n_chains * n_iter),
                rhat=float(rhat),
            )
        )
    return rows
