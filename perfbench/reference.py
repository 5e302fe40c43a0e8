"""Reference estimators the output checks use; independent of polarexp.

These are written from the textbook definitions rather than shared with
`polarexp.diagnostics`, so that a change to the program's diagnostics moves
neither a check nor `ess_per_s`.
"""

from __future__ import annotations

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Biased sample autocovariances gamma_0 .. gamma_{n-1}, via a zero-padded FFT."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    dev = x - x.mean()
    size = 2 * n
    spec = np.fft.rfft(dev, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:n] / n


def ess(x) -> float:
    """Effective sample size by Geyer's (1992) initial monotone sequence.

    Pair sums Gamma_m = gamma_{2m} + gamma_{2m+1} are kept while positive and
    replaced by their running minimum; ESS = n gamma_0 / (2 sum Gamma - gamma_0),
    capped at n log10(n) as in Stan. A constant series has ESS 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 draws, got {n}")
    gamma = autocovariance(x)
    if not gamma[0] > 0.0:
        return 0.0  # a chain that never moved carries no information
    m = n // 2
    pairs = gamma[0 : 2 * m : 2] + gamma[1 : 2 * m : 2]
    nonpositive = np.nonzero(pairs <= 0.0)[0]
    pairs = pairs[: nonpositive[0] if nonpositive.size else m]
    pairs = np.minimum.accumulate(pairs)
    tau = (2.0 * pairs.sum() - gamma[0]) / gamma[0]
    return float(n / max(tau, 1.0 / np.log10(max(n, 10))))


def split_rhat(chains) -> float:
    """Gelman-Rubin potential scale reduction on half-chains (BDA3, eq. 11.4)."""
    draws = np.asarray(chains, dtype=float)
    if draws.ndim != 2:
        raise ValueError("expected an array shaped (chains, draws)")
    half = draws.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    parts = np.concatenate([draws[:, :half], draws[:, -half:]])
    within = parts.var(axis=1, ddof=1).mean()
    between = half * parts.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return float("inf") if between > 0.0 else 1.0
    pooled = (half - 1) / half * within + between / half
    return float(np.sqrt(pooled / within))


def principal_angles_deg(a, b) -> np.ndarray:
    """Principal angles between the column spans of a and b, in degrees, ascending."""
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.sort(np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0))))
