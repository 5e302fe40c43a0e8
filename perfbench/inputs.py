"""Benchmark inputs, generated from a seed with numpy alone.

Nothing here imports polarexp, so the inputs stay the same when the program
changes. Each generator writes the CSV the command reads and returns the
ground truth the output checks compare against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import ndtr

# eigen-p30: the acceptance-criterion-5 graph
EIGEN_P = 30
EIGEN_LAMBDA = np.array([36.0, -24.0])
EIGEN_C = 0.0

# FPCA: 35 stations x 365 days, three SE-kernel curves with rho = 29,
# uniform station scores, d = (300, 150, 80), AR(1) noise sigma2 = 4, phi = 0.6
FPCA_STATIONS = 35
FPCA_DAYS = 365
FPCA_RHO = 29.0
FPCA_D = np.array([300.0, 150.0, 80.0])
FPCA_SIGMA2 = 4.0
FPCA_PHI = 0.6


def eigen_truth() -> np.ndarray:
    """Q Lambda Q^T of three equal communities of ten nodes."""
    g = np.zeros((EIGEN_P, 3))
    g[:10, 0] = g[10:20, 1] = g[20:, 2] = 1.0
    u1 = (g[:, 0] - g[:, 1]) / np.sqrt(20.0)
    u2 = (g[:, 0] + g[:, 1] - 2.0 * g[:, 2]) / np.sqrt(60.0)
    q = np.column_stack([u1, u2])
    return (q * EIGEN_LAMBDA) @ q.T


def make_eigen(seed: int, out_dir: Path) -> dict:
    """Probit adjacency Y_ij ~ Bernoulli(Phi[c + (Q Lambda Q^T)_ij]), written as 0/1 CSV."""
    rng = np.random.default_rng([seed, 30])
    truth = eigen_truth()
    iu = np.triu_indices(EIGEN_P, 1)
    y = np.zeros((EIGEN_P, EIGEN_P))
    y[iu] = rng.random(iu[0].size) < ndtr(EIGEN_C + truth[iu])
    y += y.T
    path = out_dir / "adjacency.csv"
    with open(path, "w") as fh:
        fh.write(",".join(f"node_{j + 1}" for j in range(EIGEN_P)) + "\n")
        for row in y.astype(int):
            fh.write(",".join(str(v) for v in row) + "\n")
    return {"path": path, "qlq": truth}


def fpca_signal(rng: np.random.Generator) -> np.ndarray:
    """U D V^T with V three orthonormalised SE-GP curves and U uniform on V(3, 35)."""
    t = np.arange(1.0, FPCA_DAYS + 1.0)
    kern = np.exp(-((t[:, None] - t[None, :]) ** 2) / (2.0 * FPCA_RHO**2))
    w, vec = np.linalg.eigh(kern)
    root = vec * np.sqrt(np.clip(w, 0.0, None))
    curves = root @ rng.standard_normal((FPCA_DAYS, FPCA_D.size))
    v, _ = np.linalg.qr(curves)
    u, _ = np.linalg.qr(rng.standard_normal((FPCA_STATIONS, FPCA_D.size)))
    return (u * FPCA_D) @ v.T


def ar1_noise(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Stationary AR(1) rows with marginal variance FPCA_SIGMA2."""
    e = np.empty((n, p))
    e[:, 0] = np.sqrt(FPCA_SIGMA2) * rng.standard_normal(n)
    innov = np.sqrt(FPCA_SIGMA2 * (1.0 - FPCA_PHI**2))
    z = rng.standard_normal((n, p))
    for j in range(1, p):
        e[:, j] = FPCA_PHI * e[:, j - 1] + innov * z[:, j]
    return e


def make_fpca(seed: int, out_dir: Path) -> dict:
    """Station-by-day CSV with a station-name column, plus the data and its noise-free signal."""
    rng = np.random.default_rng([seed, 365])
    signal = fpca_signal(rng)
    y = signal + ar1_noise(rng, FPCA_STATIONS, FPCA_DAYS)
    path = out_dir / "temps.csv"
    with open(path, "w") as fh:
        fh.write("station," + ",".join(f"day_{j + 1}" for j in range(FPCA_DAYS)) + "\n")
        for i, row in enumerate(y):
            fh.write(f"st{i + 1}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return {"path": path, "y": y, "signal": signal}
