"""Checks of one command's outputs against computations made apart from polarexp.

Each check function returns a list of (name, passed) pairs, one per
operation counted in `attempted`, plus the figures the metrics need.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import reference

RHAT_MAX = 1.05
ESS_PER_ITER_MIN = 0.2
QLQ_CORR_MIN = 0.9
ORTH_TOL = 1e-8
# the third component sits near the AR(1) noise level, so the largest principal
# angle to the signal subspace varies from 21 to 57 degrees over seeds even for
# the classical SVD estimate; the check allows this much beyond that estimate
ANGLE_SLACK_DEG = 5.0


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _by_chain(rows: np.ndarray, col: int) -> np.ndarray:
    """(chains, draws) array of column `col` from rows laid out as iteration, chain, ..."""
    chains = np.unique(rows[:, 1]).astype(int)
    return np.stack([rows[rows[:, 1] == c, col] for c in chains])


def check_eigen(out: Path, qlq_truth: np.ndarray):
    """qlq_mean.csv symmetric and correlated with the truth; lambda traces mixed.

    Returns (checks, ess) where ess is the mean over lambda_1 and lambda_2 of
    the ESS summed over chains.
    """
    qlq = _read_csv(out / "qlq_mean.csv")
    iu = np.triu_indices(qlq.shape[0], 1)
    symmetric = bool(np.max(np.abs(qlq - qlq.T)) <= 1e-12 * np.max(np.abs(qlq)))
    corr = float(np.corrcoef(qlq[iu], qlq_truth[iu])[0, 1])
    trace = _read_csv(out / "lambda_trace.csv")
    lams = [_by_chain(trace, col) for col in (2, 3)]
    rhat = max(reference.split_rhat(lam) for lam in lams)
    ess_each = [sum(reference.ess(chain) for chain in lam) for lam in lams]
    ess_per_iter = min(ess_each) / lams[0].size
    checks = [
        ("qlq_symmetric", symmetric),
        ("qlq_corr", corr >= QLQ_CORR_MIN),
        ("lambda_rhat", rhat <= RHAT_MAX),
        ("lambda_ess_per_iter", ess_per_iter >= ESS_PER_ITER_MIN),
    ]
    return checks, float(np.mean(ess_each))


def right_subspace(y: np.ndarray, stride: int, k: int) -> np.ndarray:
    """Leading k right singular vectors of y on the strided grid, doubly centred."""
    s = y[:, ::stride]
    s = s - s.mean(axis=1, keepdims=True) - s.mean(axis=0, keepdims=True) + s.mean()
    return np.linalg.svd(s, full_matrices=False)[2][:k].T


def check_fpca(out: Path, made: dict, stride: int, names):
    """The FPCA checks named in `names`, in that order, and the number of draws.

    v_orthonormal: columns of v_estimate.csv orthonormal to ORTH_TOL.
    v_classical: v_classical.csv spans the subspace computed here from the data.
    v_angle: the largest principal angle of v_estimate.csv to the noise-free
    signal subspace is at most ANGLE_SLACK_DEG more than the classical estimate's.
    rho_rhat: split R-hat of rho_draws.csv at most RHAT_MAX.

    The chains do not mix (the stuck-chain fault in CHANGES.md): the ESS of rho
    over sampler seeds 1-13 ran from 6 to 23 draws in 200, so it would measure
    which chain got stuck rather than speed. Every draw is therefore counted,
    which makes the benchmark's ess_per_s draws per second on FPCA.
    """
    v = _read_csv(out / "v_estimate.csv")[:, 1:]
    k = v.shape[1]
    classical = right_subspace(made["y"], stride, k)
    truth = right_subspace(made["signal"], stride, k)

    def largest_angle(a, b):
        return reference.principal_angles_deg(a, b)[-1]

    rho = _by_chain(_read_csv(out / "rho_draws.csv"), 2)
    passed = {
        "v_orthonormal": bool(np.max(np.abs(v.T @ v - np.eye(k))) <= ORTH_TOL),
        "v_classical": largest_angle(_read_csv(out / "v_classical.csv")[:, 1:], classical) <= 1e-3,
        "v_angle": largest_angle(v, truth) <= largest_angle(classical, truth) + ANGLE_SLACK_DEG,
        "rho_rhat": reference.split_rhat(rho) <= RHAT_MAX,
    }
    return [(name, bool(passed[name])) for name in names], float(rho.size)
