"""Self-contained correctness checks shared by the CLI `check` command and tests."""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .diagnostics import ess
from .distributions import Ar1Params, sample_ar1
from .expansion import StiefelTarget, check_gradient, expand
from .matcore import DegenerateMatrixError
from .models import (
    eigenmodel_target,
    fpca_empirical_bayes,
    fpca_target,
    simulate_eigenmodel,
    simulate_fpca,
)

QUADRATURE_ANGLES = 72
QUADRATURE_R_MAX = 12.0
GRADIENT_POINTS = 5
GRADIENT_SEED = 20240301
ESS_PHI = 0.5
ESS_DRAWS = 100_000
ESS_SEED = 7
ESS_RTOL = 0.10
# the mixed batches of the row-independence check, as indices into its 4 states
ROW_BATCHES = ([2], [3, 0], [1, 3, 2], [0, 2, 1, 3])
ROW_SEED = 20240302


def uniform_circle_target() -> StiefelTarget:
    """Uniform density on V(1, 2) (the circle), w.r.t. the probability measure."""

    def value_and_grad(q):
        return 0.0, np.zeros_like(q)

    return StiefelTarget(p=2, k=1, value_and_grad=value_and_grad)


def quadrature_mass_check():
    """2-D quadrature of the expanded uniform-circle density.

    Integrates in polar coordinates: a radial quad per angle, then the
    trapezoid rule over the (periodic, smooth) angle marginal. Returns the
    total mass, the worst deviation of the angle marginal from 1/(2pi),
    and a pass flag at tolerance 1e-6.
    """
    target = expand(uniform_circle_target(), None)

    def radial(theta):
        direction = np.array([np.cos(theta), np.sin(theta)])

        def integrand(r):
            if r == 0.0:
                return 0.0
            try:
                return np.exp(target.log_density(r * direction)) * r
            except DegenerateMatrixError:
                return 0.0

        val, _ = quad(integrand, 0.0, QUADRATURE_R_MAX, epsabs=1e-10, epsrel=1e-10)
        return val

    thetas = np.linspace(0.0, 2.0 * np.pi, QUADRATURE_ANGLES, endpoint=False)
    marginal = np.array([radial(t) for t in thetas])
    mass = float(np.mean(marginal) * 2.0 * np.pi)
    marginal_dev = float(np.max(np.abs(marginal - 1.0 / (2.0 * np.pi))))
    return {
        "mass": mass,
        "mass_error": abs(mass - 1.0),
        "marginal_deviation": marginal_dev,
        "passed": bool(abs(mass - 1.0) <= 1e-6 and marginal_dev <= 1e-6),
    }


def _eigen_target(rng):
    q0 = np.linalg.qr(rng.standard_normal((12, 2)))[0]
    return eigenmodel_target(simulate_eigenmodel(12, 0.0, q0, np.array([4.0, -3.0]), rng), k=2)


def _fpca_target(rng):
    fdata = simulate_fpca(6, np.linspace(1.0, 365.0, 16), 2, [8.0, 5.0], 0.5, 0.3, 40.0, rng)
    return fpca_target(fdata, fpca_empirical_bayes(fdata.y, 2))


def gradient_checks():
    """Finite-difference checks of both model targets at random points."""
    rng = np.random.default_rng(GRADIENT_SEED)

    def worst_of(target, scale):
        reports = [check_gradient(target, scale * rng.standard_normal(target.dim))
                   for _ in range(GRADIENT_POINTS)]
        worst = max(reports, key=lambda rep: rep.max_rel_error)
        return {
            "max_rel_error": worst.max_rel_error,
            "worst_coordinate": worst.worst_coordinate,
            "passed": worst.ok,
        }

    results = {"eigenmodel": worst_of(_eigen_target(rng), 0.8)}
    results["fpca"] = worst_of(_fpca_target(rng), 0.5)
    return results


def mixed_batch_mismatches(target, states):
    """How many rows of the ROW_BATCHES mixes of states differ from solo calls, bit for bit."""

    def row_bytes(val, grad, i):
        return val[i].tobytes() + grad[i].tobytes()

    solo = [row_bytes(*target.value_and_grad(s[None]), 0) for s in states]
    mismatches = 0
    for rows in ROW_BATCHES:
        val, grad = target.value_and_grad(states[rows])
        mismatches += sum(row_bytes(val, grad, i) != solo[r] for i, r in enumerate(rows))
    return mismatches


def row_independence_check():
    """Each model target treats the rows of a batch independently, bit for bit.

    The sampler batches whichever chains are running, so each chain's draws
    depend only on (seed, chain index) only if a state's value and gradient
    do not depend on the other states in its call.
    """
    rng = np.random.default_rng(ROW_SEED)
    results = {}
    for name, target, scale in (("eigenmodel", _eigen_target(rng), 0.8),
                                ("fpca", _fpca_target(rng), 0.5)):
        mismatches = mixed_batch_mismatches(target, scale * rng.standard_normal((4, target.dim)))
        results[name] = {"rows": sum(map(len, ROW_BATCHES)), "mismatched_rows": mismatches,
                         "passed": mismatches == 0}
    return results


def ess_oracle_check():
    """ESS of a synthetic AR(1) chain against (1-phi)/(1+phi)."""
    rng = np.random.default_rng(ESS_SEED)
    chain = sample_ar1(1, ESS_DRAWS, Ar1Params(phi=ESS_PHI, sigma2=1.0), rng)[0]
    ratio = ess(chain) / ESS_DRAWS
    expected = (1.0 - ESS_PHI) / (1.0 + ESS_PHI)
    rel = abs(ratio - expected) / expected
    return {
        "phi": ESS_PHI,
        "ess_per_draw": ratio,
        "expected": expected,
        "rel_error": rel,
        "passed": bool(rel <= ESS_RTOL),
    }


def run_all_checks():
    """All checks as a single report dict with an overall pass flag."""
    report = {
        "quadrature": quadrature_mass_check(),
        "gradients": gradient_checks(),
        "ess_oracle": ess_oracle_check(),
        "row_independence": row_independence_check(),
    }
    ok = (
        report["quadrature"]["passed"]
        and all(r["passed"] for r in report["gradients"].values())
        and report["ess_oracle"]["passed"]
        and all(r["passed"] for r in report["row_independence"].values())
    )
    report["passed"] = bool(ok)
    return report
