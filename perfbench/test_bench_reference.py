"""Tests of the benchmark's reference estimators and output checks against exact answers."""

from __future__ import annotations

import numpy as np
import pytest

import checks
import inputs
import reference


def ar1(phi, n, rng, chains=1):
    x = np.empty((chains, n))
    x[:, 0] = rng.standard_normal(chains) / np.sqrt(1.0 - phi * phi)
    z = rng.standard_normal((chains, n))
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + z[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8])
def test_ess_matches_ar1_oracle(phi):
    n = 100_000
    x = ar1(phi, n, np.random.default_rng(7))[0]
    assert reference.ess(x) / n == pytest.approx((1 - phi) / (1 + phi), rel=0.08)


def test_autocovariance_matches_direct_sum():
    x = np.random.default_rng(1).standard_normal(50)
    d = x - x.mean()
    direct = [np.dot(d[: d.size - h], d[h:]) / d.size for h in range(d.size)]
    np.testing.assert_allclose(reference.autocovariance(x), direct, atol=1e-12)


def test_rhat_near_one_on_iid_chains():
    draws = np.random.default_rng(2).standard_normal((4, 1000))
    assert abs(reference.split_rhat(draws) - 1.0) < 0.01


def test_rhat_flags_shifted_chains():
    draws = np.random.default_rng(3).standard_normal((4, 1000))
    draws[0] += 1.0
    assert reference.split_rhat(draws) > 1.05


def test_rhat_flags_a_trend_within_one_chain():
    draws = np.random.default_rng(4).standard_normal((1, 1000))
    draws[0, 500:] += 1.0
    assert reference.split_rhat(draws) > 1.05


@pytest.mark.parametrize("theta", [0.0, 10.0, 45.0, 90.0])
def test_principal_angles_of_a_known_rotation(theta):
    t = np.radians(theta)
    e = np.eye(5)
    a = e[:, :2]
    b = np.column_stack([e[:, 0], np.cos(t) * e[:, 1] + np.sin(t) * e[:, 2]])
    rot = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))[0]
    np.testing.assert_allclose(
        reference.principal_angles_deg(rot @ a, rot @ b @ np.array([[0.6, 0.8], [-0.8, 0.6]])),
        [0.0, theta],
        atol=1e-6,
    )


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def trace_rows(draws):
    """iteration, chain, value... rows from an array shaped (chains, draws, columns)."""
    chains, n = draws.shape[:2]
    return [[it, c, *draws[c, it]] for c in range(chains) for it in range(n)]


@pytest.fixture
def eigen_out(tmp_path):
    made = inputs.make_eigen(1, tmp_path)
    qlq = made["qlq"]
    write_csv(tmp_path / "qlq_mean.csv", [f"node_{j + 1}" for j in range(qlq.shape[0])], qlq)
    lam = np.random.default_rng(6).standard_normal((4, 300, 2)) + [30.0, -20.0]
    write_csv(tmp_path / "lambda_trace.csv", ["iteration", "chain", "lambda_1", "lambda_2"],
              trace_rows(lam))
    return tmp_path, made


def test_eigen_checks_pass_on_correct_output(eigen_out):
    out, made = eigen_out
    result, ess = checks.check_eigen(out, made["qlq"])
    assert all(ok for _, ok in result)
    assert ess == pytest.approx(1200.0, rel=0.15)


def test_eigen_checks_fail_on_shuffled_qlq(eigen_out):
    out, made = eigen_out
    qlq = made["qlq"][np.random.default_rng(8).permutation(made["qlq"].shape[0])]
    write_csv(out / "qlq_mean.csv", [f"node_{j + 1}" for j in range(qlq.shape[0])], qlq)
    result = dict(checks.check_eigen(out, made["qlq"])[0])
    assert not result["qlq_symmetric"]
    assert not result["qlq_corr"]


def test_eigen_checks_fail_on_unmixed_traces(eigen_out):
    out, made = eigen_out
    lam = np.stack([ar1(0.95, 300, np.random.default_rng(9), chains=4)] * 2, axis=2)
    lam[0] += 3.0
    write_csv(out / "lambda_trace.csv", ["iteration", "chain", "lambda_1", "lambda_2"],
              trace_rows(lam))
    result = dict(checks.check_eigen(out, made["qlq"])[0])
    assert not result["lambda_rhat"]
    assert not result["lambda_ess_per_iter"]


FPCA_CHECKS = ("v_orthonormal", "v_classical", "v_angle", "rho_rhat")


@pytest.fixture
def fpca_out(tmp_path):
    made = inputs.make_fpca(1, tmp_path)
    grid = np.arange(1.0, inputs.FPCA_DAYS + 1.0)[::5]
    header = ["day", "pc_1", "pc_2", "pc_3"]
    write_csv(tmp_path / "v_estimate.csv", header,
              np.column_stack([grid, checks.right_subspace(made["signal"], 5, 3)]))
    write_csv(tmp_path / "v_classical.csv", header,
              np.column_stack([grid, checks.right_subspace(made["y"], 5, 3)]))
    rho = 30.0 + np.random.default_rng(10).standard_normal((2, 300, 1))
    write_csv(tmp_path / "rho_draws.csv", ["iteration", "chain", "rho"], trace_rows(rho))
    return tmp_path, made, header, grid


def test_fpca_checks_pass_on_correct_output(fpca_out):
    out, made, _, _ = fpca_out
    result, ess = checks.check_fpca(out, made, 5, FPCA_CHECKS)
    assert all(ok for _, ok in result)
    assert ess == 600.0


def test_fpca_checks_fail_on_perturbed_v_estimate(fpca_out):
    out, made, header, grid = fpca_out
    v = checks.right_subspace(made["signal"], 5, 3)
    v += 1e-4 * np.random.default_rng(11).standard_normal(v.shape)
    write_csv(out / "v_estimate.csv", header, np.column_stack([grid, v]))
    assert dict(checks.check_fpca(out, made, 5, FPCA_CHECKS)[0]) == {
        "v_orthonormal": False, "v_classical": True, "v_angle": True, "rho_rhat": True}


def test_fpca_checks_fail_on_shuffled_days(fpca_out):
    out, made, header, grid = fpca_out
    order = np.random.default_rng(12).permutation(grid.size)
    for name, source in (("v_estimate.csv", "signal"), ("v_classical.csv", "y")):
        v = checks.right_subspace(made[source], 5, 3)[order]
        write_csv(out / name, header, np.column_stack([grid, v]))
    result = dict(checks.check_fpca(out, made, 5, FPCA_CHECKS)[0])
    assert result["v_orthonormal"]
    assert not result["v_classical"]
    assert not result["v_angle"]


def test_fpca_checks_fail_on_stuck_chain(fpca_out):
    out, made, _, _ = fpca_out
    rho = 30.0 + np.random.default_rng(13).standard_normal((2, 300, 1))
    rho[1] = 12.0 + 0.1 * rho[1]
    write_csv(out / "rho_draws.csv", ["iteration", "chain", "rho"], trace_rows(rho))
    assert not dict(checks.check_fpca(out, made, 5, FPCA_CHECKS)[0])["rho_rhat"]
