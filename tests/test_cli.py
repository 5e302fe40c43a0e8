import json

import numpy as np
import pytest

from polarexp import cli
from polarexp.cli import main
from polarexp.models import simulate_eigenmodel, simulate_fpca


def random_stiefel(rng, p, k):
    return np.linalg.qr(rng.standard_normal((p, k)))[0]


def write_adjacency(path, p=10, seed=0, k=2, header=False):
    rng = np.random.default_rng(seed)
    q = random_stiefel(rng, p, k)
    lam = np.array([4.0, -3.0])[:k] * np.sqrt(p)
    data = simulate_eigenmodel(p, -0.3, q, lam, rng)
    lines = []
    if header:
        lines.append(",".join(f"node_{j}" for j in range(p)))
    for row in data.y:
        lines.append(",".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return data


def write_fpca_csv(path, n=6, p=24, seed=1, labels=False):
    rng = np.random.default_rng(seed)
    grid = np.arange(1.0, p + 1.0)
    data = simulate_fpca(n, grid, 2, [6.0, 3.0], 0.4, 0.3, p / 5.0, rng)
    lines = []
    for i, row in enumerate(data.y_raw):
        cells = [f"{v:.10g}" for v in row]
        if labels:
            cells = [f"station_{i}"] + cells
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return data


class TestDemo:
    def test_sphere_moments(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(
            [
                "demo", "--kind", "sphere", "--p", "4", "--draws", "20000",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["mean_q_norm"] <= 0.02
        assert moments["mean_qqt_deviation"] <= 0.02
        body = (out / "draws.csv").read_text().strip().split("\n")
        assert len(body) == 1 + 20000
        norms = [
            np.linalg.norm([float(c) for c in line.split(",")]) for line in body[1:100]
        ]
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_macg_identity_matches_stiefel(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        common = ["--p", "3", "--k", "2", "--draws", "200", "--seed", "7"]
        assert main(["demo", "--kind", "stiefel", *common, "--out", str(out_a)]) == 0
        assert (
            main(
                [
                    "demo", "--kind", "macg", *common,
                    "--sigma-diag", "1,1,1", "--out", str(out_b),
                ]
            )
            == 0
        )
        assert (out_a / "draws.csv").read_bytes() == (out_b / "draws.csv").read_bytes()

    def test_bad_sigma_diag_length(self, tmp_path, capsys):
        rc = main(
            [
                "demo", "--kind", "macg", "--p", "3", "--sigma-diag", "1,2",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "sigma-diag" in capsys.readouterr().err


class TestEigenmodelCommand:
    def test_outputs_and_determinism(self, tmp_path):
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=8, seed=4)
        argv = [
            "eigenmodel", str(adj), "--k", "2", "--chains", "2",
            "--warmup", "150", "--samples", "150", "--seed", "5",
        ]
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        for name in ("lambda_trace.csv", "summary.csv", "qlq_mean.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta = json.loads((out1 / "run_meta.json").read_text())
        assert meta["seed"] == 5
        assert len(meta["divergences"]) == 2
        qlq = np.loadtxt(out1 / "qlq_mean.csv", delimiter=",", skiprows=1)
        assert qlq.shape == (8, 8)
        np.testing.assert_allclose(qlq, qlq.T, atol=1e-12)

    def test_header_rows_accepted(self, tmp_path):
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=6, seed=6, header=True)
        rc = main(
            [
                "eigenmodel", str(adj), "--k", "1", "--chains", "1",
                "--warmup", "100", "--samples", "100",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 0

    def test_asymmetric_rejected_with_cell(self, tmp_path, capsys):
        adj = tmp_path / "bad.csv"
        adj.write_text("0,1,0\n0,0,1\n0,1,0\n")
        rc = main(["eigenmodel", str(adj), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "asymmetric" in err and "(1, 2)" in err

    def test_non_binary_rejected(self, tmp_path, capsys):
        adj = tmp_path / "bad.csv"
        adj.write_text("0,2,0\n2,0,1\n0,1,0\n")
        rc = main(["eigenmodel", str(adj), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "non-binary" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["eigenmodel", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_config_file_precedence(self, tmp_path):
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=6, seed=8)
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# options\nchains = 1\nwarmup = 100\nsamples = 120\nseed = 9\n")
        out = tmp_path / "o"
        rc = main(
            [
                "eigenmodel", str(adj), "--k", "1", "--config", str(cfg),
                "--samples", "140", "--out", str(out),
            ]
        )
        assert rc == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["chains"] == 1  # from config file
        assert meta["samples"] == 140  # flag beats config
        assert meta["seed"] == 9

    def test_unknown_config_key(self, tmp_path, capsys):
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=6, seed=10)
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("bogus = 3\n")
        rc = main(
            ["eigenmodel", str(adj), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


class TestFpcaCommand:
    def test_outputs_exist(self, tmp_path):
        csv = tmp_path / "temps.csv"
        write_fpca_csv(csv, n=6, p=24, seed=11, labels=True)
        out = tmp_path / "o"
        rc = main(
            [
                "fpca", str(csv), "--k", "2", "--chains", "1",
                "--warmup", "150", "--samples", "150", "--thin", "25",
                "--out", str(out),
            ]
        )
        assert rc == 0
        for name in (
            "v_estimate.csv",
            "v_classical.csv",
            "rho_draws.csv",
            "v3_draws.csv",
            "pc_effect.csv",
            "summary.csv",
            "run_meta.json",
        ):
            assert (out / name).exists()
        est = np.loadtxt(out / "v_estimate.csv", delimiter=",", skiprows=1)
        assert est.shape == (24, 3)  # day + 2 PCs
        # columns of the estimate are orthonormal up to the export precision
        v = est[:, 1:]
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-6)
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["hyper"]["k"] == 2

    def test_stride_must_divide(self, tmp_path, capsys):
        csv = tmp_path / "temps.csv"
        write_fpca_csv(csv, n=5, p=24, seed=12)
        rc = main(
            ["fpca", str(csv), "--stride", "5", "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "stride" in capsys.readouterr().err

    def test_stride_subsamples_grid(self, tmp_path):
        csv = tmp_path / "temps.csv"
        write_fpca_csv(csv, n=6, p=24, seed=13)
        out = tmp_path / "o"
        rc = main(
            [
                "fpca", str(csv), "--k", "2", "--stride", "2", "--chains", "1",
                "--warmup", "120", "--samples", "120", "--out", str(out),
            ]
        )
        assert rc == 0
        est = np.loadtxt(out / "v_estimate.csv", delimiter=",", skiprows=1)
        assert est.shape[0] == 12
        np.testing.assert_allclose(est[:, 0], np.arange(1.0, 25.0, 2.0))

    def test_non_numeric_cell_reported(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("1.0,2.0\n3.0,oops\n")
        rc = main(["fpca", str(csv), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "oops" in capsys.readouterr().err

    def test_low_noise_recovery(self, tmp_path):
        # strong smooth signal on a year-long grid (strided to 24 columns so
        # the run stays cheap): the posterior subspace should land close to
        # the identifiable truth, i.e. the doubly centered noiseless signal
        from polarexp.distributions import (
            Ar1Params,
            MacgParams,
            SeKernelParams,
            sample_ar1,
            sample_macg,
            sample_uniform_stiefel,
            se_kernel,
        )
        from polarexp.models import center_data

        rng = np.random.default_rng(14)
        n, p_full, k = 8, 360, 2
        grid_full = np.arange(1.0, p_full + 1.0)
        kern = se_kernel(SeKernelParams(grid=grid_full, rho=29.0, nugget=1e-6))
        v_true = sample_macg(MacgParams(sigma=kern), k, rng)
        u_true = sample_uniform_stiefel(n, k, rng)
        noise = sample_ar1(n, p_full, Ar1Params(phi=0.0, sigma2=0.25), rng)
        signal = (u_true * np.array([60.0, 40.0])) @ v_true.T
        csv = tmp_path / "temps.csv"
        csv.write_text(
            "\n".join(
                ",".join(f"{v:.12g}" for v in row) for row in signal + noise
            )
            + "\n"
        )
        out = tmp_path / "o"
        rc = main(
            [
                "fpca", str(csv), "--k", "2", "--stride", "15", "--chains", "2",
                "--warmup", "400", "--samples", "400", "--out", str(out),
            ]
        )
        assert rc == 0
        est = np.loadtxt(out / "v_estimate.csv", delimiter=",", skiprows=1)
        days = est[:, 0].astype(int)
        est = est[:, 1:]
        cen = center_data(signal[:, days - 1]).y
        ref = np.linalg.svd(cen, full_matrices=False)[2][:k].T
        s = np.linalg.svd(est.T @ ref, compute_uv=False)
        angle = np.degrees(np.arccos(np.clip(np.min(s), -1.0, 1.0)))
        assert angle <= 20.0


class TestInputErrors:
    @pytest.mark.parametrize(
        "command, flags, config, threads",
        [
            ("eigenmodel", ["--samples", "50"], None, None),
            ("eigenmodel", ["--samples", "0"], None, None),
            ("eigenmodel", ["--chains", "0"], None, None),
            ("eigenmodel", [], "chains = two\n", None),
            ("eigenmodel", ["--k", "12"], None, None),
            ("fpca", ["--k", "6"], None, None),
            ("eigenmodel", [], None, "x"),
        ],
        ids=["few-samples", "zero-samples", "zero-chains", "config-type", "k-above-p",
             "fpca-k-too-large", "polar-threads"],
    )
    def test_exit_1_before_sampling(
        self, tmp_path, monkeypatch, capsys, command, flags, config, threads
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("run_chains reached on bad input")

        monkeypatch.setattr(cli, "run_chains", no_sampling)
        if threads is None:
            monkeypatch.delenv("POLAR_THREADS", raising=False)
        else:
            monkeypatch.setenv("POLAR_THREADS", threads)
        data = tmp_path / "in.csv"
        if command == "eigenmodel":
            write_adjacency(data, p=10, seed=3)
        else:
            write_fpca_csv(data, n=6, p=24, seed=3)
        out = tmp_path / "o"
        argv = [command, str(data), *flags, "--out", str(out)]
        if config is not None:
            cfg = tmp_path / "opts.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out.glob("*.csv"))


class TestCheckCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["check", "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"] is True
        assert "quadrature: ok" in captured
        assert "ess_oracle: ok" in captured
