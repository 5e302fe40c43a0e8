import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import polarexp
from polarexp import checks, cli
from polarexp.cli import main
from polarexp.expansion import UnconstrainedTarget
from polarexp.hmc import ChainInitializationError, HmcConfig
from polarexp.matcore import DegenerateMatrixError, IllConditionedError, InputError
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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "stiefel", "--p", "2", "--k", "3"],
            ["--kind", "sphere", "--p", "0"],
            ["--kind", "macg", "--p", "3", "--k", "0"],
            ["--kind", "macg", "--p", "3", "--sigma-diag", "1,x,2"],
            ["--kind", "macg", "--p", "3", "--sigma-diag", "1,-1,2"],
            ["--kind", "macg", "--p", "3", "--sigma-diag", "1,nan,2"],
            ["--kind", "sphere", "--p", "3", "--draws", "0"],
            ["--kind", "sphere", "--p", "3", "--draws", "-5"],
            ["--kind", "sphere", "--p", "3", "--seed", "-1"],
            ["--kind", "sphere", "--p", "3", "--sigma-diag", "1,1,1"],
            ["--kind", "stiefel", "--p", "3", "--k", "2", "--sigma-diag", "1,1,1"],
            ["--kind", "sphere", "--p", "3", "--k", "3"],
        ],
        ids=["k-above-p", "zero-p", "zero-k", "sigma-text", "sigma-negative", "sigma-nan",
             "zero-draws", "negative-draws", "negative-seed", "sigma-with-sphere",
             "sigma-with-stiefel", "k-with-sphere"],
    )
    def test_exit_1_before_drawing(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["demo", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "draws.csv").exists()


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
        # one initial gradient, then at least one per transition
        assert len(meta["grad_evals"]) == 2
        assert all(g >= 1 + 150 + 150 for g in meta["grad_evals"])
        # each chain's sampling-phase path ceiling, ceil(pi / step size) capped at 32
        assert meta["max_leapfrog"] == [min(32, math.ceil(math.pi / eps))
                                        for eps in meta["step_sizes"]]
        # each divergence's sampling iteration, and each chain's E-BFMI
        assert [len(its) for its in meta["divergence_iterations"]] == meta["divergences"]
        assert all(0 <= it < 150 for its in meta["divergence_iterations"] for it in its)
        assert len(meta["ebfmi"]) == 2 and all(e > 0 for e in meta["ebfmi"])
        qlq = np.loadtxt(out1 / "qlq_mean.csv", delimiter=",", skiprows=1)
        assert qlq.shape == (8, 8)
        np.testing.assert_allclose(qlq, qlq.T, atol=1e-12)

    def test_lambda_columns_follow_posterior_mean(self, tmp_path):
        # draws are aligned to the eigenvectors of the posterior mean of Q L Q^T,
        # taken in decreasing |lambda|, so lambda_1 is the larger-magnitude pair
        rng = np.random.default_rng(12)
        p = 20
        data = simulate_eigenmodel(p, -0.3, random_stiefel(rng, p, 2), [10.0, -8.0], rng)
        adj = tmp_path / "adj.csv"
        np.savetxt(adj, data.y, fmt="%d", delimiter=",")
        out = tmp_path / "o"
        assert main(["eigenmodel", str(adj), "--k", "2", "--chains", "2", "--warmup", "150",
                     "--samples", "200", "--seed", "2", "--out", str(out)]) == 0
        trace = np.genfromtxt(out / "lambda_trace.csv", delimiter=",", names=True)
        assert np.mean(np.abs(trace["lambda_1"])) > np.mean(np.abs(trace["lambda_2"]))

    def test_svd_failure_mid_run_is_retried(self, tmp_path, monkeypatch):
        # one LAPACK failure in a batched gradient call: the rows are evaluated
        # again one at a time, and the draws are those of an undisturbed run
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=8, seed=4)
        argv = ["eigenmodel", str(adj), "--k", "2", "--chains", "2",
                "--warmup", "100", "--samples", "100", "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
        svd, calls = np.linalg.svd, []

        def flaky(x, *args, **kwargs):
            calls.append(x.shape)
            if len(calls) == 300:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        assert main([*argv, "--out", str(tmp_path / "flaky")]) == 0
        assert len(calls) > 300
        for name in ("lambda_trace.csv", "summary.csv", "qlq_mean.csv"):
            assert (tmp_path / "clean" / name).read_bytes() == (
                tmp_path / "flaky" / name
            ).read_bytes()

    def test_svd_failure_after_sampling_exits_2(self, tmp_path, monkeypatch, capsys):
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=6, seed=6)
        svd = np.linalg.svd

        def fail_on_all_draws(x, *args, **kwargs):
            # sampling decomposes at most one matrix per chain at a time
            if x.ndim == 3 and x.shape[0] > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fail_on_all_draws)
        rc = main(["eigenmodel", str(adj), "--k", "1", "--chains", "1", "--warmup", "100",
                   "--samples", "100", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

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
        # 24 days at the default rho prior: rho_lo = 17.7 needs 6 frequencies
        assert meta["kernel_basis"]["m"] == 6
        assert meta["kernel_basis"]["rho_lo"] == pytest.approx(17.675, abs=1e-3)

    def test_determinism(self, tmp_path):
        # v3_draws.csv and pc_effect.csv pass through the column aligner
        csv = tmp_path / "temps.csv"
        write_fpca_csv(csv, n=6, p=12, seed=11)
        argv = ["fpca", str(csv), "--k", "3", "--chains", "2", "--warmup", "20",
                "--samples", "100", "--thin", "5", "--seed", "7"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        names = sorted(f.name for f in out1.glob("*.csv"))
        assert len(names) == 6
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_determinism_across_processes(self, tmp_path):
        # two interpreters, one seed: every CSV of the curve command is byte-identical
        src = Path(polarexp.__file__).resolve().parents[1]
        csv = tmp_path / "temps.csv"
        write_fpca_csv(csv, n=6, p=16, seed=9)
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            done = subprocess.run(
                [sys.executable, "-m", "polarexp", "fpca", str(csv), "--k", "2", "--chains", "2",
                 "--warmup", "40", "--samples", "100", "--thin", "5", "--seed", "17",
                 "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
        names = sorted(f.name for f in outs[0].glob("*.csv"))
        assert len(names) == 6
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_large_values(self, tmp_path):
        # valid data offset by 1e9: rounding alone leaves centred means near 1e-7
        data = simulate_fpca(6, np.arange(1.0, 13.0), 2, [6.0, 3.0], 0.4, 0.3, 2.4,
                             np.random.default_rng(11))
        csv = tmp_path / "temps.csv"
        csv.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n"
                               for row in data.y_raw + 1e9))
        argv = ["fpca", str(csv), "--k", "2", "--chains", "1", "--warmup", "20",
                "--samples", "100", "--thin", "5", "--out", str(tmp_path / "o")]
        assert main(argv) == 0

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
        v_true = sample_macg(kern, k, rng)
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


class TestReadCsv:
    @pytest.mark.parametrize("write", [write_adjacency, write_fpca_csv])
    def test_byte_order_mark_ignored(self, tmp_path, write):
        # the first row is numeric: a byte-order mark must not turn it into a header
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write(plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = cli._read_numeric_csv(plain)
        np.testing.assert_array_equal(cli._read_numeric_csv(bom), expected)


class TestInputErrors:
    @pytest.mark.parametrize(
        "command, flags, config, fault",
        [
            ("eigenmodel", ["--samples", "50"], None, None),
            ("eigenmodel", ["--samples", "0"], None, None),
            ("eigenmodel", ["--chains", "0"], None, None),
            ("eigenmodel", [], "chains = two\n", None),
            ("eigenmodel", ["--k", "12"], None, None),
            ("fpca", ["--k", "6"], None, None),
            ("fpca", ["--stride", "2"], None, 2),
            ("fpca", ["--stride", "2"], None, 3),
            ("fpca", ["--thin", "0"], None, None),
            ("fpca", ["--thin", "-3"], None, None),
            ("fpca", [], "thin = 0\n", None),
            ("fpca", ["--pc-multiple", "nan"], None, None),
            ("fpca", [], "pc_multiple = inf\n", None),
            ("eigenmodel", [], "stride = 2\n", None),
            ("fpca", [], None, "missing-file"),
            ("eigenmodel", ["--k", "1"], None, "one-node"),
            ("eigenmodel", ["--seed", "-1"], None, None),
            ("eigenmodel", ["--k", "0"], None, None),
            ("fpca", ["--k", "0"], None, None),
            ("fpca", [], None, "constant"),
            ("fpca", [], None, "additive"),
            ("fpca", [], None, "no-columns"),
            ("eigenmodel", [], None, "utf-16"),
            ("fpca", [], b"seed = 7\nchains = \xff2\n", None),
        ],
        ids=["few-samples", "zero-samples", "zero-chains", "config-type", "k-above-p",
             "fpca-k-too-large", "nan-kept-day", "nan-dropped-day", "zero-thin",
             "negative-thin", "config-zero-thin", "nan-pc-multiple", "config-inf-pc-multiple",
             "config-key-of-other-command", "missing-data-file", "one-node-graph",
             "negative-seed", "k-zero", "fpca-k-zero", "constant-data", "additive-data",
             "no-data-columns", "utf-16-data", "config-not-utf-8"],
    )
    def test_exit_1_before_sampling(
        self, tmp_path, monkeypatch, capsys, command, flags, config, fault
    ):
        # fault: None, a column index whose row-2 cell becomes NaN, a missing
        # file, a 1-node adjacency, constant data, a row plus a column effect,
        # station names and no values, or a UTF-16 file
        def no_sampling(*args, **kwargs):
            raise AssertionError("run_chains reached on bad input")

        monkeypatch.setattr(cli, "run_chains", no_sampling)
        data = tmp_path / "in.csv"
        if command == "eigenmodel":
            write_adjacency(data, p=10, seed=3)
        else:
            write_fpca_csv(data, n=6, p=24, seed=3)
        if fault == "missing-file":
            data.unlink()
        elif fault == "one-node":
            data.write_text("0\n")
        elif fault == "constant":
            data.write_text("2.5,2.5,2.5,2.5\n" * 6)
        elif fault == "additive":
            rng = np.random.default_rng(7)
            effects = rng.standard_normal((6, 1)) + rng.standard_normal((1, 24))
            data.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in effects))
        elif fault == "no-columns":
            data.write_text("station_a\nstation_b\nstation_c\n")
        elif fault == "utf-16":
            data.write_bytes(data.read_text().encode("utf-16"))
        elif fault is not None:
            rows = [line.split(",") for line in data.read_text().splitlines()]
            rows[1][fault] = "nan"
            data.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "o"
        argv = [command, str(data), *flags, "--out", str(out)]
        if config is not None:
            cfg = tmp_path / "opts.cfg"
            cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if isinstance(fault, int):
            assert f"row 2, column {fault + 1}" in err
        assert not out.exists()

    # (option, value in the config file, value on the flag) of both commands
    SHARED_OPTIONS = [("seed", 7, 8), ("chains", 2, 3), ("warmup", 120, 130),
                      ("samples", 150, 160), ("target_accept", 0.7, 0.9), ("k", 2, 1)]
    FPCA_OPTIONS = [("stride", 2, 3), ("thin", 5, 6), ("pc_multiple", 1.5, 2.5)]

    @pytest.mark.parametrize(
        "command, option, in_file, on_flag",
        [("eigenmodel", *case) for case in SHARED_OPTIONS]
        + [("fpca", *case) for case in SHARED_OPTIONS + FPCA_OPTIONS],
    )
    def test_option_from_config_file_and_flag(self, tmp_path, command, option, in_file, on_flag):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{option} = {in_file}\n")
        argv = [command, "in.csv", "--config", str(cfg), "--out", "o"]
        parser = cli.build_parser()
        from_file = cli._resolve_options(parser.parse_args(argv))[option]
        flag = "--" + option.replace("_", "-")
        from_flag = cli._resolve_options(parser.parse_args([*argv, flag, str(on_flag)]))[option]
        assert (from_file, from_flag) == (in_file, on_flag)
        assert type(from_file) is type(from_flag) is type(on_flag)

    @pytest.mark.parametrize("command", ["eigenmodel", "fpca"])
    def test_sampler_options_default_to_hmc_config(self, command):
        resolved = cli._resolve_options(cli.build_parser().parse_args(
            [command, "in.csv", "--out", "o"]))
        for f in fields(HmcConfig):
            assert resolved[f.name] == f.default
            assert type(resolved[f.name]) is type(f.default)

    def test_config_byte_order_mark_ignored(self, tmp_path):
        # a BOM would otherwise become part of the first key
        text = "seed = 7\nchains = 2\nsamples = 150\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        parser = cli.build_parser()
        resolved = [cli._resolve_options(parser.parse_args(
            ["fpca", "in.csv", "--config", str(cfg), "--out", "o"])) for cfg in (plain, bom)]
        assert resolved[0] == resolved[1]
        assert resolved[1]["seed"] == 7

    @pytest.mark.parametrize(
        "error, code, prefix",
        [(InputError, 1, "error: "), (FileNotFoundError, 1, "error: "), (OSError, 1, "error: "),
         (DegenerateMatrixError, 2, "numerical failure: "),
         (IllConditionedError, 2, "numerical failure: "),
         (ChainInitializationError, 2, "numerical failure: "),
         (ValueError, 2, "numerical failure: ")],
    )
    def test_exit_code_follows_error_type(self, monkeypatch, capsys, error, code, prefix):
        def failing(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_check", failing)
        assert main(["check", "--out", "o"]) == code
        assert capsys.readouterr().err == f"{prefix}boom\n"

    def test_thread_variable_ignored(self, tmp_path, monkeypatch):
        # chains run as one batch in one thread; the former thread cap is not read
        monkeypatch.setenv("POLAR_THREADS", "x")
        adj = tmp_path / "adj.csv"
        write_adjacency(adj, p=6, seed=3)
        argv = ["eigenmodel", str(adj), "--k", "1", "--chains", "1", "--warmup", "100",
                "--samples", "100", "--out", str(tmp_path / "o")]
        assert main(argv) == 0


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
        assert "row_independence[eigenmodel]: ok" in captured
        assert "row_independence[fpca]: ok" in captured
        assert report["row_independence"]["fpca"]["mismatched_rows"] == 0


class TestRowIndependence:
    def test_model_targets_pass(self):
        report = checks.row_independence_check()
        assert set(report) == {"eigenmodel", "fpca"}
        assert all(r["passed"] and r["mismatched_rows"] == 0 for r in report.values())

    def test_batch_dependent_target_caught(self):
        # a row's value shifted by the batch mean depends on the other rows;
        # a row-wise sum does not
        states = np.random.default_rng(5).standard_normal((4, 3))

        def shifted(x):
            val = np.sum(x, axis=1)
            return val - val.mean(), np.ones_like(x)

        coupled = UnconstrainedTarget(dim=3, value_and_grad=shifted)
        rowwise = UnconstrainedTarget(dim=3, value_and_grad=lambda x: (np.sum(x * x, axis=1),
                                                                       2.0 * x))
        assert checks.mixed_batch_mismatches(coupled, states) > 0
        assert checks.mixed_batch_mismatches(rowwise, states) == 0


def test_module_entry_point():
    # `python -m polarexp` runs the command-line tool from a source checkout
    src = Path(polarexp.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "polarexp", "--version"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"polarexp {polarexp.__version__}"
