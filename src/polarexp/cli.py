"""Command-line entry point: demos, the two applications, and self checks.

Subcommands
-----------
demo        exact sampling demos (sphere / stiefel / macg) with moment summaries
eigenmodel  posterior simulation for the probit network eigenmodel
fpca        Bayesian functional PCA of a station-by-day data matrix
check       gradient / quadrature / ESS self checks

All commands are deterministic given --seed; every CSV has a header row and
floats are written with 17 significant digits. Exit codes: 0 success,
1 usage or ingestion error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import MIN_DRAWS, SummaryRow, summarize
from .distributions import MacgParams, sample_macg, sample_uniform_stiefel
from .hmc import ChainInitializationError, HmcConfig, run_chains
from .matcore import SpdMatrix, polar_decompose, thin_svd
from .models import (
    EigenmodelData,
    align_eigen_draws,
    align_fpca_draws,
    center_data,
    eigenmodel_initial_points,
    eigenmodel_target,
    fpca_empirical_bayes,
    fpca_initial_points,
    fpca_point_estimate_v,
    fpca_target,
    unpack_eigen_params,
    unpack_fpca_params,
)


class IngestionError(ValueError):
    """Bad input data or configuration (exit code 1)."""


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else _fmt(c) for c in row) + "\n")


def _write_summary(path, draws, names):
    """summary.csv: one `summarize` row per parameter of draws (chains, iterations, names)."""
    _write_csv(path, [f.name for f in fields(SummaryRow)],
               [astuple(r) for r in summarize(draws, names)])


def _write_chain_table(path, names, draws):
    """(iteration, chain, values...) rows from draws shaped (chains, iterations, names)."""
    n_chains, n_iter = draws.shape[:2]
    rows = [[str(it), str(ci), *draws[ci, it]] for ci in range(n_chains) for it in range(n_iter)]
    _write_csv(path, ["iteration", "chain", *names], rows)


def _load_config_file(path):
    """key = value lines; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IngestionError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


_HMC_OPTION_TYPES = {
    "seed": int,
    "chains": int,
    "warmup": int,
    "samples": int,
    "target_accept": float,
    "stride": int,
    "k": int,
    "pc_multiple": float,
    "thin": int,
}


def _merge_config(args, defaults):
    """Precedence: command-line flags > config file > defaults."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config)
        for key, val in file_vals.items():
            if key not in merged:
                raise IngestionError(f"unknown config key: {key}")
            try:
                merged[key] = _HMC_OPTION_TYPES.get(key, str)(val)
            except ValueError:
                raise IngestionError(f"bad value for config key {key}: {val!r}") from None
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _hmc_config(merged) -> HmcConfig:
    """Sampler settings from the merged options; every bad value is an input error."""
    try:
        config = HmcConfig(
            chains=merged["chains"],
            warmup=merged["warmup"],
            samples=merged["samples"],
            target_accept=merged["target_accept"],
            seed=merged["seed"],
        )
    except ValueError as exc:
        raise IngestionError(str(exc)) from None
    # the ESS and R-hat summaries need this many draws; fail now, not after sampling
    if config.samples < MIN_DRAWS:
        raise IngestionError(f"need at least {MIN_DRAWS} samples, got {config.samples}")
    threads = os.environ.get("POLAR_THREADS")
    if threads is not None:
        try:
            int(threads)
        except ValueError:
            raise IngestionError(f"POLAR_THREADS must be an integer, got {threads!r}") from None
    return config


def _write_meta(out_dir, merged, config, outputs, wall_time, extra=None):
    meta = {
        "version": __version__,
        "config": merged,
        "seed": config.seed,
        "chains": config.chains,
        "warmup": config.warmup,
        "samples": config.samples,
        "target_accept": config.target_accept,
        "divergences": [o.divergences for o in outputs],
        "accept_rates": [o.accept_rate for o in outputs],
        "step_sizes": [o.step_size for o in outputs],
        "wall_time_seconds": wall_time,
    }
    if extra:
        meta.update(extra)
    with open(Path(out_dir) / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _read_numeric_csv(path):
    """CSV to a 2-D float array; auto-detects a header row and a label column.

    Returns (matrix, row_labels or None).
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise IngestionError(f"{path}: empty file")
    rows = [ln.split(",") for ln in lines]

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    start = 0 if all(numeric(c) for c in rows[0]) else 1
    body = rows[start:]
    if not body:
        raise IngestionError(f"{path}: no data rows")
    has_labels = not numeric(body[0][0])
    labels = [r[0] for r in body] if has_labels else None
    data = []
    for i, r in enumerate(body):
        cells = r[1:] if has_labels else r
        vals = []
        for j, c in enumerate(cells):
            try:
                vals.append(float(c))
            except ValueError:
                raise IngestionError(
                    f"{path}: non-numeric cell at data row {i + 1}, column {j + 1}: {c!r}"
                ) from None
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise IngestionError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(data, dtype=float), labels


def _load_adjacency(path) -> EigenmodelData:
    mat, _ = _read_numeric_csv(path)
    np.fill_diagonal(mat, 0.0)
    try:
        return EigenmodelData(y=mat)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- demo


def cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    p, k = args.p, args.k
    if args.kind == "sphere":
        k = 1
    rng = np.random.default_rng(args.seed)
    if args.kind == "macg":
        diag = (
            np.ones(p)
            if args.sigma_diag is None
            else np.array([float(s) for s in args.sigma_diag.split(",")])
        )
        if diag.size != p:
            raise IngestionError(f"--sigma-diag needs {p} entries, got {diag.size}")
        params = MacgParams(sigma=SpdMatrix(np.diag(diag)))
        draws = np.array([sample_macg(params, k, rng).ravel() for _ in range(args.draws)])
    else:
        draws = np.array(
            [sample_uniform_stiefel(p, k, rng).ravel() for _ in range(args.draws)]
        )
    header = [f"q_{i}_{j}" for i in range(p) for j in range(k)]
    _write_csv(out / "draws.csv", header, draws)
    qs = draws.reshape(args.draws, p, k)
    mean_q = qs.mean(axis=0)
    mean_qqt = np.einsum("tij,tkj->ik", qs, qs) / args.draws
    moments = {
        "p": p,
        "k": k,
        "draws": args.draws,
        "seed": args.seed,
        "mean_q_norm": float(np.linalg.norm(mean_q)),
        "mean_qqt_deviation": float(np.linalg.norm(mean_qqt - (k / p) * np.eye(p))),
    }
    with open(out / "moments.json", "w") as fh:
        json.dump(moments, fh, indent=2)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------- eigenmodel

_EIGEN_DEFAULTS = {
    "seed": 0,
    "chains": 4,
    "warmup": 1000,
    "samples": 5000,
    "target_accept": 0.8,
    "k": 3,
}


def cmd_eigenmodel(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    merged = _merge_config(args, _EIGEN_DEFAULTS)
    config = _hmc_config(merged)
    data = _load_adjacency(args.adjacency)
    p, k = data.p, merged["k"]
    if not 1 <= k <= p:
        raise IngestionError(f"need 1 <= k <= {p} on a {p}-node graph, got k = {k}")
    target = eigenmodel_target(data, k=k)
    inits = eigenmodel_initial_points(data, k, config.chains, config.seed)
    t0 = time.perf_counter()
    outputs = run_chains(target, config, init=inits)
    wall = time.perf_counter() - t0

    n_chains, n_iter = config.chains, config.samples
    c_draws = np.empty((n_chains, n_iter))
    lam_draws = np.empty((n_chains, n_iter, k))
    q_draws = np.empty((n_chains * n_iter, p, k))
    qlq_mean = np.zeros((p, p))
    idx = 0
    for ci, o in enumerate(outputs):
        for it in range(n_iter):
            c, x, lam = unpack_eigen_params(o.draws[it], p, k)
            q = polar_decompose(x).q
            c_draws[ci, it] = c
            lam_draws[ci, it] = lam
            q_draws[idx] = q
            qlq_mean += (q * lam) @ q.T
            idx += 1
    qlq_mean /= n_chains * n_iter

    # resolve the sign/permutation symmetry against a common reference
    q_aligned, lam_aligned = align_eigen_draws(
        q_draws, lam_draws.reshape(-1, k)
    )
    lam_aligned = lam_aligned.reshape(n_chains, n_iter, k)

    lam_names = [f"lambda_{j + 1}" for j in range(k)]
    _write_chain_table(out / "lambda_trace.csv", lam_names, lam_aligned)
    stacked = np.concatenate([c_draws[:, :, None], lam_aligned], axis=2)
    _write_summary(out / "summary.csv", stacked, ["c", *lam_names])
    _write_csv(out / "qlq_mean.csv", [f"node_{j + 1}" for j in range(p)], qlq_mean)
    _write_meta(out, merged, config, outputs, wall)
    return 0


# ---------------------------------------------------------------- fpca

_FPCA_DEFAULTS = {
    "seed": 0,
    "chains": 4,
    "warmup": 1000,
    "samples": 5000,
    "target_accept": 0.8,
    "k": 3,
    "stride": 1,
    "thin": 50,
    "pc_multiple": None,
}


def cmd_fpca(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    merged = _merge_config(args, _FPCA_DEFAULTS)
    config = _hmc_config(merged)
    y_raw_full, _labels = _read_numeric_csv(args.data)
    n, p_full = y_raw_full.shape
    stride = merged["stride"]
    if stride < 1 or p_full % stride != 0:
        raise IngestionError(
            f"stride {stride} does not divide the {p_full}-column grid"
        )
    y_raw = y_raw_full[:, ::stride]
    grid = np.arange(1.0, p_full + 1.0)[::stride]
    p = y_raw.shape[1]
    k = merged["k"]
    if not 1 <= k < min(n, p):
        raise IngestionError(f"need 1 <= k < min(n, p) = {min(n, p)}, got k = {k}")

    data = center_data(y_raw, grid=grid)
    hyper = fpca_empirical_bayes(data.y, k)
    target = fpca_target(data, hyper)
    inits = fpca_initial_points(data, hyper, config.chains, config.seed)
    t0 = time.perf_counter()
    outputs = run_chains(target, config, init=inits)
    wall = time.perf_counter() - t0

    n_chains, n_iter = config.chains, config.samples
    mean_fit = np.zeros((n, p))
    scalar_draws = np.empty((n_chains, n_iter, k + 3))  # d_1..k, sigma2, phi, rho
    thin = max(1, merged["thin"])
    kept_u, kept_d, kept_v = [], [], []
    for ci, o in enumerate(outputs):
        for it in range(n_iter):
            x_u, x_v, eta_d, eta_s, eta_p, eta_r = unpack_fpca_params(
                o.draws[it], n, p, k
            )
            u = polar_decompose(x_u).q
            v = polar_decompose(x_v).q
            d = np.exp(eta_d)
            mean_fit += (u * d) @ v.T
            scalar_draws[ci, it, :k] = d
            scalar_draws[ci, it, k:] = [
                np.exp(eta_s),
                np.tanh(eta_p),
                np.exp(eta_r),
            ]
            if it % thin == 0:
                kept_u.append(u)
                kept_d.append(d)
                kept_v.append(v)
    mean_fit /= n_chains * n_iter

    v_hat = fpca_point_estimate_v(mean_fit, k)
    _, _, v_classical = thin_svd(data.y)
    v_classical = v_classical[:, :k]

    u_al, d_al, v_al = align_fpca_draws(
        np.asarray(kept_u), np.asarray(kept_d), np.asarray(kept_v), reference=v_hat
    )
    # align the per-iteration d draws for summaries (signs irrelevant for d)
    d_mean = d_al.mean(axis=0)

    for name, v in (("v_estimate.csv", v_hat), ("v_classical.csv", v_classical)):
        _write_csv(out / name, ["day", *[f"pc_{j + 1}" for j in range(k)]],
                   np.column_stack([grid, v]))
    _write_chain_table(out / "rho_draws.csv", ["rho"], scalar_draws[:, :, -1:])

    pc_idx = min(3, k) - 1  # third principal component when available
    v3_rows = []
    for t in range(v_al.shape[0]):
        for gi in range(p):
            v3_rows.append([str(t), _fmt(grid[gi]), v_al[t, gi, pc_idx]])
    _write_csv(out / "v3_draws.csv", ["draw", "day", "value"], v3_rows)

    col_means = y_raw.mean(axis=0)
    multiple = merged["pc_multiple"]
    if multiple is None:
        multiples = 2.0 * d_mean / np.sqrt(n)
    else:
        multiples = np.full(k, float(multiple))
    effect_cols = [grid, col_means]
    effect_names = ["day", "col_mean"]
    for j in range(k):
        effect_cols.append(col_means + multiples[j] * v_hat[:, j])
        effect_cols.append(col_means - multiples[j] * v_hat[:, j])
        effect_names += [f"pc{j + 1}_plus", f"pc{j + 1}_minus"]
    _write_csv(out / "pc_effect.csv", effect_names, np.column_stack(effect_cols))

    names = [f"d_{j + 1}" for j in range(k)] + ["sigma2", "phi", "rho"]
    _write_summary(out / "summary.csv", scalar_draws, names)
    _write_meta(
        out,
        merged,
        config,
        outputs,
        wall,
        extra={
            "hyper": asdict(hyper),
            "stride": stride,
            "pc_multiples": [float(m) for m in multiples],
        },
    )
    return 0


# ---------------------------------------------------------------- check


def cmd_check(args) -> int:
    out = Path(args.out)
    # imported here: the checks pull in scipy.integrate, which no other command needs
    from . import checks

    out.mkdir(parents=True, exist_ok=True)
    report = checks.run_all_checks()
    with open(out / "check_report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name in ("quadrature", "ess_oracle"):
        status = "ok" if report[name]["passed"] else "FAILED"
        print(f"{name}: {status}")
    for name, res in report["gradients"].items():
        status = "ok" if res["passed"] else "FAILED"
        print(
            f"gradient[{name}]: {status} (max rel error {res['max_rel_error']:.3e}"
            f" at coordinate {res['worst_coordinate']})"
        )
    return 0 if report["passed"] else 2


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarexp",
        description="Monte Carlo on the Stiefel manifold via polar expansion",
    )
    parser.add_argument("--version", action="version", version=f"polarexp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="exact sampling demos with moment summaries")
    demo.add_argument("--kind", choices=("sphere", "stiefel", "macg"), required=True)
    demo.add_argument("--p", type=int, required=True)
    demo.add_argument("--k", type=int, default=1)
    demo.add_argument("--draws", type=int, default=10_000)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--sigma-diag", dest="sigma_diag", default=None,
                      help="comma-separated diagonal of Sigma for --kind macg")
    demo.add_argument("--out", required=True)
    demo.set_defaults(func=cmd_demo)

    def add_hmc_flags(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--chains", type=int, default=None)
        sp.add_argument("--warmup", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--target-accept", dest="target_accept", type=float, default=None)
        sp.add_argument("--config", default=None, help="key = value options file")
        sp.add_argument("--out", required=True)

    eig = sub.add_parser("eigenmodel", help="probit network eigenmodel posterior")
    eig.add_argument("adjacency", help="p x p CSV of 0/1 entries (optional header)")
    eig.add_argument("--k", type=int, default=None)
    add_hmc_flags(eig)
    eig.set_defaults(func=cmd_eigenmodel)

    fpca = sub.add_parser("fpca", help="Bayesian functional PCA")
    fpca.add_argument("data", help="n x p numeric CSV (optional station-name column)")
    fpca.add_argument("--k", type=int, default=None)
    fpca.add_argument("--stride", type=int, default=None,
                      help="grid subsampling stride (must divide the column count)")
    fpca.add_argument("--thin", type=int, default=None,
                      help="thinning for posterior curve exports")
    fpca.add_argument("--pc-multiple", dest="pc_multiple", type=float, default=None,
                      help="multiple of the PC curves in pc_effect.csv")
    add_hmc_flags(fpca)
    fpca.set_defaults(func=cmd_fpca)

    chk = sub.add_parser("check", help="gradient / quadrature / ESS self checks")
    chk.add_argument("--out", required=True)
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestionError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChainInitializationError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
