"""Command-line entry point: demos, the two applications, and self checks.

Subcommands
-----------
demo        exact sampling demos (sphere / stiefel / macg) with moment summaries
eigenmodel  posterior simulation for the probit network eigenmodel
fpca        Bayesian functional PCA of a station-by-day data matrix
check       gradient / quadrature / ESS / row-independence self checks

All commands are deterministic given --seed; every CSV has a header row and
floats are written with 17 significant digits. Exit codes: 0 success, 1 an
`InputError` or `OSError`, 2 any other `ValueError` or a failed chain start.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import MIN_DRAWS, SummaryRow, summarize
from .distributions import sample_macg
from .hmc import ChainInitializationError, HmcConfig, run_chains
from .matcore import InputError, SpdMatrix, polar_decompose, thin_svd
from .models import (
    EigenmodelData,
    align_eigen_draws,
    align_fpca_draws,
    center_data,
    eigenmodel_initial_points,
    eigenmodel_point_estimate,
    eigenmodel_target,
    fpca_basis,
    fpca_empirical_bayes,
    fpca_initial_points,
    fpca_point_estimate_v,
    fpca_scalars,
    fpca_target,
    unpack_eigen_params,
    unpack_fpca_params,
)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row) + "\n")


def _write_summary(path, draws, names):
    """summary.csv: one `summarize` row per parameter of draws (chains, iterations, names)."""
    _write_csv(path, [f.name for f in fields(SummaryRow)],
               [astuple(r) for r in summarize(draws, names)])


def _write_chain_table(path, names, draws):
    """(iteration, chain, values...) rows from draws shaped (chains, iterations, names)."""
    n_chains, n_iter = draws.shape[:2]
    table = np.column_stack([np.tile(np.arange(n_iter), n_chains),
                             np.repeat(np.arange(n_chains), n_iter),
                             draws.reshape(n_chains * n_iter, -1)])
    _write_csv(path, ["iteration", "chain", *names], table)


def _read_text(path):
    """A UTF-8 file's text less a byte-order mark, which would join the first key or cell."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_config_file(path):
    """key = value lines; '#' starts a comment."""
    values = {}
    for raw in _read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


# Every option of `eigenmodel` and `fpca` as (type, default, help): the flags,
# the config-file keys, their conversion and the defaults all come from here.
# The sampler's rows are HmcConfig's fields, typed by their defaults.
_SAMPLER_OPTIONS = tuple(f.name for f in fields(HmcConfig))
_OPTIONS = {
    **{f.name: (type(f.default), f.default, None) for f in fields(HmcConfig)},
    "k": (int, 3, None),
    "stride": (int, 1, "grid subsampling stride (must divide the column count)"),
    "thin": (int, 50, "thinning for posterior curve exports"),
    "pc_multiple": (float, None, "multiple of the PC curves in pc_effect.csv"),
}


def _resolve_options(args):
    """The options that the command declares, in table order: flags > config file > defaults."""
    merged = {name: default for name, (_, default, _) in _OPTIONS.items() if hasattr(args, name)}
    if args.config:
        for key, val in _load_config_file(args.config).items():
            if key not in merged:
                raise InputError(f"unknown config key: {key}")
            try:
                merged[key] = _OPTIONS[key][0](val)
            except ValueError:
                raise InputError(f"bad value for config key {key}: {val!r}") from None
    for key in merged:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return merged


def _hmc_config(merged) -> HmcConfig:
    """Sampler settings from the merged options."""
    config = HmcConfig(**{name: merged[name] for name in _SAMPLER_OPTIONS})
    # the ESS and R-hat summaries need this many draws; fail now, not after sampling
    if config.samples < MIN_DRAWS:
        raise InputError(f"need at least {MIN_DRAWS} samples, got {config.samples}")
    return config


def _sample(target, config, inits):
    """Runs the chains; returns their outputs, draws (chains, samples, dim) and wall time."""
    t0 = time.perf_counter()
    outputs = run_chains(target, config, init=inits)
    wall = time.perf_counter() - t0
    return outputs, np.stack([o.draws for o in outputs]), wall


def _write_meta(out_dir, merged, config, outputs, wall_time, **extra):
    meta = {
        "version": __version__,
        "config": merged,
        **asdict(config),
        "divergences": [o.divergences for o in outputs],
        "accept_rates": [o.accept_rate for o in outputs],
        "step_sizes": [o.step_size for o in outputs],
        "grad_evals": [o.grad_evals for o in outputs],
        "max_leapfrog": [o.max_leapfrog for o in outputs],
        "divergence_iterations": [o.divergence_iterations for o in outputs],
        "ebfmi": [o.ebfmi for o in outputs],
        "warmup_step_sizes": [o.step_size_trace.tolist() for o in outputs],
        "wall_time_seconds": wall_time,
        **extra,
    }
    with open(Path(out_dir) / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _read_numeric_csv(path):
    """CSV to a 2-D float array; auto-detects and drops a header row and a label column."""
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty file")
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
        raise InputError(f"{path}: no data rows")
    has_labels = not numeric(body[0][0])
    data = []
    for i, r in enumerate(body):
        cells = r[1:] if has_labels else r
        vals = []
        for j, c in enumerate(cells):
            try:
                vals.append(float(c))
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell at data row {i + 1}, column {j + 1}: {c!r}"
                ) from None
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InputError(f"{path}: ragged rows (widths {sorted(widths)})")
    mat = np.asarray(data, dtype=float)
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        i, j = bad[0]
        raise InputError(
            f"{path}: non-finite cell at data row {i + 1}, column {j + 1}: {mat[i, j]:g}"
        )
    return mat


def _load_adjacency(path) -> EigenmodelData:
    mat = _read_numeric_csv(path)
    try:
        return EigenmodelData(y=mat)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- demo


def cmd_demo(args) -> int:
    p, k = args.p, args.k
    if not 1 <= k <= p or (args.kind == "sphere" and k != 1):
        raise InputError(f"need 1 <= k <= p, and k = 1 with --kind sphere; got p = {p}, k = {k}")
    if args.draws < 1:
        raise InputError(f"need at least 1 draw, got {args.draws}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    if args.sigma_diag is None:
        diag = np.ones(p)
    elif args.kind != "macg":
        raise InputError(f"--sigma-diag is accepted only with --kind macg, not {args.kind}")
    else:
        try:
            diag = np.array([float(s) for s in args.sigma_diag.split(",")])
        except ValueError:
            raise InputError(f"--sigma-diag has a non-numeric entry: {args.sigma_diag!r}") from None
        if diag.size != p:
            raise InputError(f"--sigma-diag needs {p} entries, got {diag.size}")
        if not np.all(np.isfinite(diag) & (diag > 0)):
            raise InputError(
                f"--sigma-diag entries must be finite and positive, got {args.sigma_diag!r}"
            )
    # the uniform law on the sphere and on V(k, p) is MACG(I)
    sigma = SpdMatrix(np.diag(diag))
    rng = np.random.default_rng(args.seed)
    draws = np.array([sample_macg(sigma, k, rng).ravel() for _ in range(args.draws)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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


def cmd_eigenmodel(args) -> int:
    merged = _resolve_options(args)
    config = _hmc_config(merged)
    data = _load_adjacency(args.adjacency)
    p, k = data.p, merged["k"]
    target = eigenmodel_target(data, k=k)
    inits = eigenmodel_initial_points(data, k, config.chains, config.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs, draws, wall = _sample(target, config, inits)

    n_chains, n_iter = config.chains, config.samples
    c_draws, x_draws, lam_draws = unpack_eigen_params(draws, p, k)
    q_draws = polar_decompose(x_draws.reshape(-1, p, k)).q
    qlq_mean = np.einsum("tij,tj,tlj->il", q_draws, lam_draws.reshape(-1, k), q_draws,
                         optimize=True) / (n_chains * n_iter)

    # resolve the sign/permutation symmetry against the point estimate of Q L Q^T
    q_hat = eigenmodel_point_estimate(qlq_mean, k)[0]
    lam_aligned = align_eigen_draws(q_draws, lam_draws.reshape(-1, k), q_hat)
    lam_aligned = lam_aligned.reshape(n_chains, n_iter, k)

    lam_names = [f"lambda_{j + 1}" for j in range(k)]
    _write_chain_table(out / "lambda_trace.csv", lam_names, lam_aligned)
    stacked = np.concatenate([c_draws[:, :, None], lam_aligned], axis=2)
    _write_summary(out / "summary.csv", stacked, ["c", *lam_names])
    _write_csv(out / "qlq_mean.csv", [f"node_{j + 1}" for j in range(p)], qlq_mean)
    _write_meta(out, merged, config, outputs, wall)
    return 0


# ---------------------------------------------------------------- fpca


def cmd_fpca(args) -> int:
    merged = _resolve_options(args)
    config = _hmc_config(merged)
    stride, k, thin, multiple = (merged[name] for name in ("stride", "k", "thin", "pc_multiple"))
    if thin < 1:
        raise InputError(f"need thin >= 1, got {thin}")
    if multiple is not None and not np.isfinite(multiple):
        raise InputError(f"pc_multiple must be finite, got {multiple}")
    y_raw_full = _read_numeric_csv(args.data)
    n, p_full = y_raw_full.shape
    if stride < 1 or p_full % stride != 0:
        raise InputError(
            f"stride {stride} does not divide the {p_full}-column grid"
        )
    y_raw = y_raw_full[:, ::stride]
    grid = np.arange(1.0, p_full + 1.0)[::stride]
    p = y_raw.shape[1]

    data = center_data(y_raw, grid=grid)
    hyper = fpca_empirical_bayes(data.y, k)
    target = fpca_target(data, hyper)
    inits = fpca_initial_points(data, hyper, config.chains, config.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs, draws, wall = _sample(target, config, inits)

    n_chains, n_iter = config.chains, config.samples
    basis = fpca_basis(data.grid, hyper)
    x_u, z, *eta = unpack_fpca_params(draws, n, basis.m, k)
    d, sigma2, phi, rho = fpca_scalars(*eta)
    u = polar_decompose(x_u.reshape(-1, n, k)).q
    v = polar_decompose(basis.x_v(z, rho).reshape(-1, p, k)).q
    scalar_draws = np.concatenate([d, np.stack([sigma2, phi, rho], axis=-1)], axis=-1)
    d = d.reshape(-1, k)
    mean_fit = np.einsum("tij,tj,tlj->il", u, d, v, optimize=True) / (n_chains * n_iter)
    # every thin-th iteration of each chain goes into the curve exports
    kept = np.arange(n_chains * n_iter) % n_iter % thin == 0

    v_hat = fpca_point_estimate_v(mean_fit, k)
    _, _, v_classical = thin_svd(data.y)
    v_classical = v_classical[:, :k]

    d_al, v_al = align_fpca_draws(d[kept], v[kept], reference=v_hat)
    # the default PC multiples use the aligned, thinned d draws; summary.csv
    # reports the unaligned per-iteration draws
    d_mean = d_al.mean(axis=0)

    for name, v in (("v_estimate.csv", v_hat), ("v_classical.csv", v_classical)):
        _write_csv(out / name, ["day", *[f"pc_{j + 1}" for j in range(k)]],
                   np.column_stack([grid, v]))
    _write_chain_table(out / "rho_draws.csv", ["rho"], rho[:, :, None])

    pc_idx = min(3, k) - 1  # third principal component when available
    n_kept = v_al.shape[0]
    _write_csv(out / "v3_draws.csv", ["draw", "day", "value"],
               np.column_stack([np.repeat(np.arange(n_kept), p), np.tile(grid, n_kept),
                                v_al[:, :, pc_idx].ravel()]))

    col_means = y_raw.mean(axis=0)
    multiples = 2.0 * d_mean / np.sqrt(n) if multiple is None else np.full(k, multiple)
    # pc1_plus, pc1_minus, pc2_plus, ...: the mean curve moved by each scaled PC
    shift = multiples * v_hat
    pc_cols = np.stack([col_means[:, None] + shift, col_means[:, None] - shift], axis=2)
    pc_names = [f"pc{j + 1}_{sign}" for j in range(k) for sign in ("plus", "minus")]
    _write_csv(out / "pc_effect.csv", ["day", "col_mean", *pc_names],
               np.column_stack([grid, col_means, pc_cols.reshape(p, 2 * k)]))

    names = [f"d_{j + 1}" for j in range(k)] + ["sigma2", "phi", "rho"]
    _write_summary(out / "summary.csv", scalar_draws, names)
    _write_meta(out, merged, config, outputs, wall, hyper=asdict(hyper),
                kernel_basis={"m": basis.m, "rho_lo": basis.rho_lo}, stride=stride,
                pc_multiples=[float(m) for m in multiples])
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
    for name, res in report["row_independence"].items():
        status = "ok" if res["passed"] else "FAILED"
        print(f"row_independence[{name}]: {status} ({res['mismatched_rows']} of {res['rows']}"
              " batched rows differ from their solo evaluation)")
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

    def sampling_command(name, help_text, func, data, data_help, model_options):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(data, help=data_help)
        for option in (*model_options, *_SAMPLER_OPTIONS):
            kind, _, option_help = _OPTIONS[option]
            sp.add_argument("--" + option.replace("_", "-"), type=kind, help=option_help)
        sp.add_argument("--config", help="key = value options file")
        sp.add_argument("--out", required=True)
        sp.set_defaults(func=func)

    sampling_command("eigenmodel", "probit network eigenmodel posterior", cmd_eigenmodel,
                     "adjacency", "p x p CSV of 0/1 entries (optional header)", ("k",))
    sampling_command("fpca", "Bayesian functional PCA", cmd_fpca,
                     "data", "n x p numeric CSV (optional station-name column)",
                     ("k", "stride", "thin", "pc_multiple"))

    chk = sub.add_parser("check", help="gradient / quadrature / ESS / row-independence self checks")
    chk.add_argument("--out", required=True)
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChainInitializationError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
