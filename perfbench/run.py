"""Benchmark of the `polarexp` command on generated workloads.

    python3 perfbench/run.py --workload eigen-p30 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. The benchmark writes the workload's
inputs as CSV from --seed, runs the command from `src/` in child processes,
checks every output against computations made here, and prints one JSON
object as its last line. With --trace 0 it reports the end-to-end metrics of
untraced runs; with --trace 1 it alternates untraced and traced runs and
reports per-layer metrics. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Chain threads capped at the core count and one BLAS thread, inherited by
# every command: four GIL-bound chain threads plus BLAS threads on two cores
# made the first version of this benchmark too noisy to use.
os.environ.update(
    POLAR_THREADS="2", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import now  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COMMAND_TIMEOUT_S = 170.0
# untimed-for-sampling launches per untraced run that stop at run_chains,
# so that setup_s is a median of several set-ups
SETUP_PROBES = 5
# Graph and station data drawn from a fixed seed, not from --seed: with a
# graph per --seed the eigen-p30 ESS moved by +-14% over seeds 1-5, against
# +-6% from the sampler seed alone, which put ess_per_s's spread at its bound.
DATA_SEED = 11
# fpca-p73 carries the stuck-chain fault as a counted failure; it must fail in
# every run, so its sampler seed does not follow --seed either
FPCA_P73_SAMPLER_SEED = 11

WORKLOADS = {
    "eigen-p30": {
        "data": "eigen",
        "data_seed": DATA_SEED,
        "args": ["eigenmodel", "--k", "2", "--chains", "4", "--warmup", "150", "--samples", "500"],
        "vjp": "30x2",
        "grid": 30,
    },
    "fpca-p73": {
        "data": "fpca",
        "stride": 5,
        "data_seed": DATA_SEED,
        "sampler_seed": FPCA_P73_SAMPLER_SEED,
        "checks": ("v_orthonormal", "v_classical", "v_angle", "rho_rhat"),
        # checks that fail because of a known fault in the program (see CHANGES.md)
        "known_faults": {"rho_rhat"},
        "args": ["fpca", "--k", "3", "--stride", "5", "--chains", "2",
                 "--warmup", "100", "--samples", "100"],
        "vjp": "35x3,73x3",
        "grid": 73,
    },
    "fpca-p365": {
        "data": "fpca",
        "stride": 1,
        "data_seed": DATA_SEED,
        "checks": ("v_orthonormal", "v_classical", "v_angle"),
        # v_estimate.csv lands far from the signal subspace on this short run
        "known_faults": {"v_angle"},
        "args": ["fpca", "--k", "3", "--stride", "1", "--chains", "1",
                 "--warmup", "10", "--samples", "100"],
        "vjp": "35x3,365x3",
        "grid": 365,
    },
}

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "sample_s": "s",
    "post_s": "s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "hmc.grad_evals": "count",
    "hmc.us_per_grad": "us",
    "hmc.self_us_per_grad": "us",
    "hmc.overhead_us_per_grad": "us",
    "hmc.divergences": "count",
    "hmc.accept_rate": "ratio",
    "hmc.sample_wall_s": "s",
    "models.grad_us": "us",
    "models.grad_isolated_us": "us",
    "models.align_s": "s",
    "matcore.thin_svd_calls": "count",
    "matcore.thin_svd_us": "us",
    "matcore.polar_decompose_calls": "count",
    "matcore.polar_decompose_us": "us",
    "expansion.polar_vjp_us": "us",
    "distributions.se_kernel_calls": "count",
    "distributions.se_kernel_us": "us",
    "diagnostics.summarize_s": "s",
    "cli.import_s": "s",
    "cli.prepare_s": "s",
    "cli.write_s": "s",
    "cli.output_mb": "MB",
    "trace.overhead_s": "s",
}


class CommandFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(mode: str, spec: dict, data_path: Path, seed: int, out: Path) -> dict:
    """Run the command once through launch.py; returns its stamps, layers and rusage."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    timing = out.parent / f"{out.name}.timing.json"
    cmd = [sys.executable, str(HERE / "launch.py"), mode, str(timing), spec["vjp"],
           str(spec["grid"]), *spec["args"], str(data_path),
           "--seed", str(seed), "--out", str(out)]
    with open(out.parent / f"{out.name}.stderr", "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: take the command down with us
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (out.parent / f"{out.name}.stderr").read_text()[-2000:]
        raise CommandFailed(f"{' '.join(cmd)} exited with {proc.returncode}:\n{tail}")
    result = json.loads(timing.read_text())
    result.update(cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6)
    return result


def phases(run: dict) -> dict:
    """End-to-end figures of one launch, in CPU seconds of the command (all threads).

    sample_wall_s, the wall-clock time inside run_chains, is reported only as
    a per-layer figure: host steal makes it too noisy to bound (see README.md).
    """
    (wall_enter, enter), (wall_exit, exit_) = run["stamps"]["enter"], run["stamps"]["exit"]
    return {
        "sample_wall_s": wall_exit - wall_enter,
        "cpu_s": run["cpu_s"],
        "setup_s": enter,
        "sample_s": exit_ - enter,
        "post_s": run["cpu_s"] - exit_,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def make_inputs(spec: dict, seed: int, work: Path):
    """The seed the command samples with, and the workload's input CSV and truth."""
    make = inputs.make_eigen if spec["data"] == "eigen" else inputs.make_fpca
    return spec.get("sampler_seed", seed), make(spec.get("data_seed", seed), work)


def check_round(spec: dict, made: dict, out: Path):
    if spec["data"] == "eigen":
        return checks.check_eigen(out, made["qlq"])
    return checks.check_fpca(out, made, spec["stride"], spec["checks"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd_seed, made = make_inputs(spec, seed, work)
    # one untimed import fills the file cache and writes the bytecode
    subprocess.run([sys.executable, "-c", "import polarexp.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=COMMAND_TIMEOUT_S)

    start = now()
    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            run = launch("setup", spec, made["path"], cmd_seed, work / f"probe{i}")
            setups.append(run["stamps"]["enter"][1])
    plain, traced, results = [], [], []
    while True:
        mode = "trace" if trace and len(plain) > len(traced) else "plain"
        out = work / f"round{len(plain) + len(traced)}"
        t0 = now()
        run = launch(mode, spec, made["path"], cmd_seed, out)
        round_s = now() - t0
        result, ess = check_round(spec, made, out)
        results.extend(result)
        row = phases(run)
        row["ess_per_s"] = ess / row["sample_s"]
        if mode == "trace":
            row.update(run["layers"])
            row["cli.output_mb"] = sum(f.stat().st_size for f in out.iterdir()) / 1e6
            traced.append(row)
        else:
            plain.append(row)
        elapsed = now() - start
        if (not trace or len(plain) == len(traced)) and elapsed + round_s > seconds:
            break

    attempted = len(results)
    failed_names = [n for n, ok in results if not ok]
    if trace:
        metrics = {
            k: (statistics.median_low if PER_LAYER[k] == "count" else statistics.median)(
                [r[k] for r in traced]
            )
            for k in PER_LAYER
            if k in traced[0]
        }
        # from the untraced rounds, so that tracing does not inflate it
        metrics["hmc.sample_wall_s"] = statistics.median(r["sample_wall_s"] for r in plain)
        metrics["trace.overhead_s"] = statistics.median(
            r["sample_s"] for r in traced
        ) - statistics.median(r["sample_s"] for r in plain)
        units = PER_LAYER
    else:
        setups += [r["setup_s"] for r in plain]
        metrics = {k: statistics.median(r[k] for r in plain) for k in END_TO_END}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    return {
        "correct": set(failed_names) <= spec.get("known_faults", set()),
        "attempted": attempted,
        "failed": len(failed_names),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running command is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "polarexp" / "cli.py").is_file():
        print(f"error: no polarexp source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (CommandFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, m in result["metrics"].items():
        print(f"{key:32s} {m['value']:14.6g} {m['unit']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
