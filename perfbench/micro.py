"""Isolated CPU time per call of polarexp's public functions at the workloads' shapes.

    python3 perfbench/micro.py

Run from the root of a source checkout, with one BLAS thread like the
benchmark. The model gradients are timed at their initial points on the
benchmark's own inputs (DATA_SEED in run.py). Prints one line per function and
shape, in microseconds of thread-CPU time (the median over seven batches of the
batch mean). These are the reference figures in README.md; the traced
benchmark run measures the same functions in place.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from run import DATA_SEED  # noqa: E402
from tracer import median_call_us  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polarexp import diagnostics, distributions, expansion, matcore  # noqa: E402
from polarexp.models import (  # noqa: E402
    EigenmodelData,
    center_data,
    eigenmodel_initial_points,
    eigenmodel_target,
    fpca_empirical_bayes,
    fpca_initial_points,
    fpca_target,
)


def main() -> None:
    rng = np.random.default_rng(0)
    rows = []
    for p, k in ((30, 2), (35, 3), (73, 3), (365, 3)):
        x, g = rng.standard_normal((p, k)), rng.standard_normal((p, k))
        rows.append(("matcore.thin_svd", f"{p}x{k}", median_call_us(matcore.thin_svd, x)))
        rows.append(("matcore.polar_decompose", f"{p}x{k}",
                     median_call_us(matcore.polar_decompose, x)))
        rows.append(("expansion.polar_vjp", f"{p}x{k}", median_call_us(expansion.polar_vjp, x, g)))
    for p in (73, 365):
        params = distributions.SeKernelParams(grid=np.arange(1.0, 366.0)[:: 365 // p], rho=29.0)
        rows.append(("distributions.se_kernel", f"p={p}",
                     median_call_us(distributions.se_kernel, params)))
    draws = rng.standard_normal((4, 350, 3))
    rows.append(("diagnostics.summarize", "4x350x3",
                 median_call_us(diagnostics.summarize, draws, ["a", "b", "c"])))

    with tempfile.TemporaryDirectory() as tmp:
        made = inputs.make_eigen(DATA_SEED, Path(tmp))
        y = np.loadtxt(made["path"], delimiter=",", skiprows=1)
    data = EigenmodelData(y=y)
    target = eigenmodel_target(data, k=2)
    x0 = eigenmodel_initial_points(data, 2, 1, DATA_SEED)[0]
    rows.append(("models.eigenmodel grad", "p=30 k=2", median_call_us(target.value_and_grad, x0)))
    with tempfile.TemporaryDirectory() as tmp:
        y = inputs.make_fpca(DATA_SEED, Path(tmp))["y"]
    for stride in (5, 1):
        fd = center_data(y[:, ::stride], grid=np.arange(1.0, 366.0)[::stride])
        hyper = fpca_empirical_bayes(fd.y, 3)
        target = fpca_target(fd, hyper)
        theta = fpca_initial_points(fd, hyper, 1, DATA_SEED)[0]
        rows.append(("models.fpca grad (init)", f"p={fd.p}",
                     median_call_us(target.value_and_grad, theta)))
    for name, shape, us in rows:
        print(f"{name:28s} {shape:10s} {us:12.1f} us")


if __name__ == "__main__":
    main()
