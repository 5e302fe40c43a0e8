"""The traced benchmark run patches names in the package; each must exist.

perfbench/launch.py wraps module attributes such as `eigenmodel.thin_svd`,
which nothing else in the package uses, so deleting one would otherwise
break only the traced benchmark. A command that stopped calling through a
patched name would make its per-layer figure read 0, so a small traced run
of each sampling command checks that the spans are recorded.
"""

from pathlib import Path

import numpy as np
import pytest

from polarexp import cli, hmc, matcore
from polarexp.models import eigenmodel, fpca, simulate_eigenmodel, simulate_fpca

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import launch

    modules = (cli, hmc, matcore, eigenmodel, fpca)
    before = [dict(vars(m)) for m in modules]
    tracer = launch.Tracer()
    launch.install_tracer(tracer, {})
    assert any(vars(m) != b for m, b in zip(modules, before))
    tracer.restore()
    for m, b in zip(modules, before):
        assert all(vars(m)[name] is value for name, value in b.items())


def write_inputs(tmp_path):
    """A small adjacency CSV for `eigenmodel` and a station-by-day CSV for `fpca`."""
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.standard_normal((6, 1)))[0]
    adj = tmp_path / "adj.csv"
    np.savetxt(adj, simulate_eigenmodel(6, -0.3, q, [8.0], rng).y, fmt="%d", delimiter=",")
    temps = tmp_path / "temps.csv"
    grid = np.arange(1.0, 13.0)
    y = simulate_fpca(5, grid, 2, [6.0, 3.0], 0.4, 0.3, 2.4, rng).y_raw
    np.savetxt(temps, y, fmt="%.10g", delimiter=",")
    return {"eigenmodel": (adj, "1"), "fpca": (temps, "2")}


@pytest.mark.parametrize("command", ["eigenmodel", "fpca"])
def test_traced_run_records_layer_spans(tmp_path, monkeypatch, command):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import launch

    data, k = write_inputs(tmp_path)[command]
    tracer = launch.Tracer()
    launch.install_tracer(tracer, {})
    try:
        rc = cli.main([command, str(data), "--k", k, "--chains", "2", "--warmup", "20",
                       "--samples", "100", "--out", str(tmp_path / "o")])
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.spans("models.align")
    assert tracer.spans("models.grad")
