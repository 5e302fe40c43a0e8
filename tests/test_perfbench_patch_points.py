"""The traced benchmark run patches names in the package; each must exist.

perfbench/launch.py wraps module attributes such as `eigenmodel.thin_svd`,
which nothing else in the package uses, so deleting one would otherwise
break only the traced benchmark.
"""

from pathlib import Path

from polarexp import cli, hmc, matcore
from polarexp.models import eigenmodel, fpca

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
