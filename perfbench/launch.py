"""Run one `polarexp` command in this process and record where its time went.

    python3 launch.py MODE TIMING_JSON VJP_SHAPES GRID_P POLAREXP_ARGS...

MODE is `plain` (phase stamps only), `setup` (stop at the entry into
`run_chains`) or `trace` (also wrap the public functions of each layer and
write per-layer figures). VJP_SHAPES, such as `35x3,73x3`, are the matrix
shapes whose polar pullbacks one gradient evaluation makes, and GRID_P is the
size of the kernel the isolated `se_kernel` figure is timed at. The phase
boundaries come from one wrapper around `run_chains` where `polarexp.cli`
calls it. Each stamp is a pair: CLOCK_MONOTONIC seconds and the process's CPU
seconds (all threads) at that point.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from tracer import Tracer, median_call_us, now


class SetupDone(BaseException):
    """Raised on entry into run_chains in `setup` mode; cli.main lets it pass."""


def install_tracer(tracer, captured):
    from polarexp import cli, hmc, matcore
    from polarexp.expansion import UnconstrainedTarget
    from polarexp.models import eigenmodel, fpca

    def traced_target(make):
        def build(*args, **kwargs):
            target = make(*args, **kwargs)
            captured["target"] = target
            return UnconstrainedTarget(
                dim=target.dim, value_and_grad=tracer.wrap("models.grad", target.value_and_grad)
            )

        return build

    for attr in ("eigenmodel_target", "fpca_target"):
        tracer.replace(cli, attr, traced_target(getattr(cli, attr)))
    # _run_single_chain is the per-chain boundary inside run_chains; its
    # thread-CPU time minus the gradients' is the sampler's own cost
    tracer.patch(hmc, "_run_single_chain", "hmc.chain")
    for module in (matcore, eigenmodel, fpca, cli):
        tracer.patch(module, "thin_svd", "matcore.thin_svd")
    tracer.patch(cli, "polar_decompose", "matcore.polar_decompose")
    tracer.patch(fpca, "se_kernel", "distributions.se_kernel")
    tracer.patch(cli, "align_eigen_draws", "models.align")
    tracer.patch(cli, "align_fpca_draws", "models.align")
    tracer.patch(cli, "fpca_point_estimate_v", "models.point_estimate")
    tracer.patch(cli, "summarize", "diagnostics.summarize")


def layer_figures(tracer, stamps, captured, vjp_shapes, grid_p):
    import numpy as np

    from polarexp.distributions import SeKernelParams, se_kernel
    from polarexp.expansion import polar_vjp

    tracer.restore()

    def cpu(a, b):
        return stamps[b][1] - stamps[a][1]

    grads = len(tracer.spans("models.grad"))
    us_per_grad = cpu("enter", "exit") / grads * 1e6
    outputs = captured["outputs"]
    # the gradient's cost depends on the state (at p=365 it grows as rho
    # shrinks), so time it at four draws spread over each chain
    states = [o.draws[i] for o in outputs for i in np.linspace(0, len(o.draws) - 1, 4, dtype=int)]
    isolated = statistics.fmean(
        median_call_us(captured["target"].value_and_grad, s) for s in states
    )
    rng = np.random.default_rng(0)
    vjp_us = sum(
        median_call_us(polar_vjp, rng.standard_normal((p, k)), rng.standard_normal((p, k)))
        for p, k in vjp_shapes
    )
    # isolated, so that the figure exists where the model builds no kernel
    grid = np.arange(1.0, grid_p + 1.0) * (365 // grid_p)
    kernel_us = median_call_us(se_kernel, SeKernelParams(grid=grid, rho=29.0))

    def per_call_us(name):
        calls = len(tracer.spans(name))
        return calls, (tracer.total_cpu(name) / calls * 1e6 if calls else 0.0)

    svd_calls, svd_us = per_call_us("matcore.thin_svd")
    polar_calls, polar_us = per_call_us("matcore.polar_decompose")
    post_spans = tracer.top_level_cpu(stamps["exit"][0], stamps["end"][0])
    return {
        "hmc.grad_evals": grads,
        "hmc.us_per_grad": us_per_grad,
        "hmc.self_us_per_grad": tracer.self_cpu("hmc.chain") / grads * 1e6,
        "hmc.overhead_us_per_grad": us_per_grad - isolated,
        "hmc.divergences": sum(o.divergences for o in outputs),
        "hmc.accept_rate": statistics.fmean(o.accept_rate for o in outputs),
        "models.grad_us": tracer.self_cpu("models.grad") / grads * 1e6,
        "models.grad_isolated_us": isolated,
        "models.align_s": tracer.total_cpu("models.align"),
        "matcore.thin_svd_calls": svd_calls,
        "matcore.thin_svd_us": svd_us,
        "matcore.polar_decompose_calls": polar_calls,
        "matcore.polar_decompose_us": polar_us,
        "expansion.polar_vjp_us": vjp_us,
        "distributions.se_kernel_calls": len(tracer.spans("distributions.se_kernel")),
        "distributions.se_kernel_us": kernel_us,
        "diagnostics.summarize_s": tracer.total_cpu("diagnostics.summarize"),
        "cli.import_s": cpu("import", "imported"),
        "cli.prepare_s": cpu("main", "enter"),
        "cli.write_s": cpu("exit", "end") - post_spans,
    }


def main() -> int:
    mode, timing_path, shapes, grid_p = sys.argv[1:5]
    argv = sys.argv[5:]
    vjp_shapes = [tuple(int(v) for v in s.split("x")) for s in shapes.split(",")]
    stamps = {}

    def mark(name):
        stamps[name] = (now(), time.process_time())

    mark("import")
    from polarexp import cli

    mark("imported")
    captured = {}
    run_chains = cli.run_chains

    def timed_run_chains(target, config, init=None):
        mark("enter")
        if mode == "setup":
            raise SetupDone
        outputs = run_chains(target, config, init=init)
        mark("exit")
        captured["outputs"] = outputs
        return outputs

    cli.run_chains = timed_run_chains
    tracer = Tracer()
    if mode == "trace":
        install_tracer(tracer, captured)
    mark("main")
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    mark("end")
    result = {"stamps": stamps}
    if mode == "trace" and code == 0:
        result["layers"] = layer_figures(tracer, stamps, captured, vjp_shapes, int(grid_p))
    with open(timing_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
