"""Layer call sites wrapped by the traced run, and the per-layer metrics.

Layers are the package's modules: scenarios, grid, problem, certify,
solvers, homotopy, io and cli. A name pulled in with ``from .x import f``
is wrapped in the importing module's namespace, because that is where
the call resolves it; module attributes are wrapped on their module and
methods on their class.
"""

from __future__ import annotations

import os

from sassc import certify, cli, homotopy, io, problem, scenarios, solvers

# Spans whose self time is the PDHG engine's own work.
ENGINE_SPANS = ("solvers.solve_pdhg", "solvers.solve_progressive_hedging",
                "homotopy.reference", "homotopy.level")

COUNTED_CALLS = (
    "scenarios.realize", "grid.assemble_operator", "problem.operators",
    "grid.operator_norm_estimate", "certify.natural_residuals",
    "certify.kkt_residuals", "problem.constraint_values", "problem.objective",
    "problem.dual_function", "io.canonical_json", "io.atomic_write", "io.load_instance",
)


def _count_forward(tracer, args, kwargs):
    """Count power iterations by wrapping the ``forward`` callable."""
    forward = args[0]

    def counted(v):
        tracer.counts["grid.power_iterations"] += 1
        return forward(v)

    return (counted,) + tuple(args[1:]), kwargs


def _text_bytes(name, index):
    """Count the bytes of the text returned (``index`` None) or passed at ``index``."""
    def record(tracer, args, kwargs, result):
        text = result if index is None else args[index]
        tracer.counts[f"{name}.bytes"] += len(text.encode())
    return record


def _file_bytes(tracer, args, kwargs, result):
    tracer.counts["io.load_instance.bytes"] += os.path.getsize(args[0])


def _iterations(name):
    def record(tracer, args, kwargs, result):
        tracer.counts[f"{name}.iterations"] += result[2].iterations
    return record


def _ph(tracer, args, kwargs, result):
    report = result[2]
    tracer.counts["solvers.ph.rounds"] += report.iterations
    tracer.counts["solvers.ph.inner_iterations"] += report.extras["inner_iterations"]


def trace_call_sites(tracer, harness) -> None:
    """Wrap every layer call site; ``harness`` is the module whose
    attributes the benchmark's own units call."""
    wrap = tracer.wrap
    wrap(harness, "solve_pdhg", "solvers.solve_pdhg")
    wrap(harness, "solve_progressive_hedging", "solvers.solve_progressive_hedging",
         on_result=_ph)
    wrap(harness, "run_homotopy", "homotopy.run_homotopy")

    for command in ("generate", "solve", "certify"):
        wrap(cli, f"cmd_{command}", f"cli.{command}")
    wrap(cli, "solve_pdhg", "solvers.solve_pdhg")

    wrap(homotopy, "solve_hard", "homotopy.reference",
         on_result=_iterations("homotopy.reference"))
    wrap(homotopy, "solve_pdhg", "homotopy.level", on_result=_iterations("homotopy.level"))

    wrap(solvers, "operator_norm_estimate", "grid.operator_norm_estimate",
         on_args=_count_forward)
    wrap(problem, "assemble_operator", "grid.assemble_operator")
    for name in ("objective", "dual_function", "constraint_values"):
        wrap(certify, name, f"problem.{name}")
    wrap(certify, "natural_residuals", "certify.natural_residuals")
    wrap(certify, "kkt_residuals", "certify.kkt_residuals")

    wrap(io, "canonical_json", "io.canonical_json",
         on_result=_text_bytes("io.canonical_json", None))
    wrap(io, "atomic_write", "io.atomic_write", on_result=_text_bytes("io.atomic_write", 1))
    wrap(io, "load_instance", "io.load_instance", on_result=_file_bytes)

    wrap(problem.Instance, "operators", "problem.operators")
    wrap(problem.Instance, "block_operator", "problem.block_operator")
    wrap(scenarios.ScenarioSet, "realize", "scenarios.realize")


def layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of the traced units, each per unit unless a ratio.

    ``traced`` and ``untraced`` are the unit records of the same inputs run
    with and without tracing.
    """
    units = len(traced)
    counts = tracer.counts
    self_s = tracer.self_times()
    unit_s = sum(r.seconds for r in traced)
    out: dict[str, float] = {}

    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = counts[f"{name}.calls"] / units
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / units

    kids = tracer.children()
    blk = [i for i, s in enumerate(tracer.spans) if s[0] == "problem.block_operator"]
    # a call that did real work assembled or realized something below it
    misses = sum(1 for i in blk if kids[i])
    out["problem.block_operator.calls"] = len(blk) / units
    out["problem.block_operator.miss_ratio"] = misses / len(blk) if blk else 0.0
    out["grid.power_iterations"] = counts["grid.power_iterations"] / units

    top_certify = sum(
        s[2] - s[1] for s in tracer.spans
        if s[0].startswith("certify.")
        and (s[3] is None or not tracer.spans[s[3]][0].startswith("certify.")))
    out["certify.check_share"] = top_certify / unit_s

    engine_s = sum(self_s.get(name, 0.0) for name in ENGINE_SPANS)
    iterations = sum(r.outcome.iterations for r in traced)
    engine_bytes = sum(r.outcome.engine_bytes for r in traced)
    out["solvers.engine.self_s"] = engine_s / units
    out["solvers.engine.share"] = engine_s / unit_s
    out["solvers.engine.iterations"] = iterations / units
    out["solvers.engine.us_per_iter"] = 1e6 * engine_s / iterations if iterations else 0.0
    out["solvers.engine.computed_bytes_per_iter"] = (
        engine_bytes / iterations if iterations else 0.0)
    out["solvers.engine.computed_gbps"] = engine_bytes / engine_s / 1e9 if engine_s else 0.0
    out["solvers.ph.rounds"] = counts["solvers.ph.rounds"] / units
    out["solvers.ph.inner_iterations"] = counts["solvers.ph.inner_iterations"] / units

    for phase in ("reference", "level"):
        out[f"homotopy.{phase}.iterations"] = counts[f"homotopy.{phase}.iterations"] / units
        out[f"homotopy.{phase}.self_s"] = self_s.get(f"homotopy.{phase}", 0.0) / units

    for name in ("io.canonical_json", "io.atomic_write", "io.load_instance"):
        out[f"{name}.bytes"] = counts[f"{name}.bytes"] / units
    for command in ("generate", "solve", "certify"):
        out[f"cli.{command}.s"] = tracer.durations(f"cli.{command}") / units

    out["trace.overhead_frac"] = unit_s / sum(r.seconds for r in untraced) - 1.0
    return out
