"""Workloads of the sassc benchmark and the checks on their answers.

A unit is one certified answer: a CLI pipeline, one solve, or one study.
Each workload builds a panel of inputs from the workload seed, runs one
unit per input through the public API, and checks every answer outside the
timed region: the KKT certificate at ``KKT_TOL`` with a relative duality
gap of at most ``GAP_TOL``, plus the workload's own predicate.

Instance ``i`` of a panel uses preset seed ``seed + 1000 * i``, so the
default workload seed 7 solves the preset's own instance first and
reproduces the baseline iteration counts in ``Workload.baseline``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from io import StringIO

from sassc import certify, cli, homotopy, io
# the traced run wraps these names, which are the benchmark's call sites
from sassc.homotopy import fit_decay_rate, run_homotopy
from sassc.solvers import SolverParams, solve_pdhg, solve_progressive_hedging

DEFAULT_SEED = 7
KKT_TOL = 1e-6
GAP_TOL = 1e-5
PH_PENALTY = 0.05
HOMOTOPY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0, 10000.0)
HOMOTOPY_SLOPE_BOUND = -0.9
HOMOTOPY_FINAL_DIST = 1e-3
NORM_RATIO_BOUND = 2.0


@dataclass
class Context:
    """Run-wide inputs shared by a workload's units.

    Smoke runs shrink the ``default`` template to the ``tiny`` preset's size
    (4 x 4 nodes, 3 scenarios); the ``tiny`` template itself misses
    criterion 6's homotopy predicate (slope -0.86).
    """

    seed: int
    smoke: bool
    workdir: str

    @property
    def n1d(self) -> int:
        return 4 if self.smoke else 16

    @property
    def scenarios(self) -> int:
        return 3 if self.smoke else 8

    def instance_seed(self, index: int) -> int:
        return self.seed + 1000 * index

    def template(self, index: int | None, n1d: int | None = None) -> dict:
        """Template of panel instance ``index``; ``None`` keeps the preset's seed."""
        seed = None if index is None else self.instance_seed(index)
        return io.template_dict("default", seed=seed, n1d=n1d or self.n1d,
                                scenario_count=self.scenarios)


@dataclass
class Outcome:
    """What the checks found for one unit."""

    iterations: int = 0
    engine_bytes: float = 0.0    # computed, see engine_bytes_per_iter
    digest: str | None = None    # SHA-256 of report.json (pipeline units)
    error: str | None = None


def engine_bytes_per_iter(nnz: int, N: int, slack: bool) -> int:
    """Computed bytes one PDHG iteration moves, ignoring temporaries and caches.

    Two CSR products with the block operator (8-byte values, 4-byte column
    indices and row pointers, one input and one output vector of length
    ``N = S n``) plus one pass over each (S, n) state and multiplier array
    the iteration reads or writes: 14 in slack mode, 10 in hard mode.
    """
    spmv = 12 * nnz + 4 * (N + 1) + 16 * N
    return 2 * spmv + 8 * N * (14 if slack else 10)


def certificate_error(inst, primal, dual) -> str | None:
    rep = certify.kkt_residuals(inst, primal, dual)
    if rep.passes(KKT_TOL, gap_tol=GAP_TOL):
        return None
    return (f"certificate failed: max residual {rep.max_residual():.3e}, "
            f"relative gap {rep.relative_gap():.3e}")


def warm(inst):
    """Fill the instance's field and operator caches."""
    inst.fields()
    inst.block_operator()
    return inst


def solve_error(inst, primal, dual, report) -> str | None:
    if not report.converged:
        return f"{report.algorithm} status {report.status}"
    return certificate_error(inst, primal, dual)


class Workload:
    """A panel of inputs and the unit run on each.

    ``panel`` distinct inputs are each run once per run before any input
    repeats; ``min_units`` is the least number of units a run makes.
    """

    name: str
    panel: int
    baseline: int      # iterations of the first unit at DEFAULT_SEED, full preset

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.min_units = self.panel

    def setup(self):
        """Build the first input's instance from its template, round-trip it
        through an instance file, and fill its caches."""
        inst = io.instance_from_dict(self.template(0))
        path = os.path.join(self.ctx.workdir, "setup-instance.json")
        io.save_instance(inst, path)
        loaded, _ = io.load_instance(path)
        warm(loaded)

    def template(self, index: int) -> dict:
        return self.ctx.template(index)

    def prepare(self, index: int):
        return warm(io.instance_from_dict(self.template(index)))

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError


class DefaultPipeline(Workload):
    """``generate -> solve (pdhg) -> certify`` through the CLI, in process."""

    name = "default-pipeline"
    baseline = 26_400

    def __init__(self, ctx: Context):
        self.panel = 2 if ctx.smoke else 8
        super().__init__(ctx)
        self.min_units = self.panel + 1    # one repeat: report bytes must match

    def prepare(self, index: int):
        return self.ctx.instance_seed(index), tempfile.mkdtemp(dir=self.ctx.workdir)

    def run(self, inp):
        seed, base = inp
        inst = os.path.join(base, "instance.json")
        out = os.path.join(base, "solve")
        steps = [
            ["generate", "--preset", "default", "--seed", str(seed),
             "--n1d", str(self.ctx.n1d), "--scenarios", str(self.ctx.scenarios),
             "--out", inst],
            ["solve", "--instance", inst, "--algorithm", "pdhg", "--out", out],
            ["certify", "--instance", inst,
             "--primal", os.path.join(out, "primal.json"),
             "--dual", os.path.join(out, "dual.json"),
             "--tol", repr(KKT_TOL), "--gap-tol", repr(GAP_TOL),
             "--out", os.path.join(base, "kkt.json")],
        ]
        codes = []
        with contextlib.redirect_stdout(StringIO()):
            for argv in steps:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes

    def check(self, inp, codes) -> Outcome:
        try:
            return self._check(inp[1], codes)
        finally:
            shutil.rmtree(inp[1], ignore_errors=True)

    def _check(self, base, codes) -> Outcome:
        if codes != [0, 0, 0]:
            return Outcome(error=f"CLI exit codes {codes}")
        out = os.path.join(base, "solve")
        inst, _ = io.load_instance(os.path.join(base, "instance.json"))
        with open(os.path.join(out, "primal.json")) as fh:
            primal = io.primal_from_dict(json.load(fh))
        with open(os.path.join(out, "dual.json")) as fh:
            dual = io.dual_from_dict(json.load(fh))
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blob = fh.read()
        iterations = json.loads(blob)["iterations"]
        nnz = inst.block_operator().nnz
        return Outcome(
            iterations=iterations,
            engine_bytes=iterations * engine_bytes_per_iter(nnz, inst.S * inst.n, True),
            digest=hashlib.sha256(blob).hexdigest(),
            error=certificate_error(inst, primal, dual),
        )


class FineMesh(Workload):
    """``solve_pdhg`` at twice the preset's mesh resolution (n1d 32)."""

    name = "fine-mesh"
    panel = 1
    baseline = 117_200

    def template(self, index: int) -> dict:
        return self.ctx.template(index, n1d=2 * self.ctx.n1d)

    def run(self, inst):
        return solve_pdhg(inst, SolverParams())

    def check(self, inst, out) -> Outcome:
        primal, dual, report = out
        nnz = inst.block_operator().nnz
        outcome = Outcome(
            iterations=report.iterations,
            engine_bytes=report.iterations * engine_bytes_per_iter(nnz, inst.S * inst.n, True),
            error=solve_error(inst, primal, dual, report),
        )
        if outcome.error is None:
            # weighted-l1 multiplier norms must stay within x2 of the preset mesh's
            coarse = io.instance_from_dict(io.template_dict(
                "default", seed=inst.scenarios.seed, n1d=self.ctx.n1d,
                scenario_count=self.ctx.scenarios))
            _, coarse_dual, _ = solve_pdhg(coarse, SolverParams())
            fine = certify.multiplier_l1_norms(inst, dual)
            ref = certify.multiplier_l1_norms(coarse, coarse_dual)
            ratio = max(max(a, b) / min(a, b) for a, b in zip(fine, ref))
            if not ratio < NORM_RATIO_BOUND:
                outcome.error = f"multiplier norms differ by x{ratio:.3f} across meshes"
        return outcome


class PhConsensus(Workload):
    """``solve_progressive_hedging`` with the criterion-4 penalty."""

    name = "ph-consensus"
    baseline = 137_450

    def __init__(self, ctx: Context):
        self.panel = 1 if ctx.smoke else 3
        super().__init__(ctx)

    def run(self, inst):
        return solve_progressive_hedging(inst, SolverParams(ph_penalty=PH_PENALTY))

    def check(self, inst, out) -> Outcome:
        primal, dual, report, _ = out
        inner = report.extras["inner_iterations"]
        nnz = inst.block_operator().nnz // inst.S     # one scenario per subproblem
        outcome = Outcome(
            iterations=inner,
            engine_bytes=inner * engine_bytes_per_iter(nnz, inst.n, True),
            error=solve_error(inst, primal, dual, report),
        )
        if outcome.error is None and report.extras["projection_active"]:
            outcome.error = "consensus projection became active"
        return outcome


@contextlib.contextmanager
def recording(module, names, log: list):
    """Append ``(instance, result)`` of every call to ``module.<name>`` to ``log``."""
    originals = {name: getattr(module, name) for name in names}

    def recorder(fn):
        def call(inst, *args, **kwargs):
            result = fn(inst, *args, **kwargs)
            log.append((inst, result))
            return result
        return call

    for name, fn in originals.items():
        setattr(module, name, recorder(fn))
    try:
        yield log
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class Homotopy(Workload):
    """``run_homotopy`` on the preset instance along a five-level schedule.

    The study's predicate bounds (slope, final control distance) are those
    of acceptance criterion 6, calibrated on the preset's own instance; on
    other scenario draws the final distance at weight 1e4 exceeds 1e-3
    while the study is still correct (1.35e-3 at preset seed 0). So the
    workload seed moves the schedule instead: it is scaled by
    ``10 ** (k / 20)`` with ``k = (seed - 7) mod 10``, which leaves the
    default seed on criterion 6's schedule.
    """

    name = "homotopy"
    panel = 1
    baseline = 39_900 + 149_850     # hard-mode reference + five slack levels

    def template(self, index: int) -> dict:
        return self.ctx.template(None)

    def prepare(self, index: int):
        scale = 10.0 ** (((self.ctx.seed - DEFAULT_SEED) % 10) / 20.0)
        return super().prepare(index), [scale * a for a in HOMOTOPY_SCHEDULE]

    def run(self, inp):
        inst, schedule = inp
        with recording(homotopy, ("solve_hard", "solve_pdhg"), []) as solves:
            report = run_homotopy(inst, schedule, SolverParams())
        return report, solves

    def check(self, inp, out) -> Outcome:
        report, solves = out
        iterations = 0
        engine_bytes = 0.0
        error = None
        for inst, (primal, dual, rep) in solves:
            iterations += rep.iterations
            N = inst.S * inst.n
            engine_bytes += rep.iterations * engine_bytes_per_iter(
                inst.block_operator().nnz, N, inst.mode == "slack")
            error = error or solve_error(inst, primal, dual, rep)
        outcome = Outcome(iterations=iterations, engine_bytes=engine_bytes, error=error)
        if outcome.error is None:
            slope, _, _ = fit_decay_rate(report)
            final = report.levels[-1].dist_x1
            if not (slope <= HOMOTOPY_SLOPE_BOUND and final <= HOMOTOPY_FINAL_DIST):
                outcome.error = (f"study predicate failed: slope {slope:.3f}, "
                                 f"final |x1 - x1_hard|_h {final:.3e}")
        return outcome


WORKLOADS = {w.name: w for w in (DefaultPipeline, FineMesh, PhConsensus, Homotopy)}
