"""Batch command-line front end.

Commands: ``generate`` writes a canonical instance file; ``solve`` runs a
solver and writes primal/dual/report JSON; ``certify`` scores a stored
primal-dual pair; ``homotopy``, ``compare-oracle``, and ``mms`` run the
standard studies and gate their exit code on the study's acceptance
predicate. Exit codes: 0 success, 1 certificate or predicate failure
(or a failed linear solve), 2 iteration cap and 3 infeasibility
suspicion (of a solve or of the homotopy's hard reference), 4 input
error, including a grid too large to allocate, a barrier start point
outside the inequalities' interior and a command line that argparse
rejects (``--help`` exits 0); an engine worker process that ends without
replying, and a barrier Newton iteration that breaks down, exit 1 with
an ``error:`` line.

All output files are canonical JSON or CSV written atomically; every
report embeds the instance SHA-256 and sampling seed. ``solve
--history-csv`` streams the pdhg solve's residual checks to a CSV through
the ``history=`` hook of ``solvers.solve_pdhg``. The CLI runs in one
thread; ``homotopy`` solves its hard reference before its slack levels.
Progressive hedging runs each round's scenario subproblems in one process
per CPU of the affinity mask (``solvers.worker_count``); ``taskset -c 0``
runs it in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import certify, io
from .grid import LinearSolveError, mms_convergence_study
from .homotopy import HomotopyError, fit_decay_rate, run_homotopy
from .problem import Instance, dual_function, objective
from .solvers import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_CAP,
    BarrierFailure,
    SolverParams,
    WorkerExitError,
    solve_barrier_reference,
    solve_pdhg,
    solve_progressive_hedging,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ITERATION_CAP = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4

MMS_RATE_WINDOW = (1.85, 2.15)
ORACLE_DX1_BOUND = 1e-5
ORACLE_REL_OBJ_BOUND = 1e-7
ORACLE_PDHG_TOL = 1e-8      # pdhg tolerance of compare-oracle, well inside its bounds
HOMOTOPY_SLOPE_BOUND = -0.9


def _exit_code(status: str) -> int:
    """The exit code of a solver status."""
    return {STATUS_CONVERGED: EXIT_OK, STATUS_INFEASIBLE: EXIT_INFEASIBLE,
            STATUS_ITERATION_CAP: EXIT_ITERATION_CAP}.get(status, EXIT_FAIL)


def _params_from_args(args) -> SolverParams:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["kkt_tolerance"] = args.tol
    if getattr(args, "max_iters", None) is not None:
        kwargs["max_iters"] = args.max_iters
    if getattr(args, "ph_penalty", None) is not None:
        kwargs["ph_penalty"] = args.ph_penalty
    return SolverParams(**kwargs)


def _load_instance(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(f"instance file not found: {path}")
    return io.load_instance(path)


def _check_out(path: str, directory: bool) -> None:
    """Raise ``ValueError`` unless ``path`` can take an output directory
    (``directory``) or file: it is of that kind if it exists, and a file's
    directory exists, or a directory's nearest existing ancestor is one.
    Commands call it before any work, so a bad ``--out`` writes nothing."""
    path = os.path.abspath(path)
    if os.path.exists(path) and os.path.isdir(path) != directory:
        raise ValueError(f"output path {path} is {'a file' if directory else 'a directory'}")
    parent = os.path.dirname(path)
    while directory and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        why = "is not a directory" if os.path.exists(parent) else "does not exist"
        raise ValueError(f"output path {path}: {parent} {why}")


def _write_json(path: str, payload: dict) -> None:
    io.atomic_write(path, io.canonical_json(payload))


def cmd_generate(args) -> int:
    _check_out(args.out, directory=False)
    d = io.template_dict(args.preset, seed=args.seed, n1d=args.n1d,
                         scenario_count=args.scenarios)
    inst = io.instance_from_dict(d)  # validates, incl. ellipticity
    sha = io.save_instance(inst, args.out)
    print(f"wrote {args.out} (sha256 {sha})")
    return EXIT_OK


@contextlib.contextmanager
def _history_writer(inst: Instance, path: str):
    """Yield a ``solve_pdhg`` history hook that streams per-check residual
    rows to a CSV file, written through ``io.atomic_file``, so ``path``
    never holds a partial history."""
    with io.atomic_file(path) as fh:
        fh.write(",".join(("iteration", *certify.RESIDUAL_NAMES, "objective", "dual_value"))
                 + "\n")

        def write(it, res, xp, lam):
            values = [res.get(name, float("nan")) for name in certify.RESIDUAL_NAMES]
            values += [objective(inst, xp), dual_function(inst, lam)]
            fh.write(f"{it}," + ",".join(f"{v:.17g}" for v in values) + "\n")

        yield write


def cmd_solve(args) -> int:
    if args.history_csv is not None and args.algorithm != "pdhg":
        raise ValueError("--history-csv applies to --algorithm pdhg only")
    inst, sha = _load_instance(args.instance)
    params = _params_from_args(args)
    provenance = {"instance_sha256": sha, "seed": inst.scenarios.seed}
    _check_out(args.out, directory=True)
    if args.history_csv is not None:
        _check_out(args.history_csv, directory=False)
        outputs = [args.out] + [os.path.join(args.out, name)
                                for name in ("primal.json", "dual.json", "report.json")]
        if os.path.realpath(args.history_csv) in map(os.path.realpath, outputs):
            raise ValueError(f"output path {args.history_csv} is the --out directory or a "
                             "file that solve writes in it")
    os.makedirs(args.out, exist_ok=True)

    if args.algorithm == "pdhg":
        writer = (contextlib.nullcontext() if args.history_csv is None
                  else _history_writer(inst, args.history_csv))
        with writer as history:
            primal, dual, report = solve_pdhg(inst, params, history=history)
    elif args.algorithm == "ph":
        primal, dual, report, weights = solve_progressive_hedging(inst, params)
        _write_json(os.path.join(args.out, "ph_weights.json"),
                    {"weights": weights, **provenance})
    elif args.algorithm == "barrier":
        primal, dual, report = solve_barrier_reference(inst)
    else:
        raise ValueError(f"unknown algorithm {args.algorithm!r}")

    _write_json(os.path.join(args.out, "primal.json"),
                io.primal_to_dict(primal, provenance))
    _write_json(os.path.join(args.out, "dual.json"),
                io.dual_to_dict(dual, provenance))
    _write_json(os.path.join(args.out, "report.json"),
                io.solve_report_to_dict(report, provenance))
    print(f"{report.algorithm}: {report.status} after {report.iterations} iterations, "
          f"objective {report.objective:.12g}")
    return _exit_code(report.status)


def _format_kkt_table(rep: certify.KktReport) -> str:
    rows = [
        ("first-stage stationarity (r1)", rep.r1),
        ("nonanticipativity consistency (r2)", rep.r2),
        ("state stationarity (r3)", rep.r3),
        ("slack stationarity (r3p)", rep.r3p),
        ("equality residual (r4)", rep.r4),
        ("multiplier sign (r5_sign, >= -tol)", rep.r5_sign),
        ("obstacle violation (r5_feas)", rep.r5_feas),
        ("complementarity (r5_comp)", rep.r5_comp),
        ("duality gap", rep.duality_gap),
        ("|lambda_e| weighted-l1", rep.l1_lambda_e),
        ("|lambda_i| weighted-l1", rep.l1_lambda_i),
        ("|rho| weighted-l1", rep.l1_rho),
    ]
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, val in rows:
        text = "skipped (hard mode)" if val is None else f"{val: .6e}"
        lines.append(f"  {name:<{width}}  {text}")
    return "\n".join(lines)


def cmd_certify(args) -> int:
    if not 0 < args.tol < np.inf or args.gap_tol is not None and not 0 <= args.gap_tol < np.inf:
        raise ValueError("--tol must be positive and finite, --gap-tol non-negative and finite")
    inst, sha = _load_instance(args.instance)
    with open(args.primal) as fh:
        primal = io.primal_from_dict(json.load(fh))
    with open(args.dual) as fh:
        dual = io.dual_from_dict(json.load(fh))
    arrays = {"x1": primal.x1, "y": primal.y, "z": primal.z, "adjoint": dual.adjoint,
              "obstacle": dual.obstacle, "nonanticipativity": dual.nonant}
    for name, arr in arrays.items():
        want = (inst.n,) if name == "x1" else (inst.S, inst.n)
        if arr.shape != want:
            raise ValueError(f"{name} has shape {arr.shape}, instance expects {want}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} holds a non-finite entry")
    if args.out:
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        for path in (args.out, csv_path):
            _check_out(path, directory=False)
        if os.path.realpath(csv_path) == os.path.realpath(args.out):
            raise ValueError(f"output path {args.out} ends in .csv, so the CSV row written "
                             "beside the JSON report would replace it")

    rep = certify.kkt_residuals(inst, primal, dual)
    provenance = {"instance_sha256": sha, "seed": inst.scenarios.seed}
    if args.out:
        _write_json(args.out, io.kkt_report_to_dict(rep, provenance))
        io.atomic_write(csv_path, io.kkt_report_csv(rep))
    ok = rep.passes(args.tol, gap_tol=args.gap_tol)
    print(_format_kkt_table(rep))
    print(f"certificate at tolerance {args.tol:g}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_homotopy(args) -> int:
    inst, sha = _load_instance(args.instance)
    schedule = [float(s) for s in args.schedule.split(",")]
    params = _params_from_args(args)
    _check_out(args.out, directory=True)
    report = run_homotopy(inst, schedule, params)
    provenance = {"instance_sha256": sha, "seed": inst.scenarios.seed}
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "homotopy.json"),
                io.homotopy_to_dict(report, provenance))
    io.atomic_write(os.path.join(args.out, "homotopy.csv"), io.homotopy_csv(report))
    try:
        slope, _, r2 = fit_decay_rate(report)
    except ValueError as exc:  # the study ran, but its levels admit no decay fit
        print(f"homotopy predicate failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"slack decay slope {slope:.4f} (r^2 {r2:.4f}); "
          f"final control distance {report.levels[-1].dist_x1:.3e}")
    return EXIT_OK if slope <= HOMOTOPY_SLOPE_BOUND else EXIT_FAIL


def cmd_compare_oracle(args) -> int:
    inst, sha = _load_instance(args.instance)
    params = replace(_params_from_args(args), kkt_tolerance=ORACLE_PDHG_TOL)
    if args.out:
        _check_out(args.out, directory=True)
    # the barrier first: it rejects an instance too large or infeasible a priori at once
    xb, _, rep_b = solve_barrier_reference(inst)
    if rep_b.status == STATUS_INFEASIBLE:
        print(f"infeasible: {rep_b.extras['infeasibility']}", file=sys.stderr)
        return EXIT_INFEASIBLE
    xp, _, rep_p = solve_pdhg(inst, params)
    dx1 = inst.h * float(np.linalg.norm(xp.x1 - xb.x1))
    rel = abs(rep_p.objective - rep_b.objective) / max(1e-300, abs(rep_b.objective))
    provenance = {"instance_sha256": sha, "seed": inst.scenarios.seed}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "compare_oracle.json"), {
            "dx1": dx1, "relative_objective_difference": rel,
            "pdhg_status": rep_p.status, "barrier_status": rep_b.status,
            **provenance,
        })
    print(f"|dx1|_h = {dx1:.3e}, relative objective difference = {rel:.3e}")
    ok = (rep_p.converged and rep_b.converged
          and dx1 <= ORACLE_DX1_BOUND and rel <= ORACLE_REL_OBJ_BOUND)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_mms(args) -> int:
    levels = [int(s) for s in args.levels.split(",")]
    if len(levels) < 2:
        raise ValueError(f"--levels needs at least two levels for a rate, got {len(levels)}")
    if args.out:
        _check_out(args.out, directory=True)
    rows = mms_convergence_study(levels)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        io.atomic_write(os.path.join(args.out, "mms.csv"), io.mms_csv(rows))
    for r in rows:
        rate = "---" if r.rate is None else f"{r.rate:.4f}"
        print(f"  n1d={r.n1d:4d}  h={r.h:.6f}  max_error={r.max_error:.6e}  rate={rate}")
    rates = [r.rate for r in rows if r.rate is not None]
    lo, hi = MMS_RATE_WINDOW
    ok = bool(rates) and all(lo <= rate <= hi for rate in rates)
    return EXIT_OK if ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, so that
    ``main`` exits 4 with one ``error:`` line, not argparse's exit 2 (the
    iteration-cap code) with a usage block. Subcommand parsers are of the
    same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sassc",
        description="Two-stage stochastic PDE-constrained optimization with "
                    "almost-sure state constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a canonical instance file")
    p.add_argument("--preset", default="default", choices=["default", "tiny"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n1d", type=int, default=None)
    p.add_argument("--scenarios", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve an instance and write solution files")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", default="pdhg", choices=["pdhg", "ph", "barrier"])
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--ph-penalty", dest="ph_penalty", type=float, default=None)
    p.add_argument("--history-csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="score a stored primal-dual pair")
    p.add_argument("--instance", required=True)
    p.add_argument("--primal", required=True)
    p.add_argument("--dual", required=True)
    p.add_argument("--tol", type=float, default=certify.DEFAULT_TOL)
    p.add_argument("--gap-tol", dest="gap_tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("homotopy", help="run the slack-penalization study")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True,
                   help="comma-separated increasing slack weights")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("compare-oracle",
                       help="cross-check the default solver against the barrier oracle")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare_oracle)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--levels", required=True,
                   help="comma-separated increasing interior node counts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mms)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except LinearSolveError as exc:
        print(f"linear solve failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (WorkerExitError, BarrierFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except HomotopyError as exc:    # a bad schedule, or the reference's status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if exc.status is None else _exit_code(exc.status)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a grid too large to allocate
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
