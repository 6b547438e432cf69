"""Slack-penalization study: drive the slack weight to infinity and watch
the slack-mode solutions approach the hard-constrained solution.

For an increasing schedule of slack weights the study solves the slack
problem (warm-started level to level), records the mean squared slack,
the distance of the control to the hard-mode reference, and the
certification residuals, then fits a log-log decay rate to the slack
energy. The expected behaviour is at least first-order decay in the
weight, and quadratic decay once the multipliers settle, since the
optimal slack is the clamped multiplier divided by the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import certify
from .problem import Instance, norm_h
from .solvers import SolveReport, SolverParams, prefetch_engine, solve_hard, solve_pdhg


class HomotopyError(RuntimeError):
    """The study could not run (bad schedule or unsolvable reference)."""


@dataclass
class HomotopyLevel:
    """Measurements at one slack weight."""

    alpha_prime: float
    ez2: float            # E[ ||z||_h^2 ]
    dist_x1: float        # ||x1 - x1_hard||_h
    objective: float
    kkt_max: float
    converged: bool


@dataclass
class HomotopyReport:
    """Study results across the schedule, with the hard-mode reference."""

    schedule: list[float]
    levels: list[HomotopyLevel]
    slope: float | None
    intercept: float | None
    r_squared: float | None
    zero_slack_levels: list[float]
    reference: SolveReport
    reference_x1: np.ndarray


def _validate_schedule(schedule: list[float]) -> list[float]:
    sched = [float(a) for a in schedule]
    if len(sched) < 3:
        raise HomotopyError(f"schedule too short: need >= 3 levels, got {len(sched)}")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise HomotopyError("schedule must be strictly increasing")
    if not all(0 < a < math.inf for a in sched):
        raise HomotopyError("slack weights must be positive and finite")
    if sched[-1] / sched[0] < 1e3:
        raise HomotopyError(
            "schedule too short: must span at least three decades, "
            f"got ratio {sched[-1] / sched[0]:g}"
        )
    return sched


def _fit_loglog(pairs: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares of log(value) against log(weight)."""
    lx = np.log([a for a, _ in pairs])
    ly = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _usable_levels(levels: list[HomotopyLevel]) -> list[tuple[float, float]]:
    """(weight, slack energy) points of the decay fit: the converged levels
    with positive slack."""
    return [(l.alpha_prime, l.ez2) for l in levels if l.converged and l.ez2 > 0.0]


def _reference(hard_inst: Instance, params: SolverParams, engine=None):
    """The study's hard-mode reference solve, with ``engine`` as for
    ``solve_hard``; a reference that did not converge aborts the study."""
    primal, _, report = solve_hard(hard_inst, params, engine=engine)
    if not report.converged:
        raise HomotopyError(
            f"hard-mode reference did not converge (status {report.status}); "
            "the penalization limit has no target"
        )
    return primal, report


def run_homotopy(
    inst: Instance,
    schedule: list[float],
    params: SolverParams | None = None,
) -> HomotopyReport:
    """Solve the slack problem along the schedule and fit the slack decay.

    The hard-mode reference's engine call starts first, in a worker process
    (``solvers.prefetch_engine``) that runs on a second CPU while this
    process solves the levels. After each level the reference is collected
    through ``solve_hard`` once the worker's result is there, and at the
    latest after the last level; a reference that did not converge aborts
    the study then. Only the levels' control distances need the reference.
    Where no worker may be forked (one usable CPU, other Python threads
    running) or the reference is proven infeasible a priori, the reference
    is solved first in this process. Both ways give the same report, bit
    for bit, and the same ``solve_hard`` and ``solve_pdhg`` calls in this
    process.

    Each level's objective and largest residual come from the
    certification pass of its ``solve_pdhg`` report.

    Levels are warm-started from the previous level; levels that fail to
    converge are recorded but excluded from the fit, as are levels with
    exactly zero slack (inactive constraint).
    """
    params = params or SolverParams()
    if inst.mode != "slack":
        raise HomotopyError("homotopy study requires a slack-mode instance")
    sched = _validate_schedule(schedule)

    hard_inst = inst.with_mode("hard")
    with prefetch_engine(hard_inst, params) as ref_engine:
        ref = _reference(hard_inst, params) if ref_engine is None else None
        solved = []
        warm = None
        for a_prime in sched:
            level_inst = inst.with_alpha_prime(a_prime)
            primal, dual, rep = solve_pdhg(level_inst, params, warm=warm)
            warm = (primal, dual)
            solved.append((level_inst.alpha_prime, primal, rep))
            if ref is None and ref_engine.ready():
                ref = _reference(hard_inst, params, ref_engine)
        if ref is None:
            ref = _reference(hard_inst, params, ref_engine)
    ref_primal, ref_report = ref

    levels: list[HomotopyLevel] = []
    zero_levels: list[float] = []
    h = inst.h
    p = inst.p
    for a_prime, primal, rep in solved:
        ez2 = float(np.dot(p, (h * np.linalg.norm(primal.z, axis=1)) ** 2))
        lvl = HomotopyLevel(
            alpha_prime=a_prime,
            ez2=ez2,
            dist_x1=norm_h(primal.x1 - ref_primal.x1, h),
            objective=rep.objective,
            kkt_max=certify.max_residual(rep.residuals),
            converged=rep.converged,
        )
        levels.append(lvl)
        if lvl.converged and ez2 == 0.0:
            zero_levels.append(lvl.alpha_prime)

    usable = _usable_levels(levels)
    slope = intercept = r2 = None
    if len(usable) >= 3:
        slope, intercept, r2 = _fit_loglog(usable)
    return HomotopyReport(
        schedule=sched,
        levels=levels,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        zero_slack_levels=zero_levels,
        reference=ref_report,
        reference_x1=ref_primal.x1.copy(),
    )


def fit_decay_rate(report: HomotopyReport) -> tuple[float, float, float]:
    """Least-squares log-log slope of the slack energy against the weight.

    Zero-slack levels are excluded; fewer than three usable points is an
    error (an all-zero series means the constraint never activated).
    """
    usable = _usable_levels(report.levels)
    if not usable and report.zero_slack_levels:
        raise ValueError("constraint never active: slack is zero at every level")
    if len(usable) < 3:
        raise ValueError(
            f"need >= 3 positive slack measurements for a fit, got {len(usable)}"
        )
    return _fit_loglog(usable)
