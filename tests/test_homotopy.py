import multiprocessing
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest

from sassc import certify, grid, homotopy, io, problem, solvers
from sassc.homotopy import (
    HomotopyError,
    HomotopyLevel,
    HomotopyReport,
    fit_decay_rate,
    run_homotopy,
)
from sassc.problem import norm_h
from sassc.solvers import STATUS_ITERATION_CAP, SolveReport, SolverParams

from reference_impl import project_c2

SCHEDULE = [1.0, 10.0, 100.0, 1000.0, 10000.0]


def synthetic_report(values, schedule=None):
    """A report of converged levels with these slack energies, fitted as
    ``run_homotopy`` fits them (no fit below three usable levels)."""
    schedule = schedule or [10.0**k for k in range(len(values))]
    levels = [
        HomotopyLevel(alpha_prime=a, ez2=v, dist_x1=0.0, objective=0.0,
                      kkt_max=0.0, converged=True)
        for a, v in zip(schedule, values)
    ]
    usable = homotopy._usable_levels(levels)
    fit = homotopy._fit_loglog(usable) if len(usable) >= 3 else (None, None, None)
    ref = SolveReport("pdhg_hard", 0, "converged", {}, 0.0, 0.0)
    return HomotopyReport(schedule, levels, *fit, zero_slack_levels=[], reference=ref)


def test_fit_exact_inverse_square_law():
    vals = [3.0 / a**2 for a in [1.0, 10.0, 100.0, 1000.0]]
    slope, intercept, r2 = fit_decay_rate(
        synthetic_report(vals, [1.0, 10.0, 100.0, 1000.0]))
    assert slope == pytest.approx(-2.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_inverse_law():
    vals = [0.7 / a for a in [1.0, 10.0, 100.0, 1000.0]]
    slope, _, _ = fit_decay_rate(synthetic_report(vals, [1.0, 10.0, 100.0, 1000.0]))
    assert slope == pytest.approx(-1.0, abs=1e-10)


def test_fit_rejects_all_zero_slack():
    rep = synthetic_report([0.0, 0.0, 0.0])
    rep.zero_slack_levels = list(rep.schedule)
    rep.levels = [HomotopyLevel(a, 0.0, 0.0, 0.0, 0.0, True) for a in rep.schedule]
    with pytest.raises(ValueError, match="never active"):
        fit_decay_rate(rep)


def test_fit_rejects_too_few_points():
    rep = synthetic_report([1.0, 0.1, 0.0])
    with pytest.raises(ValueError):
        fit_decay_rate(rep)


def test_schedule_validation(small_instance):
    params = SolverParams()
    with pytest.raises(HomotopyError, match="too short"):
        run_homotopy(small_instance, [1.0, 10.0], params)
    with pytest.raises(HomotopyError):
        run_homotopy(small_instance, [10.0, 1.0, 100.0, 1000.0], params)
    with pytest.raises(HomotopyError, match="decades"):
        run_homotopy(small_instance, [1.0, 4.0, 16.0], params)
    with pytest.raises(HomotopyError):
        run_homotopy(small_instance.with_mode("hard"), SCHEDULE, params)


def test_inactive_obstacle_yields_zero_slack():
    d = io.template_dict("tiny", seed=3)
    d["scenarios"]["spec_psi"] = {"baseline": 1e6, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    rep = run_homotopy(inst, SCHEDULE, SolverParams(kkt_tolerance=1e-8))
    assert rep.slope is None
    assert rep.zero_slack_levels == SCHEDULE
    for lvl in rep.levels:
        assert lvl.ez2 == 0.0
        assert lvl.dist_x1 <= 1e-6
    with pytest.raises(ValueError, match="never active"):
        fit_decay_rate(rep)


@pytest.fixture(scope="module")
def small_homotopy(small_instance):
    return run_homotopy(small_instance, SCHEDULE, SolverParams())


def test_fit_decay_rate_returns_the_stored_fit(small_homotopy, monkeypatch):
    """``fit_decay_rate`` returns the fit ``run_homotopy`` stored, bit for
    bit, without fitting again."""
    rep = small_homotopy
    monkeypatch.setattr(homotopy, "_fit_loglog", None)
    got, want = fit_decay_rate(rep), (rep.slope, rep.intercept, rep.r_squared)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_homotopy_slope_and_distance(small_homotopy):
    rep = small_homotopy
    assert all(lvl.converged for lvl in rep.levels)
    assert rep.slope <= -0.9
    assert rep.levels[-1].dist_x1 <= 1e-3


def test_homotopy_slack_energy_monotone(small_homotopy):
    ez = [lvl.ez2 for lvl in small_homotopy.levels]
    tol = 2.0 * SolverParams().kkt_tolerance
    assert all(b <= a + tol for a, b in zip(ez, ez[1:]))


def test_homotopy_distance_nonincreasing(small_homotopy):
    ds = [lvl.dist_x1 for lvl in small_homotopy.levels]
    tol = 2.0 * SolverParams().kkt_tolerance
    assert all(b <= a + tol for a, b in zip(ds, ds[1:]))


def test_homotopy_objective_sandwich(small_instance):
    """Hard-part objective <= slack objective <= hard optimum, per level."""
    params = SolverParams()
    from sassc.solvers import solve_hard, solve_pdhg
    from sassc.problem import objective, PrimalPoint
    hard = small_instance.with_mode("hard")
    x_hard, _, rep_hard = solve_hard(hard, params)
    j_hard = objective(hard, x_hard)
    for a_prime in (1.0, 100.0, 10000.0):
        inst = small_instance.with_alpha_prime(a_prime)
        x, _, rep = solve_pdhg(inst, params)
        assert rep.converged
        j_slack = objective(inst, x)
        j_hard_part = objective(hard, PrimalPoint(x.x1, x.y, np.zeros_like(x.z)))
        slack_budget = 1e-6 * (1.0 + abs(j_hard))
        assert j_hard_part <= j_slack + slack_budget
        assert j_slack <= j_hard + slack_budget


def test_homotopy_slack_multiplier_link(small_instance, small_homotopy):
    """At certified levels the slack equals the clamped multiplier ratio."""
    params = SolverParams()
    from sassc.solvers import solve_pdhg
    for a_prime in (1.0, 1000.0):
        inst = small_instance.with_alpha_prime(a_prime)
        x, lam, rep = solve_pdhg(inst, params)
        assert rep.converged
        zs = project_c2(inst, lam.obstacle / a_prime)
        gap = max(norm_h(x.z[k] - zs[k], inst.h) for k in range(inst.S))
        assert gap <= 10.0 * params.kkt_tolerance




def _infeasible_tiny():
    d = io.template_dict("tiny")
    d["scenarios"]["spec_psi"] = {"baseline": -1.0, "modes": [], "clip": None}
    return io.instance_from_dict(d)


def test_homotopy_aborts_on_unsolvable_reference(monkeypatch):
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", 1e4)
    with pytest.raises(HomotopyError, match="reference"):
        run_homotopy(_infeasible_tiny(), SCHEDULE, SolverParams())


# ---------------------------------------------------------------------------
# the hard reference, then the levels, in the calling thread


def _bits(x):
    """``x`` with every float replaced by its hex form, so that ``==``
    compares bits (and tells -0.0 from 0.0)."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _study_bits(rep: HomotopyReport):
    """Every field of a study report, with the reference's residuals. Each
    level's ``dist_x1`` carries the reference control bitwise."""
    ref = rep.reference
    return (_bits(rep.schedule), [_bits(astuple(lvl)) for lvl in rep.levels],
            _bits([rep.slope, rep.intercept, rep.r_squared, rep.zero_slack_levels]),
            (ref.algorithm, ref.iterations, ref.status, _bits(ref.residuals),
             _bits(ref.objective), _bits(ref.dual_value), _bits(ref.extras)))


def _record_solves(monkeypatch, log: list):
    """Append ``(name, instance, kwargs, result)`` of every call to
    ``homotopy.solve_hard`` and ``homotopy.solve_pdhg`` to ``log``, by
    wrapping the module attributes in the calling process as the benchmark
    does (``bench/workloads.recording``)."""
    def recorder(name, fn):
        def call(inst, *args, **kwargs):
            result = fn(inst, *args, **kwargs)
            log.append((name, inst, kwargs, result))
            return result
        return call

    for name in ("solve_hard", "solve_pdhg"):
        monkeypatch.setattr(homotopy, name, recorder(name, getattr(homotopy, name)))


def _no_worker(*args, **kwargs):
    raise AssertionError("started a worker or an engine call")


def _serial_study(inst, schedule, params):
    """The study's levels and reference, solved one after another in this
    thread: the reference first, then the warm-started levels."""
    x_ref, _, ref = solvers.solve_hard(inst.with_mode("hard"), params)
    levels, warm = [], None
    for a_prime in schedule:
        level = inst.with_alpha_prime(a_prime)
        x, lam, rep = solvers.solve_pdhg(level, params, warm=warm)
        warm = (x, lam)
        ez2 = float(np.dot(level.p, (level.h * np.linalg.norm(x.z, axis=1)) ** 2))
        levels.append(HomotopyLevel(a_prime, ez2, norm_h(x.x1 - x_ref.x1, level.h),
                                    rep.objective, certify.max_residual(rep.residuals),
                                    rep.converged))
    return levels, ref


@pytest.mark.parametrize("template, size", [("tiny", {}),
                                            ("default", {"n1d": 8, "scenario_count": 4})],
                         ids=["tiny", "small"])
def test_reference_gives_the_serial_study_bitwise(template, size):
    """The study, starting on cold caches, reports the bits of the serial
    study, and leaves no thread or process behind."""
    params = SolverParams()
    levels, ref = _serial_study(io.make_instance(template, **size), SCHEDULE, params)
    threads = threading.active_count()
    rep = run_homotopy(io.make_instance(template, **size), SCHEDULE, params)
    assert _study_bits(rep) == _study_bits(replace(rep, levels=levels, reference=ref))
    assert threading.active_count() == threads and multiprocessing.active_children() == []


def test_study_starts_no_thread(small_instance, monkeypatch):
    """The reference and the levels are solved in the calling thread."""
    def no_thread(self):
        raise AssertionError("the study started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    rep = run_homotopy(small_instance, SCHEDULE, SolverParams())
    assert rep.reference.converged and all(lvl.converged for lvl in rep.levels)


def test_every_solve_of_the_study_is_made_in_the_calling_process(small_instance, monkeypatch):
    """A caller that wraps ``solve_hard`` and ``solve_pdhg`` sees the
    reference and every level, with their full results."""
    log = []
    _record_solves(monkeypatch, log)
    run_homotopy(small_instance, SCHEDULE, SolverParams())
    assert sorted(name for name, *_ in log) == ["solve_hard"] + ["solve_pdhg"] * len(SCHEDULE)
    for name, inst, kwargs, result in log:
        primal, dual, report = result
        assert inst.mode == ("hard" if name == "solve_hard" else "slack")
        assert report.iterations > 0 and primal.x1.shape == (inst.n,)
        assert dual.adjoint.shape == (inst.S, inst.n)


def test_reference_proven_infeasible_fails_before_a_worker_starts(monkeypatch):
    """The a-priori verdict of ``solve_hard`` fails the study, with its
    reason and status, before any engine call."""
    monkeypatch.setattr(solvers, "_pdhg_engine", _no_worker)
    with pytest.raises(HomotopyError, match="reference is infeasible: the lowest reachable "
                                            "state exceeds") as raised:
        run_homotopy(_infeasible_tiny(), SCHEDULE, SolverParams())
    assert raised.value.status == solvers.STATUS_INFEASIBLE


def test_overlapped_study_screens_and_certifies_each_solve_once(monkeypatch):
    """A study runs the a-priori hard-mode verdict once, in ``solve_hard``,
    factors its scenario stack once, in one ``schur_factor`` call, and
    runs one certification pass per solve: the reference and each level."""
    inst = io.make_instance("default", n1d=8, scenario_count=4)   # caches still empty
    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module in (problem, solvers, homotopy):     # each module that binds the verdict
        if hasattr(module, "hard_mode_infeasibility"):
            count(module, "hard_mode_infeasibility")
    count(grid, "schur_factor")
    count(certify, "kkt_residuals")
    rep = run_homotopy(inst, SCHEDULE, SolverParams())
    assert rep.reference.converged
    names = ("hard_mode_infeasibility", "schur_factor", "kkt_residuals")
    assert {name: calls.count(name) for name in names} == {
        "hard_mode_infeasibility": 1, "schur_factor": 1, "kkt_residuals": 1 + len(SCHEDULE)}


def test_unconverged_reference_aborts_at_the_first_level_after_it(small_instance, monkeypatch):
    """A reference that stops unconverged aborts the study with its
    message where the first level would start: no level is solved."""
    engine = solvers._pdhg_engine

    def capped(inst, **kwargs):
        return engine(inst, **dict(kwargs, max_iters=50) if inst.mode == "hard" else kwargs)

    monkeypatch.setattr(solvers, "_pdhg_engine", capped)
    log = []
    _record_solves(monkeypatch, log)
    with pytest.raises(HomotopyError, match="reference did not converge "
                                            r"\(status iteration_cap\)") as raised:
        run_homotopy(small_instance, SCHEDULE, SolverParams())
    assert raised.value.status == STATUS_ITERATION_CAP
    assert [name for name, *_ in log] == ["solve_hard"]
    assert log[0][3][2].status == STATUS_ITERATION_CAP


@pytest.mark.parametrize("reason", ["one_cpu", "other_thread"])
def test_study_runs_in_one_process_where_no_worker_may_fork(tiny_instance, monkeypatch,
                                                            use_workers, reason):
    use_workers(1 if reason == "one_cpu" else 2)
    monkeypatch.setattr(solvers, "_EngineWorker", _no_worker)
    params = SolverParams()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if reason == "other_thread":
        thread.start()
    try:
        rep = run_homotopy(tiny_instance, SCHEDULE, params)
    finally:
        release.set()
        if reason == "other_thread":
            thread.join(timeout=10)
    assert rep.reference.converged and not thread.is_alive()
