import multiprocessing
import os
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest

from sassc import certify, homotopy, io, problem, solvers
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
    schedule = schedule or [10.0**k for k in range(len(values))]
    levels = [
        HomotopyLevel(alpha_prime=a, ez2=v, dist_x1=0.0, objective=0.0,
                      kkt_max=0.0, converged=True)
        for a, v in zip(schedule, values)
    ]
    ref = SolveReport("pdhg_hard", 0, "converged", {}, 0.0, 0.0)
    return HomotopyReport(schedule=schedule, levels=levels, slope=None,
                          intercept=None, r_squared=None, zero_slack_levels=[],
                          reference=ref)


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
# the hard reference in a worker process


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
    raise AssertionError("forked an engine worker")


@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_reference_worker_gives_the_one_process_study_bitwise(request, use_workers, preset):
    inst = request.getfixturevalue(f"{preset}_instance")
    use_workers(1)
    alone = run_homotopy(inst, SCHEDULE, SolverParams())
    use_workers(2)
    overlapped = run_homotopy(inst, SCHEDULE, SolverParams())
    assert _study_bits(overlapped) == _study_bits(alone)
    assert multiprocessing.active_children() == []


def test_every_solve_of_the_study_is_made_in_the_calling_process(small_instance, monkeypatch,
                                                                 use_workers):
    """A caller that wraps ``solve_hard`` and ``solve_pdhg`` sees the
    reference and every level, with their full results, whether the
    reference's engine call ran in a worker or not."""
    logs = {}
    for workers in (1, 2):
        use_workers(workers)
        logs[workers] = []
        with monkeypatch.context() as m:
            _record_solves(m, logs[workers])
            run_homotopy(small_instance, SCHEDULE, SolverParams())
    for workers, log in logs.items():
        assert sorted(name for name, *_ in log) == ["solve_hard"] + ["solve_pdhg"] * len(SCHEDULE)
        for name, inst, kwargs, result in log:
            primal, dual, report = result
            assert inst.mode == ("hard" if name == "solve_hard" else "slack")
            assert report.iterations > 0 and primal.x1.shape == (inst.n,)
            assert dual.adjoint.shape == (inst.S, inst.n)
        engine = next(kw.get("engine") for name, _, kw, _ in log if name == "solve_hard")
        assert (engine is None) == (workers == 1)

    def iterations(log):
        return sorted((name, inst.alpha_prime, result[2].iterations)
                      for name, inst, _, result in log)
    assert iterations(logs[2]) == iterations(logs[1])
    assert sum(it for *_, it in iterations(logs[2])) == sum(
        result[2].iterations for *_, result in logs[1])


def test_reference_proven_infeasible_fails_before_a_worker_starts(monkeypatch, use_workers):
    use_workers(2)
    monkeypatch.setattr(solvers, "_EngineWorker", _no_worker)
    monkeypatch.setattr(solvers, "_pdhg_engine", _no_worker)
    with pytest.raises(HomotopyError, match="reference did not converge "
                                            r"\(status infeasibility_suspected\)"):
        run_homotopy(_infeasible_tiny(), SCHEDULE, SolverParams())
    assert multiprocessing.active_children() == []


def test_overlapped_study_screens_and_certifies_each_solve_once(monkeypatch, use_workers):
    """With the reference in a worker, a study runs the a-priori check's 2S
    sparse solves once, although the check runs before the fork and again
    in ``solve_hard``, and one certification pass per solve: the reference
    and each level."""
    use_workers(2)
    inst = io.make_instance("default", n1d=8, scenario_count=4)   # caches still empty
    counts = {"solve_linear": 0, "kkt_residuals": 0}

    def count(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    count(problem, "solve_linear")
    count(certify, "kkt_residuals")
    log = []
    _record_solves(monkeypatch, log)
    rep = run_homotopy(inst, SCHEDULE, SolverParams())
    assert rep.reference.converged
    assert next(kw["engine"] for name, _, kw, _ in log if name == "solve_hard") is not None
    assert counts == {"solve_linear": 2 * inst.S, "kkt_residuals": 1 + len(SCHEDULE)}


def _fail_reference_in_worker(monkeypatch, failure):
    """Make the hard-mode engine call fail by ``failure(engine, rows,
    kwargs)`` when it runs in another process than this one."""
    engine, parent = solvers._pdhg_engine, os.getpid()

    def failing(rows, **kwargs):
        if os.getpid() != parent and rows[0].mode == "hard":
            return failure(engine, rows, kwargs)
        return engine(rows, **kwargs)

    monkeypatch.setattr(solvers, "_pdhg_engine", failing)


def test_unconverged_reference_aborts_at_the_first_level_after_it(small_instance,
                                                                  monkeypatch, use_workers):
    """The worker's pipe is polled after every level, and a reference that
    stopped unconverged aborts the study with the one-process message as
    soon as it is collected."""
    use_workers(2)
    _fail_reference_in_worker(
        monkeypatch, lambda engine, rows, kw: engine(rows, **dict(kw, max_iters=50)))
    # wait at each poll until the reply is there, so the first poll sees it
    monkeypatch.setattr(solvers._EngineWorker, "ready", lambda self: self._conn.poll(60))
    log = []
    _record_solves(monkeypatch, log)
    with pytest.raises(HomotopyError, match="reference did not converge "
                                            r"\(status iteration_cap\)"):
        run_homotopy(small_instance, SCHEDULE, SolverParams())
    assert [name for name, *_ in log] == ["solve_pdhg", "solve_hard"]
    assert log[1][3][2].status == STATUS_ITERATION_CAP
    assert multiprocessing.active_children() == []


def test_reference_worker_exception_is_raised_and_the_worker_reaped(small_instance,
                                                                     monkeypatch, use_workers):
    use_workers(2)

    def failing(engine, rows, kwargs):
        raise FloatingPointError("reference failed")

    _fail_reference_in_worker(monkeypatch, failing)
    with pytest.raises(FloatingPointError, match="reference failed") as info:
        run_homotopy(small_instance, SCHEDULE, SolverParams())
    assert "in failing" in str(info.value.__cause__)    # the worker's traceback
    assert multiprocessing.active_children() == []


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


def test_prefetched_engine_answers_only_the_call_it_started(tiny_instance, use_workers):
    use_workers(2)
    hard = tiny_instance.with_mode("hard")
    params = SolverParams()
    with solvers.prefetch_engine(hard, params) as engine:
        with pytest.raises(ValueError, match="answers only the one call"):
            solvers.solve_hard(hard, replace(params, max_iters=1000), engine=engine)
    with solvers.prefetch_engine(hard, params) as engine:
        x, lam, rep = solvers.solve_hard(hard, params, engine=engine)
        with pytest.raises(ValueError, match="answers only the one call"):
            solvers.solve_hard(hard, params, engine=engine)
    x_ref, lam_ref, rep_ref = solvers.solve_hard(hard, params)
    assert (rep.iterations, rep.status, _bits(rep.residuals)) == (
        rep_ref.iterations, rep_ref.status, _bits(rep_ref.residuals))
    assert x.x1.tobytes() == x_ref.x1.tobytes() and lam.adjoint.tobytes() == lam_ref.adjoint.tobytes()
    assert multiprocessing.active_children() == []
