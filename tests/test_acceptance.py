"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with ``pytest -s`` to see them).

The default instance is the built-in template (16x16 interior grid, 8
scenarios, seed 7, binding obstacle); the tiny template is small enough
for the dense reference oracle. All tolerances are fixed here, not
calibrated at runtime.
"""

import time

import numpy as np
import pytest

from sassc import io
from sassc.certify import kkt_residuals, multiplier_l1_norms
from sassc.cli import main as cli_main
from sassc.grid import Factorization, mms_convergence_study
from sassc.homotopy import fit_decay_rate, run_homotopy
from sassc.problem import DualPoint, PrimalPoint, dual_function, norm_h, objective, project_c1
from sassc.solvers import (
    BARRIER_REL_GAP,
    SolverParams,
    solve_barrier_reference,
    solve_pdhg,
    solve_progressive_hedging,
)

HOMOTOPY_SCHEDULE = [1.0, 10.0, 100.0, 1000.0, 10000.0]


def report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS  {detail}")


@pytest.fixture(scope="module")
def default_instance():
    return io.make_instance("default")


@pytest.fixture(scope="module")
def default_solution(default_instance):
    t0 = time.perf_counter()
    x, lam, rep = solve_pdhg(default_instance, SolverParams())
    return x, lam, rep, time.perf_counter() - t0


def test_criterion_1_discretization_validity():
    t0 = time.perf_counter()
    rows = mms_convergence_study([7, 15, 31])
    elapsed = time.perf_counter() - t0
    rates = [r.rate for r in rows if r.rate is not None]
    assert len(rates) == 2
    for rate in rates:
        assert 1.85 <= rate <= 2.15
    assert elapsed < 10.0
    report("criterion 1", f"observed rates {[f'{r:.4f}' for r in rates]}, "
                          f"runtime {elapsed:.2f}s < 10s")


def test_criterion_2_kkt_certification(default_instance, default_solution):
    x, lam, rep, elapsed = default_solution
    assert rep.converged
    assert elapsed < 300.0
    kkt = kkt_residuals(default_instance, x, lam)
    tol = 1e-6
    for name in ("r1", "r2", "r3", "r3p", "r4", "r5_feas", "r5_comp"):
        value = getattr(kkt, name)
        assert value <= tol, f"{name} = {value}"
    assert kkt.r5_sign >= -tol
    assert kkt.relative_gap() <= 1e-5
    assert lam.obstacle.max() > 1e-4  # the obstacle genuinely binds
    report("criterion 2", f"max residual {kkt.max_residual():.3e} <= 1e-6, "
                          f"relative gap {kkt.relative_gap():.3e} <= 1e-5, "
                          f"runtime {elapsed:.1f}s < 300s")


def test_criterion_3_oracle_equivalence():
    worst_dx = worst_rel = 0.0
    for seed in (1, 2, 3, 4, 5):
        inst = io.make_instance("tiny", seed=seed)
        xp, _, rp = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-8))
        xb, _, rb = solve_barrier_reference(inst)
        assert rp.converged and rb.converged
        assert rb.objective - rb.dual_value <= BARRIER_REL_GAP * abs(rb.objective)
        dx = norm_h(xp.x1 - xb.x1, inst.h)
        rel = abs(rp.objective - rb.objective) / abs(rb.objective)
        assert dx <= 1e-5, f"seed {seed}: dx1 = {dx}"
        assert rel <= 1e-7, f"seed {seed}: rel obj diff = {rel}"
        worst_dx = max(worst_dx, dx)
        worst_rel = max(worst_rel, rel)
    report("criterion 3", f"5 seeds: worst |dx1|_h {worst_dx:.3e} <= 1e-5, "
                          f"worst relative objective diff {worst_rel:.3e} <= 1e-7")


def test_criterion_4_nonanticipativity_structure(default_instance, default_solution):
    inst = default_instance
    x_pdhg, lam_pdhg, _, _ = default_solution

    # penalty matched to the control curvature scale of the instance
    params = SolverParams(ph_penalty=0.05)
    x_ph, lam_ph, rep_ph, w = solve_progressive_hedging(inst, params)
    assert rep_ph.converged
    assert not rep_ph.extras["projection_active"]

    dx = norm_h(x_ph.x1 - x_pdhg.x1, inst.h)
    assert dx <= 1e-5

    drift = abs(rep_ph.extras["weight_mean_drift"])
    assert drift <= 1e-9

    margin = min((x_ph.x1 - inst.c1_lo).min(), (inst.c1_hi - x_ph.x1).min())
    assert margin > 1e-6
    ident = w + lam_ph.nonant + inst.alpha * x_ph.x1[None, :]
    ident_gap = inst.h * np.linalg.norm(ident, axis=1).max()
    assert ident_gap <= 1e-5

    e_rho = inst.p @ lam_pdhg.nonant
    fp_gap = norm_h(x_pdhg.x1 - project_c1(inst, -e_rho / inst.alpha), inst.h)
    assert fp_gap <= 1e-6
    report("criterion 4", f"|x1_PH - x1_PDHG|_h {dx:.3e} <= 1e-5, "
                          f"weight drift {drift:.1e} <= 1e-9, "
                          f"interior identity {ident_gap:.3e} <= 1e-5, "
                          f"fixed point {fp_gap:.3e} <= 1e-6")


def test_criterion_5_weak_duality_fuzz():
    inst = io.make_instance("tiny")
    _, g, psi = inst.fields()
    ops = inst.operators()
    rng = np.random.default_rng(2024)
    M = inst.c2_bound
    violations = 0
    worst = -np.inf
    for trial in range(1000):
        x1 = rng.uniform(inst.c1_lo, inst.c1_hi)
        y = np.stack([Factorization(ops[k]).solve(x1 + g[k]) for k in range(inst.S)])
        assert np.abs(y).max() <= M  # construction stays inside the state box
        z = np.clip(np.maximum(0.0, y - psi) + rng.uniform(0.0, 0.2, y.shape), -M, M)
        x = PrimalPoint(x1, y, z)
        lam = DualPoint(
            rng.standard_normal((inst.S, inst.n)),
            np.abs(rng.standard_normal((inst.S, inst.n))),
            np.zeros((inst.S, inst.n)),
        )
        gap = dual_function(inst, lam) - objective(inst, x)
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    assert violations == 0
    report("criterion 5", f"1000 trials, 0 violations of weak duality "
                          f"(max dual-minus-primal {worst:.2e} <= 1e-10)")


def test_criterion_6_penalization_limit(default_instance):
    t0 = time.perf_counter()
    rep = run_homotopy(default_instance, HOMOTOPY_SCHEDULE, SolverParams())
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    assert rep.reference.converged
    assert all(lvl.converged for lvl in rep.levels)
    slope, _, _ = fit_decay_rate(rep)
    assert slope <= -0.9
    ez = [lvl.ez2 for lvl in rep.levels]
    assert all(b <= a for a, b in zip(ez, ez[1:]))
    final_dist = rep.levels[-1].dist_x1
    assert final_dist <= 1e-3
    report("criterion 6", f"slope {slope:.3f} <= -0.9, slack energy "
                          f"nonincreasing, final |x1 - x1_hard|_h "
                          f"{final_dist:.3e} <= 1e-3, runtime {elapsed:.0f}s < 900s")


def test_criterion_7_multiplier_integrability():
    norms = {}
    for n1d in (8, 16, 32):
        inst = io.make_instance("default", n1d=n1d)
        x, lam, rep = solve_pdhg(inst, SolverParams())
        assert rep.converged
        norms[n1d] = multiplier_l1_norms(inst, lam)
    ratios = []
    for j, name in enumerate(("lambda_e", "lambda_i", "rho")):
        vals = [norms[k][j] for k in norms]
        ratio = max(vals) / min(vals)
        ratios.append((name, ratio))
        assert ratio < 2.0, f"{name} varies by {ratio}"
    report("criterion 7", "weighted-l1 norms stable across n1d in {8,16,32}: "
           + ", ".join(f"{n} x{r:.3f}" for n, r in ratios))


def test_criterion_8_pipeline_determinism(tmp_path):
    digests = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        inst = base / "instance.json"
        out = base / "solve"
        kkt = base / "kkt.json"
        assert cli_main(["generate", "--preset", "tiny", "--out", str(inst)]) == 0
        assert cli_main(["solve", "--instance", str(inst), "--out", str(out)]) == 0
        assert cli_main(["certify", "--instance", str(inst),
                         "--primal", str(out / "primal.json"),
                         "--dual", str(out / "dual.json"),
                         "--out", str(kkt)]) == 0
        blob = b"".join(
            p.read_bytes()
            for p in (inst, out / "primal.json", out / "dual.json",
                      out / "report.json", kkt, base / "kkt.csv")
        )
        digests.append(blob)
    assert digests[0] == digests[1]
    report("criterion 8", "generate/solve/certify pipelines byte-identical "
                          f"({len(digests[0])} bytes of reports compared)")
