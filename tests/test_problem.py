import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from sassc import grid, io
from sassc.grid import Factorization, build_grid
from sassc.problem import (
    DualPoint,
    Instance,
    PrimalPoint,
    dual_function,
    hard_mode_infeasibility,
    objective,
    project_c1,
    slater_check,
    zeros_dual,
)
from sassc.scenarios import FieldSpec, sample_scenarios

from reference_impl import pairing, project_c2


def one_node_instance(alpha=1.0, alpha_prime=1.0, M=5.0):
    """Single interior node, single deterministic scenario."""
    scen = sample_scenarios(
        FieldSpec(1.0, (), clip=(0.5, 2.0)), FieldSpec(0.0, ()), FieldSpec(10.0, ()),
        S=1, seed=0,
    )
    return Instance(
        grid=build_grid(1), scenarios=scen,
        c1_lo=-5.0, c1_hi=5.0, c2_bound=M,
        y_target=np.zeros(1), alpha=alpha, alpha_prime=alpha_prime,
    )


def feasible_point(inst, x1, extra=None):
    """Exactly feasible point: PDE solutions plus lifted slack."""
    _, g, psi = inst.fields()
    ops = inst.operators()
    y = np.stack([Factorization(ops[k]).solve(x1 + g[k]) for k in range(inst.S)])
    lift = 0.0 if extra is None else extra
    z = np.clip(np.maximum(0.0, y - psi) + lift, -inst.c2_bound, inst.c2_bound)
    return PrimalPoint(x1, y, z)


def test_objective_zero_at_exact_fit(tiny_instance):
    inst = tiny_instance
    zeros = np.zeros((inst.S, inst.n))
    x = PrimalPoint(np.zeros(inst.n), zeros + inst.y_target[None, :], zeros)
    assert objective(inst, x) == 0.0


def test_objective_single_node_arithmetic():
    inst = one_node_instance()
    x = PrimalPoint(np.zeros(1), np.full((1, 1), 2.0), np.zeros((1, 1)))
    # (1/2) * h^2 * (y - y_target)^2 with h = 1/2
    assert objective(inst, x) == pytest.approx(0.5, rel=1e-15)


def test_objective_matches_independent_summation(tiny_instance):
    inst = tiny_instance
    rng = np.random.default_rng(42)
    x = PrimalPoint(
        rng.standard_normal(inst.n),
        rng.standard_normal((inst.S, inst.n)),
        rng.standard_normal((inst.S, inst.n)),
    )
    hh = inst.h * inst.h
    expected = 0.5 * inst.alpha * hh * sum(v * v for v in x.x1)
    for k in range(inst.S):
        track = sum((x.y[k, i] - inst.y_target[i]) ** 2 for i in range(inst.n))
        slack = sum(v * v for v in x.z[k])
        expected += inst.p[k] * hh * 0.5 * (track + inst.alpha_prime * slack)
    assert objective(inst, x) == pytest.approx(expected, rel=1e-14)


def test_pairing_constant_fields():
    p = np.full(4, 0.25)
    u = np.ones((4, 9))
    lam = np.ones((4, 9))
    assert pairing(u, lam, p, 0.25) == pytest.approx(9.0 / 16.0, rel=1e-15)
    assert pairing(u, np.zeros((4, 9)), p, 0.25) == 0.0


def test_pairing_bilinear_fuzz():
    rng = np.random.default_rng(1)
    p = np.array([0.2, 0.3, 0.5])
    for _ in range(25):
        u = rng.standard_normal((3, 7))
        l1 = rng.standard_normal((3, 7))
        l2 = rng.standard_normal((3, 7))
        a, b = rng.standard_normal(2)
        lhs = pairing(u, a * l1 + b * l2, p, 0.125)
        rhs = a * pairing(u, l1, p, 0.125) + b * pairing(u, l2, p, 0.125)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))
        assert pairing(u, l1, p, 0.125) == pytest.approx(
            pairing(l1, u, p, 0.125), rel=1e-14)


def test_projections_clamp():
    inst = one_node_instance(M=1.0)
    v = np.array([1.5, -0.2, -3.0])
    np.testing.assert_allclose(project_c2(inst, v), [1.0, -0.2, -1.0])


def test_projections_idempotent_and_nonexpansive(tiny_instance):
    inst = tiny_instance
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = 3.0 * rng.standard_normal(inst.n)
        v = 3.0 * rng.standard_normal(inst.n)
        for proj in (lambda w: project_c1(inst, w), lambda w: project_c2(inst, w)):
            pu, pv = proj(u), proj(v)
            np.testing.assert_array_equal(proj(pu), pu)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-15


def test_dual_function_zero_multiplier(tiny_instance):
    # 0 in C1 and |y_target| <= M, so every inner minimum vanishes
    assert dual_function(tiny_instance, zeros_dual(tiny_instance)) == 0.0


def test_dual_function_negative_multiplier(tiny_instance):
    lam = zeros_dual(tiny_instance)
    lam.obstacle[0, 0] = -1e-16
    assert dual_function(tiny_instance, lam) == -math.inf


def test_weak_duality_fuzz(tiny_instance):
    inst = tiny_instance
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(100):
        x1 = rng.uniform(inst.c1_lo, inst.c1_hi)
        x = feasible_point(inst, x1, extra=rng.uniform(0.0, 0.1))
        if np.abs(x.y).max() > inst.c2_bound:
            continue
        lam = DualPoint(
            rng.standard_normal((inst.S, inst.n)),
            np.abs(rng.standard_normal((inst.S, inst.n))),
            np.zeros((inst.S, inst.n)),
        )
        assert dual_function(inst, lam) <= objective(inst, x) + 1e-10
        checked += 1
    assert checked >= 90


def test_dual_concavity_along_segments(tiny_instance):
    inst = tiny_instance
    rng = np.random.default_rng(3)
    shape = (inst.S, inst.n)
    for _ in range(20):
        l1 = DualPoint(rng.standard_normal(shape), np.abs(rng.standard_normal(shape)),
                       np.zeros(shape))
        l2 = DualPoint(rng.standard_normal(shape), np.abs(rng.standard_normal(shape)),
                       np.zeros(shape))
        t = rng.uniform()
        mix = DualPoint(t * l1.adjoint + (1 - t) * l2.adjoint,
                        t * l1.obstacle + (1 - t) * l2.obstacle,
                        np.zeros(shape))
        g_mix = dual_function(inst, mix)
        bound = t * dual_function(inst, l1) + (1 - t) * dual_function(inst, l2)
        assert g_mix >= bound - 1e-10


def test_slater_success_on_default_instance():
    inst = io.make_instance("default", n1d=8)
    rep = slater_check(inst)
    assert rep.success
    assert rep.margin >= rep.delta / 2.0


def test_slater_fails_when_box_too_small():
    d = io.template_dict("tiny")
    d["c2"] = {"M": 1e-4}
    inst = io.instance_from_dict(d)
    rep = slater_check(inst)
    assert not rep.success
    assert rep.worst is not None and rep.worst["component"] in ("y_box", "z_box")


def test_slater_requires_slack_mode(tiny_instance):
    with pytest.raises(ValueError):
        slater_check(tiny_instance.with_mode("hard"))


def test_instance_validation():
    scen = sample_scenarios(
        FieldSpec(1.0, (), clip=(0.5, 2.0)), FieldSpec(0.0, ()), FieldSpec(1.0, ()),
        S=1, seed=0,
    )
    grid = build_grid(2)
    ok = dict(grid=grid, scenarios=scen, c1_lo=-1.0, c1_hi=1.0, c2_bound=1.0,
              y_target=np.zeros(4), alpha=1.0, alpha_prime=1.0)
    Instance(**ok)
    for bad in (dict(c1_lo=2.0), dict(c2_bound=0.0), dict(alpha=0.0),
                dict(alpha_prime=-1.0), dict(mode="soft")):
        with pytest.raises(ValueError):
            Instance(**{**ok, **bad})


def test_oracle_solution_feasibility(tiny_instance):
    from sassc.certify import kkt_residuals
    from sassc.solvers import solve_barrier_reference
    inst = tiny_instance
    x, lam, rep = solve_barrier_reference(inst)
    M = inst.c2_bound
    assert np.maximum(inst.c1_lo - x.x1, x.x1 - inst.c1_hi).max() <= 1e-8
    assert np.abs(x.y).max() - M <= 1e-8 and np.abs(x.z).max() - M <= 1e-8
    kkt = kkt_residuals(inst, x, lam)
    assert kkt.r4 <= 1e-8 and kkt.r5_feas <= 1e-8


def _hard(preset="tiny", **changes):
    d = io.template_dict(preset)
    d["mode"] = "hard"
    for path, value in changes.items():
        node = d
        *keys, last = path.split(".")
        for key in keys:
            node = node[key]
        node[last] = value
    return io.instance_from_dict(d)


def test_hard_infeasibility_not_flagged_on_presets():
    for preset in ("tiny", "default"):
        assert hard_mode_infeasibility(_hard(preset)) is None


def test_hard_infeasibility_not_flagged_past_ten_thousand_unknowns():
    """At n1d 200 (40 000 unknowns) the state bounds pass the residual
    gate: the block factorization serves every size."""
    inst = io.make_instance("default", n1d=200, scenario_count=1).with_mode("hard")
    assert hard_mode_infeasibility(inst) is None


@pytest.mark.parametrize("excess, flagged", [(1e-9, False), (1e-3, True)])
def test_hard_infeasibility_margin(excess, flagged):
    """An obstacle below the lowest reachable state counts only beyond the
    margin that covers the solves' roundoff."""
    inst = _hard()
    a, g, _ = inst.fields()
    lowest = np.stack([Factorization(A).solve(inst.c1_lo + g[k])
                       for k, A in enumerate(inst.operators())])
    inst.scenarios._cache[inst.grid.n1d] = (a, g, lowest - excess)
    assert (hard_mode_infeasibility(inst) is not None) == flagged


@pytest.mark.parametrize("changes, reason", [
    ({"scenarios.spec_psi": {"baseline": -1.0, "modes": [], "clip": None}},
     "lowest reachable state exceeds"),
    ({"scenarios.spec_psi": {"baseline": -1.5, "modes": [], "clip": None}},
     "obstacle lies below the state box"),
    ({"c1.lo": -1e3, "c1.hi": -1e3}, "highest reachable state lies below"),
    ({"c1.lo": 1e3, "c1.hi": 1e3}, "lowest reachable state exceeds"),
])
def test_hard_infeasibility_flagged(changes, reason):
    found = hard_mode_infeasibility(_hard(**changes))
    assert found is not None and found.startswith(f"the {reason}")


def test_hard_infeasibility_factors_each_scenario_once():
    """The verdict factors the scenario stack on its first call, every
    scenario in one ``schur_factor`` call, and neither an equal instance on
    the same scenario set nor an in-place edit of the control box factors
    again; the edit gets a fresh verdict."""
    inst = _hard(**{"c1.lo": -1e3, "c1.hi": -1e3})
    with mock.patch.object(grid, "schur_factor", wraps=grid.schur_factor) as factor:
        assert hard_mode_infeasibility(inst).startswith("the highest reachable state")
        assert factor.call_count == 1
        equal = replace(inst)
        assert equal is not inst and equal.c1_hi is not inst.c1_hi
        assert hard_mode_infeasibility(equal).startswith("the highest reachable state")
        inst.c1_hi[:] = 2.0
        assert hard_mode_infeasibility(inst) is None
        assert factor.call_count == 1


def test_hard_infeasibility_bounds_equal_per_bound_solves(monkeypatch):
    """The verdict solves for both state bounds of every scenario in one
    (S, n, 2) solve of the stack's factorization; each (scenario, column)
    pair has the bits of its own solve."""
    solved = []
    solve = Factorization.solve

    def keeping(lu, b):
        solved.append((lu.A, b, solve(lu, b)))
        return solved[-1][2]

    monkeypatch.setattr(Factorization, "solve", keeping)
    inst = _hard("default")
    assert hard_mode_infeasibility(inst) is None
    assert len(solved) == 1
    monkeypatch.undo()
    _, g, _ = inst.fields()
    A, b, both = solved[0]
    assert A is inst.block_operator() and both.shape == (inst.S, inst.n, 2)
    for k in range(inst.S):
        for col, bound in enumerate((inst.c1_lo, inst.c1_hi)):
            assert b[k, :, col].tobytes() == (bound + g[k]).tobytes()
            alone = Factorization(A.block(k)).solve(bound + g[k])
            assert both[k, :, col].tobytes() == alone.tobytes()


def test_hard_infeasibility_requires_hard_mode(tiny_instance):
    with pytest.raises(ValueError):
        hard_mode_infeasibility(tiny_instance)
