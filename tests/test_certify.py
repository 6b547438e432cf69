import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sassc import io
from sassc.certify import (
    KKT_CSV_COLUMNS,
    RESIDUAL_NAMES,
    kkt_residuals,
    max_residual,
    multiplier_l1_norms,
    natural_residuals,
)
from sassc.problem import DualPoint, PrimalPoint, project_c1, zeros_dual
from sassc.solvers import SolverParams, solve_barrier_reference, solve_pdhg

import reference_impl
from test_problem import feasible_point


@pytest.fixture(scope="module")
def oracle_pair(tiny_instance):
    return solve_barrier_reference(tiny_instance)


def test_oracle_pair_certifies(tiny_instance, oracle_pair):
    x, lam, rep = oracle_pair
    kkt = kkt_residuals(tiny_instance, x, lam)
    assert kkt.max_residual() <= 1e-4
    assert kkt.passes(1e-4)


def test_plugin_algebra_zero_multipliers(tiny_instance):
    inst = tiny_instance
    x = feasible_point(inst, np.full(inst.n, 0.3))
    lam = zeros_dual(inst)
    rep = kkt_residuals(inst, x, lam)
    assert rep.r2 == 0.0
    assert rep.r5_comp == 0.0
    assert rep.r4 <= 1e-10
    # closed form: r1 = || x1 - P_C1((1 - alpha) x1) ||_h, interior here
    expect_r1 = inst.h * np.linalg.norm(
        x.x1 - project_c1(inst, (1.0 - inst.alpha) * x.x1))
    assert rep.r1 == pytest.approx(expect_r1, rel=1e-12)
    assert rep.r1 > 0.0


def test_r4_linearity_under_point_perturbation(tiny_instance, oracle_pair):
    inst = tiny_instance
    x, lam, _ = oracle_pair
    base = kkt_residuals(inst, x, lam)
    delta, node, k = 1e-3, 5, 1
    xp = x.copy()
    xp.y[k, node] += delta
    rep = kkt_residuals(inst, xp, lam)
    # direct recomputation of the perturbed equality residual
    ops = inst.operators()
    _, g, _ = inst.fields()
    eq = ops[k] @ xp.y[k] - xp.x1 - g[k]
    expect = inst.h * np.linalg.norm(eq)
    assert rep.r4 == pytest.approx(
        max(expect, base.r4), rel=1e-12)


def test_duality_gap_certified_pair(tiny_instance, oracle_pair):
    x, lam, _ = oracle_pair
    gap = kkt_residuals(tiny_instance, x, lam).duality_gap
    rel = gap / (1.0 + abs(kkt_residuals(tiny_instance, x, lam).objective))
    assert rel <= 1e-5
    assert gap >= -1e-9


def test_duality_gap_zero_multiplier(tiny_instance):
    inst = tiny_instance
    x = feasible_point(inst, np.zeros(inst.n))
    from sassc.problem import objective
    assert kkt_residuals(inst, x, zeros_dual(inst)).duality_gap == pytest.approx(
        objective(inst, x), rel=1e-14)


def test_duality_gap_weak_duality_fuzz(tiny_instance):
    inst = tiny_instance
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = feasible_point(inst, rng.uniform(inst.c1_lo, inst.c1_hi),
                           extra=rng.uniform(0, 0.05))
        lam = DualPoint(rng.standard_normal((inst.S, inst.n)),
                        np.abs(rng.standard_normal((inst.S, inst.n))),
                        np.zeros((inst.S, inst.n)))
        assert kkt_residuals(inst, x, lam).duality_gap >= -1e-10


def test_duality_gap_invalid_multiplier_is_infinite(tiny_instance):
    inst = tiny_instance
    x = feasible_point(inst, np.zeros(inst.n))
    lam = zeros_dual(inst)
    lam.obstacle[0, 0] = -1.0
    assert kkt_residuals(inst, x, lam).duality_gap == float("inf")


def test_multiplier_l1_norms_basics(tiny_instance):
    inst = tiny_instance
    lam = zeros_dual(inst)
    assert multiplier_l1_norms(inst, lam) == (0.0, 0.0, 0.0)
    lam.obstacle[:] = 1.0
    _, l1i, _ = multiplier_l1_norms(inst, lam)
    # h = 1/5, n = 16 -> h^2 * 16 = 16/25 per scenario, expectation preserves it
    assert l1i == pytest.approx(16.0 / 25.0, rel=1e-14)
    lam.obstacle[:] *= 3.0
    assert multiplier_l1_norms(inst, lam)[1] == pytest.approx(3.0 * l1i, rel=1e-14)


def test_pairing_norms_constant_field_small_grid():
    inst = io.make_instance("tiny", n1d=3)
    lam = zeros_dual(inst)
    lam.obstacle[:] = 1.0
    assert multiplier_l1_norms(inst, lam)[1] == pytest.approx(9.0 / 16.0, rel=1e-14)


def test_measure_representation_invariance(tiny_instance, tiny_solution):
    """Splitting a scenario into equal halves must not change residuals."""
    inst = tiny_instance
    x, lam, _ = tiny_solution
    p = inst.scenarios.p
    split = replace(inst.scenarios.subset([0, 0, 1, 2]),
                    p=np.array([p[0] / 2, p[0] / 2, p[1], p[2]]))
    inst2 = io.Instance(
        grid=inst.grid, scenarios=split,
        c1_lo=inst.c1_lo, c1_hi=inst.c1_hi, c2_bound=inst.c2_bound,
        y_target=inst.y_target, alpha=inst.alpha, alpha_prime=inst.alpha_prime,
        mode=inst.mode,
    )
    dup = lambda arr: arr[[0, 0, 1, 2]]
    x2 = PrimalPoint(x.x1, dup(x.y), dup(x.z))
    lam2 = DualPoint(dup(lam.adjoint), dup(lam.obstacle), dup(lam.nonant))
    r1 = kkt_residuals(inst, x, lam)
    r2 = kkt_residuals(inst2, x2, lam2)
    for name in ("r1", "r2", "r3", "r3p", "r4", "r5_sign", "r5_feas", "r5_comp"):
        a = getattr(r1, name)
        b = getattr(r2, name)
        assert b == pytest.approx(a, abs=1e-13)
    assert r2.duality_gap == pytest.approx(r1.duality_gap, abs=1e-12)


def test_necessity_sufficiency_roundtrip():
    """Small residuals imply a small gap; the oracle passes certification."""
    for seed in (1, 2, 3, 4, 5):
        inst = io.make_instance("tiny", seed=seed)
        x, lam, rep = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-8))
        kkt = kkt_residuals(inst, x, lam)
        assert kkt.max_residual() <= 1e-8
        assert kkt.relative_gap() <= 1e-6
        xb, lb, repb = solve_barrier_reference(inst)
        kktb = kkt_residuals(inst, xb, lb)
        assert kktb.max_residual() <= 1e-4


def test_complementarity_decomposition(tiny_instance, tiny_solution):
    x, lam, _ = tiny_solution
    kkt = kkt_residuals(tiny_instance, x, lam)
    bound = kkt.l1_lambda_i * kkt.r5_feas + abs(min(kkt.r5_sign, 0.0))
    # at a certified pair both factors are near zero
    assert kkt.r5_comp <= bound + 1e-8


def test_report_helpers(tiny_instance, tiny_solution):
    x, lam, _ = tiny_solution
    kkt = kkt_residuals(tiny_instance, x, lam)
    assert kkt.passes(1e-6, gap_tol=1e-5)
    assert not kkt.passes(1e-16)
    row = kkt.to_csv_row()
    assert len(row.split(",")) == len(KKT_CSV_COLUMNS)


def test_natural_residuals_with_augmented_control_term(tiny_instance, tiny_solution):
    """The augmented residual reduces to the plain one at zero extras."""
    inst = tiny_instance
    x, lam, _ = tiny_solution
    plain = natural_residuals(inst, x, lam)
    aug = natural_residuals(inst, x, lam, x1_extra_quad=0.0, x1_extra_center=None)
    assert plain == aug
    shifted = natural_residuals(inst, x, lam, x1_extra_quad=1.0, x1_extra_center=x.x1)
    # prox-centered at the solution itself: residual unchanged
    assert shifted["r1"] == pytest.approx(plain["r1"], abs=1e-12)
    moved = natural_residuals(inst, x, lam, x1_extra_quad=1.0, x1_extra_center=x.x1 + 1.0)
    assert moved["r1"] > plain["r1"]


# ---------------------------------------------------------------------------
# residuals against their plain definition


@functools.lru_cache(maxsize=None)
def _pool_instance(S: int, index: int, mode: str):
    """Instances on one 3 x 3 grid that differ in scenario draws,
    non-uniform probabilities, weights, box bounds (some on 0 and 1) and
    state bound."""
    rng = np.random.default_rng(100 * S + index)
    d = io.template_dict("tiny", n1d=3, scenario_count=S, seed=20 + index)
    p = rng.uniform(0.2, 1.0, S)
    d["scenarios"]["probabilities"] = (p / p.sum()).tolist()
    d["alpha"] = float(rng.uniform(0.01, 1.0))
    d["alpha_prime"] = float(rng.uniform(0.5, 2.0))
    d["c2"]["M"] = [1.0, 0.5, 2.0][index % 3]
    d["c1"] = [{"lo": 0.0, "hi": 1.0}, {"lo": -2.0, "hi": 2.0},
               {"lo": rng.uniform(-1.0, 0.0, 9).tolist(), "hi": 0.5}][index % 3]
    d["mode"] = mode
    return io.instance_from_dict(d)


def _sprinkle(rng, arr, values=(0.0, -0.0, 1.0, -1.0, 0.5, 2.0), rate=0.2):
    """Put ``values`` (by default signed zeros and values on the bounds) at
    a share ``rate`` of random entries."""
    mask = rng.random(arr.shape) < rate
    arr[mask] = rng.choice(values, size=int(mask.sum()))
    return arr


@settings(max_examples=60, deadline=None)
@given(pick=st.integers(0, 5), S=st.integers(1, 3), mode=st.sampled_from(["slack", "hard"]),
       seed=st.integers(0, 2**32 - 1), quad=st.sampled_from([0.0, 0.05]),
       center=st.booleans(), lin=st.booleans())
def test_natural_residuals_match_reference_bitwise(pick, S, mode, seed, quad, center, lin):
    """``natural_residuals`` has the bits of the plain residuals of the
    pair, and so do the residuals of ``kkt_residuals``."""
    inst = _pool_instance(S, pick, mode)
    n = inst.n
    rng = np.random.default_rng(seed)
    x = PrimalPoint(_sprinkle(rng, 1.5 * rng.standard_normal(n)),
                    *(_sprinkle(rng, rng.standard_normal((S, n))) for _ in range(2)))
    lam = DualPoint(*(_sprinkle(rng, rng.standard_normal((S, n))) for _ in range(3)))
    extra = dict(
        x1_extra_quad=quad,
        x1_extra_center=rng.standard_normal(n) if center else None,
        x1_extra_lin=_sprinkle(rng, rng.standard_normal(n)) if lin else None,
    )
    got = natural_residuals(inst, x, lam, **extra)
    want = reference_impl.natural_residuals(inst, x, lam, **extra)
    assert list(got) == list(want)
    for key, val in want.items():
        assert type(got[key]) is float
        assert np.float64(got[key]).tobytes() == np.float64(val).tobytes(), key
    if quad == 0.0 and not lin:
        single = kkt_residuals(inst, x, lam).residual_dict()
        assert {key for key, val in single.items() if val is not None} == set(want)
        for key, val in want.items():
            assert type(single[key]) is float
            assert np.float64(single[key]).tobytes() == np.float64(val).tobytes(), key


# ---------------------------------------------------------------------------
# the certificate rule


def _former_engine_worst(res: dict) -> float:
    """The worst residual the engine computed before it used
    ``max_residual``: the max of r1, r3, r3p, r4, r5_feas and r5_comp,
    where a later value wins only if larger, so a NaN counted only as r1."""
    worst = res["r1"]
    for key in ("r3", "r3p", "r4", "r5_feas", "r5_comp"):
        if res.get(key) is not None and res[key] > worst:
            worst = res[key]
    return worst


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), slack=st.booleans())
def test_max_residual_matches_former_engine_rule(data, slack):
    """On finite residuals, signed zeros included, the rule gives a float,
    and where r2 = 0 and r5_sign >= 0, as in the engine, it equals the
    engine's former rule."""
    names = [name for name in RESIDUAL_NAMES if slack or name != "r3p"]
    row = {name: data.draw(FINITE) for name in names}
    if not slack:
        row["r3p"] = None       # hard mode has no r3p
    assert type(max_residual(row)) is float
    engine_row = {name: abs(val) for name, val in row.items() if val is not None}
    engine_row["r2"] = data.draw(st.sampled_from([0.0, -0.0]))
    assert max_residual(engine_row) == _former_engine_worst(engine_row)


@pytest.mark.parametrize("name", RESIDUAL_NAMES)
def test_nan_residual_fails_the_certificate(tiny_instance, tiny_solution, name):
    x, lam, _ = tiny_solution
    kkt = kkt_residuals(tiny_instance, x, lam)
    assert kkt.passes()
    bad = replace(kkt, **{name: float("nan")})
    assert np.isnan(max_residual(bad.residual_dict()))
    assert np.isnan(bad.max_residual())
    assert not bad.passes()
