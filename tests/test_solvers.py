import ctypes
import functools
import gc
import itertools
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec

from sassc import cli, grid, io, kernel, problem, solvers
from sassc.certify import (
    RESIDUAL_NAMES,
    kkt_residuals,
    max_residual,
    max_scenario_norm,
    natural_residuals,
    one_nan,
)
from sassc.grid import Factorization
from sassc.problem import DualPoint, PrimalPoint, norm_h, objective, project_c1
from sassc.solvers import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_CAP,
    BarrierSizeError,
    SolverParams,
    _estimate_k_norm,
    _pdhg_engine,
    solve_barrier_reference,
    solve_hard,
    solve_pdhg,
    solve_progressive_hedging,
)

import reference_impl
from test_certify import _pool_instance, _sprinkle


def unconstrained_template(n1d=4, S=2, seed=3):
    """Boxes and obstacle far away: only the PDE equality is active."""
    d = io.template_dict("tiny", n1d=n1d, scenario_count=S, seed=seed)
    d["c1"] = {"lo": -1e6, "hi": 1e6}
    d["c2"] = {"M": 1e6}
    d["scenarios"]["spec_psi"] = {"baseline": 1e6, "modes": [], "clip": None}
    return d


def dense_equality_solution(inst):
    """Independent oracle: eliminate the states and solve the normal
    equations of the equality-constrained quadratic densely."""
    _, g, _ = inst.fields()
    ops = [A.toarray() for A in inst.operators()]
    n, S, p = inst.n, inst.S, inst.p
    lhs = inst.alpha * np.eye(n)
    rhs = np.zeros(n)
    for k in range(S):
        Ainv = np.linalg.inv(ops[k])
        lhs += p[k] * Ainv @ Ainv
        rhs += p[k] * Ainv @ (inst.y_target - Ainv @ g[k])
    x1 = np.linalg.solve(lhs, rhs)
    y = np.stack([np.linalg.solve(ops[k], x1 + g[k]) for k in range(S)])
    return x1, y


def test_pdhg_matches_dense_solve_on_equality_only_instance():
    inst = io.instance_from_dict(unconstrained_template())
    x, lam, rep = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-9))
    assert rep.converged
    x1_ref, y_ref = dense_equality_solution(inst)
    assert norm_h(x.x1 - x1_ref, inst.h) <= 1e-6
    assert np.abs(lam.obstacle).max() == 0.0
    assert np.abs(x.z).max() <= 1e-9


def test_pdhg_converges_on_binding_instance(small_instance, small_solution):
    x, lam, rep = small_solution
    assert rep.converged
    kkt = kkt_residuals(small_instance, x, lam)
    assert kkt.max_residual() <= 1e-6
    assert lam.obstacle.max() > 1e-5  # obstacle actually binds


def test_pdhg_feasible_point_upper_bound():
    """With the target equal to an attainable state, the optimum beats the
    constructing feasible point."""
    d = io.template_dict("tiny", scenario_count=1, seed=2)
    d["scenarios"]["spec_psi"] = {"baseline": 1e6, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    x1_star = np.full(inst.n, 0.5)
    _, g, _ = inst.fields()
    y_star = Factorization(inst.operators()[0]).solve(x1_star + g[0])
    inst.y_target[:] = y_star
    x, lam, rep = solve_pdhg(inst, SolverParams())
    assert rep.converged
    ref = objective(inst, PrimalPoint(x1_star, y_star[None, :], np.zeros((1, inst.n))))
    assert objective(inst, x) <= ref + 1e-8


def test_pdhg_deterministic_bitwise(small_instance):
    params = SolverParams(max_iters=500)
    xa, la, ra = solve_pdhg(small_instance, params)
    xb, lb, rb = solve_pdhg(small_instance, params)
    assert np.array_equal(xa.x1, xb.x1)
    assert np.array_equal(xa.y, xb.y)
    assert np.array_equal(la.adjoint, lb.adjoint)
    assert ra.iterations == rb.iterations


def reference_engine(inst, tol, max_iters, warm=None, x1_extra_quad=0.0,
                     x1_extra_center=None, x1_extra_lin=None):
    """The engine loop in its plain numpy form, one expression per update,
    allocating fresh arrays every iteration. The preallocated engine must
    reproduce it bit for bit."""
    S, n, h = inst.S, inst.n, inst.h
    slack = inst.mode == "slack"
    M = inst.c2_bound
    p = inst.p
    _, g, psi = inst.fields()
    Ablk = inst.block_operator()
    y_t = inst.y_target

    q = x1_extra_quad
    qc = 0.0 if (q == 0.0 or x1_extra_center is None) else q * x1_extra_center
    lin = 0.0 if x1_extra_lin is None else x1_extra_lin

    [k0] = _estimate_k_norm([inst])
    scale = max(1.0, math.sqrt(k0))
    s1 = scale
    sz = scale if slack else 1.0
    ci = scale if slack else max(1.0, k0 / 3.0)
    [knorm] = _estimate_k_norm([inst], s1=s1, sz=sz, ci=ci)
    tau = sigma = math.sqrt(solvers.STEP_SAFETY) / knorm
    tau1 = tau * s1 * s1
    tauz = tau * sz * sz

    if warm is None:
        x1 = project_c1(inst, np.zeros(n))
        y = np.zeros((S, n))
        z = np.zeros((S, n))
        lam_e = np.zeros((S, n))
        lam_ih = np.zeros((S, n))
    else:
        xw, lw = warm
        x1 = xw.x1.copy()
        y = xw.y.copy()
        z = xw.z.copy()
        lam_e = lw.adjoint.copy()
        lam_ih = np.maximum(lw.obstacle, 0.0) / ci

    xb1, yb, zb = x1.copy(), y.copy(), z.copy()
    status = STATUS_ITERATION_CAP
    best_worst = math.inf
    best = None
    it = 0
    while it < max_iters:
        it += 1
        Ay = (Ablk @ yb.ravel()).reshape(S, n)
        lam_e += sigma * (Ay - xb1[None, :] - g)
        ineq = yb - zb if slack else yb
        np.maximum(0.0, lam_ih + sigma * ci * (ineq - psi), out=lam_ih)

        e_lam = 0.0     # p @ lam_e, summed in scenario order
        for pk, lk in zip(p, lam_e):
            e_lam = e_lam + pk * lk
        v1 = x1 + tau1 * (e_lam + qc - lin)
        x1n = np.clip(v1 / (1.0 + tau1 * (inst.alpha + q)), inst.c1_lo, inst.c1_hi)

        Alam = (Ablk @ lam_e.ravel()).reshape(S, n)
        vy = y - tau * (Alam + ci * lam_ih)
        yn = np.clip((vy + tau * y_t[None, :]) / (1.0 + tau), -M, M)
        if slack:
            zn = np.clip((z + tauz * ci * lam_ih) / (1.0 + tauz * inst.alpha_prime), -M, M)
        else:
            zn = z

        theta = 1.0
        xb1 = x1n + theta * (x1n - x1)
        yb = yn + theta * (yn - y)
        zb = zn + theta * (zn - z) if slack else z
        x1, y, z = x1n, yn, zn

        if it % solvers.CHECK_EVERY == 0 or it == max_iters:
            xp = PrimalPoint(x1, y, z)
            lam = DualPoint(lam_e, ci * lam_ih, -lam_e)
            res = reference_impl.natural_residuals(
                inst, xp, lam,
                x1_extra_quad=q, x1_extra_center=x1_extra_center,
                x1_extra_lin=x1_extra_lin,
            )
            worst = max(res["r1"], res["r3"], res.get("r3p", 0.0),
                        res["r4"], res["r5_feas"], res["r5_comp"])
            if worst < best_worst:
                best_worst = worst
                best = (x1.copy(), y.copy(), z.copy(), lam_e.copy(), lam_ih.copy())
            if worst <= tol:
                status = STATUS_CONVERGED
                break
            lam_mag = max(h * reference_impl.max_norm(lam_e),
                          ci * h * reference_impl.max_norm(lam_ih))
            if lam_mag > solvers.DIVERGENCE_THRESHOLD:
                status = STATUS_INFEASIBLE
                break

    if status != STATUS_CONVERGED and best is not None:
        x1, y, z, lam_e, lam_ih = best
    primal = PrimalPoint(x1.copy(), y.copy(), z.copy() if slack else np.zeros((S, n)))
    dual = DualPoint(lam_e.copy(), ci * lam_ih, -lam_e)
    return primal, dual, it, status


def _equivalence_case(inst, case):
    """Engine arguments for one equivalence case on the small instance."""
    if case == "slack":
        return inst, dict(tol=1e-6, max_iters=400_000)
    if case == "hard":
        return inst.with_mode("hard"), dict(tol=1e-6, max_iters=400_000)
    if case == "ph_subproblem":
        sub = replace(inst, scenarios=inst.scenarios.subset([1]))
        rng = np.random.default_rng(5)
        return sub, dict(tol=1e-8, max_iters=400_000, x1_extra_quad=0.05,
                         x1_extra_center=rng.uniform(0.0, 1.0, inst.n),
                         x1_extra_lin=0.1 * rng.standard_normal(inst.n))
    if case == "warm":
        warm = _pdhg_engine(inst, tol=1e-3, max_iters=400_000)[:2]
        return inst, dict(tol=1e-6, max_iters=400_000, warm=warm)
    if case == "cap_137":  # not a multiple of CHECK_EVERY: best-iterate fallback
        return inst, dict(tol=1e-6, max_iters=137)
    if case == "S8":  # enough scenarios for BLAS to sum p @ lam_e in another order
        return io.make_instance("default", n1d=8, scenario_count=8), dict(
            tol=1e-6, max_iters=400_000)
    raise ValueError(case)


@pytest.mark.parametrize("case", ["slack", "hard", "ph_subproblem", "warm", "cap_137", "S8"])
def test_engine_matches_reference_bitwise(small_instance, case):
    inst, kwargs = _equivalence_case(small_instance, case)
    xa, la, ita, sta = _pdhg_engine(inst, **kwargs)
    xb, lb, itb, stb = reference_engine(inst, **kwargs)
    assert (ita, sta) == (itb, stb)
    if case == "cap_137":
        assert sta == STATUS_ITERATION_CAP
    else:
        assert sta == STATUS_CONVERGED
    for a, b in ((xa.x1, xb.x1), (xa.y, xb.y), (xa.z, xb.z), (la.adjoint, lb.adjoint),
                 (la.obstacle, lb.obstacle), (la.nonant, lb.nonant)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_engine_calls_iterate_once_per_check_interval(small_instance, monkeypatch):
    """Each residual check ends one ``iterate`` call that runs the whole
    interval since the last check, and the history hook fires at each."""
    real = kernel.load() or kernel.numpy_steps
    counts, checks = [], []

    def iterate(k, count):
        counts.append(count)
        real.iterate(k, count)

    monkeypatch.setattr(kernel, "load", lambda: SimpleNamespace(bind=real.bind,
                                                                iterate=iterate))
    for case in ("slack", "cap_137"):
        counts.clear()
        checks.clear()
        inst, kwargs = _equivalence_case(small_instance, case)
        _, _, it, _ = _pdhg_engine(inst, history=lambda i, *_: checks.append(i), **kwargs)
        assert len(counts) == math.ceil(it / solvers.CHECK_EVERY) and sum(counts) == it
        assert checks == list(itertools.accumulate(counts))
    assert counts == [50, 50, 37]


def _drawn_stencil(m, diags):
    """A ``grid.Stencil`` on blocks of m x m nodes with the drawn (5, N)
    ``diags`` and the grid's neighbour flags. An entry toward an absent
    neighbour may hold any value, NaN included: no product reads it."""
    r = np.arange(np.shape(diags)[1])
    i, j = r % m, r % (m * m) // m
    stored = np.array([j >= 1, i >= 1, i <= m - 2, j <= m - 2], dtype=np.uint8)
    return grid.Stencil(m, np.array(diags, dtype=float), stored)


TINY = np.finfo(float).smallest_normal     # DBL_MIN
SUBNORMAL = np.finfo(float).smallest_subnormal


def _stand_in(stencil, p, g, psi, **fields):
    """An instance for ``bind`` and ``certify.natural_residuals`` that also
    takes data an ``Instance`` refuses (NaN, a negative weight): ``stencil``
    is the block operator (``_drawn_stencil``), ``p`` (S,), ``g`` and
    ``psi`` (S, n), and ``fields`` the ``mode``, the scalars ``h``,
    ``alpha``, ``alpha_prime`` and ``c2_bound`` and the (n,) arrays
    ``c1_lo``, ``c1_hi`` and ``y_target``."""
    return SimpleNamespace(block_operator=lambda: stencil, fields=lambda: (None, g, psi), p=p,
                           n=np.shape(g)[1], **fields)


def _kernel_case(rng, S, m, slack, qc, lin):
    """The fields of a random ``_stand_in`` on an m x m grid, its steps and
    iterates, and the ``bind`` keywords, with signed zeros, NaN, values on
    the bounds, subnormals of either sign and values in [DBL_MIN, 2 DBL_MIN)
    sprinkled in. In a fifth of the draws tau1 = tauz = 1 and alpha and
    alpha' make the x1 and z prox denominators 1.0, a power of 2 or inf.
    ``M`` is never NaN, as in a real instance (``-M`` would be a -NaN). The
    operator is a five-point stencil with random diagonals."""
    n = m * m

    def rand(*shape, scale=1.0):
        a = scale * rng.standard_normal(shape)
        mask = rng.random(shape) < 0.5
        a[mask] = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5], size=int(mask.sum()))
        tiny = rng.random(shape) < 0.1
        a[tiny] = (rng.choice([-1.0, 1.0], size=int(tiny.sum()))
                   * rng.choice([SUBNORMAL * rng.integers(1, 2**52, size=int(tiny.sum())),
                                 TINY * (1.0 + rng.random(int(tiny.sum())))]))
        a[rng.random(shape) < 0.03] = np.nan
        return a

    def bounds(values):
        a = rng.choice(values, size=n)
        a[rng.random(n) < 0.03] = np.nan
        return a

    step = np.abs(rand(4)) + [0.25, 1.0, 0.25, 0.25]    # tau, ci, tau1, tauz
    q = float(rand(1)[0]) if qc else 0.0
    alpha, alpha_prime, M = rand(3).tolist()
    M = 1.0 if math.isnan(M) else abs(M)
    if rng.random() < 0.2:
        step[2:] = 1.0
        d = rng.choice([1.0, 2.0, 2.0**20, 2.0**-3, np.inf], size=2)
        alpha, alpha_prime = d[0] - 1.0 - q, d[1] - 1.0
    fields = dict(stencil=_drawn_stencil(m, rand(5, S * n)), p=rand(S), g=rand(S, n),
                  psi=rand(S, n), c1_lo=bounds([-1.0, -0.5, -0.0, 0.0]),
                  c1_hi=bounds([0.0, -0.0, 0.5, 1.0]), y_target=rand(n), alpha=alpha,
                  alpha_prime=alpha_prime, c2_bound=M, h=float(np.abs(rand(1))[0]),
                  mode="slack" if slack else "hard")
    state = (rand(n), rand(S, n), rand(S, n), rand(n), *(rand(S, n) for _ in range(4)))
    extras = dict(q=q, center=rand(n) if qc else None, lin=rand(n) if lin else None)
    return fields, step, state, extras


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@settings(max_examples=80, deadline=None)
@given(S=st.integers(1, 5), m=st.integers(1, 4), slack=st.booleans(), qc=st.booleans(),
       lin=st.booleans(), count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_kernel_steps_match_numpy_steps_bitwise(S, m, slack, qc, lin, count, seed):
    """One to three iterations of the C kernel's ``iterate``, which swaps
    the two primal buffers after each and ends with the residual check,
    leave every buffer, the check's included, with the bytes the numpy
    steps leave: signed-zero ties at the bounds and at 0 for lam_ih,
    NaN entries in the operator and the iterates, subnormal slack entries
    divided by 1.0, powers of 2, inf and NaN, grids of m = 1 and 2 (no node
    has every neighbour), the first and last m nodes, odd lengths,
    ``qc``/``lin`` of 0.0, and up to five scenarios summed in
    ``p @ lam_e``."""
    fields, step, state, extras = _kernel_case(np.random.default_rng(seed), S, m, slack, qc,
                                                lin)
    inst = _stand_in(**fields)
    out = []
    for impl in (kernel.numpy_steps, kernel.load()):
        with np.errstate(all="ignore"):
            k = impl.bind(inst, step, state, **extras)
            impl.iterate(k, count)
        out.append(dict(cur=k.cur[0], nxt=k.nxt[0], xb=k.xb[0], duals=k.duals, check=k.check))
    for name in out[0]:
        assert out[0][name].tobytes() == out[1][name].tobytes(), name


def _quotient_cases(rng, size):
    """Subnormal numerators x = +-c 2^-1074 and denominators d, a third of
    them exact ties (c / d a half-integer), a third nudged a few ulps off a
    tie, a third random in [1, inf), 1 % of all NaN, inf or below 1;
    returns x, c, d and the mask of exact ties."""
    c = rng.integers(1, 2**52, size=size).astype(float)
    d = 1.0 + rng.exponential(4.0, size=size)
    third = size // 3
    # exact ties: d = a 2^j (a odd, j >= 1) and c = a 2^(j-1) (2k + 1)
    a = rng.choice([1.0, 3.0, 5.0, 7.0], size=third)
    j = rng.integers(1, 6, size=third)
    k = rng.integers(0, 2**40, size=third) // (a * 2.0**j)
    c[:third], d[:third] = a * 2.0**(j - 1) * (2 * k + 1), a * 2.0**j
    # near ties: d nudged a few ulps off c / (t + 0.5)
    near = slice(third, 2 * third)
    t = np.floor(c[near] / rng.uniform(1.0, 2.0**20, size=third))
    d[near] = np.maximum(1.0, c[near] / (t + 0.5))
    d[near] = d[near] + rng.integers(-3, 4, size=third) * np.spacing(d[near])
    x = rng.choice([-1.0, 1.0], size=size) * c * SUBNORMAL
    special = rng.random(size) < 0.01
    d[special] = rng.choice([np.nan, np.inf, 0.5, 2.0**-30, 0.0, -3.0], size=int(special.sum()))
    exact = np.arange(size) < third
    exact[special] = False
    return x, c, d, exact


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_divides_subnormal_slack_entries_like_ieee_division():
    """The slack block's quotient of a subnormal numerator, which the kernel
    computes without dividing a subnormal, has the bits of numpy's ``/`` on
    102 400 pairs: exact ties (to even), near-ties, either sign, and the
    denominators outside [1, DBL_MAX] that take the plain division."""
    x, c, d, exact = _quotient_cases(np.random.default_rng(2024), 102_400)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = x / d
        q = c / d
        ties = np.abs(np.rint(q) - q) == 0.5
        naive = np.copysign(np.rint(q) * SUBNORMAL, x)   # rint(c / d), no tie fix
    assert exact.sum() > 30_000 and ties[exact].all() and (ties & ~exact).sum() > 5_000
    assert (naive != want).sum() > 1_000

    # one scenario of one node per pair, with unit steps; bind gives every
    # slack entry the z prox denominator 1 + tauz alpha' = 1, and the
    # kernel reads den in place, so each pair's entry is set to its d
    S = x.size
    zeros, inf = np.zeros((S, 1)), np.full(1, np.inf)
    inst = _stand_in(_drawn_stencil(1, np.ones((5, S))), np.ones(S), zeros,
                     np.full((S, 1), 1e300), c1_lo=-inf, c1_hi=inf, y_target=np.zeros(1),
                     alpha=1.0, alpha_prime=0.0, c2_bound=np.inf, h=1.0, mode="slack")
    k = kernel.load().bind(inst, np.ones(4), (zeros[0], zeros, x[:, None], zeros[0], zeros,
                                              zeros, zeros, zeros), q=0.0)
    assert k.struct.contents.den == k.den.ctypes.data
    k.den[-S:] = d
    kernel.load().iterate(k, 1)
    assert k.cur[3].tobytes() == want.tobytes()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_bind_rejects_what_the_steps_cannot_index():
    """The C steps index without bounds, so the sizes of the arrays
    ``bind`` derives and of the stencil are checked."""
    fields, step, state, extras = _kernel_case(np.random.default_rng(0), 2, 3, True, True,
                                                True)
    bind = kernel.load().bind

    def call(state=state, **changes):
        return bind(_stand_in(**dict(fields, **changes)), step, state, **extras)

    call()
    with pytest.raises(ValueError, match="diags has 9 rows, expected 18"):
        call(stencil=_drawn_stencil(3, np.ones((5, 9))))
    with pytest.raises(ValueError, match="lo has"):
        call(c1_lo=fields["c1_lo"][1:])
    with pytest.raises(ValueError, match="(tau_yt|y_target) has"):
        call(y_target=fields["y_target"][1:])
    with pytest.raises(ValueError, match="X has"):
        call(state=(state[0][1:], *state[1:]))


def _bind_check(steps, inst, x1, y, z, lam_e, lam_ih, ci, q=0.0, lin=None, center=None):
    """The buffers of ``steps`` that hold the engine state (x1, y, z, lam_e,
    lam_ih) of ``inst``, so that ``iterate(k, 0)`` runs only the residual
    check into ``k.check``, which starts as 7.0 everywhere; the step sizes,
    which the check does not read, are ones."""
    k = steps.bind(inst, [1.0, ci, 1.0, 1.0], (x1, y, z, x1, y, z, lam_e, lam_ih), q=q,
                   center=center, lin=lin)
    k.check.fill(7.0)
    return k


ON_BOUNDS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0)   # the pool's bounds and M
NON_FINITE = (np.nan, np.inf, -np.inf)


@settings(max_examples=80, deadline=None)
@given(pick=st.integers(0, 5), S=st.integers(1, 3), mode=st.sampled_from(["slack", "hard"]),
       seed=st.integers(0, 2**32 - 1), quad=st.sampled_from([0.0, 0.05]),
       center=st.booleans(), lin=st.booleans(), non_finite=st.booleans())
def test_kernel_check_matches_natural_residuals_bitwise(pick, S, mode, seed, quad, center,
                                                        lin, non_finite):
    """The residual check that ends ``iterate`` (the C kernel's, or the
    numpy steps' without a compiler) writes the bits of
    ``certify.natural_residuals`` of the engine's pair (x, (lam_e, ci
    lam_ih, -lam_e)), of the divergence magnitudes h max_k |lam_e,k| and
    ci h max_k |lam_ih,k|, and of the worst residual by
    ``certify.max_residual`` (NaN when any residual is NaN): instances that
    differ in data, weights, bounds and M, one to three scenarios, slack and
    hard mode (r3p then NaN), the PH extras, and signed zeros, values on the
    bounds and on +-M, and in half the draws NaN and +-inf."""
    inst = _pool_instance(S, pick, mode)
    n = inst.n
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = _sprinkle(rng, 1.5 * rng.standard_normal(shape), ON_BOUNDS)
        return _sprinkle(rng, a, NON_FINITE, rate=0.02) if non_finite else a

    x1, y, z, lam_e, lam_ih = draw(n), *(draw(S, n) for _ in range(4))
    ci = 1.0 + abs(rng.standard_normal())
    extra = dict(x1_extra_quad=quad, x1_extra_center=rng.standard_normal(n) if center else None,
                 x1_extra_lin=draw(n) if lin else None)
    steps = kernel.load() or kernel.numpy_steps
    k = _bind_check(steps, inst, x1, y, z, lam_e, lam_ih, ci, q=quad,
                    center=extra["x1_extra_center"], lin=extra["x1_extra_lin"])
    with np.errstate(invalid="ignore", over="ignore"):
        steps.iterate(k, 0)
        want = natural_residuals(inst, PrimalPoint(x1, y, z),
                                 DualPoint(lam_e, ci * lam_ih, -lam_e), **extra)
        want.update(mag_e=one_nan(inst.h * max_scenario_norm(lam_e)),
                    mag_i=one_nan(ci * inst.h * max_scenario_norm(lam_ih)),
                    worst=one_nan(max_residual(want)))
    assert set(kernel.CHECK_COLUMNS) - set(want) == (set() if mode == "slack" else {"r3p"})
    for name, got in zip(kernel.CHECK_COLUMNS, k.check):
        assert got.tobytes() == np.float64(want.get(name, np.nan)).tobytes(), name


def _zeros_sign_step(steps):
    """One iteration of ``steps`` on one hard-mode instance with two
    scenarios on a 2 x 2 grid, from -0.0 in every primal entry and
    multiplier, with ``qc = q center = -0.0`` (q = 1 and alpha = -1, so the
    x1 prox denominator is 1), a negative dual step that keeps lam_e at
    -0.0, and open bounds; returns the new control and lam_e."""
    S, n = 2, 4
    inf = np.full(n, np.inf)
    inst = _stand_in(_drawn_stencil(2, np.ones((5, S * n))), np.full(S, 0.5), np.zeros((S, n)),
                     np.zeros((S, n)), c1_lo=-inf, c1_hi=inf, y_target=np.zeros(n),
                     alpha=-1.0, alpha_prime=1.0, c2_bound=np.inf, h=1.0, mode="hard")
    x1, y = np.full(n, -0.0), np.full((S, n), -0.0)
    # tau = -0.5 and ci = -2: dual steps -0.5 and 1, y prox denominator 0.5
    k = steps.bind(inst, [-0.5, -2.0, 1.0, 1.0], (x1, y, y, x1, y, y, y, y), q=1.0,
                   center=np.full(n, -0.0))
    steps.iterate(k, 1)
    return k.cur[1], k.duals[0]


@pytest.mark.parametrize("steps", ["kernel", "numpy"])
def test_control_gradient_sums_from_positive_zero(steps):
    """``x1n = 0.0 + p_0 lam_e[0] + p_1 lam_e[1]``: with lam_e, ``qc`` and
    the control at -0.0 the sum is +0.0, and so is the new control; a sum
    started from ``p_0 lam_e[0]`` would be -0.0 and give the control -0.0."""
    if steps == "kernel" and kernel.load() is None:
        pytest.skip("no C compiler on PATH")
    steps = kernel.load() if steps == "kernel" else kernel.numpy_steps
    x1, lam_e = _zeros_sign_step(steps)
    assert np.signbit(lam_e).all() and not lam_e.any()
    assert x1.tobytes() == np.zeros(4).tobytes()


@pytest.mark.parametrize("steps", ["kernel", "numpy"])
def test_check_sums_in_scenario_and_node_order(steps):
    """The check's sums run left to right, which a directed state pins
    where the order changes the value: with p = (1, 1, 1) and h = 0.5,
    ``e_rho`` at node 0 is ``(1e16 - 1e16) + 1 = 1``, so r1 = h, and the
    per-scenario complementarity sums (1e16, -1e16, then 1e16 - 1e16 + 1
    over nodes) add up to 1, so r5_comp = h^2; summed in reverse scenario
    or node order, each would be 0."""
    if steps == "kernel" and kernel.load() is None:
        pytest.skip("no C compiler on PATH")
    steps = kernel.load() if steps == "kernel" else kernel.numpy_steps
    S, n = 3, 4
    inf = np.full(n, np.inf)
    inst = _stand_in(_drawn_stencil(2, np.ones((5, S * n))), np.ones(S), np.zeros((S, n)),
                     np.zeros((S, n)), c1_lo=-inf, c1_hi=inf, y_target=np.zeros(n),
                     alpha=1.0, alpha_prime=1.0, c2_bound=1.0, h=0.5, mode="hard")
    lam_e = np.zeros((S, n))
    lam_e[:, 0] = (-1e16, 1e16, -1.0)
    y, lam_ih = np.zeros((2, S, n))
    y[:, 0], y[2, :3] = (1e16, -1e16, 1e16), (1e16, -1e16, 1.0)
    lam_ih[:, 0], lam_ih[2, :3] = 1.0, 1.0
    k = _bind_check(steps, inst, np.zeros(n), y, np.zeros((S, n)), lam_e, lam_ih, 1.0)
    steps.iterate(k, 0)
    col = dict(zip(kernel.CHECK_COLUMNS, k.check))
    assert (col["r1"], col["r5_comp"]) == (0.5, 0.25)


@pytest.mark.parametrize("steps", ["kernel", "numpy"])
def test_check_worst_residual_counts_each_term(steps):
    """The check's worst residual takes r3p in slack mode only and
    ``max(0, -r5_sign)``, as ``certify.max_residual`` does: with every other
    residual 0, a unit slack entry gives r3p = 1 and a worst residual of 1
    in slack mode and 0 in hard mode (no r3p); an obstacle multiplier entry
    of -2 gives a worst residual of 2 in both, above r3 = r3p = 1."""
    if steps == "kernel" and kernel.load() is None:
        pytest.skip("no C compiler on PATH")
    steps = kernel.load() if steps == "kernel" else kernel.numpy_steps
    S, n = 1, 4
    inf, zeros = np.full(n, np.inf), np.zeros((S, n))
    z, lam_ih = zeros.copy(), zeros.copy()
    z[0, 2], lam_ih[0, 1] = 1.0, -0.5
    cases = [("slack", z, zeros, 1.0), ("hard", z, zeros, 0.0),
             ("slack", zeros, lam_ih, 2.0), ("hard", zeros, lam_ih, 2.0)]
    for mode, z, lam_ih, want in cases:
        inst = _stand_in(_drawn_stencil(2, np.zeros((5, S * n))), np.ones(S), zeros, zeros,
                         c1_lo=-inf, c1_hi=inf, y_target=np.zeros(n), alpha=1.0,
                         alpha_prime=1.0, c2_bound=1.0, h=1.0, mode=mode)
        k = _bind_check(steps, inst, np.zeros(n), zeros, z, zeros, lam_ih, 4.0)
        steps.iterate(k, 0)
        col = dict(zip(kernel.CHECK_COLUMNS, k.check.tolist()))
        res = {name: col[name] for name in RESIDUAL_NAMES if mode == "slack" or name != "r3p"}
        assert col["worst"] == max_residual(res) == want, (mode, want)


def test_engine_falls_back_to_numpy_steps_without_the_kernel(small_instance, monkeypatch):
    """When the kernel cannot be built, the engine runs the numpy steps and
    still matches the reference loop bit for bit."""
    def no_compiler():
        raise FileNotFoundError("cc")

    monkeypatch.setattr(kernel, "_kernel", kernel._UNTRIED)
    monkeypatch.setattr(kernel, "_build", no_compiler)
    bound = []
    real_bind = kernel.numpy_steps.bind
    monkeypatch.setattr(kernel.numpy_steps, "bind",
                        lambda *a, **kw: bound.append(1) or real_bind(*a, **kw))
    assert kernel.load() is None and kernel.load() is None
    for case in ("hard", "ph_subproblem", "cap_137"):
        inst, kwargs = _equivalence_case(small_instance, case)
        xa, la, ita, sta = _pdhg_engine(inst, **kwargs)
        xb, lb, itb, stb = reference_engine(inst, **kwargs)
        assert (ita, sta) == (itb, stb)
        _assert_same_points(xa, la, xb, lb)
    assert bound


def test_kernel_loads_where_a_compiler_is_on_path():
    """A host with ``cc`` runs the kernel, so a test run there covers it
    and not only the numpy fallback."""
    assert (kernel.load() is None) == (shutil.which("cc") is None)


def test_threads_that_load_the_kernel_at_once_build_it_once(monkeypatch):
    """Threads whose first ``load()`` calls overlap, as the homotopy study's
    reference and first level do in a new process, build once; here more
    threads than a 2-CPU host has, switching often."""
    builds = []

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.2)     # long enough for the other threads to arrive
        raise FileNotFoundError("cc")

    monkeypatch.setattr(kernel, "_kernel", kernel._UNTRIED)
    monkeypatch.setattr(kernel, "_build", slow_build)
    threads = [threading.Thread(target=kernel.load) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1 and kernel.load() is None


def test_import_does_not_build_the_kernel():
    """Importing the package starts no process and loads no kernel; the
    first engine call builds it."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = ("import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('started a process at import')\n"
            "subprocess.Popen = refuse\n"
            "import sassc, sassc.cli\n"
            "from sassc import kernel\n"
            "assert kernel._kernel is kernel._UNTRIED\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _assert_same_points(xa, la, xb, lb):
    """Two primal-dual points agree in every array byte."""
    for a, b in ((xa.x1, xb.x1), (xa.y, xb.y), (xa.z, xb.z), (la.adjoint, lb.adjoint),
                 (la.obstacle, lb.obstacle), (la.nonant, lb.nonant)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_engine_leaves_no_reference_cycle(small_instance):
    """With the garbage collector off, the scenario set of an engine call's
    instance dies as soon as the last reference to the instance goes: the
    engine keeps nothing that refers back to it."""
    sub = replace(small_instance, scenarios=small_instance.scenarios.subset([1]))
    ref = weakref.ref(sub.scenarios)
    gc.disable()
    try:
        _pdhg_engine(sub, tol=1e-8, max_iters=137)
        del sub
        assert ref() is None
    finally:
        gc.enable()


def test_engine_diverging_run_keeps_its_best_iterate(monkeypatch):
    """A run that stops on suspected infeasibility returns its best iterate,
    the one with the smallest worst residual at a check, not its last, and
    matches the reference loop bit for bit."""
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", 1e4)
    d = io.template_dict("tiny")
    d["mode"] = "hard"
    d["scenarios"]["spec_psi"] = {"baseline": -1.0, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    worsts = []
    x, lam, it, status = _pdhg_engine(
        inst, tol=1e-8, max_iters=400_000,
        history=lambda i, res, *_: worsts.append(max_residual(res)))
    assert status == STATUS_INFEASIBLE and len(worsts) == it // solvers.CHECK_EVERY
    assert min(worsts) < worsts[-1]
    assert max_residual(natural_residuals(inst, x, lam)) == min(worsts)
    xb, lb, itb, stb = reference_engine(inst, tol=1e-8, max_iters=400_000)
    assert (it, status) == (itb, stb)
    _assert_same_points(x, lam, xb, lb)


def test_engine_row_with_nan_residual_never_converges(tiny_instance, monkeypatch):
    """A run whose check row reports a NaN r3, and so by
    ``certify.max_residual`` a NaN worst residual, keeps no best iterate
    and runs to the iteration cap, where it returns its last iterate,
    although the same run converges after 750 iterations without the NaN."""
    sub = replace(tiny_instance, scenarios=tiny_instance.scenarios.subset([1]))
    assert _pdhg_engine(sub, tol=1e-6, max_iters=3000)[2:] == (750, STATUS_CONVERGED)
    real = kernel.load() or kernel.numpy_steps

    def nan_r3(k, count):
        real.iterate(k, count)
        k.check[kernel.CHECK_COLUMNS.index("r3")] = math.nan
        k.check[kernel.CHECK_COLUMNS.index("worst")] = math.nan

    monkeypatch.setattr(kernel, "load", lambda: SimpleNamespace(bind=real.bind,
                                                                iterate=nan_r3))
    last = []

    def keep_last(i, res, xp, lam):
        last[:] = [xp.copy(), lam.copy()]

    x, lam, it, status = _pdhg_engine(sub, tol=1e-6, max_iters=3000, history=keep_last)
    assert (it, status) == (3000, STATUS_ITERATION_CAP)
    _assert_same_points(x, lam, *last)


def test_direct_csr_matvec_matches_matmul(small_instance):
    """scipy's ``csr_matvec`` into a zeroed buffer, its ``@`` and the
    stencil's own ``@`` give the same bits."""
    A = small_instance.block_operator()
    Ablk = reference_impl.csr(A)
    N = Ablk.shape[0]
    v = np.random.default_rng(2).standard_normal((small_instance.S, small_instance.n))
    v[0, :3] = (-0.0, 0.0, 1e-300)
    out = np.zeros(v.shape)
    csr_matvec(N, N, Ablk.indptr, Ablk.indices, Ablk.data, v, out)
    assert out.ravel().tobytes() == (Ablk @ v.ravel()).tobytes() == (A @ v).tobytes()


# the entries of the vectors the stencil product is tried on
PRODUCT_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, SUBNORMAL, -SUBNORMAL,
                  3 * SUBNORMAL, -(2**51) * SUBNORMAL, 1.0, -2.5)


@settings(max_examples=150, deadline=None)
@given(S=st.integers(1, 3), n1d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_stencil_product_matches_csr_matvec_bitwise(S, n1d, seed, data):
    """``Stencil @ v`` has the bits of scipy's ``csr_matvec`` on the
    stencil's CSR form (``reference_impl.csr``), for one to three stacked
    fields on grids of 1 to 25 nodes (m = 1 and 2 have no node with every
    neighbour), with entries of ``v`` among +-0.0, +-inf, NaN, subnormals
    and a few normal values: an absent neighbour's NaN or inf is never
    multiplied in, and each row sums from +0.0 in ascending column order. Only the sign of a NaN row may
    differ: where a NaN meets a NaN of the other sign (inf - inf makes
    -NaN on x86), IEEE 754 leaves open which one the sum returns, and
    numpy's own ``add`` returns the first operand's in its vector loop and
    the second's in its scalar loop."""
    g = grid.build_grid(n1d)
    A = grid.assemble_operator(
        g, 0.5 + np.random.default_rng(seed).random((S, n1d + 2, n1d + 2)))
    v = np.array(data.draw(st.lists(st.sampled_from(PRODUCT_VALUES), min_size=S * g.n,
                                    max_size=S * g.n)))
    csr = reference_impl.csr(A)
    want = np.zeros(S * g.n)
    csr_matvec(S * g.n, S * g.n, csr.indptr, csr.indices, csr.data, v, want)
    got = A @ v
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("mode", ["slack", "hard"])
@pytest.mark.parametrize("subsets", [[[0], [1], [2], [3]], [[0, 1], [2, 3]], [[0, 1, 2, 3]]])
def test_stacked_k_norms_match_reference_rows(monkeypatch, mode, subsets):
    """One lockstep power iteration over the rows not yet cached gives each
    row the bits of its own plain run, and fills each row's cache entry."""
    inst = io.make_instance("default", n1d=8, scenario_count=4).with_mode(mode)
    subs = [replace(inst, scenarios=inst.scenarios.subset(k)) for k in subsets]
    slack = mode == "slack"
    [first] = _estimate_k_norm(subs[-1:])   # the last row is cached beforehand
    batch_rows = []
    real = solvers.operator_norm_estimate

    def spy(forward, adjoint, weights, **kwargs):
        batch_rows.append(len(weights))
        return real(forward, adjoint, weights, **kwargs)

    monkeypatch.setattr(solvers, "operator_norm_estimate", spy)
    k0 = _estimate_k_norm(subs)
    assert batch_rows == ([len(subs) - 1] if len(subs) > 1 else [])
    assert k0[-1] == first
    scales = [max(1.0, math.sqrt(k)) for k in k0]
    ci = scales if slack else [max(1.0, k / 3.0) for k in k0]
    sz = scales if slack else [1.0] * len(subs)
    knorm = _estimate_k_norm(subs, s1=scales, sz=sz, ci=ci)
    iters = []
    for j, sub in enumerate(subs):
        want0, it0 = reference_impl.k_norm(sub)
        want, it = reference_impl.k_norm(sub, s1=scales[j], sz=sz[j], ci=ci[j])
        assert _same_bits(k0[j], want0) and _same_bits(knorm[j], want)
        assert _estimate_k_norm([sub], s1=scales[j], sz=sz[j], ci=ci[j]) == [knorm[j]]
        iters += [it0, it]
    if len(subs) == 4:      # rows of one batch stop at different iterations
        assert len(set(iters)) > 2
    calls = len(batch_rows)
    assert _estimate_k_norm(subs, s1=scales, sz=sz, ci=ci) == knorm
    assert len(batch_rows) == calls


def test_stacked_k_norms_reject_mixed_rows():
    """Only instances with the same grid, mode and scenario count stack."""
    inst = io.make_instance("tiny")     # nothing cached yet
    others = [inst.with_mode("hard"), io.make_instance("tiny", n1d=5),
              replace(inst, scenarios=inst.scenarios.subset([0]))]
    for other in others:
        with pytest.raises(ValueError, match="share"):
            _estimate_k_norm([inst, other])


def _map_rows(R, S, n1d, mode, seed):
    """R instances on one n1d x n1d grid with S scenarios each, drawn from
    one scenario set with non-uniform probabilities, as the rows of one
    lockstep K-norm estimate."""
    d = io.template_dict("tiny", n1d=n1d, scenario_count=R * S, seed=seed)
    p = np.random.default_rng(seed).uniform(0.2, 1.0, R * S)
    d["scenarios"]["probabilities"] = (p / p.sum()).tolist()
    d["mode"] = mode
    inst = io.instance_from_dict(d)
    return [replace(inst, scenarios=inst.scenarios.subset(range(j * S, (j + 1) * S)))
            for j in range(R)]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@settings(max_examples=60, deadline=None)
@given(R=st.integers(1, 4), S=st.integers(1, 3), n1d=st.integers(1, 4),
       mode=st.sampled_from(["slack", "hard"]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_kernel_k_maps_match_numpy_maps_bitwise(R, S, n1d, mode, seed, data):
    """The K-norm forward map and power step of ``solvers._k_maps`` through
    the C kernel give the bytes of the numpy form (each running row's own
    operator, then ``grid.power_step``) on 1-4 rows of 1-3 scenarios, in
    slack and hard mode, with drawn s1, sz and ci, on grids of m = 1 and 2
    (no node has every neighbour), at inputs with signed zeros and
    subnormals, the step also at a drawn forward result and previous
    Rayleigh quotients, one of them the quotient itself (a stop), while
    the live mask drops rows as the power iteration's stop does."""
    rows = _map_rows(R, S, n1d, mode, seed)
    rng = np.random.default_rng(seed)
    s1, sz, ci = rng.uniform(0.5, 40.0, (3, R))
    drops = data.draw(st.lists(st.lists(st.booleans(), min_size=R, max_size=R), max_size=3))
    masks = [np.ones(R, bool)]
    for drop in drops:
        mask = masks[-1] & ~np.array(drop)
        if mask.any() and (mask != masks[-1]).any():
            masks.append(mask)
    n, Sn = rows[0].n, rows[0].S * rows[0].n
    nx = n + Sn * (2 if mode == "slack" else 1)
    inputs = [[_sprinkle(rng, rng.standard_normal((int(m.sum()), dim)),
                         (0.0, -0.0, SUBNORMAL, -TINY)) for dim in (nx, 2 * Sn)]
              for m in masks]
    out = []
    for impl in (kernel.numpy_steps, kernel.load()):
        live = np.ones(R, bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "load", lambda: impl)
            _, forward, step = solvers._k_maps(rows, s1, sz, ci, live)
        got = []
        for mask, (v, w) in zip(masks, inputs):
            live[:] = mask
            e = forward(v)
            got.append(e.copy())
            lam_prev = np.full(len(v), np.inf)
            got += [a.copy() for a in step(e, v, lam_prev)]
            lam_prev = got[-3].copy()
            lam_prev[1:] = rng.uniform(0.0, 2.0, len(v) - 1)
            e[...] = w
            got += [a.copy() for a in step(e, v, lam_prev)]
        out.append(got)
    for a, b in zip(*out):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@functools.cache
def _kernel_library():
    """The kernel's source compiled and loaded on its own, for the C
    functions that ``kernel.Kernel`` does not wrap."""
    lib = kernel._build()
    lib.weighted_sum.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_int64,)
    lib.weighted_sum.restype = ctypes.c_double
    return lib


# the entries the weighted sums are tried on, besides normal values
SUM_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, SUBNORMAL, -SUBNORMAL, 3 * SUBNORMAL, TINY)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@settings(max_examples=150, deadline=None)
@given(length=st.one_of(st.sampled_from([1, 7, 8, 9, 16, 127, 128, 129, 136, 255, 2000]),
                        st.integers(1, 2000)),
       rate=st.sampled_from([0.0, 0.0, 0.01, 0.2, 1.0, -1.0]), seed=st.integers(0, 2**32 - 1))
def test_kernel_weighted_sums_match_numpy_add_reduce(length, rate, seed):
    """The kernel's weighted sum of the products (w a) b, which scores each
    K-norm power step, has the bits of ``np.add.reduce((w * a) * b,
    axis=-1)``, numpy's pairwise sum of a contiguous row added to 0.0: on
    lengths 1 to 2000, around the 8-term and 128-term block sizes and their
    splits, with values of many magnitudes and, at a drawn rate, +-0.0,
    +-inf, NaN, subnormals and the smallest normal (at rate 1 only those),
    or (rate -1) with every product -0.0, whose sum is +0.0. Only the sign
    of a NaN may differ (``_same_bytes_but_nan_sign``)."""
    rng = np.random.default_rng(seed)
    w, a, b = (rng.standard_normal((1, length)) * 10.0 ** rng.integers(-8, 9, (1, length))
               for _ in range(3))
    if rate < 0:
        w, a, b = np.abs(w), np.zeros_like(a), -np.abs(b)
    for x in (a, b):
        special = rng.random(x.shape) < rate
        x[special] = rng.choice(SUM_VALUES, size=int(special.sum()))
    with np.errstate(all="ignore"):
        want = np.add.reduce((w * a) * b, axis=-1)
    got = _kernel_library().weighted_sum(w.ctypes.data, a.ctypes.data, b.ctypes.data, length)
    assert _same_bytes_but_nan_sign(np.float64(got), want)


def _fresh_k_norm_rows(case, mode):
    """New instances, with nothing cached, of the seed-7 default preset
    (n1d 16, S 8) in ``mode``: its one-scenario PH subsets or the whole."""
    inst = io.make_instance("default", seed=7).with_mode(mode)
    if case == "full":
        return [inst]
    return [replace(inst, scenarios=inst.scenarios.subset([k])) for k in range(inst.S)]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("mode", ["slack", "hard"])
@pytest.mark.parametrize("case", ["ph-subsets", "full"])
def test_k_norm_estimate_is_the_same_with_the_kernel_and_numpy_steps(case, mode):
    """``_estimate_k_norm``, unscaled and with the engine's block scaling
    (both estimates of ``_steps``), gives the same bits when its power steps
    run in the C kernel and in ``kernel.numpy_steps``: on the eight
    one-scenario PH subsets of the seed-7 default preset, one lockstep
    estimate whose rows stop at different steps, and on the whole
    instance, in slack and hard mode."""
    out = []
    for impl in (kernel.numpy_steps, kernel.load()):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "load", lambda: impl)
            out.append(solvers._steps(_fresh_k_norm_rows(case, mode)))
    assert out[0].tobytes() == out[1].tobytes()


def _block_edge(S, m):
    """The (S m^2,) mask of the nodes on the edge of their m x m block."""
    r = np.arange(S * m * m)
    i, j = r % m, r % (m * m) // m
    return (i == 0) | (i == m - 1) | (j == 0) | (j == m - 1)


def _same_bytes_but_nan_sign(a, b):
    """``a`` and ``b`` hold the same bytes, except that a NaN entry of one
    may be a NaN of the other sign in the other: where two NaNs of opposite
    sign meet in ``+``, IEEE 754 leaves open which one the sum returns."""
    a, b = np.ravel(a), np.ravel(b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@settings(max_examples=100, deadline=None)
@given(S=st.integers(1, 3), m=st.integers(1, 9), slack=st.booleans(), edge=st.booleans(),
       count=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_kernel_vector_stencil_matches_numpy_steps_on_non_finite_values(S, m, slack, edge,
                                                                      count, seed):
    """On grids of m = 1 to 9, where the stencil's one loop runs its vector
    body and its remainder at 4 and 8 lanes and, at S = 1 and m <= 2, no
    row has all four neighbours inside the vector, ``iterate`` and the
    K-norm maps ``forward`` and ``power_step`` of the C kernel give the
    bytes of the numpy steps when the operator's diagonals, the iterates
    and the maps' inputs hold +-0.0, +-inf, NaN and subnormals
    (``PRODUCT_VALUES``), in half the draws with every node on a block
    edge at inf or NaN, and so are the entries beyond the zero guards that
    the stencil reads past a vector's ends: the x1 blocks before y and yb,
    the lam_ih block after lam_e, and the other blocks of each K-map row
    and its neighbouring rows. The kernel multiplies an absent neighbour's
    value too, and its bit mask must still add +0.0 for it. Hard mode's y
    is the last block of its primal vectors, and the last K-map row the
    last of its buffer. Only the sign of a NaN may differ
    (``_same_bytes_but_nan_sign``); the check writes the one quiet NaN, so
    its bytes are compared whole."""
    rng = np.random.default_rng(seed)
    n, N = m * m, S * m * m
    values = np.array(PRODUCT_VALUES)
    non_finite = [np.inf, -np.inf, np.nan]

    def draw(*shape, on_edge=False):
        a = rng.choice(values, size=shape)
        if edge and on_edge:
            rows, mask = a.reshape(-1, N), _block_edge(S, m)
            rows[:, mask] = rng.choice(non_finite, size=(len(rows), mask.sum()))
        return a

    def beside(a, at):
        """``a`` with its entries ``at`` inf or NaN when ``edge``"""
        if edge:
            a[..., at] = rng.choice(non_finite, size=a[..., at].shape)
        return a

    fields, step, _, extras = _kernel_case(rng, S, m, slack, qc=False, lin=False)
    stencil = _drawn_stencil(m, draw(5, N))
    fields.update(stencil=stencil, g=draw(S, n), psi=draw(S, n))
    lam_ih = draw(S, n)
    lam_ih.reshape(-1)[:m] = beside(lam_ih.reshape(-1)[:m], slice(None))
    state = (beside(draw(n), slice(-m, None)), draw(S, n, on_edge=True), draw(S, n),
             beside(draw(n), slice(-m, None)), draw(S, n, on_edge=True), draw(S, n),
             draw(S, n, on_edge=True), lam_ih)
    mode = "slack" if slack else "hard"
    row = SimpleNamespace(S=S, n=n, mode=mode, p=rng.uniform(0.1, 1.0, S), h=0.5,
                          block_operator=lambda: stencil)
    nx = n + N * (2 if slack else 1)
    v, w = draw(2, nx), draw(2, 2 * N, on_edge=True)
    v[:, n:n + N] = draw(2, N, on_edge=True)
    beside(v, np.r_[:n, n + N:nx])
    beside(w, slice(N, None))
    coef = rng.uniform(0.5, 40.0, (2, 4))
    lam_prev = rng.uniform(0.0, 2.0, 2)
    out = []
    for impl in (kernel.numpy_steps, kernel.load()):
        with np.errstate(all="ignore"):
            k = impl.bind(_stand_in(**fields), step, state, **extras)
            impl.iterate(k, count)
            maps = impl.bind_maps([row, row], coef)
            buf = kernel.map_buffers(maps, np.array([0, 1]))
            impl.forward(maps, buf, v)
            e = buf.e.copy()
            buf.e[...] = w
            buf.t[:, :n] = 1.0      # the caller's control block
            v_next, lam, stop, zero = impl.power_step(maps, buf, v, lam_prev)
        out.append(dict(cur=k.cur[0], nxt=k.nxt[0], xb=k.xb[0], duals=k.duals, check=k.check,
                        forward=e, adjoint=buf.t.copy(), v_next=v_next.copy(), lam=lam.copy(),
                        flags=np.array([stop, zero])))
    numpy_out, kernel_out = out
    for name in ("check", "flags"):
        assert numpy_out.pop(name).tobytes() == kernel_out.pop(name).tobytes(), name
    for name in numpy_out:
        assert _same_bytes_but_nan_sign(numpy_out[name], kernel_out[name]), name


def _zeros_at(address: int, count: int) -> bool:
    """The ``count`` doubles at ``address`` are all +0.0."""
    return bytes((ctypes.c_double * count).from_address(address)) == bytes(8 * count)


@pytest.mark.parametrize("mode", ["slack", "hard"])
def test_stencil_vectors_sit_between_zero_guards(mode):
    """Every vector the stencil reads has at least m zero entries on each
    side inside its buffer, a multiple of 8 and so whole cache lines,
    before and after an engine call has run on it: y in the current, next
    and extrapolated primal vectors, lam_e in the duals, and each row's y
    in the K-norm iterate ``v`` and each row of its forward result ``e``
    (their rows lie a guard apart, with a guard before the first and after
    the last). m = 9 gives guards of 16 entries."""
    inst = io.make_instance("default", n1d=9, scenario_count=2).with_mode(mode)
    n, NS = inst.n, inst.S * inst.n
    [step] = solvers._steps([inst])
    for impl in (kernel.numpy_steps, kernel.load()):
        if impl is None:
            continue
        zeros = np.zeros((inst.S, n))
        k = impl.bind(inst, step, (np.ones(n), zeros + 1, zeros + 1, np.ones(n), zeros + 1,
                                   zeros + 1, zeros + 1, zeros + 1), q=0.0)
        impl.iterate(k, 3)
        pad = k.pad
        assert pad >= 9 and pad % 8 == 0
        for _, _, y, _ in (k.cur, k.nxt, k.xb):
            at = y.ctypes.data
            assert _zeros_at(at - 8 * pad, pad) and _zeros_at(at + 8 * NS, pad)
        at = k.duals.ctypes.data
        assert _zeros_at(at - 8 * pad, pad) and _zeros_at(at + 8 * NS, pad)
        maps = impl.bind_maps([inst, inst], np.ones((2, 4)))
        buf = kernel.map_buffers(maps, np.array([0, 1]))
        impl.forward(maps, buf, np.ones(buf.v.shape))
        for rows, width in ((buf.v, buf.v.shape[1]), (buf.e, buf.e.shape[1])):
            assert rows.strides[0] == 8 * (width + pad)
            for row in rows:
                at = row.ctypes.data
                assert _zeros_at(at - 8 * pad, pad) and _zeros_at(at + 8 * width, pad)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_stencil_interior_loop_is_vectorized(tmp_path):
    """gcc vectorizes the one loop of the kernel's ``stencil()``, which
    every PDHG iteration, check and K-norm map runs: a select on a uint8
    neighbour flag leaves that loop scalar, so the absent neighbours are
    masked by bits. The loop is found by its source text, not by a line
    number. Skipped where the compiler rejects ``-fopt-info`` or writes no
    gcc vectorizer notes."""
    lines = list(enumerate(kernel.SOURCE.splitlines(), start=1))
    start = next(i for i, s in lines if s.startswith("static void stencil("))
    loop = next(i for i, s in lines[start:] if "r < N; r++)" in s)
    src = tmp_path / "kernel.c"
    src.write_text(kernel.SOURCE)
    run = subprocess.run(["cc", *kernel.FLAGS, "-fopt-info-vec-optimized", "-c", "-o",
                          str(tmp_path / "kernel.o"), str(src)],
                         capture_output=True, text=True, timeout=120)
    if run.returncode != 0 or "optimized:" not in run.stderr:
        pytest.skip(f"no gcc vectorizer notes: {run.stderr.strip()[:200]}")
    assert any(f"kernel.c:{loop}:" in note and "loop vectorized" in note
               for note in run.stderr.splitlines()), run.stderr


def test_bind_reuses_the_cached_stencil(monkeypatch):
    """The operator is assembled once per scenario set and grid, from every
    scenario's field in one call, and cached there as the one copy: the
    K-norm maps of the step sizes and two ``bind`` calls on the instance
    point the kernel at the arrays of ``block_operator()``, and
    ``operators()`` returns views of its blocks."""
    calls = []
    build = problem.assemble_operator
    monkeypatch.setattr(problem, "assemble_operator",
                        lambda *args: calls.append(1) or build(*args))
    inst = io.make_instance("tiny")
    [step] = solvers._steps([inst])
    A = inst.block_operator()
    [cached] = [v for v in inst.scenarios._cache.values() if isinstance(v, grid.Stencil)]
    assert cached is A
    assert all(op.diags.base is A.diags.base for op in inst.operators())
    zeros = np.zeros((inst.S, inst.n))
    state = (np.zeros(inst.n), zeros, zeros, np.zeros(inst.n), zeros, zeros, zeros, zeros)
    if kernel.load() is not None:
        [struct] = kernel.load().bind_maps([inst], np.ones((1, 4))).keep[0]
        assert (struct.diags, struct.stored) == (A.diags.ctypes.data, A.stored.ctypes.data)
        for _ in range(2):
            k = kernel.load().bind(inst, step, state, q=0.0)
            assert k.struct.contents.diags == A.diags.ctypes.data
            assert k.struct.contents.stored == A.stored.ctypes.data
    assert len(calls) == 1


@pytest.mark.parametrize("extras", [False, True], ids=["no-extras", "lin-center"])
@pytest.mark.parametrize("mode", ["slack", "hard"])
def test_kernel_buffers_are_64_byte_aligned(mode, extras):
    """Every buffer the steps and the K-norm maps read or write starts on a
    64-byte boundary, whatever offsets numpy would give it: the batch of
    ``bind`` (and every pointer of the ``_Batch`` the kernel gets), the
    arrays of the assembled stencil, and the maps' ``v``, ``e``, ``t`` and
    ``weights`` of ``map_buffers`` (and the kernel's pointers to them), on
    a grid of n = 25 nodes, not a multiple of 8, where the first row of
    ``v`` and of ``e`` starts after a zero guard."""
    inst = io.make_instance("default", n1d=5, scenario_count=3).with_mode(mode)
    [step] = solvers._steps([inst])
    rng = np.random.default_rng(0)
    x1, y = rng.standard_normal(inst.n), rng.standard_normal((inst.S, inst.n))
    given = dict(q=0.5, center=rng.standard_normal(inst.n), lin=rng.standard_normal(inst.n))
    for impl in (kernel.numpy_steps, kernel.load()):
        if impl is None:
            continue
        k = impl.bind(inst, step, (x1, y, y, x1, y, y, y, y),
                      **(given if extras else dict(q=0.0)))
        arrays = dict(cur=k.cur[0], nxt=k.nxt[0], xb=k.xb[0], best=k.best[0],
                      best_duals=k.best_duals)
        arrays.update((name, getattr(k, name)) for name in kernel._ARRAYS)
        assert arrays["p"] is not inst.p and arrays["y_target"] is not inst.y_target
        A = inst.block_operator()
        addresses = {name: a.ctypes.data for name, a in arrays.items()}
        addresses.update(diags=A.diags.ctypes.data, stored=A.stored.ctypes.data)
        if impl is not kernel.numpy_steps:
            addresses.update((name, getattr(k.struct.contents, name)) for name in
                             ("diags", "stored", "work", "X", "Xn", "Xb", *kernel._ARRAYS))
        maps = impl.bind_maps([inst, inst], np.ones((2, 4)))
        for idx in ([0, 1], [1]):
            buf = kernel.map_buffers(maps, np.array(idx))
            addresses.update({f"{name}{idx}": getattr(buf, name).ctypes.data
                              for name in ("v", "e", "t", "weights")})
            if impl is not kernel.numpy_steps:
                addresses.update({f"struct {name}{idx}": getattr(buf.struct, name)
                                  for name in ("v", "e", "t", "weights")})
        misaligned = {name: a % 64 for name, a in addresses.items() if a % 64}
        assert not misaligned, misaligned


def _dense_k_norm(inst, s1=1.0, sz=1.0, ci=1.0):
    """Spectral norm of the rescaled constraint map K between the weighted
    spaces of the power iteration, ||W_c^1/2 K W_d^-1/2||_2, from the top
    eigenvalue of the dense Gram matrix."""
    S, n, slack = inst.S, inst.n, inst.mode == "slack"
    SN = S * n
    eye, zeros = np.eye(SN), np.zeros((SN, SN))
    top = [-s1 * np.tile(np.eye(n), (S, 1)), inst.block_operator().toarray()]
    bottom = [np.zeros((SN, n)), ci * eye]
    if slack:
        top.append(zeros)
        bottom.append(-ci * sz * eye)
    K = np.block([top, bottom])
    w_block = np.repeat(inst.p * inst.h * inst.h, n)
    w_dom = np.concatenate([np.full(n, inst.h * inst.h)] + [w_block] * (2 if slack else 1))
    w_cod = np.concatenate([w_block, w_block])
    M = np.sqrt(w_cod)[:, None] * K / np.sqrt(w_dom)
    return math.sqrt(np.linalg.eigvalsh(M @ M.T)[-1])


def _ph_subproblems(seed):
    inst = io.make_instance("default", n1d=16, scenario_count=8, seed=seed)
    return [replace(inst, scenarios=inst.scenarios.subset([k])) for k in range(inst.S)]


@pytest.mark.parametrize("rows", [
    lambda: [io.make_instance("tiny")],
    lambda: [io.make_instance("tiny").with_mode("hard")],
    lambda: [io.make_instance("default", n1d=8, scenario_count=4)],
    lambda: _ph_subproblems(7) + _ph_subproblems(1007) + _ph_subproblems(2007),
], ids=["tiny", "tiny-hard", "default-n1d8-S4", "ph-n1d16-seeds-7-1007-2007"])
def test_k_norm_estimate_bounds_dense_norm(rows):
    """The cached K-norm estimate, unscaled and with the engine's block
    scaling, is an upper bound of the dense weighted norm. The power
    iteration can stop below the top eigenvalue; its 1.01 factor is the
    margin that keeps the step sizes safe (smallest ratio here: 1.004)."""
    rows = rows()
    k0 = _estimate_k_norm(rows)
    slack = rows[0].mode == "slack"
    scales = [max(1.0, math.sqrt(k)) for k in k0]
    ci = scales if slack else [max(1.0, k / 3.0) for k in k0]
    sz = scales if slack else [1.0] * len(rows)
    knorm = _estimate_k_norm(rows, s1=scales, sz=sz, ci=ci)
    for j, sub in enumerate(rows):
        assert k0[j] >= _dense_k_norm(sub)
        assert knorm[j] >= _dense_k_norm(sub, s1=scales[j], sz=sz[j], ci=ci[j])


def test_pdhg_residual_trend_and_bounded_gap(small_instance):
    from sassc.problem import dual_function
    hist = []
    gaps = []
    def hook(it, res, xp, lam):
        hist.append(max(res["r1"], res["r3"], res.get("r3p", 0.0),
                        res["r4"], res["r5_feas"], res["r5_comp"]))
        gaps.append(objective(small_instance, xp) - dual_function(small_instance, lam))
    _pdhg_engine(small_instance, tol=1e-6, max_iters=20000, history=hook)
    quarter = max(1, len(hist) // 4)
    assert hist[-1] < min(hist[:quarter])
    # the primal-dual gap sequence stays bounded along the iteration
    assert np.isfinite(gaps).all()
    assert max(abs(g) for g in gaps) <= 10.0 * (1.0 + abs(gaps[0]))


def test_history_csv_is_written_whole_or_not_at_all(tiny_instance, tmp_path, monkeypatch):
    """The history CSV has the bytes of the plain streaming writer, and a
    solve that raises leaves neither the CSV nor its temporary file."""
    path = tmp_path / "hist.csv"
    params = SolverParams(max_iters=500)

    def solve_with_history():
        with cli._history_writer(tiny_instance, str(path)) as history:
            solve_pdhg(tiny_instance, params, history=history)

    solve_with_history()
    want = tmp_path / "want.csv"
    with open(want, "w") as fh:
        fh.write(path.read_text().splitlines(keepends=True)[0])
        _pdhg_engine(tiny_instance, tol=params.kkt_tolerance, max_iters=500,
                     history=reference_impl.history_writer(tiny_instance, fh))
    assert path.read_bytes() == want.read_bytes()
    assert len(path.read_text().splitlines()) == 11

    engine = solvers._pdhg_engine

    def failing(*args, **kwargs):
        engine(*args, **kwargs)
        raise FloatingPointError("engine failed")

    path.unlink()
    monkeypatch.setattr(solvers, "_pdhg_engine", failing)
    with pytest.raises(FloatingPointError, match="engine failed"):
        solve_with_history()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["want.csv"]


def test_iteration_cap_reported(small_instance):
    x, lam, rep = solve_pdhg(small_instance, SolverParams(max_iters=10))
    assert rep.status == "iteration_cap"
    assert not rep.converged


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(kkt_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverParams(kkt_tolerance=2.0)
    with pytest.raises(ValueError):
        SolverParams(max_iters=0)
    with pytest.raises(ValueError, match="integer"):
        SolverParams(max_iters=1.5)
    for name in ("kkt_tolerance", "ph_penalty"):
        for value in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match=name):
                SolverParams(**{name: value})


def test_solver_params_rejects_bools():
    """A bool is an integer to Python, but ``max_iters=True`` is no
    iteration cap of 1 and ``ph_penalty=True`` no penalty of 1."""
    with pytest.raises(ValueError, match="max_iters must be an integer, got True"):
        SolverParams(max_iters=True)
    for name in ("kkt_tolerance", "ph_penalty"):
        for value in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite, got "
                                                 f"{value}"):
                SolverParams(**{name: value})


def test_solve_hard_inactive_obstacle_matches_slack():
    d = unconstrained_template(S=2)
    slack_inst = io.instance_from_dict(d)
    hard_inst = slack_inst.with_mode("hard")
    xs, _, rs = solve_pdhg(slack_inst, SolverParams(kkt_tolerance=1e-8))
    xh, lamh, rh = solve_hard(hard_inst, SolverParams(kkt_tolerance=1e-8))
    assert rs.converged and rh.converged
    assert norm_h(xs.x1 - xh.x1, slack_inst.h) <= 1e-6
    assert np.abs(xh.z).max() == 0.0


def test_solve_hard_requires_hard_mode(tiny_instance):
    with pytest.raises(ValueError):
        solve_hard(tiny_instance, SolverParams())


def test_solve_hard_binding_complementarity(tiny_instance):
    inst = tiny_instance.with_mode("hard")
    x, lam, rep = solve_hard(inst, SolverParams())
    assert rep.converged
    kkt = kkt_residuals(inst, x, lam)
    assert kkt.r5_comp <= 1e-6
    assert lam.obstacle.max() > 1e-5


def test_solve_hard_vs_barrier_oracle(tiny_instance):
    inst = tiny_instance.with_mode("hard")
    x, _, rep = solve_hard(inst, SolverParams(kkt_tolerance=1e-8))
    xb, _, repb = solve_barrier_reference(inst)
    assert rep.converged and repb.converged
    assert norm_h(x.x1 - xb.x1, inst.h) <= 1e-5


def test_hard_infeasible_detected(monkeypatch):
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", 1e4)
    d = io.template_dict("tiny")
    d["mode"] = "hard"
    d["scenarios"]["spec_psi"] = {"baseline": -1.0, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    x, lam, rep = solve_pdhg(inst, SolverParams())
    assert rep.status == "infeasibility_suspected"


def test_hard_infeasible_stops_before_iterating():
    d = io.template_dict("tiny")
    d["mode"] = "hard"
    d["scenarios"]["spec_psi"] = {"baseline": -1.0, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    x, lam, rep = solve_pdhg(inst, SolverParams())
    assert (rep.status, rep.iterations) == (STATUS_INFEASIBLE, 0)
    assert "lowest reachable state" in rep.extras["infeasibility"]
    assert np.array_equal(x.x1, project_c1(inst, np.zeros(inst.n)))


def test_nonanticipativity_density_is_the_negated_adjoint(tiny_instance, tiny_solution):
    """With the identity control-to-load map, each solver reports
    ``rho_k = -lam_e_k`` scenario by scenario, bitwise."""
    duals = [tiny_solution[1], solve_barrier_reference(tiny_instance)[1],
             solve_progressive_hedging(tiny_instance, SolverParams(ph_penalty=0.05))[1]]
    for lam in duals:
        assert lam.nonant.shape == (tiny_instance.S, tiny_instance.n)
        assert lam.nonant.tobytes() == (-lam.adjoint).tobytes()


# ---------------------------------------------------------------------------
# progressive hedging


def test_ph_single_scenario_converges_immediately():
    d = io.template_dict("tiny", scenario_count=1, seed=4)
    inst = io.instance_from_dict(d)
    x, lam, rep, w = solve_progressive_hedging(inst, SolverParams())
    assert rep.converged
    assert rep.iterations == 1
    assert np.abs(w).max() == 0.0
    xd, _, _ = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-8))
    assert norm_h(x.x1 - xd.x1, inst.h) <= 1e-5


def test_ph_matches_pdhg(small_instance):
    params = SolverParams(ph_penalty=0.05)
    xp, lamp, repp, w = solve_progressive_hedging(small_instance, params)
    assert repp.converged
    xd, _, _ = solve_pdhg(small_instance, SolverParams(kkt_tolerance=1e-8))
    assert norm_h(xp.x1 - xd.x1, small_instance.h) <= 1e-5


def test_ph_weights_mean_zero_and_interior_identity(small_instance):
    inst = small_instance
    params = SolverParams(ph_penalty=0.05)
    x, lam, rep, w = solve_progressive_hedging(inst, params)
    assert rep.converged
    assert not rep.extras["projection_active"]
    assert abs(rep.extras["weight_mean_drift"]) <= 1e-9
    # consensus strictly inside the control box
    margin = min((x.x1 - inst.c1_lo).min(), (inst.c1_hi - x.x1).min())
    assert margin > 1e-6
    ident = w + lam.nonant + inst.alpha * x.x1[None, :]
    gap = inst.h * np.linalg.norm(ident, axis=1).max()
    assert gap <= 10.0 * params.kkt_tolerance


def reference_ph(inst, params):
    """Progressive hedging as a sequential sweep: one reference engine run
    per scenario subproblem, stopping the round at the first subproblem that
    fails. The solver must reproduce it bit for bit."""
    S, n = inst.S, inst.n
    r = params.ph_penalty
    subs = [replace(inst, scenarios=inst.scenarios.subset([k])) for k in range(S)]
    w = np.zeros((S, n))
    x_hat = np.zeros(n)
    x1s = np.zeros((S, n))
    y, z = np.zeros((S, n)), np.zeros((S, n))
    lam_e, lam_i = np.zeros((S, n)), np.zeros((S, n))
    warm_state = [None] * S
    status = STATUS_ITERATION_CAP
    gap = math.inf
    projection_active = False
    drift_log = []
    outer = 0
    inner_total = 0
    for outer in range(1, solvers.PH_MAX_OUTER + 1):
        first = outer == 1
        failed = None
        for k in range(S):
            xk, lk, it_k, st_k = reference_engine(
                subs[k], tol=solvers.PH_INNER_TOLERANCE,
                max_iters=params.max_iters, warm=warm_state[k],
                x1_extra_quad=0.0 if first else r,
                x1_extra_center=None if first else x_hat,
                x1_extra_lin=None if first else w[k],
            )
            inner_total += it_k
            warm_state[k] = (xk, lk)
            x1s[k], y[k], z[k] = xk.x1, xk.y[0], xk.z[0]
            lam_e[k], lam_i[k] = lk.adjoint[0], lk.obstacle[0]
            if st_k != STATUS_CONVERGED:
                failed = st_k
                break
        if failed is None:
            mean = inst.p @ x1s
            x_hat = project_c1(inst, mean)
            if not np.array_equal(x_hat, mean):
                projection_active = True
            w += r * (x1s - x_hat[None, :])
            drift_log.append(inst.h * float(np.linalg.norm(inst.p @ w)))
        gap = inst.h * float(np.linalg.norm(x1s - x_hat[None, :], axis=1).max())
        if failed is not None:
            status = failed
            break
        if gap <= params.kkt_tolerance:
            status = STATUS_CONVERGED
            break
    primal = PrimalPoint(x_hat.copy(), y, z)
    dual = DualPoint(lam_e, lam_i, -lam_e)
    rep = kkt_residuals(inst, primal, dual)
    extras = {
        "consensus_gap": gap,
        "weight_mean_drift": max(drift_log) if drift_log else 0.0,
        "projection_active": projection_active,
        "inner_iterations": inner_total,
    }
    return primal, dual, (outer, status, rep.residual_dict(), rep.objective,
                          rep.dual_value, extras), w


@pytest.fixture(scope="module")
def ph_references():
    """Sequential-sweep references of the PH cases, computed once per case."""
    return {}


def _ph_case(small_instance, references, case):
    inst, params = small_instance, SolverParams(ph_penalty=0.05)
    if case.startswith("cap_") and case[4:].isdigit():
        params = replace(params, max_iters=int(case[4:]))
    elif case == "cap_at_scenario_2":
        # scenarios 0 and 1 converge within the cap, scenarios 2 and 3 do not
        inst = io.make_instance("default", n1d=8, scenario_count=4, seed=6)
        params = replace(params, max_iters=2050)
    if case not in references:
        references[case] = reference_ph(inst, params)
    return inst, params, references[case]


def _assert_ph_matches_reference(small_instance, references, case):
    inst, params, reference = _ph_case(small_instance, references, case)
    x, lam, rep, w = solve_progressive_hedging(inst, params)
    xr, lamr, (iters, status, residuals, obj, dual_value, extras), wr = reference
    assert (rep.algorithm, rep.iterations, rep.status) == (
        "progressive_hedging", iters, status)
    assert (rep.residuals, rep.objective, rep.dual_value) == (residuals, obj, dual_value)
    assert rep.extras == extras
    assert rep.converged == (case == "converged")
    if case == "cap_at_scenario_2":
        assert extras["inner_iterations"] == 1950 + 2000 + 2050
    _assert_same_points(x, lam, xr, lamr)
    assert w.shape == wr.shape and w.tobytes() == wr.tobytes()


@pytest.mark.parametrize("case", ["converged", "cap_10", "cap_137", "cap_at_scenario_2"])
def test_ph_matches_sequential_sweep_bitwise(small_instance, ph_references, case):
    _assert_ph_matches_reference(small_instance, ph_references, case)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", ["converged", "cap_137", "cap_at_scenario_2"])
def test_ph_worker_groups_match_sequential_sweep_bitwise(small_instance, ph_references,
                                                         use_workers, case, workers):
    """S=4 rows in 1, 2 or 3 contiguous groups (1+1+2 rows for 3), all but
    the first in worker processes; in the seed-6 case the first failing
    row, scenario 2, runs in a worker."""
    use_workers(workers)
    _assert_ph_matches_reference(small_instance, ph_references, case)
    assert multiprocessing.active_children() == []


def test_ph_worker_exception_is_raised_and_workers_are_reaped(small_instance,
                                                              monkeypatch, use_workers):
    """An engine call that raises for one row in a worker fails the solve
    with that exception, and no worker outlives it."""
    use_workers(2)
    engine, parent = solvers._pdhg_engine, os.getpid()
    last = small_instance.scenarios.xi_a[-1]

    def failing(inst, *args, **kwargs):
        if np.array_equal(inst.scenarios.xi_a[0], last):
            assert os.getpid() != parent
            raise FloatingPointError("scenario 3 failed")
        return engine(inst, *args, **kwargs)

    monkeypatch.setattr(solvers, "_pdhg_engine", failing)
    with pytest.raises(FloatingPointError, match="scenario 3 failed") as info:
        solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05))
    assert "in failing" in str(info.value.__cause__)    # the worker's traceback
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(solvers, "_pdhg_engine", engine)
    _, _, rep, _ = solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05))
    assert rep.converged
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_ph_binds_each_row_once_per_solve(small_instance, monkeypatch, use_workers, tmp_path,
                                          workers):
    """A PH solve binds each subproblem's kernel batch once, in the process
    that runs its row, and refills it every round: S binds per solve, not
    S per round, and S refills per round, with the rows in 1 or 2 groups
    (the second in a worker process)."""
    use_workers(workers)
    steps = kernel.load() or kernel.numpy_steps
    log = tmp_path / "calls"

    def logged(name):
        real = getattr(steps, name)

        def call(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)
        return call

    for name in ("bind", "refill"):
        monkeypatch.setattr(steps, name, logged(name))
    _, _, rep, _ = solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05))
    calls = [line.split() for line in log.read_text().splitlines()]
    S, rounds = small_instance.S, rep.iterations
    assert rep.converged and rounds > 1
    binds = [pid for name, pid in calls if name == "bind"]
    # bind loads its batch through refill too
    assert len(binds) == S and sum(name == "refill" for name, _ in calls) == S * (rounds + 1)
    assert len(set(binds)) == workers and binds.count(str(os.getpid())) == S // workers
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_ph_builds_the_kernel_at_most_once(small_instance, monkeypatch, use_workers,
                                          tmp_path, workers):
    """The calling process builds the kernel before it forks the PH
    workers, which inherit it instead of building their own."""
    use_workers(workers)
    log = tmp_path / "builds"
    build = kernel._build

    def logged():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build()

    monkeypatch.setattr(kernel, "_kernel", kernel._UNTRIED)
    monkeypatch.setattr(kernel, "_build", logged)
    solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05, max_iters=137))
    builds = log.read_text().split() if log.exists() else []
    assert builds == [str(os.getpid())]
    assert multiprocessing.active_children() == []


def test_ph_forks_no_worker_while_other_threads_run(small_instance, monkeypatch,
                                                     use_workers):
    use_workers(2)

    def no_fork():
        raise AssertionError("forked while another thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _, _, rep, _ = solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05))
    finally:
        release.set()
        thread.join(timeout=10)
    assert rep.converged and not thread.is_alive()


def test_worker_count_reads_the_affinity_mask(monkeypatch):
    """The count is the size of the affinity mask, ``os.cpu_count()``
    where the mask cannot be read, and 1 where no worker may fork."""
    monkeypatch.setattr(solvers.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert solvers.worker_count() == 3
    monkeypatch.delattr(solvers.os, "sched_getaffinity")
    monkeypatch.setattr(solvers.os, "cpu_count", lambda: 6)
    assert solvers.worker_count() == 6
    monkeypatch.setattr(solvers.os, "cpu_count", lambda: None)
    assert solvers.worker_count() == 1
    monkeypatch.setattr(solvers.os, "cpu_count", lambda: 6)
    monkeypatch.delattr(solvers.os, "fork")
    assert solvers.worker_count() == 1


def test_worker_count_follows_taskset():
    """A process started under ``taskset -c 0`` counts one CPU."""
    taskset = shutil.which("taskset")
    if taskset is None or not hasattr(os, "sched_getaffinity"):
        pytest.skip("taskset is not available here")
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = "from sassc import solvers; print(solvers.worker_count())"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([taskset, "-c", "0", sys.executable, "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "1"


def test_import_does_not_load_multiprocessing():
    """The worker machinery is imported only when a solve forks workers."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = "import sys, sassc; assert 'multiprocessing' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# every command on tiny, slack and hard, in a process where scipy cannot load
def test_import_does_not_load_scipy():
    """No scipy module is imported with the package and its command line."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = ("import sys, sassc, sassc.cli\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_slack_pipeline_does_not_load_scipy(tmp_path):
    """A slack-mode ``generate -> solve -> certify`` of the command line
    imports no scipy module, on the C kernel or on the numpy fallback."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = ("import sys\n"
            "from sassc.cli import main\n"
            "inst, primal, dual = 'inst.json', 'run/primal.json', 'run/dual.json'\n"
            "assert main(['generate', '--preset', 'tiny', '--out', inst]) == 0\n"
            "assert main(['solve', '--instance', inst, '--out', 'run']) == 0\n"
            "assert main(['certify', '--instance', inst, '--primal', primal, '--dual', dual,\n"
            "             '--out', 'kkt.json']) == 0\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                   stdout=subprocess.DEVNULL)


def test_hard_paths_do_not_load_scipy(tmp_path):
    """A hard-mode ``generate -> solve -> certify`` of the command line and
    a homotopy study import no scipy module: the a-priori verdict's
    factorization (``grid.schur_factor``) is numpy's."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = ("import json, sys\n"
            "from sassc import io\n"
            "from sassc.cli import main\n"
            "from sassc.homotopy import run_homotopy\n"
            "from sassc.solvers import SolverParams\n"
            "inst, primal, dual = 'inst.json', 'run/primal.json', 'run/dual.json'\n"
            "assert main(['generate', '--preset', 'tiny', '--out', inst]) == 0\n"
            "d = json.load(open(inst))\n"
            "d['mode'] = 'hard'\n"
            "json.dump(d, open(inst, 'w'))\n"
            "assert main(['solve', '--instance', inst, '--out', 'run']) == 0\n"
            "assert main(['certify', '--instance', inst, '--primal', primal, '--dual', dual,\n"
            "             '--out', 'kkt.json']) == 0\n"
            "schedule = [1.0, 10.0, 100.0, 1000.0]\n"
            "rep = run_homotopy(io.make_instance('tiny'), schedule, SolverParams())\n"
            "assert rep.reference.converged\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                   stdout=subprocess.DEVNULL)


SCIPY_BLOCKED_RUN = """
import json, sys
sys.modules["scipy"] = None
from sassc import kernel
from sassc.cli import main
assert main(["generate", "--preset", "tiny", "--out", "slack.json"]) == 0
d = json.load(open("slack.json"))
d["mode"] = "hard"
json.dump(d, open("hard.json", "w"))
runs = [["solve", "--instance", "slack.json", "--algorithm", "ph", "--out", "ph"],
        ["homotopy", "--instance", "slack.json", "--schedule", "10,100,1000,10000",
         "--out", "homotopy"],
        ["mms", "--levels", "4,8"]]
for mode in ("slack", "hard"):
    inst = mode + ".json"
    runs += [["solve", "--instance", inst, "--out", mode],
             ["solve", "--instance", inst, "--algorithm", "barrier", "--out", mode + "-ba"],
             ["certify", "--instance", inst, "--primal", mode + "/primal.json",
              "--dual", mode + "/dual.json"],
             ["compare-oracle", "--instance", inst]]
for argv in runs:
    assert main(argv) == 0, argv
assert (kernel.load() is not None) == HAS_KERNEL
"""


@pytest.mark.parametrize("engine", ["kernel", "numpy"])
def test_commands_run_with_scipy_blocked(tmp_path, engine):
    """The package needs numpy alone: with ``import scipy`` made to fail,
    ``generate``, ``solve`` (pdhg, ph and barrier), ``certify``,
    ``compare-oracle``, ``homotopy`` and ``mms`` run on the tiny preset, in
    slack and hard mode, and exit 0, on the C kernel and on the numpy
    fallback (a ``PATH`` with no ``cc``)."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    if engine == "numpy":
        (tmp_path / "empty").mkdir()
        env["PATH"] = str(tmp_path / "empty")
    has_kernel = engine == "kernel" and kernel.load() is not None
    code = SCIPY_BLOCKED_RUN.replace("HAS_KERNEL", str(has_kernel))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                   stdout=subprocess.DEVNULL)


def test_ph_requires_slack_mode(tiny_instance):
    with pytest.raises(ValueError):
        solve_progressive_hedging(tiny_instance.with_mode("hard"), SolverParams())


# ---------------------------------------------------------------------------
# barrier oracle


def test_barrier_size_guard():
    d = io.template_dict("default", n1d=32)  # 1024 + 2*8*1024 vars
    inst = io.instance_from_dict(d)
    with pytest.raises(BarrierSizeError):
        solve_barrier_reference(inst)


def test_barrier_matches_dense_solve_equality_only():
    inst = io.instance_from_dict(unconstrained_template())
    x, lam, rep = solve_barrier_reference(inst)
    assert rep.converged
    x1_ref, _ = dense_equality_solution(inst)
    assert norm_h(x.x1 - x1_ref, inst.h) <= 1e-7


def test_barrier_active_set_contains_constructed_patch():
    """Lower the obstacle just below the unconstrained state on a patch."""
    d = io.template_dict("tiny", scenario_count=1, seed=6)
    d["scenarios"]["spec_psi"] = {"baseline": 1e6, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    x_free, _, _ = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-8))

    patch = [5, 6, 9, 10]
    psi = np.full(inst.n, 1e6)
    psi[patch] = x_free.y[0, patch] - 0.1 * np.abs(x_free.y[0, patch]) - 1e-3
    d2 = io.template_dict("tiny", scenario_count=1, seed=6)
    inst2 = io.instance_from_dict(d2)
    # overwrite the realized obstacle directly on the cached fields
    a, g, _ = inst2.fields()
    inst2.scenarios._cache[inst2.grid.n1d] = (a, g, psi[None, :])
    x, lam, rep = solve_barrier_reference(inst2)
    assert rep.converged
    _, ineq = (None, x.y - x.z - psi[None, :])
    active = np.where(np.abs(ineq[0]) <= 1e-6)[0]
    assert set(patch) <= set(active.tolist())
    assert lam.obstacle[0, patch].min() > 0.0


def test_barrier_agrees_with_pdhg_small_objective(tiny_instance):
    x, lam, rep = solve_pdhg(tiny_instance, SolverParams(kkt_tolerance=1e-8))
    xb, lb, repb = solve_barrier_reference(tiny_instance)
    assert abs(rep.objective - repb.objective) <= 1e-7 * max(1.0, abs(repb.objective))
    assert norm_h(x.x1 - xb.x1, tiny_instance.h) <= 1e-5


def test_three_way_cross_algorithm_agreement(tiny_instance):
    """All three algorithm families land on the same control."""
    inst = tiny_instance
    xp, _, rp = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-8))
    xh, _, rh, _ = solve_progressive_hedging(
        inst, SolverParams(ph_penalty=0.05, kkt_tolerance=1e-7))
    xb, _, rb = solve_barrier_reference(inst)
    assert rp.converged and rh.converged and rb.converged
    for a, b in ((xp, xh), (xp, xb), (xh, xb)):
        assert norm_h(a.x1 - b.x1, inst.h) <= 1e-4
