import gc
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec

from sassc import cli, io, kernel, solvers
from sassc.certify import kkt_residuals
from sassc.grid import solve_linear
from sassc.problem import DualPoint, PrimalPoint, norm_h, objective, project_c1
from sassc.solvers import (
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_CAP,
    BarrierSizeError,
    SolverParams,
    _estimate_k_norm,
    _pdhg_engine,
    extract_rho,
    solve_barrier_reference,
    solve_hard,
    solve_pdhg,
    solve_progressive_hedging,
)

import reference_impl


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
    y_star = solve_linear(inst.operators()[0], x1_star + g[0])
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


def reference_engine(inst, params, tol, max_iters, warm=None, x1_extra_quad=0.0,
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

    k0 = _estimate_k_norm(inst)
    scale = max(1.0, math.sqrt(k0))
    s1 = scale
    sz = scale if slack else 1.0
    ci = scale if slack else max(1.0, k0 / 3.0)
    knorm = _estimate_k_norm(inst, s1=s1, sz=sz, ci=ci)
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

        e_lam = p @ lam_e
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
            lam_mag = max(h * np.linalg.norm(lam_e, axis=1).max(),
                          ci * h * np.linalg.norm(lam_ih, axis=1).max())
            if lam_mag > solvers.DIVERGENCE_THRESHOLD:
                status = STATUS_INFEASIBLE
                break

    if status != STATUS_CONVERGED and best is not None:
        x1, y, z, lam_e, lam_ih = best
    primal = PrimalPoint(x1.copy(), y.copy(), z.copy() if slack else np.zeros((S, n)))
    dual = DualPoint(lam_e.copy(), ci * lam_ih, extract_rho(inst, lam_e))
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
        warm = _pdhg_engine(inst, SolverParams(), tol=1e-3, max_iters=400_000)[:2]
        return inst, dict(tol=1e-6, max_iters=400_000, warm=warm)
    if case == "cap_137":  # not a multiple of CHECK_EVERY: best-iterate fallback
        return inst, dict(tol=1e-6, max_iters=137)
    raise ValueError(case)


@pytest.mark.parametrize("case", ["slack", "hard", "ph_subproblem", "warm", "cap_137"])
def test_engine_matches_reference_bitwise(small_instance, case):
    inst, kwargs = _equivalence_case(small_instance, case)
    params = SolverParams()
    xa, la, ita, sta = _pdhg_engine(inst, params, **kwargs)
    xb, lb, itb, stb = reference_engine(inst, params, **kwargs)
    assert (ita, sta) == (itb, stb)
    if case == "cap_137":
        assert sta == STATUS_ITERATION_CAP
    else:
        assert sta == STATUS_CONVERGED
    for a, b in ((xa.x1, xb.x1), (xa.y, xb.y), (xa.z, xb.z), (la.adjoint, lb.adjoint),
                 (la.obstacle, lb.obstacle), (la.nonant, lb.nonant)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _kernel_batch(rng, B, S, n, slack, qc, lin):
    """Random engine buffers and constants of one batch, in the engine's
    shapes, with signed zeros, NaN and values on the bounds sprinkled in."""
    NS, nb = B * S * n, B * n
    nx = nb + NS * (2 if slack else 1)

    def rand(*shape, scale=1.0):
        a = scale * rng.standard_normal(shape)
        mask = rng.random(shape) < 0.5
        a[mask] = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5], size=int(mask.sum()))
        a[rng.random(shape) < 0.03] = np.nan
        return a

    counts = rng.choice([0, 1, 3, 4, 5, 5, 5], size=NS)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = rng.integers(0, NS, size=indptr[-1]).astype(np.int32)
    lo = rng.choice([-1.0, -0.5, -0.0, 0.0], size=nx)
    hi = rng.choice([0.0, -0.0, 0.5, 1.0], size=nx)
    lo[rng.random(nx) < 0.03] = np.nan
    hi[rng.random(nx) < 0.03] = np.nan
    tau = np.abs(rand(B, 1, 1)) + 0.25
    ci = np.abs(rand(B, 1, 1)) + 1.0
    tauz = np.abs(rand(B, 1, 1)) + 0.25
    arrays = dict(X0=rand(nx), X1=rand(nx), Xb=rand(nx), duals=rand(2, B, S, n),
                  z_hard=rand(B, S, n))
    consts = dict(
        g_psi=rand(2, B, S, n), dual_steps=np.stack([tau, tau * ci]),
        ineq_scales=np.stack([ci, tauz * ci]), tau=tau, tau1=np.abs(rand(B, 1, 1)) + 0.25,
        tau_yt=rand(B, 1, n), lin=rand(B, 1, n) if lin else 0.0,
        qc=rand(n) if qc else 0.0, den=1.0 + np.abs(rand(nx)), lo=lo, hi=hi,
    )
    return (indptr, indices, rand(int(indptr[-1]))), arrays, consts, rand(B, 1, S)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@settings(max_examples=80, deadline=None)
@given(B=st.integers(1, 4), S=st.integers(1, 3), n=st.integers(1, 7),
       slack=st.booleans(), qc=st.booleans(), lin=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_steps_match_numpy_steps_bitwise(B, S, n, slack, qc, lin, seed):
    """Two iterations of the C kernel's steps, one from each primal buffer,
    leave every buffer with the bytes the numpy steps leave: signed-zero
    ties at the bounds and at 0 for lam_ih, NaN entries, rows with 5 and
    other numbers of entries, odd lengths, and ``qc``/``lin`` of 0.0."""
    csr, arrays, consts, p = _kernel_batch(np.random.default_rng(seed), B, S, n, slack,
                                           qc, lin)
    out = []
    for steps in (kernel.numpy_steps, kernel.load()):
        a = {name: v.copy() for name, v in arrays.items()}
        pair = steps.bind(B, S, n, slack, csr, a["X0"], a["X1"], a["Xb"], a["duals"],
                          a["z_hard"], **consts)
        for handle, Xn in zip(pair, (a["X1"], a["X0"])):
            steps.dual_step(handle)
            np.matmul(p, a["duals"][0], out=Xn[:B * n].reshape(B, 1, n))
            steps.primal_step(handle)
        out.append(a)
    for name in ("X0", "X1", "Xb", "duals"):
        assert out[0][name].tobytes() == out[1][name].tobytes(), name


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_bind_rejects_what_the_steps_cannot_index():
    """The C steps index without bounds, so their arguments are checked."""
    B, S, n = 2, 2, 3
    csr, arrays, consts, _ = _kernel_batch(np.random.default_rng(0), B, S, n, True,
                                           True, True)
    bind = kernel.load().bind

    def call(csr=csr, **changes):
        a = dict(arrays, **{k: v for k, v in changes.items() if k in arrays})
        c = dict(consts, **{k: v for k, v in changes.items() if k in consts})
        return bind(B, S, n, True, csr, a["X0"], a["X1"], a["Xb"], a["duals"],
                    a["z_hard"], **c)

    call()
    indptr, indices, data = csr
    bad = indices.copy()
    bad[0] = B * S * n
    with pytest.raises(ValueError, match="column index"):
        call(csr=(indptr, bad, data))
    ptr = indptr.copy()
    ptr[1] = ptr[-1] + 1
    with pytest.raises(ValueError, match="row pointers"):
        call(csr=(ptr, indices, data))
    with pytest.raises(ValueError, match="den has"):
        call(den=consts["den"][:-1])
    with pytest.raises(ValueError, match="C-contiguous"):
        call(Xb=np.repeat(arrays["Xb"], 2)[::2])


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
    params = SolverParams()
    for case in ("hard", "ph_subproblem", "cap_137"):
        inst, kwargs = _equivalence_case(small_instance, case)
        xa, la, ita, sta = _pdhg_engine(inst, params, **kwargs)
        xb, lb, itb, stb = reference_engine(inst, params, **kwargs)
        assert (ita, sta) == (itb, stb)
        _assert_same_points(xa, la, xb, lb)
    assert bound


def test_kernel_loads_where_a_compiler_is_on_path():
    """A host with ``cc`` runs the kernel, so a test run there covers it
    and not only the numpy fallback."""
    assert (kernel.load() is None) == (shutil.which("cc") is None)


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


@pytest.mark.parametrize("mode, max_iters", [
    ("slack", 400_000), ("slack", 1987), ("hard", 400_000), ("hard", 2713)])
def test_batched_engine_rows_match_separate_runs(small_instance, mode, max_iters):
    """Three one-scenario subsets with their own step sizes, warm starts and
    linear terms run as one lockstep batch; rows leave the batch at
    different checks, and each matches its own reference run bit for bit."""
    inst = small_instance.with_mode(mode)
    subs = [replace(inst, scenarios=inst.scenarios.subset([k])) for k in (0, 1, 3)]
    params = SolverParams()
    warm = [None] + [reference_engine(sub, params, tol=tol, max_iters=400_000)[:2]
                     for sub, tol in zip(subs[1:], (1e-3, 1e-5))]
    rng = np.random.default_rng(11)
    kwargs = dict(tol=1e-8, max_iters=max_iters, x1_extra_quad=0.05,
                  x1_extra_center=rng.uniform(0.0, 1.0, inst.n))
    lin = 0.1 * rng.standard_normal((3, inst.n))
    assert len({_estimate_k_norm(sub) for sub in subs}) == 3

    got = _pdhg_engine(subs, params, warm=warm, x1_extra_lin=lin, **kwargs)
    want = [reference_engine(sub, params, warm=w, x1_extra_lin=row, **kwargs)
            for sub, w, row in zip(subs, warm, lin)]
    assert len(got) == 3
    if max_iters == 400_000:
        assert len({it for _, _, it, _ in want}) == 3
        assert {st for _, _, _, st in want} == {STATUS_CONVERGED}
    else:
        assert {st for _, _, _, st in want} == {STATUS_CONVERGED, STATUS_ITERATION_CAP}
    for (xa, la, ita, sta), (xb, lb, itb, stb) in zip(got, want):
        assert (ita, sta) == (itb, stb)
        _assert_same_points(xa, la, xb, lb)


def test_batched_engine_leaves_no_reference_cycle(small_instance):
    """With the garbage collector off, the scenario sets of a batch die as
    soon as the last reference to their instances goes: the engine keeps
    nothing that refers back to them."""
    subs = [replace(small_instance, scenarios=small_instance.scenarios.subset([k]))
            for k in (0, 1, 3)]
    refs = [weakref.ref(sub.scenarios) for sub in subs]
    gc.disable()
    try:
        _pdhg_engine(subs, SolverParams(), tol=1e-8, max_iters=137)
        del subs
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_batched_engine_diverging_row_keeps_its_best_iterate(monkeypatch):
    """A row that stops on suspected infeasibility falls back to its own
    best iterate, while the feasible rows of its batch keep improving and
    converge first."""
    monkeypatch.setattr(solvers, "DIVERGENCE_THRESHOLD", 1e4)
    d = io.template_dict("tiny")
    d["mode"] = "hard"
    feasible = io.instance_from_dict(d)
    d["scenarios"]["spec_psi"] = {"baseline": -1.0, "modes": [], "clip": None}
    infeasible = io.instance_from_dict(d)
    subs = [replace(inst, scenarios=inst.scenarios.subset([k]))
            for inst, k in ((feasible, 0), (infeasible, 0), (feasible, 1))]
    params = SolverParams()
    got = _pdhg_engine(subs, params, tol=1e-8, max_iters=400_000)
    want = [reference_engine(sub, params, tol=1e-8, max_iters=400_000) for sub in subs]
    assert [st for _, _, _, st in want] == [STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_CONVERGED]
    assert want[1][2] > max(want[0][2], want[2][2])
    for (xa, la, ita, sta), (xb, lb, itb, stb) in zip(got, want):
        assert (ita, sta) == (itb, stb)
        _assert_same_points(xa, la, xb, lb)


def test_engine_row_with_nan_residual_never_converges(tiny_instance, monkeypatch):
    """A row whose checks report a NaN r3 runs to the iteration cap; the
    other row of its batch converges as it does on its own."""
    subs = [replace(tiny_instance, scenarios=tiny_instance.scenarios.subset([k]))
            for k in (0, 1)]
    params = SolverParams()
    alone = _pdhg_engine(subs[1], params, tol=1e-6, max_iters=3000)
    assert alone[2:] == (750, STATUS_CONVERGED)
    real = solvers.certify.natural_residuals

    def nan_r3_in_row_0(*args, **kwargs):
        res = real(*args, **kwargs)
        res["r3"][0] = math.nan     # row 0 stays first: it never stops early
        return res

    monkeypatch.setattr(solvers.certify, "natural_residuals", nan_r3_in_row_0)
    (x0, lam0, it0, st0), (x1, lam1, it1, st1) = _pdhg_engine(
        subs, params, tol=1e-6, max_iters=3000)
    assert (it0, st0) == (3000, STATUS_ITERATION_CAP)
    assert (it1, st1) == (750, STATUS_CONVERGED)
    _assert_same_points(x1, lam1, *alone[:2])


def test_direct_csr_matvec_matches_matmul(small_instance):
    Ablk = small_instance.block_operator()
    N = Ablk.shape[0]
    v = np.random.default_rng(2).standard_normal((small_instance.S, small_instance.n))
    v[0, :3] = (-0.0, 0.0, 1e-300)
    out = np.zeros(v.shape)
    csr_matvec(N, N, Ablk.indptr, Ablk.indices, Ablk.data, v, out)
    assert out.ravel().tobytes() == (Ablk @ v.ravel()).tobytes()


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
    first = _estimate_k_norm(subs[-1])      # the last row is cached beforehand
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
        assert _estimate_k_norm(sub, s1=scales[j], sz=sz[j], ci=ci[j]) == knorm[j]
        iters += [it0, it]
    if len(subs) == 4:      # rows of one batch stop at different iterations
        assert len(set(iters)) > 2
    calls = len(batch_rows)
    assert _estimate_k_norm(subs, s1=scales, sz=sz, ci=ci) == knorm
    assert len(batch_rows) == calls


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
    from sassc.solvers import _pdhg_engine
    hist = []
    gaps = []
    params = SolverParams()
    def hook(it, res, xp, lam):
        hist.append(max(res["r1"], res["r3"], res.get("r3p", 0.0),
                        res["r4"], res["r5_feas"], res["r5_comp"]))
        gaps.append(objective(small_instance, xp) - dual_function(small_instance, lam))
    _pdhg_engine(small_instance, params, tol=1e-6, max_iters=20000, history=hook)
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
        _pdhg_engine(tiny_instance, params, tol=params.kkt_tolerance, max_iters=500,
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
    for name in ("kkt_tolerance", "ph_penalty", "barrier_mu_terminal"):
        for value in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match=name):
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
    xb, _, repb = solve_barrier_reference(inst, SolverParams(barrier_mu_terminal=1e-12))
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


def test_extract_rho_identities(tiny_instance):
    inst = tiny_instance
    ones = np.ones((inst.S, inst.n))
    np.testing.assert_array_equal(extract_rho(inst, ones), -ones)
    with pytest.raises(ValueError):
        extract_rho(inst, np.ones((inst.S + 1, inst.n)))


def test_extract_rho_expectation_cancels():
    d = io.template_dict("tiny", scenario_count=2)
    inst = io.instance_from_dict(d)
    lam_e = np.stack([np.full(inst.n, 0.7), np.full(inst.n, -0.7)])
    rho = extract_rho(inst, lam_e)
    np.testing.assert_allclose(inst.p @ rho, np.zeros(inst.n), atol=1e-15)


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
    fails. The batched solver must reproduce it bit for bit."""
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
                subs[k], params, tol=solvers.PH_INNER_TOLERANCE,
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
    dual = DualPoint(lam_e, lam_i, extract_rho(inst, lam_e))
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

    def failing(rows, *args, **kwargs):
        if isinstance(rows, list) and any(
                np.array_equal(sub.scenarios.xi_a[0], last) for sub in rows):
            assert os.getpid() != parent
            raise FloatingPointError("scenario 3 failed")
        return engine(rows, *args, **kwargs)

    monkeypatch.setattr(solvers, "_pdhg_engine", failing)
    with pytest.raises(FloatingPointError, match="scenario 3 failed") as info:
        solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05))
    assert "in failing" in str(info.value.__cause__)    # the worker's traceback
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(solvers, "_pdhg_engine", engine)
    _, _, rep, _ = solve_progressive_hedging(small_instance, SolverParams(ph_penalty=0.05))
    assert rep.converged
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


def test_ph_requires_slack_mode(tiny_instance):
    with pytest.raises(ValueError):
        solve_progressive_hedging(tiny_instance.with_mode("hard"), SolverParams())


# ---------------------------------------------------------------------------
# barrier oracle


def test_barrier_size_guard():
    d = io.template_dict("default", n1d=32)  # 1024 + 2*8*1024 vars
    inst = io.instance_from_dict(d)
    with pytest.raises(BarrierSizeError):
        solve_barrier_reference(inst, SolverParams())


def test_barrier_matches_dense_solve_equality_only():
    inst = io.instance_from_dict(unconstrained_template())
    x, lam, rep = solve_barrier_reference(inst, SolverParams(barrier_mu_terminal=1e-12))
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
    x, lam, rep = solve_barrier_reference(inst2, SolverParams(barrier_mu_terminal=1e-12))
    assert rep.converged
    _, ineq = (None, x.y - x.z - psi[None, :])
    active = np.where(np.abs(ineq[0]) <= 1e-6)[0]
    assert set(patch) <= set(active.tolist())
    assert lam.obstacle[0, patch].min() > 0.0


def test_barrier_agrees_with_pdhg_small_objective(tiny_instance):
    x, lam, rep = solve_pdhg(tiny_instance, SolverParams(kkt_tolerance=1e-8))
    xb, lb, repb = solve_barrier_reference(
        tiny_instance, SolverParams(barrier_mu_terminal=1e-12))
    assert abs(rep.objective - repb.objective) <= 1e-7 * max(1.0, abs(repb.objective))
    assert norm_h(x.x1 - xb.x1, tiny_instance.h) <= 1e-5


def test_three_way_cross_algorithm_agreement(tiny_instance):
    """All three algorithm families land on the same control."""
    inst = tiny_instance
    xp, _, rp = solve_pdhg(inst, SolverParams(kkt_tolerance=1e-8))
    xh, _, rh, _ = solve_progressive_hedging(
        inst, SolverParams(ph_penalty=0.05, kkt_tolerance=1e-7))
    xb, _, rb = solve_barrier_reference(inst, SolverParams(barrier_mu_terminal=1e-12))
    assert rp.converged and rh.converged and rb.converged
    for a, b in ((xp, xh), (xp, xb), (xh, xb)):
        assert norm_h(a.x1 - b.x1, inst.h) <= 1e-4
