"""Solution algorithms: first-order primal-dual splitting, progressive
hedging, and a dense log-barrier reference oracle.

The default solver is a primal-dual hybrid-gradient splitting of

    min_x  f(x) + h(Kx),
    f  = objective + box indicators        (prox = per-node clamped quadratics)
    Kx = (A_k y_k - x1 per scenario, y_k - z_k per scenario)
    h  = indicator{ = g_k }  (+)  indicator{ <= psi_k }

run in multiplier-density coordinates, where the dual updates are the
plain shifts ``lam_e += sigma (K_e xbar - g)`` and
``lam_i = max(0, lam_i + sigma (K_i xbar - psi))`` and the measure weights
cancel from the iteration entirely. The iteration works in block-balanced
variables with fixed steps (see the engine docstring).

Each iteration is two calls into the C kernel of ``kernel.py`` (the dual
step, then the prox, clamp and extrapolation) around the numpy product
``p @ lam_e``, which stays in numpy to keep its BLAS summation order. The
kernel is compiled with ``cc -O2 -ffp-contract=off`` (no ``-march``, no
fast-math) on the first engine call of a process, and runs every entry
through the IEEE operations of the numpy form in its order, so iterates
are bit for bit those of the numpy loop. Without a C compiler the engine
runs that numpy loop (``kernel.numpy_steps``) with the same bits.

Progressive hedging decomposes by scenario and exposes the
nonanticipativity structure algorithmically: scenario copies of the
control are driven to consensus by weights ``w_k`` that converge to the
negative of the per-scenario nonanticipativity density minus the shared
control gradient. Given the weights, the subproblems of a round are
independent. They are split into contiguous groups, one per CPU of the
affinity mask (``worker_count``), and each group is one lockstep engine
call in its own process: the engine stacks independent problems as rows
of one iteration. At small grid sizes numpy call overhead, not
arithmetic, dominates an iteration, so one stacked iteration costs far
less than one iteration of each problem run on its own. The homotopy
study runs its hard reference's engine call beside its slack levels in
the same kind of forked worker (``_EngineWorker``, ``prefetch_engine``).

The barrier oracle is deliberately a different algorithmic family (dense
Newton on a log-barrier interior path) so that agreement between solvers
is evidence of correctness rather than a tautology.

``SolverParams`` holds the settings a caller chooses; the fixed constants
of the iteration (``CHECK_EVERY``, ``DIVERGENCE_THRESHOLD`` and the others
below) are module constants. Per-check output is the ``history=`` hook of
``solve_pdhg``, which writes no file itself. Every status decision (the
engine's stop and best-iterate tests, the barrier's final test) scores
residuals with ``certify.max_residual``, so a NaN residual never passes.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import threading
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import certify, kernel
from .grid import operator_norm_estimate
from .problem import (
    DualPoint,
    Instance,
    PrimalPoint,
    csr_product,
    hard_mode_infeasibility,
    project_c1,
    stack_rows,
    zeros_dual,
)

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration_cap"
STATUS_INFEASIBLE = "infeasibility_suspected"
STATUS_FAILURE = "failure"

BARRIER_SIZE_LIMIT = 2000

STEP_SAFETY = 0.99          # tau * sigma * ||K||^2 <= STEP_SAFETY
CHECK_EVERY = 50            # engine iterations between residual checks
DIVERGENCE_THRESHOLD = 1e6  # multiplier magnitude that suggests infeasibility
PH_INNER_TOLERANCE = 1e-8   # residual tolerance of the PH subproblems
PH_MAX_OUTER = 500          # PH rounds
BARRIER_MU0 = 1.0           # first barrier parameter
BARRIER_SHRINK = 0.2        # barrier parameter factor per central-path step


class BarrierSizeError(ValueError):
    """Instance too large for the dense reference oracle."""


class BarrierFailure(RuntimeError):
    """Newton iteration on the barrier subproblem broke down."""


@dataclass
class SolverParams:
    """Tuning knobs shared by the solvers."""

    max_iters: int = 400_000
    kkt_tolerance: float = 1e-6
    ph_penalty: float = 1.0
    barrier_mu_terminal: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if not self.max_iters > 0:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        for name in ("kkt_tolerance", "ph_penalty", "barrier_mu_terminal"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.kkt_tolerance < 1.0:
            raise ValueError("kkt_tolerance must be below 1")


@dataclass
class SolveReport:
    """Outcome of one solver run; it holds no timing, so that reports from
    identical runs are byte-identical."""

    algorithm: str
    iterations: int
    status: str
    residuals: dict
    objective: float
    dual_value: float
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _report(algorithm: str, kkt: certify.KktReport, iterations: int, status: str,
            extras: dict | None = None) -> SolveReport:
    """Solve report carrying the residuals, objective and dual value of the
    full certification pass ``kkt``."""
    return SolveReport(
        algorithm=algorithm,
        iterations=iterations,
        status=status,
        residuals=kkt.residual_dict(),
        objective=kkt.objective,
        dual_value=kkt.dual_value,
        extras=extras or {},
    )


def extract_rho(inst: Instance, adjoint: np.ndarray) -> np.ndarray:
    """Nonanticipativity density implied by the adjoint multiplier.

    With the identity control-to-load map the consistency condition reads
    ``rho_k = -lam_e_k`` scenario by scenario.
    """
    adjoint = np.asarray(adjoint, dtype=float)
    if adjoint.shape != (inst.S, inst.n):
        raise ValueError(f"expected shape {(inst.S, inst.n)}, got {adjoint.shape}")
    return -adjoint


def _k_maps(rows: list[Instance], s1, sz, ci, live: np.ndarray):
    """Domain weights and the forward and adjoint maps of the rescaled
    constraint map K of each instance in ``rows``, stacked for a lockstep
    power iteration. The maps take and return the rows still running,
    which ``live`` names; rows only ever leave, so their count does too.
    The operator and ``p`` come from the rows' batch record
    (``problem.stack_rows``), and that of the running rows once some left.
    """
    R, S, n, slack = len(rows), rows[0].S, rows[0].n, rows[0].mode == "slack"
    SN = S * n
    nx = n + SN + (SN if slack else 0)
    record = stack_rows(rows)
    p = record.p
    hh = rows[0].h * rows[0].h
    weights = np.concatenate(
        [np.full((R, n), hh)] + [np.repeat(p * hh, n, axis=1)] * (2 if slack else 1), axis=1)
    s1, sz, ci = (np.asarray(c)[:, None] for c in (s1, sz, ci))
    cols = (s1, sz, ci, -s1[:, :, None], -ci * sz, p[:, None, :])
    running = {}

    def select(L: int):
        """Operator and per-row constants of the L rows still running."""
        if L not in running:
            idx = np.flatnonzero(live)
            csr = record.csr if L == R else stack_rows([rows[j] for j in idx]).csr
            running[L] = (csr, *(c[idx] for c in cols))
        return running[L]

    # The maps of the single-row form, one numpy call for all rows:
    # e = A y - tile(s1 x1), i = ci (y - sz z) or ci y;
    # x1' = -s1 (p @ we), y' = A we + ci wi, z' = (-ci sz) wi
    def forward(v: np.ndarray) -> np.ndarray:
        L = len(v)
        Ablk, s1, sz, ci = select(L)[:4]
        y = v[:, n:n + SN]
        out = np.empty((L, 2 * SN))
        np.subtract(csr_product(Ablk, y).reshape(L, S, n), (s1 * v[:, :n])[:, None, :],
                    out=out[:, :SN].reshape(L, S, n))
        i = out[:, SN:]
        if slack:
            np.multiply(sz, v[:, n + SN:], out=i)
            np.subtract(y, i, out=i)
            np.multiply(ci, i, out=i)
        else:
            np.multiply(ci, y, out=i)
        return out

    def adjoint(w: np.ndarray) -> np.ndarray:
        L = len(w)
        Ablk, _, _, ci, neg_s1, neg_ci_sz, p = select(L)
        we = w[:, :SN].reshape(L, S, n)
        wi = w[:, SN:]
        out = np.empty((L, nx))
        np.multiply(neg_s1, np.matmul(p, we), out=out[:, None, :n])
        out_y = out[:, n:n + SN]
        np.multiply(ci, wi, out=out_y)
        np.add(csr_product(Ablk, we).reshape(L, SN), out_y, out=out_y)
        if slack:
            np.multiply(neg_ci_sz, wi, out=out[:, n + SN:])
        return out

    return weights, forward, adjoint


def _estimate_k_norm(inst: Instance | list[Instance], s1=1.0, sz=1.0, ci=1.0):
    """Weighted operator norm of the constraint map K.

    ``s1`` and ``sz`` rescale the control and slack columns and ``ci`` the
    inequality rows; the norm of the rescaled map governs the step sizes
    of the block-balanced iteration (a plain change of variables in the
    splitting). Estimates are cached alongside the realized fields, which
    the scenario-decomposition solver relies on when re-solving the same
    subproblems round after round.

    ``inst`` may also be a list of instances with the same grid, mode and
    scenario count, with ``s1``, ``sz`` and ``ci`` scalars or one value per
    row; the rows not yet cached then run as one lockstep power iteration
    and the result is a list of floats, each bitwise the estimate of its
    row on its own.
    """
    batched = not isinstance(inst, Instance)
    insts = list(inst) if batched else [inst]
    s1, sz, ci = (np.broadcast_to(np.asarray(c, dtype=float), (len(insts),))
                  for c in (s1, sz, ci))
    keys = [("knorm", sub.grid.n1d, sub.mode, float(a), float(b), float(c))
            for sub, a, b, c in zip(insts, s1, sz, ci)]
    todo = [j for j, (sub, key) in enumerate(zip(insts, keys))
            if key not in sub.scenarios._cache]
    if todo:
        rows = [insts[j] for j in todo]
        live = np.ones(len(rows), dtype=bool)
        weights, forward, adjoint = _k_maps(rows, s1[todo], sz[todo], ci[todo], live)
        est = operator_norm_estimate(forward, adjoint, weights, live=live)
        for j, e in zip(todo, est):
            insts[j].scenarios._cache[keys[j]] = float(e)
    out = [sub.scenarios._cache[key] for sub, key in zip(insts, keys)]
    return out if batched else out[0]


def _pdhg_engine(
    inst: Instance | list[Instance],
    params: SolverParams,
    tol: float,
    max_iters: int,
    warm: tuple[PrimalPoint, DualPoint] | list | None = None,
    x1_extra_quad: float = 0.0,
    x1_extra_center: np.ndarray | None = None,
    x1_extra_lin: np.ndarray | None = None,
    history=None,
):
    """Run the primal-dual iteration until the optimality residuals drop
    below ``tol``; returns (primal, dual, iterations, status).

    The raw constraint map is badly block-imbalanced: the state column
    carries the stiffness norm while the control and slack columns and the
    inequality rows carry unit norm. The iteration therefore runs in
    block-balanced variables: control and slack columns and the inequality
    rows are rescaled by the square root of the unbalanced operator norm
    (the inequality rows by a third of it in hard mode, where no slack
    block bridges the coupling). These are changes of variables only; the
    dual updates and the clamped-quadratic proxes keep their form, with
    effective per-block steps ``tau * scale^2`` and the true obstacle
    multiplier recovered as ``row_scale * iterate``.

    ``inst`` may also be a list of B instances with the same grid, mode
    and scenario count, which run in lockstep as rows of one stacked
    iteration: ``warm`` is then a list with one entry (or None) per row,
    ``x1_extra_lin`` a (B, n) array of per-row linear terms, and the result
    a list of per-row tuples. Each row keeps its own step sizes, residual
    checks, best iterate and stopping test, and its iterates are bitwise
    those of a run on its own instance. A row that stops leaves the batch,
    whose buffers are then restacked from the rows still running.

    The step constants of all rows come from two lockstep power
    iterations (``_estimate_k_norm``), and every residual check scores all
    running rows with one ``certify.natural_residuals`` call on their batch
    record (``problem.stack_rows``), built once per set of rows. The
    worst-residual test (``certify.max_residual``), the divergence test on
    the multiplier magnitudes and the stopping status (converged, then
    suspected infeasibility, then the iteration cap) are array operations
    over rows, and best iterates are copied by row mask into stacked
    buffers that are restacked with the others.

    ``history(it, res, xp, lam)``, if given, is called at every residual
    check of every row, in row order, with a dict of Python floats. The
    arrays of ``xp`` and ``lam.adjoint`` are views of the engine's working
    buffers, which later iterations overwrite in place, so the hook must
    consume them during the call (copy them to keep them).
    """
    batched = not isinstance(inst, Instance)
    if not batched:
        inst, warm = [inst], [warm]
        if x1_extra_lin is not None:
            x1_extra_lin = x1_extra_lin[None, :]
    B = len(inst)
    kern = kernel.load() or kernel.numpy_steps
    record = stack_rows(inst)
    S, n, slack = inst[0].S, inst[0].n, record.mode == "slack"
    if warm is None:
        warm = [None] * B

    q = x1_extra_quad
    qc = 0.0 if (q == 0.0 or x1_extra_center is None) else q * x1_extra_center

    # per-row steps and starting point
    k0 = _estimate_k_norm(inst)
    scales = [max(1.0, math.sqrt(k)) for k in k0]
    cis = scales if slack else [max(1.0, k / 3.0) for k in k0]
    szs = scales if slack else [1.0] * B
    knorms = _estimate_k_norm(inst, s1=scales, sz=szs, ci=cis)
    steps, start = [], []
    for sub, w, s1, sz, ci, knorm in zip(inst, warm, scales, szs, cis, knorms):
        tau = math.sqrt(STEP_SAFETY) / knorm    # sigma = tau
        steps.append((tau, ci, tau * s1 * s1, tau * sz * sz))
        if w is None:
            zeros = np.zeros((S, n))
            start.append((project_c1(sub, np.zeros(n)), zeros, zeros, zeros, zeros))
        else:
            xw, lw = w
            start.append((xw.x1, xw.y, xw.z, lw.adjoint, np.maximum(lw.obstacle, 0.0) / ci))
    x1, y, z, lam_e, lam_ih = (np.stack(a) for a in zip(*start))
    x1 = x1[:, None, :]

    SN = S * n
    h = inst[0].h

    def stack(rows, x1, y, z, xb1, yb, zb, lam_e, lam_ih, best_worst, *best):
        """Buffers and constants of the problems ``rows``, whose iterates
        and best-iterate snapshots are given stacked along a leading row
        axis. Their batch record is the engine's own until rows leave, and
        is then stacked anew from the rows still running.

        The loop allocates no arrays. The primal blocks live in one flat
        vector [x1 | y | z] (z only in slack mode) with the rows stacked in
        each block, and the multipliers in one (2, rows, S, n) array
        [lam_e | lam_ih], so that each update the blocks share (step
        scaling, prox division, clamping, extrapolation) is one pass over
        one array; a per-row scalar becomes a constant array of that value,
        which gives the same bits. The current and next primal iterates
        swap buffers after every step, and so do the two argument sets of
        the steps (``Kernel.bind``), one per direction. Every update keeps
        the operation order of the plain expression in its comment, so the
        iterates match that form bit for bit.
        """
        Bs = len(rows)
        nb, NS = Bs * n, Bs * SN
        nx = nb + NS + (NS if slack else 0)
        z_hard = None if slack else np.array(z)  # hard mode: z is carried, not updated

        def primal_buffer(a1=None, ay=None, az=None):
            X = np.empty(nx)
            views = (X, X[:nb].reshape(Bs, 1, n), X[nb:nb + NS].reshape(Bs, S, n),
                     X[nb + NS:].reshape(Bs, S, n) if slack else z_hard)
            if a1 is not None:
                views[1][:], views[2][:] = a1, ay
                if slack:
                    views[3][:] = az
            return views

        rec = record if Bs == B else stack_rows([inst[k] for k in rows])
        duals = np.empty((2, Bs, S, n))
        duals[0], duals[1] = lam_e, lam_ih
        tau, ci, tau1, tauz = (np.array(c)[:, None, None]
                               for c in zip(*(steps[k] for k in rows)))
        lin = 0.0 if x1_extra_lin is None else x1_extra_lin[rows][:, None, :]
        den = np.concatenate([
            np.repeat(1.0 + tau1.ravel() * (rec.alpha + q), n),
            np.repeat(1.0 + tau.ravel(), SN),
            np.repeat(1.0 + tauz.ravel() * rec.alpha_prime, SN if slack else 0),
        ])
        box = [np.repeat(rec.M, SN)] * (2 if slack else 1)
        lo = np.concatenate([rec.c1_lo.ravel()] + [-b for b in box])
        hi = np.concatenate([rec.c1_hi.ravel()] + box)
        cur, nxt, xb = primal_buffer(x1, y, z), primal_buffer(), primal_buffer(xb1, yb, zb)
        args = kern.bind(
            Bs, S, n, slack, rec.csr, cur[0], nxt[0], xb[0], duals, z_hard,
            g_psi=np.stack([rec.g, rec.psi]), dual_steps=np.stack([tau, tau * ci]),
            ineq_scales=np.stack([ci, tauz * ci]), tau=tau, tau1=tau1,
            tau_yt=tau * rec.y_target[:, None, :], lin=lin, qc=qc, den=den, lo=lo, hi=hi)
        return (cur, nxt, xb, *args, duals, rec.p[:, None, :], lin, rec, ci, ci.ravel() * h,
                best_worst, best)

    results = [None] * B
    active = list(range(B))
    state = (x1, y, z, x1, y, z, lam_e, lam_ih, np.full(B, math.inf),
             *(np.empty_like(a) for a in (x1, y, z, lam_e, lam_ih)))
    it = 0
    while active and it < max_iters:
        if state is not None:
            (cur, nxt, (_, xb1, yb, zb), args, args_next, duals, p, lin, rec, ci, ci_h,
             best_worst, best) = stack(np.array(active), *state)
            lam_e, lam_ih = duals
            lin_rows = None if x1_extra_lin is None else lin[:, 0]
            state = None
        it += 1
        # dual ascent at the extrapolated primal point:
        # lam_e += sigma ((A yb - xb1) - g)
        # lam_ih = max(0, lam_ih + sigma ci (ineq - psi)), ineq = yb - zb or yb
        kern.dual_step(args)
        # proximal descent; every block is a clamped quadratic:
        # x1n = clip((x1 + tau1 ((p @ lam_e + qc) - lin)) / den1, c1_lo, c1_hi)
        # yn = clip(((y - tau (A lam_e + ci lam_ih)) + tau y_t) / den_y, -M, M)
        # zn = clip((z + tauz ci lam_ih) / den_z, -M, M); hard mode keeps z
        # then extrapolate with theta = 1: xb = xn + (xn - x)
        np.matmul(p, lam_e, out=nxt[1])
        kern.primal_step(args)
        cur, nxt, args, args_next = nxt, cur, args_next, args

        if it % CHECK_EVERY == 0 or it == max_iters:
            _, x1, y, z = cur
            xp = PrimalPoint(x1[:, 0], y, z)
            lam = DualPoint(lam_e, ci * lam_ih, -lam_e)
            res = certify.natural_residuals(
                rec, xp, lam,
                x1_extra_quad=q, x1_extra_center=x1_extra_center, x1_extra_lin=lin_rows,
            )
            worst = certify.max_residual(res)
            if history is not None:
                for j in range(len(active)):
                    history(it, {key: float(val[j]) for key, val in res.items()},
                            PrimalPoint(xp.x1[j], y[j], z[j]),
                            DualPoint(lam.adjoint[j], lam.obstacle[j], lam.nonant[j]))
            better = worst < best_worst
            if better.any():
                np.copyto(best_worst, worst, where=better)
                for snap, a in zip(best, (x1, y, z, lam_e, lam_ih)):
                    np.copyto(snap, a, where=better[:, None, None])
            converged = worst <= tol
            mag_e = h * np.linalg.norm(lam_e, axis=-1).max(axis=-1)
            mag_i = ci_h * np.linalg.norm(lam_ih, axis=-1).max(axis=-1)
            diverged = (mag_e > DIVERGENCE_THRESHOLD) | (mag_i > DIVERGENCE_THRESHOLD)
            stopped = converged | diverged | (it == max_iters)
            if stopped.any():
                for j in np.flatnonzero(stopped):
                    if converged[j]:
                        status = STATUS_CONVERGED
                    else:
                        status = STATUS_INFEASIBLE if diverged[j] else STATUS_ITERATION_CAP
                    src = best if not converged[j] and best_worst[j] < math.inf else (
                        x1, y, z, lam_e, lam_ih)
                    bx1, by, bz, be, bi = (a[j] for a in src)
                    k = active[j]
                    primal = PrimalPoint(bx1[0].copy(), by.copy(),
                                         bz.copy() if slack else np.zeros((S, n)))
                    dual = DualPoint(be.copy(), steps[k][1] * bi, extract_rho(inst[k], be))
                    results[k] = (primal, dual, it, status)
                running = np.flatnonzero(~stopped)
                active = [active[j] for j in running]
                state = tuple(a[running] for a in (x1, y, z, xb1, yb, zb, lam_e, lam_ih,
                                                   best_worst, *best))

    return results if batched else results[0]


def solve_pdhg(
    inst: Instance,
    params: SolverParams | None = None,
    warm: tuple[PrimalPoint, DualPoint] | None = None,
    *,
    engine=None,
    history=None,
) -> tuple[PrimalPoint, DualPoint, SolveReport]:
    """Solve an instance with the primal-dual splitting.

    Returns the primal point, the multiplier densities (with the
    nonanticipativity component attached), and a report whose residual
    vector comes from the full certification pass.

    A hard-mode instance first goes through the a-priori state bounds of
    ``problem.hard_mode_infeasibility``. If they prove it infeasible, the
    solve stops after 0 iterations at the starting point with status
    ``infeasibility_suspected``, and the reason goes to
    ``extras["infeasibility"]``.

    ``history(it, res, xp, lam)``, if given, is the engine's hook, called
    at every residual check (see ``_pdhg_engine``); the CLI streams it to
    the ``--history-csv`` file.

    ``engine``, if given, is called in place of the iteration; the worker
    from ``prefetch_engine(inst, params)`` collects the result of this
    solve's engine call, which it started earlier, and answers only a solve
    without a history hook.
    """
    params = params or SolverParams()
    reason = hard_mode_infeasibility(inst) if inst.mode == "hard" else None
    if reason is None:
        primal, dual, iters, status = (engine or _pdhg_engine)(
            inst, params, **_engine_kwargs(params, warm, history))
    else:
        zeros = np.zeros((inst.S, inst.n))
        primal = PrimalPoint(project_c1(inst, np.zeros(inst.n)), zeros, zeros)
        dual, iters, status = zeros_dual(inst), 0, STATUS_INFEASIBLE
    kkt = certify.kkt_residuals(inst, primal, dual)
    extras = None if reason is None else {"infeasibility": reason}
    report = _report("pdhg", kkt, iters, status, extras=extras)
    return primal, dual, report


def solve_hard(
    inst: Instance,
    params: SolverParams | None = None,
    warm: tuple[PrimalPoint, DualPoint] | None = None,
    *,
    engine=None,
) -> tuple[PrimalPoint, DualPoint, SolveReport]:
    """Solve a hard-mode instance (no slack; states pinned under the
    obstacle); ``engine`` as for ``solve_pdhg``."""
    if inst.mode != "hard":
        raise ValueError("solve_hard requires an instance in hard mode")
    primal, dual, report = solve_pdhg(inst, params, warm=warm, engine=engine)
    report.algorithm = "pdhg_hard"
    return primal, dual, report


def worker_count() -> int:
    """Processes a solver call may run on: the CPUs of this process's
    affinity mask (``taskset`` sets it), or ``os.cpu_count()`` where that
    mask cannot be read. It is 1 without ``os.fork``, and while other
    Python threads run, since a fork could copy a lock one of them holds;
    callers start no worker process then."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerExitError(RuntimeError):
    """An engine worker process ended without replying."""


def _serve_engine(conn, rows: Instance | list[Instance], params: SolverParams) -> None:
    """Serve engine calls on ``rows`` until the process is terminated: each
    message holds the keyword arguments of one ``_pdhg_engine`` call and is
    answered with ``(True, result)`` or, if the call raised,
    ``(False, (exception, formatted traceback))``."""
    while True:
        kwargs = conn.recv()
        try:
            reply = (True, _pdhg_engine(rows, params, **kwargs))
        except Exception as exc:
            reply = (False, (exc, traceback.format_exc()))
        conn.send(reply)


def _engine_kwargs(params: SolverParams, warm, history) -> dict:
    """Keyword arguments of the engine call of ``solve_pdhg``."""
    return dict(tol=params.kkt_tolerance, max_iters=params.max_iters, warm=warm,
                history=history)


class _EngineWorker:
    """A worker process, forked once and bound to ``rows``, that runs
    ``_pdhg_engine`` calls on them (``_serve_engine``) one at a time:
    ``start(**kwargs)`` sends a call's keyword arguments, ``ready()`` tells
    whether its result is there, and ``result()`` waits for it. A call that
    raised in the worker raises its exception in ``result()``, with the
    worker's traceback as the cause; a worker that ended without replying
    raises ``WorkerExitError``. ``close()`` terminates and joins the worker.

    Passed as ``solve_pdhg``'s ``engine=``, it answers only the one call it
    was started with, by collecting its result instead of iterating.

    Workers are forked, not spawned: they inherit the realized instances
    and the compiled engine kernel (``kernel.load``, called before the
    fork) instead of importing numpy, scipy and the package again, which
    takes longer than most engine calls, and their caches of ``rows`` stay
    warm from call to call. Callers fork only when ``worker_count()``
    exceeds 1.
    """

    def __init__(self, rows: Instance | list[Instance], params: SolverParams):
        import multiprocessing

        kernel.load()   # built once here, not once per worker
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve_engine, args=(child, rows, params), daemon=True)
        self._proc.start()
        child.close()
        self._rows, self._params, self._started = rows, params, None

    def start(self, **kwargs) -> None:
        self._started = kwargs
        self._conn.send(kwargs)

    def ready(self) -> bool:
        return self._conn.poll()

    def result(self):
        self._started = None
        try:
            ok, reply = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise WorkerExitError(f"an engine worker process exited with code "
                                  f"{self._proc.exitcode} without replying") from None
        if not ok:
            exc, trace = reply
            raise exc from RuntimeError(f"raised in an engine worker process:\n{trace}")
        return reply

    def __call__(self, inst: Instance, params: SolverParams, **kwargs):
        if inst is not self._rows or params != self._params or kwargs != self._started:
            raise ValueError("an engine worker answers only the one call it was started with")
        return self.result()

    def close(self) -> None:
        self._conn.close()
        self._proc.terminate()
        self._proc.join()


@contextlib.contextmanager
def prefetch_engine(inst: Instance, params: SolverParams):
    """Yield an ``_EngineWorker`` forked now and started on the engine call
    of ``solve_pdhg(inst, params)``, to be passed to that solve (or to
    ``solve_hard(inst, params)``) as ``engine=``. The solve's checks and
    report run in the calling process as without it, so its outputs are
    bitwise the same. Yields None and forks nothing where ``worker_count()``
    is 1 and where ``problem.hard_mode_infeasibility`` proves a hard-mode
    instance infeasible, since that solve calls no engine. The worker is
    closed on exit.
    """
    if worker_count() == 1 or (inst.mode == "hard"
                               and hard_mode_infeasibility(inst) is not None):
        yield None
        return
    with contextlib.closing(_EngineWorker(inst, params)) as worker:
        worker.start(**_engine_kwargs(params, None, None))
        yield worker


@contextlib.contextmanager
def _ph_rounds(subs: list[Instance], params: SolverParams):
    """Yield ``run_round(warm, x1_extra_lin, **common)``, which makes the
    engine calls of one round for all of ``subs`` and returns the per-row
    results in order.

    The rows are split into W = min(S, ``worker_count()``) contiguous
    groups. The calling process runs group 0; each other group runs in an
    ``_EngineWorker`` forked here and bound to it for every round. Each
    round a worker gets its rows' slices of ``warm`` and ``x1_extra_lin``.
    A row's iterates do not depend on the rows that share its batch, so the
    results are bitwise those of one call over all rows.
    """
    W = min(len(subs), worker_count())
    bounds = [len(subs) * g // W for g in range(W + 1)]
    with contextlib.ExitStack() as workers_open:
        workers = [workers_open.enter_context(contextlib.closing(
            _EngineWorker(subs[lo:hi], params))) for lo, hi in zip(bounds[1:-1], bounds[2:])]

        def run_round(warm, x1_extra_lin, **common):
            def part(g):
                lo, hi = bounds[g], bounds[g + 1]
                lin = None if x1_extra_lin is None else x1_extra_lin[lo:hi]
                return dict(common, warm=warm[lo:hi], x1_extra_lin=lin)

            for g, worker in enumerate(workers, start=1):
                worker.start(**part(g))
            results = _pdhg_engine(subs[:bounds[1]], params, **part(0))
            for worker in workers:
                results += worker.result()
            return results

        yield run_round


def solve_progressive_hedging(
    inst: Instance,
    params: SolverParams | None = None,
) -> tuple[PrimalPoint, DualPoint, SolveReport, np.ndarray]:
    """Scenario decomposition with consensus on the first-stage control.

    Each outer round solves, per scenario, the single-scenario problem
    augmented with the weight term ``<w_k, x1>`` and the proximal penalty
    ``(r/2)||x1 - consensus||^2`` (the first round omits both), then
    averages the scenario controls into a new consensus and updates the
    weights by ``w_k += r (x1_k - consensus)``. At interior consensus the
    weights satisfy ``w_k = -rho_k - alpha * consensus``. The S
    subproblems of a round run as lockstep engine batches, each
    warm-started from its previous solve: one batch per contiguous group
    of scenarios, with one group per CPU of the affinity mask, each group
    after the first in a worker process forked for this solve
    (``_ph_rounds``). Every output is bitwise that of
    a single batch in one process.

    Returns the consensus primal point, the per-scenario duals, a report,
    and the final weight array. ``extras`` carries the consensus gap, the
    largest probability-weighted mean of the weights seen at any outer
    iteration (zero up to roundoff while the consensus projection stays
    inactive), and the total inner iteration count.

    A subproblem that stops unconverged (iteration cap or suspected
    infeasibility) ends the run: the report carries that subproblem's
    status and describes the last consensus with the latest scenario solves.
    Results apply in scenario order up to the first failed subproblem, so
    the report, including ``inner_iterations``, is the one a sequential
    sweep that stops at that subproblem would give.
    """
    params = params or SolverParams()
    if inst.mode != "slack":
        raise ValueError("progressive hedging requires slack mode (feasible subproblems)")
    S, n = inst.S, inst.n
    r = params.ph_penalty
    subs = [replace(inst, scenarios=inst.scenarios.subset([k])) for k in range(S)]

    w = np.zeros((S, n))
    x_hat = np.zeros(n)
    x1s = np.zeros((S, n))
    y, z = np.zeros((S, n)), np.zeros((S, n))
    lam_e, lam_i = np.zeros((S, n)), np.zeros((S, n))
    warm_state: list = [None] * S
    status = STATUS_ITERATION_CAP
    gap = math.inf
    projection_active = False
    drift_log: list[float] = []
    outer = 0
    inner_total = 0

    with _ph_rounds(subs, params) as run_round:
        for outer in range(1, PH_MAX_OUTER + 1):
            first = outer == 1
            solved = run_round(
                warm_state, None if first else w,
                tol=PH_INNER_TOLERANCE,
                max_iters=params.max_iters,
                x1_extra_quad=0.0 if first else r,
                x1_extra_center=None if first else x_hat,
            )
            # results apply in scenario order up to the first failed subproblem,
            # as if the subproblems had been solved one after another
            failed = None
            for k, (xk, lk, it_k, st_k) in enumerate(solved):
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
    report = _report(
        "progressive_hedging", certify.kkt_residuals(inst, primal, dual), outer, status,
        extras={
            "consensus_gap": gap,
            "weight_mean_drift": max(drift_log) if drift_log else 0.0,
            "projection_active": projection_active,
            "inner_iterations": inner_total,
        },
    )
    return primal, dual, report, w


# ---------------------------------------------------------------------------
# Dense log-barrier reference oracle


def _barrier_terms(v, mu, spans, psi_flat, n, S, slack):
    """Gradient and Hessian contributions of all log-barrier terms.

    Returns (grad, hess_diag, hess_cross, min_slack) where hess_cross is
    the y/z coupling of the obstacle terms (slack mode).
    """
    nv = v.size
    grad = np.zeros(nv)
    hdiag = np.zeros(nv)
    x1 = v[:n]
    y = v[n:n + S * n]
    lo, hi, M = spans

    s_lo = x1 - lo
    s_hi = hi - x1
    s_ylo = y + M
    s_yhi = M - y
    slacks = [s_lo, s_hi, s_ylo, s_yhi]

    grad[:n] += mu * (-1.0 / s_lo + 1.0 / s_hi)
    hdiag[:n] += mu * (1.0 / s_lo**2 + 1.0 / s_hi**2)
    grad[n:n + S * n] += mu * (-1.0 / s_ylo + 1.0 / s_yhi)
    hdiag[n:n + S * n] += mu * (1.0 / s_ylo**2 + 1.0 / s_yhi**2)

    if slack:
        z = v[n + S * n:]
        s_zlo = z + M
        s_zhi = M - z
        s_obs = psi_flat + z - y
        slacks += [s_zlo, s_zhi, s_obs]
        grad[n + S * n:] += mu * (-1.0 / s_zlo + 1.0 / s_zhi)
        hdiag[n + S * n:] += mu * (1.0 / s_zlo**2 + 1.0 / s_zhi**2)
        grad[n:n + S * n] += mu / s_obs
        grad[n + S * n:] += -mu / s_obs
        hdiag[n:n + S * n] += mu / s_obs**2
        hdiag[n + S * n:] += mu / s_obs**2
        hcross = -mu / s_obs**2
    else:
        s_obs = psi_flat - y
        slacks.append(s_obs)
        grad[n:n + S * n] += mu / s_obs
        hdiag[n:n + S * n] += mu / s_obs**2
        hcross = None

    min_slack = min(float(s.min()) for s in slacks)
    return grad, hdiag, hcross, min_slack


def _barrier_fraction_to_boundary(v, dv, spans, psi_flat, n, S, slack) -> float:
    """Largest step keeping every barrier slack strictly positive."""
    lo, hi, M = spans
    x1, dx1 = v[:n], dv[:n]
    y, dy = v[n:n + S * n], dv[n:n + S * n]
    pairs = [
        (x1 - lo, dx1), (hi - x1, -dx1),
        (y + M, dy), (M - y, -dy),
    ]
    if slack:
        z, dz = v[n + S * n:], dv[n + S * n:]
        pairs += [(z + M, dz), (M - z, -dz), (psi_flat + z - y, dz - dy)]
    else:
        pairs.append((psi_flat - y, -dy))
    smax = 1.0
    for s, ds in pairs:
        shrink = ds < 0
        if np.any(shrink):
            smax = min(smax, float(np.min(-s[shrink] / ds[shrink])))
    return 0.99 * smax


def solve_barrier_reference(
    inst: Instance,
    params: SolverParams | None = None,
) -> tuple[PrimalPoint, DualPoint, SolveReport]:
    """Dense interior-point reference solve for small instances.

    Follows the central path of the log-barrier reformulation (all boxes
    and the obstacle inequality barriered, the PDE equality kept in a
    dense Newton KKT system), shrinking the barrier parameter
    geometrically to its terminal value. Obstacle multipliers are
    recovered from the barrier gradients, ``mu / slack``, converted to
    densities; the equality multipliers come from the Newton system.
    """
    params = params or SolverParams()
    S, n, h = inst.S, inst.n, inst.h
    hh = h * h
    slack = inst.mode == "slack"
    M = inst.c2_bound
    p = inst.p
    nv = n + S * n + (S * n if slack else 0)
    if nv > BARRIER_SIZE_LIMIT:
        raise BarrierSizeError(
            f"barrier oracle limited to {BARRIER_SIZE_LIMIT} variables, got {nv}"
        )
    _, g, psi = inst.fields()
    ops = inst.operators()

    lo, hi = inst.c1_lo, inst.c1_hi
    if np.any(hi - lo <= 0):
        raise BarrierFailure("control box has empty interior")
    psi_flat = psi.ravel()
    spans = (lo, hi, M)

    # strictly interior start; the PDE equality is reached by Newton
    x1 = 0.5 * (lo + hi)
    y0 = np.zeros(S * n)
    if slack:
        delta = 0.5 * min(1.0, M)
        z0 = np.clip(np.maximum(0.0, -psi_flat + delta), -0.9 * M, 0.9 * M)
        if np.any(psi_flat + z0 - y0 <= 0):
            raise BarrierFailure("could not construct a strictly feasible start")
        v = np.concatenate([x1, y0, z0])
    else:
        y0 = np.clip(psi_flat - 0.5 * min(1.0, M), -0.9 * M, 0.9 * M)
        if np.any(psi_flat - y0 <= 0):
            raise BarrierFailure("obstacle admits no strictly feasible state")
        v = np.concatenate([x1, y0])

    # quadratic objective: gradient factors and constant Hessian diagonal
    w_y = np.repeat(p * hh, n)
    hobj = np.concatenate(
        [np.full(n, inst.alpha * hh), w_y]
        + ([inst.alpha_prime * w_y] if slack else [])
    )
    yt_flat = np.tile(inst.y_target, S)

    # dense equality Jacobian: A_k y_k - x1 - g_k = 0
    E = np.zeros((S * n, nv))
    for k in range(S):
        rows = slice(k * n, (k + 1) * n)
        E[rows, :n] = -np.eye(n)
        E[rows, n + k * n: n + (k + 1) * n] = ops[k].toarray()
    b = g.ravel()
    nu = np.zeros(S * n)

    def obj_grad(v):
        gr = hobj * v
        gr[n:n + S * n] -= w_y * yt_flat
        return gr

    mu = BARRIER_MU0
    newton_steps = 0
    while True:
        inner_tol = max(1e-11, 1e-2 * mu)
        for _ in range(80):
            bgrad, bhdiag, bhcross, _ = _barrier_terms(v, mu, spans, psi_flat, n, S, slack)
            grad = obj_grad(v) + bgrad
            r_dual = grad + E.T @ nu
            r_eq = E @ v - b
            if max(np.abs(r_dual).max(), np.abs(r_eq).max()) <= inner_tol:
                break

            H = np.zeros((nv, nv))
            np.fill_diagonal(H, hobj + bhdiag)
            if bhcross is not None:
                iy = np.arange(n, n + S * n)
                iz = np.arange(n + S * n, nv)
                H[iy, iz] += bhcross
                H[iz, iy] += bhcross
            KKT = np.zeros((nv + S * n, nv + S * n))
            KKT[:nv, :nv] = H
            KKT[:nv, nv:] = E.T
            KKT[nv:, :nv] = E
            rhs = np.concatenate([-r_dual, -r_eq])
            try:
                sol = scipy.linalg.solve(KKT, rhs)
            except scipy.linalg.LinAlgError:
                KKT[:nv, :nv] += 1e-10 * np.eye(nv)
                try:
                    sol = scipy.linalg.solve(KKT, rhs)
                except scipy.linalg.LinAlgError as exc:
                    raise BarrierFailure(
                        f"Newton system singular at mu={mu:.3e}: {exc}"
                    ) from exc
            dv, dnu = sol[:nv], sol[nv:]

            smax = _barrier_fraction_to_boundary(v, dv, spans, psi_flat, n, S, slack)
            step = min(1.0, smax)
            base = np.linalg.norm(np.concatenate([r_dual, r_eq]))
            stalled = False
            for _ in range(40):
                vt = v + step * dv
                nut = nu + step * dnu
                bg, _, _, ms = _barrier_terms(vt, mu, spans, psi_flat, n, S, slack)
                if ms > 0.0:
                    rt = np.linalg.norm(
                        np.concatenate([obj_grad(vt) + bg + E.T @ nut, E @ vt - b])
                    )
                    if rt <= (1.0 - 1e-4 * step) * base:
                        break
                step *= 0.5
            else:
                stalled = True
            if stalled:
                # no productive step left at this mu; acceptable at the
                # numerical floor (final quality is gated by the KKT
                # certificate), fatal if the system genuinely broke down
                if base <= 1e-6:
                    break
                raise BarrierFailure(
                    f"line search stalled at mu={mu:.3e}; residual {base:.3e}"
                )
            v = v + step * dv
            nu = nu + step * dnu
            newton_steps += 1
        if mu <= params.barrier_mu_terminal:
            break
        mu = max(params.barrier_mu_terminal, mu * BARRIER_SHRINK)

    x1 = v[:n]
    y = v[n:n + S * n].reshape(S, n)
    z = v[n + S * n:].reshape(S, n) if slack else np.zeros((S, n))
    weights = (p * hh)[:, None]
    if slack:
        s_obs = (psi_flat + v[n + S * n:] - v[n:n + S * n]).reshape(S, n)
    else:
        s_obs = (psi_flat - v[n:n + S * n]).reshape(S, n)
    lam_i = (mu / s_obs) / weights
    lam_e = nu.reshape(S, n) / weights
    primal = PrimalPoint(x1.copy(), y.copy(), z.copy())
    dual = DualPoint(lam_e, lam_i, extract_rho(inst, lam_e))
    kkt = certify.kkt_residuals(inst, primal, dual)
    status = STATUS_CONVERGED
    if not kkt.max_residual() <= 10.0 * math.sqrt(params.barrier_mu_terminal):
        status = STATUS_FAILURE
    report = _report("barrier", kkt, newton_steps, status, extras={"mu_terminal": mu})
    return primal, dual, report
