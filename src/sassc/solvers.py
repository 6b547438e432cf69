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
variables with fixed steps (see ``_steps``).

The iterations between two residual checks, and the check itself, run in
one call into the C kernel of ``kernel.py`` (``iterate``: per iteration
the dual step, the control gradient ``p @ lam_e`` summed from 0.0 in
scenario order, then the prox, clamp and extrapolation; then the natural
residuals, the divergence magnitudes and the worst residual), so no numpy
call or Python step runs between checks and the engine only reads three
of the check's values; the PDLP
solver (Applegate et al., 2021) runs its steps and its termination checks
in compiled code the same way. The kernel applies the stiffness blocks as
the assembled five-point stencil (``grid.Stencil``), and sums each row in
the order of ``Stencil @``; the compiler runs all rows in one loop,
several to a vector, since an absent neighbour's product is masked to
+0.0 by its bits, not selected by a branch, and zero guards around each
vector it reads keep the loads past the vector's ends in its buffer. It
is compiled with ``cc`` and ``kernel.FLAGS`` (``-O3 -march=native
-ffp-contract=off``, and 512-bit vectors on x86; no fast-math, no fused
multiply-add) on the first engine call of a process, and runs every
entry through the IEEE operations of the numpy form in its order, so
iterates are bit for bit those of the numpy loop; a subnormal slack entry
is divided through its integer mantissa, with the IEEE quotient's bits.
The check repeats ``certify.natural_residuals`` bit for bit, since that
sums left to right in one defined order. Without a C compiler the engine
runs that numpy loop (``kernel.numpy_steps``, ``Stencil @`` products) and
scores its checks with ``certify``, with the same bits.

One engine call (``_pdhg_engine``) solves one instance. Only the K-norm
power iteration behind its step sizes (``_steps``) runs several instances
with the same grid, mode and scenario count in lockstep, as rows of one
stacked map: progressive hedging estimates the steps of a group of
subproblems at once, where call overhead, not arithmetic, dominates each
power iteration. ``grid.operator_norm_estimate`` runs the loop, and each
power step is two calls into the same C kernel (``forward``, then
``power_step``: the adjoint, the weighted Rayleigh quotients and norms in
numpy's pairwise summation order, the normalisation and the stop test),
each running row through its own cached stencil; only the control block
of the adjoint, a numpy ``matmul``, runs between them. Without a C
compiler the numpy maps and ``grid.power_step`` run, with the same bits.

Progressive hedging decomposes by scenario and exposes the
nonanticipativity structure algorithmically: scenario copies of the
control are driven to consensus by weights ``w_k`` that converge to the
negative of the per-scenario nonanticipativity density minus the shared
control gradient. Given the weights, the subproblems of a round are
independent. They are split into contiguous groups, one per CPU of the
affinity mask (``worker_count``), and each group runs in its own forked
process (``_EngineWorker``), one engine call per subproblem. The process
that runs a group binds each subproblem's kernel buffers once per solve
(``_Group``) and only loads each round's warm start and extras into them:
at n1d 16 a bind took about 340 us, and loading 15 us (2-vCPU Xeon).

The barrier oracle is deliberately a different algorithmic family (dense
Newton on a log-barrier interior path) so that agreement between solvers
is evidence of correctness rather than a tautology. It reads no
``SolverParams``: it stops on the duality gap it measures at its point.

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

from . import certify, kernel
from .grid import operator_norm_estimate
from .problem import (
    DualPoint,
    Instance,
    PrimalPoint,
    dual_function,
    hard_mode_infeasibility,
    objective,
    project_c1,
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
BARRIER_REL_GAP = 1e-8      # barrier stops at duality gap <= this * |J|
BARRIER_MU_FLOOR = 1e-20    # barrier parameter at which the barrier fails


# the check's divergence magnitudes and worst residual (kernel.CHECK_COLUMNS)
_MAGNITUDES_AND_WORST = slice(kernel.CHECK_COLUMNS.index("mag_e"), None)


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

    def __post_init__(self):
        # a bool is an Integral, and True would pass as 1
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if not self.max_iters > 0:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        for name in ("kkt_tolerance", "ph_penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 < value < math.inf:
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


def _k_maps(rows: list[Instance], s1, sz, ci, live: np.ndarray):
    """Domain weights, the forward map and the power step
    (``operator_norm_estimate``'s ``step``) of the rescaled constraint map
    K of each instance in ``rows``, which must share the grid, mode and
    scenario count (``kernel._map_dims`` checks), stacked for a lockstep
    power iteration.
    The maps take and return the rows still running, which ``live`` names;
    rows only ever leave, so their count does too.

    The kernel's ``forward`` and ``power_step`` (``kernel.numpy_steps``
    without a compiler) apply each running row's own operator, through its
    cached stencil. The step first writes the control block of the adjoint,
    ``-s1 (p @ we)``, with ``np.matmul``, whose summation order at S > 1 is
    the BLAS library's; one kernel call then applies the rest of the
    adjoint and scores the step. Each map returns buffers, one set per
    count of running rows, that its next call overwrites;
    ``grid.operator_norm_estimate`` is done with each result by then.
    """
    s1, sz, ci = (np.asarray(c, dtype=float) for c in (s1, sz, ci))
    kern = kernel.load() or kernel.numpy_steps
    maps = kern.bind_maps(rows, np.stack([s1, sz, ci, -ci * sz], axis=1))
    S, n = rows[0].S, rows[0].n
    cols = (-s1[:, None, None], np.array([sub.p for sub in rows])[:, None, :])
    running = {}

    def select(L: int):
        """Buffers, control-block constants and views of the L rows still
        running."""
        if L not in running:
            idx = np.flatnonzero(live)
            buf = kernel.map_buffers(maps, idx)
            running[L] = (buf, *(c[idx] for c in cols), buf.e[:, :S * n].reshape(L, S, n),
                          buf.t[:, None, :n])
        return running[L]

    def forward(v: np.ndarray) -> np.ndarray:
        buf = select(len(v))[0]
        kern.forward(maps, buf, v)
        return buf.e

    def step(e: np.ndarray, v: np.ndarray, lam_prev: np.ndarray):
        """The power step at ``e = forward(v)``, which is ``buf.e``."""
        buf, neg_s1, p, we, control = select(len(v))
        np.multiply(neg_s1, np.matmul(p, we), out=control)
        return kern.power_step(maps, buf, v, lam_prev)

    return maps.weights, forward, step


def _estimate_k_norm(rows: list[Instance], s1=1.0, sz=1.0, ci=1.0) -> list[float]:
    """Weighted operator norms of the constraint maps K of ``rows``,
    instances with the same grid, mode and scenario count.

    ``s1`` and ``sz`` rescale the control and slack columns and ``ci`` the
    inequality rows, each a scalar or one value per row; the norm of the
    rescaled map governs the step sizes of the block-balanced iteration (a
    plain change of variables in the splitting). Estimates are cached with
    the realized fields, for the subproblems progressive hedging re-solves
    every round. The rows not yet cached run as one lockstep power
    iteration, and each estimate is bitwise that of its row on its own.
    """
    s1, sz, ci = (np.broadcast_to(np.asarray(c, dtype=float), (len(rows),))
                  for c in (s1, sz, ci))
    keys = [("knorm", sub.grid.n1d, sub.mode, float(a), float(b), float(c))
            for sub, a, b, c in zip(rows, s1, sz, ci)]
    todo = [j for j, (sub, key) in enumerate(zip(rows, keys))
            if key not in sub.scenarios._cache]
    if todo:
        live = np.ones(len(todo), dtype=bool)
        weights, forward, step = _k_maps([rows[j] for j in todo], s1[todo], sz[todo],
                                         ci[todo], live)
        est = operator_norm_estimate(forward, None, weights, live=live, step=step)
        for j, e in zip(todo, est):
            rows[j].scenarios._cache[keys[j]] = float(e)
    return [sub.scenarios._cache[key] for sub, key in zip(rows, keys)]


def _steps(rows: list[Instance]) -> np.ndarray:
    """The (B, 4) step constants tau, ci, tau1 and tauz of the engine on
    each of ``rows``, from two lockstep K-norm estimates
    (``_estimate_k_norm``), which are cached, so a later call on one row
    costs two cache lookups.

    The raw constraint map is badly block-imbalanced: the state column
    carries the stiffness norm while the control and slack columns and the
    inequality rows carry unit norm. The iteration therefore runs in
    block-balanced variables: control and slack columns and the inequality
    rows are rescaled by the square root of the unbalanced operator norm
    (the inequality rows by a third of it in hard mode, where no slack
    block bridges the coupling). These are changes of variables only; the
    dual updates and the clamped-quadratic proxes keep their form, with
    effective per-block steps ``tau * scale^2`` and the true obstacle
    multiplier recovered as ``ci * iterate``.
    """
    slack = rows[0].mode == "slack"
    k0 = _estimate_k_norm(rows)
    scales = [max(1.0, math.sqrt(k)) for k in k0]
    cis = scales if slack else [max(1.0, k / 3.0) for k in k0]
    szs = scales if slack else [1.0] * len(rows)
    knorms = _estimate_k_norm(rows, s1=scales, sz=szs, ci=cis)
    steps = []
    for s1, sz, ci, knorm in zip(scales, szs, cis, knorms):
        tau = math.sqrt(STEP_SAFETY) / knorm    # sigma = tau
        steps.append((tau, ci, tau * s1 * s1, tau * sz * sz))
    return np.array(steps)


def _start(inst: Instance, ci: float, warm: tuple[PrimalPoint, DualPoint] | None):
    """The engine's starting state (x1, y, z, xb1, yb, zb, lam_e, lam_ih)
    from ``warm``, a primal and dual pair, or None for the projected zero
    point, with the extrapolated point at the start."""
    if warm is None:
        zeros = np.zeros((inst.S, inst.n))
        x1, y, z, lam_e, lam_ih = project_c1(inst, np.zeros(inst.n)), zeros, zeros, zeros, zeros
    else:
        xw, lw = warm
        x1, y, z, lam_e, lam_ih = (xw.x1, xw.y, xw.z, lw.adjoint,
                                   np.maximum(lw.obstacle, 0.0) / ci)
    return x1, y, z, x1, y, z, lam_e, lam_ih


def _pdhg_engine(
    inst: Instance,
    tol: float,
    max_iters: int,
    warm: tuple[PrimalPoint, DualPoint] | None = None,
    x1_extra_quad: float = 0.0,
    x1_extra_center: np.ndarray | None = None,
    x1_extra_lin: np.ndarray | None = None,
    history=None,
    batch=None,
) -> tuple[PrimalPoint, DualPoint, int, str]:
    """Run the primal-dual iteration on ``inst`` from ``warm`` (a primal
    and dual pair, or None for the projected zero point) until its
    optimality residuals drop below ``tol``; returns (primal, dual,
    iterations, status).

    The step constants come from ``_steps``, and the iteration runs on the
    kernel buffers that ``bind`` lays out for the call, or on ``batch``,
    the buffers an earlier ``bind`` laid out for ``inst`` (progressive
    hedging keeps one per subproblem), loaded with ``warm`` and the extras
    (``refill``) instead. Every residual check runs
    inside the kernel call that ends the interval (``kernel.iterate``): it
    writes the natural residuals of ``certify.natural_residuals``, the
    multiplier magnitudes ``h max_k |lam_e,k|`` and ``ci h max_k
    |lam_ih,k|`` and the worst residual by ``certify.max_residual``'s rule
    into one row of floats (``kernel.CHECK_COLUMNS``). The engine reads the
    worst residual and the magnitudes: the stopping status (converged,
    then suspected infeasibility, then the iteration cap) and the best
    iterate, the one with the smallest worst residual at a check, which a
    run that stops unconverged returns. The best iterate is copied into
    buffers that ``bind`` allocates once.

    ``history(it, res, xp, lam)``, if given, is called at every residual
    check with a dict of the natural residuals as Python floats; the dict
    and the points are built only then. The arrays of ``xp`` and
    ``lam.adjoint`` are views of the engine's working buffers, which later
    iterations overwrite in place, so the hook must consume them during the
    call (copy them to keep them).
    """
    kern = kernel.load() or kernel.numpy_steps
    S, n, slack = inst.S, inst.n, inst.mode == "slack"
    extras = dict(q=x1_extra_quad, center=x1_extra_center, lin=x1_extra_lin)
    if batch is None:
        [step] = _steps([inst])
        k = kern.bind(inst, step, _start(inst, step[1], warm), **extras)
    else:
        k = batch
        kern.refill(k, _start(inst, k.ci, warm), **extras)
    ci = k.ci
    # the iterations up to each residual check, in one kernel call; each is
    # the dual ascent at the extrapolated primal point:
    # lam_e += sigma ((A yb - xb1) - g)
    # lam_ih = max(0, lam_ih + sigma ci (ineq - psi)), ineq = yb - zb or yb
    # then the proximal descent, every block a clamped quadratic:
    # x1n = clip((x1 + tau1 ((p @ lam_e + qc) - lin)) / den1, c1_lo, c1_hi)
    # yn = clip(((y - tau (A lam_e + ci lam_ih)) + tau y_t) / den_y, -M, M)
    # zn = clip((z + tauz ci lam_ih) / den_z, -M, M); hard mode keeps z
    # and the extrapolation with theta = 1: xb = xn + (xn - x);
    # the call ends with the residual check at the newest iterate, which
    # writes certify.natural_residuals of (xn, (lam_e, ci lam_ih, -lam_e)),
    # the divergence magnitudes h max_k |lam_e,k|, ci h max_k |lam_ih,k| and
    # the worst residual (certify.max_residual's rule) into k.check
    best_worst = math.inf
    status = STATUS_ITERATION_CAP
    it = 0
    while it < max_iters:
        count = min(CHECK_EVERY - it % CHECK_EVERY, max_iters - it)
        kern.iterate(k, count)
        it += count

        mag_e, mag_i, worst = k.check[_MAGNITUDES_AND_WORST].tolist()
        if history is not None:
            _, x1, y, z = k.cur
            lam_e, lam_ih = k.duals
            res = dict(zip(certify.RESIDUAL_NAMES, k.check.tolist()))
            if not slack:
                del res["r3p"]
            history(it, res, PrimalPoint(x1, y, z), DualPoint(lam_e, ci * lam_ih, -lam_e))
        if worst <= tol:
            status = STATUS_CONVERGED
            break
        if worst < best_worst:
            best_worst = worst
            np.copyto(k.best[0], k.cur[0])
            np.copyto(k.best_duals, k.duals)
        if mag_e > DIVERGENCE_THRESHOLD or mag_i > DIVERGENCE_THRESHOLD:
            status = STATUS_INFEASIBLE
            break

    kept = status != STATUS_CONVERGED and best_worst < math.inf
    _, x1, y, z = k.best if kept else k.cur
    lam_e, lam_ih = k.best_duals if kept else k.duals
    primal = PrimalPoint(x1.copy(), y.copy(), z.copy() if slack else np.zeros((S, n)))
    return primal, DualPoint(lam_e.copy(), ci * lam_ih, -lam_e), it, status


def _proven_infeasible(algorithm: str, inst: Instance):
    """The outcome of a hard-mode instance that ``hard_mode_infeasibility``
    proves infeasible, or None: status ``infeasibility_suspected`` after 0
    iterations at the zero point (controls projected onto C1, zero
    multipliers), the reason in ``extras["infeasibility"]``."""
    reason = hard_mode_infeasibility(inst) if inst.mode == "hard" else None
    if reason is None:
        return None
    zeros = np.zeros((inst.S, inst.n))
    primal = PrimalPoint(project_c1(inst, np.zeros(inst.n)), zeros, zeros)
    dual = zeros_dual(inst)
    report = _report(algorithm, certify.kkt_residuals(inst, primal, dual), 0,
                     STATUS_INFEASIBLE, extras={"infeasibility": reason})
    return primal, dual, report


def solve_pdhg(
    inst: Instance,
    params: SolverParams | None = None,
    warm: tuple[PrimalPoint, DualPoint] | None = None,
    *,
    history=None,
) -> tuple[PrimalPoint, DualPoint, SolveReport]:
    """Solve an instance with the primal-dual splitting.

    Returns the primal point, the multiplier densities (with the
    nonanticipativity component attached), and a report whose residual
    vector comes from the full certification pass.

    A hard-mode instance first goes through the a-priori state bounds of
    ``problem.hard_mode_infeasibility``. If they prove it infeasible, the
    solve stops after 0 iterations at the zero point of
    ``_proven_infeasible``, with the reason in ``extras["infeasibility"]``.

    ``history(it, res, xp, lam)``, if given, is the engine's hook, called
    at every residual check (see ``_pdhg_engine``); the CLI streams it to
    the ``--history-csv`` file.
    """
    params = params or SolverParams()
    proven = _proven_infeasible("pdhg", inst)
    if proven is not None:
        return proven
    primal, dual, iters, status = _pdhg_engine(
        inst, tol=params.kkt_tolerance, max_iters=params.max_iters, warm=warm,
        history=history)
    kkt = certify.kkt_residuals(inst, primal, dual)
    return primal, dual, _report("pdhg", kkt, iters, status)


def solve_hard(
    inst: Instance,
    params: SolverParams | None = None,
    warm: tuple[PrimalPoint, DualPoint] | None = None,
) -> tuple[PrimalPoint, DualPoint, SolveReport]:
    """Solve a hard-mode instance (no slack; states pinned under the
    obstacle)."""
    if inst.mode != "hard":
        raise ValueError("solve_hard requires an instance in hard mode")
    primal, dual, report = solve_pdhg(inst, params, warm=warm)
    report.algorithm = "pdhg_hard"
    return primal, dual, report


def worker_count() -> int:
    """Processes a solver call may run on: the CPUs of this process's
    affinity mask (``taskset`` sets it), or ``os.cpu_count()`` where that
    mask cannot be read. It is 1 without ``os.fork``, and while other
    Python threads run (a library caller's own threads), since a fork
    could copy a lock one of them holds; callers start no worker process
    then."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerExitError(RuntimeError):
    """An engine worker process ended without replying."""


class _Group:
    """The PH subproblems ``rows`` of one contiguous group, in the process
    that runs them. The first round estimates the step sizes of all rows
    in one lockstep estimate (``_steps``) and binds one kernel batch per
    row (``bind``), which the group keeps for the rest of the solve; every
    round then makes one engine call per row on its batch, one row after
    another."""

    def __init__(self, rows: list[Instance]):
        self.rows, self.batches = rows, None

    def run(self, warm: list, x1_extra_lin, **common) -> list:
        """The engine calls of one round, with one warm start and one row
        of ``x1_extra_lin`` (or None) per row; returns their results."""
        kern = kernel.load() or kernel.numpy_steps
        if self.batches is None:
            self.batches = [kern.bind(sub, step, _start(sub, step[1], None), q=0.0)
                            for sub, step in zip(self.rows, _steps(self.rows))]
        lins = [None] * len(self.rows) if x1_extra_lin is None else x1_extra_lin
        return [_pdhg_engine(sub, warm=w, x1_extra_lin=lin, batch=k, **common)
                for sub, k, w, lin in zip(self.rows, self.batches, warm, lins)]


def _serve_engine(conn, rows: list[Instance]) -> None:
    """Serve PH rounds on ``rows`` until the process is terminated: each
    message holds the keyword arguments of one ``_Group.run`` call and is
    answered with ``(True, result)`` or, if the call raised,
    ``(False, (exception, formatted traceback))``."""
    group = _Group(rows)
    while True:
        kwargs = conn.recv()
        try:
            reply = (True, group.run(**kwargs))
        except Exception as exc:
            reply = (False, (exc, traceback.format_exc()))
        conn.send(reply)


class _EngineWorker:
    """A worker process, forked once and bound to ``rows``, that runs
    rounds on them (``_Group.run`` in ``_serve_engine``) one at a time:
    ``start(**kwargs)`` sends a call's keyword arguments and ``result()``
    waits for its result. A call that raised in the worker raises its
    exception in ``result()``, with the worker's traceback as the cause; a
    worker that ended without replying raises ``WorkerExitError``.
    ``close()`` terminates and joins the worker.

    Workers are forked, not spawned: they inherit the realized instances
    and the compiled engine kernel (``kernel.load``, called before the
    fork) instead of importing numpy and the package again, which
    takes longer than most engine calls, and they keep the caches and
    kernel batches of ``rows`` from round to round. Callers fork only when
    ``worker_count()`` exceeds 1.
    """

    def __init__(self, rows: list[Instance]):
        import multiprocessing

        kernel.load()   # built once here, not once per worker
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve_engine, args=(child, rows), daemon=True)
        self._proc.start()
        child.close()

    def start(self, **kwargs) -> None:
        self._conn.send(kwargs)

    def result(self):
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

    def close(self) -> None:
        self._conn.close()
        self._proc.terminate()
        self._proc.join()


@contextlib.contextmanager
def _ph_rounds(subs: list[Instance]):
    """Yield ``run_round(warm, x1_extra_lin, **common)``, which makes the
    engine calls of one round for all of ``subs`` and returns the per-row
    results in order.

    The rows are split into W = min(S, ``worker_count()``) contiguous
    groups, each a ``_Group``, which binds its rows' kernel batches once.
    The calling process runs group 0; each other group runs in an
    ``_EngineWorker`` forked here and bound to it for every round. Each
    round a worker gets its rows' slices of ``warm`` and ``x1_extra_lin``.
    A row's results do not depend on the rows that share its group, so
    they are bitwise those of one engine call per row in one process.
    """
    W = min(len(subs), worker_count())
    bounds = [len(subs) * g // W for g in range(W + 1)]
    first = _Group(subs[:bounds[1]])
    with contextlib.ExitStack() as workers_open:
        workers = [workers_open.enter_context(contextlib.closing(
            _EngineWorker(subs[lo:hi]))) for lo, hi in zip(bounds[1:-1], bounds[2:])]

        def run_round(warm, x1_extra_lin, **common):
            def part(g):
                lo, hi = bounds[g], bounds[g + 1]
                lin = None if x1_extra_lin is None else x1_extra_lin[lo:hi]
                return dict(common, warm=warm[lo:hi], x1_extra_lin=lin)

            for g, worker in enumerate(workers, start=1):
                worker.start(**part(g))
            results = first.run(**part(0))
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
    subproblems of a round are engine calls, each warm-started from its
    previous solve, in contiguous groups of scenarios, with one group per
    CPU of the affinity mask, each group after the first in a worker
    process forked for this solve (``_ph_rounds``). Every output is bitwise
    that of one process.

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

    with _ph_rounds(subs) as run_round:
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
    dual = DualPoint(lam_e, lam_i, -lam_e)
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


def _barrier_inequalities(inst: Instance, psi_flat: np.ndarray):
    """Every strict inequality of the barrier, stated once as ``b - G v > 0``
    over ``v = [x1 | y | z]`` (no z in hard mode), and the block of each row:
    the control box ``lo < x1 < hi``, the state box ``-M < y < M``, in slack
    mode the slack box ``-M < z < M``, and last the obstacle ``y - z < psi``
    (``y < psi`` in hard mode). Row r of ``G`` is ``vals[r] @ v[cols[r]]``,
    one or two entries of +-1 in (R, 2) index arrays, padded by a 0.0.
    """
    n, sn, M = inst.n, inst.S * inst.n, inst.c2_bound
    slack = inst.mode == "slack"
    x1, y, z = (np.arange(at, at + size) for size, at in ((n, 0), (sn, n), (sn, n + sn)))
    boxes = [x1, y] + ([z] if slack else [])
    rows = [(u, (sign, 0.0), u) for u in boxes for sign in (-1.0, 1.0)]
    rows.append((y, (1.0, -1.0), z) if slack else (y, (1.0, 0.0), y))
    cols = np.concatenate([np.stack([u, w], axis=1) for u, _, w in rows])
    vals = np.concatenate([np.tile(pair, (u.size, 1)) for u, pair, _ in rows])
    b = np.concatenate([-inst.c1_lo, inst.c1_hi] + [np.full(sn, M)] * (2 * len(boxes) - 2)
                       + [psi_flat])
    names = np.repeat(["control box", "state box", "slack box", "obstacle"],
                      [2 * n, 2 * sn, 2 * sn if slack else 0, sn])
    return cols, vals, b, names


def solve_barrier_reference(inst: Instance) -> tuple[PrimalPoint, DualPoint, SolveReport]:
    """Dense interior-point reference solve for small instances.

    Follows the central path of the log-barrier reformulation (every strict
    inequality ``b - G v > 0`` of ``_barrier_inequalities`` barriered, the
    PDE equality kept in a dense Newton KKT system), shrinking the barrier
    parameter geometrically. Obstacle multipliers are recovered from the
    barrier gradients, ``mu / slack`` of the obstacle rows, converted to
    densities; the equality multipliers come from the Newton system.

    Past its size check it first runs ``_proven_infeasible``, as
    ``solve_pdhg`` does; a start point outside the inequalities' interior
    (a control box with lo = hi, say) raises ``ValueError``, and a Newton
    breakdown ``BarrierFailure``.

    After each barrier parameter it measures the duality gap of its point,
    ``objective - dual_function``, and stops once its magnitude is within
    ``BARRIER_REL_GAP * |J|`` and the certificate's equality residual r4
    within ``10 sqrt(mu)``; reaching ``BARRIER_MU_FLOOR`` first fails, and
    so does a parameter whose Newton loop ends at its 80-step cap.
    ``converged`` also needs the certificate's worst residual within
    ``10 sqrt(mu)`` at the parameter reached (``extras.mu_terminal``).
    """
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
    proven = _proven_infeasible("barrier", inst)
    if proven is not None:
        return proven
    _, g, psi = inst.fields()
    psi_flat = psi.ravel()
    cols, vals, b, names = _barrier_inequalities(inst, psi_flat)

    def G(v):
        return (vals * v[cols]).sum(axis=1)

    # strictly interior start; the PDE equality is reached by Newton
    x1 = 0.5 * (inst.c1_lo + inst.c1_hi)
    if slack:
        z0 = np.clip(np.maximum(0.0, -psi_flat + 0.5 * min(1.0, M)), -0.9 * M, 0.9 * M)
        v = np.concatenate([x1, np.zeros(S * n), z0])
    else:
        # below the obstacle and above -M whenever psi > -M
        lo = np.minimum(-0.9 * M, 0.5 * (psi_flat - M))
        v = np.concatenate([x1, np.clip(psi_flat - 0.5 * min(1.0, M), lo, 0.9 * M)])
    outside = names[~(b - G(v) > 0)]
    if outside.size:
        raise ValueError(f"the barrier's start point is not strictly inside the {outside[0]}")

    # quadratic objective: gradient factors and constant Hessian diagonal
    w_y = np.repeat(p * hh, n)
    hobj = np.concatenate(
        [np.full(n, inst.alpha * hh), w_y]
        + ([inst.alpha_prime * w_y] if slack else [])
    )
    yt_flat = np.tile(inst.y_target, S)

    # dense equality Jacobian of A_k y_k - x1 - g_k = 0, fixed in the Newton matrix
    E = np.zeros((S * n, nv))
    E[:, :n] = np.tile(-np.eye(n), (S, 1))
    E[:, n:n + S * n] = inst.block_operator().toarray()
    g_flat = g.ravel()
    KKT = np.zeros((nv + S * n, nv + S * n))
    KKT[:nv, nv:] = E.T
    KKT[nv:, :nv] = E
    nu = np.zeros(S * n)

    def residuals(v, nu, s, mu):
        """Barrier subproblem residuals at ``v, nu`` with slacks ``s = b - G v``."""
        gr = hobj * v
        gr[n:n + S * n] -= w_y * yt_flat
        barrier = mu * np.bincount(cols.ravel(), (vals / s[:, None]).ravel(), nv)  # mu G^T(1/s)
        return gr + barrier + E.T @ nu, E @ v - g_flat

    def point(v, nu, mu):
        """Primal point and multiplier densities of a barrier iterate."""
        weights = (p * hh)[:, None]
        y = v[n:n + S * n]
        z = v[n + S * n:] if slack else np.zeros(S * n)
        s_obs = (b - G(v))[-S * n:]
        lam_e = nu.reshape(S, n) / weights
        lam_i = (mu / s_obs).reshape(S, n) / weights
        primal = PrimalPoint(v[:n], y.reshape(S, n), z.reshape(S, n))
        return primal, DualPoint(lam_e, lam_i, -lam_e)

    mu, newton_steps, centred = BARRIER_MU0, 0, True
    while True:
        inner_tol = max(1e-11, 1e-2 * mu)
        for _ in range(80):
            s = b - G(v)
            r_dual, r_eq = residuals(v, nu, s, mu)
            if max(np.abs(r_dual).max(), np.abs(r_eq).max()) <= inner_tol:
                break

            # the Hessian diag(hobj) + mu G^T diag(1/s^2) G, row by row
            KKT[:nv, :nv] = np.diag(hobj)
            np.add.at(KKT, (cols[:, :, None], cols[:, None, :]),
                      (mu / s**2)[:, None, None] * vals[:, :, None] * vals[:, None, :])
            try:
                sol = np.linalg.solve(KKT, np.concatenate([-r_dual, -r_eq]))
            except np.linalg.LinAlgError as exc:
                raise BarrierFailure(
                    f"Newton system singular at mu={mu:.3e}: {exc}"
                ) from exc
            dv, dnu = sol[:nv], sol[nv:]

            # fraction to the boundary: the rows whose slack the step shrinks
            gdv = G(dv)
            shrinks = gdv > 0
            step = 0.99 * np.min(s[shrinks] / gdv[shrinks], initial=1.0)
            base = np.linalg.norm(np.concatenate([r_dual, r_eq]))
            for _ in range(40):
                vt = v + step * dv
                nut = nu + step * dnu
                st = b - G(vt)
                if st.min() > 0.0:
                    rt = np.linalg.norm(np.concatenate(residuals(vt, nut, st, mu)))
                    if rt <= (1.0 - 1e-4 * step) * base:
                        break
                step *= 0.5
            else:
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
        else:
            centred = False     # no point on the path at this mu: it ends here
        primal, dual = point(v, nu, mu)
        # weak duality allows d > J only off the equality, so both count
        J = objective(inst, primal)
        gap_met = centred and (
            abs(J - dual_function(inst, dual)) <= BARRIER_REL_GAP * abs(J)
            and certify.natural_residuals(inst, primal, dual)["r4"] <= 10.0 * math.sqrt(mu))
        if gap_met or not centred or mu <= BARRIER_MU_FLOOR:
            break
        mu = max(BARRIER_MU_FLOOR, mu * BARRIER_SHRINK)

    kkt = certify.kkt_residuals(inst, primal, dual)
    converged = gap_met and kkt.max_residual() <= 10.0 * math.sqrt(mu)
    status = STATUS_CONVERGED if converged else STATUS_FAILURE
    report = _report("barrier", kkt, newton_steps, status, extras={"mu_terminal": mu})
    return primal, dual, report
