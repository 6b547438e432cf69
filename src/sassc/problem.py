"""Discrete two-stage problem data and its convex-duality algebra.

The decision variables are a deterministic control ``x1`` on the grid and
per-scenario second-stage pairs ``(y, z)`` of state and slack. The model is

    minimize  (alpha/2)||x1||^2
              + E[ (1/2)||y - y_target||^2 + (alpha'/2)||z||^2 ]
    subject to  x1 in C1,  y_k in C2,  z_k in C2,
                A_k y_k - x1 - g_k = 0        for every scenario k,
                y_k - z_k <= psi_k            for every scenario k,

with C1 a per-node box, C2 = [-M, M] per node, and all norms taken in the
mesh-weighted discrete L2 sense. In "hard" mode the slack z is removed and
the inequality becomes ``y_k <= psi_k``.

Multiplier arrays are stored as densities with respect to the discrete
measure ``p_k h^2``, so their magnitudes are stable under mesh refinement
and scenario-count changes and approximate integrable functions rather
than measures.

The operators ``A_k`` are the blocks of one ``grid.Stencil`` per scenario
set and grid (``Instance.block_operator``), and the stack has one cached
block factorization (``Instance.factors``) that solves for every scenario
in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Factorization, Grid, Stencil, assemble_operator
from .scenarios import FieldSpec, ScenarioSet

MODES = ("slack", "hard")

# A-priori infeasibility needs a violation this far beyond the state bounds,
# relative to their scale; the bounds come from direct solves accurate to
# about cond(A) * 1e-12.
INFEASIBILITY_MARGIN = 1e-6


def norm_h(v: np.ndarray, h: float) -> float:
    """Mesh-weighted Euclidean norm ``h * ||v||_2`` of a flat nodal vector."""
    return float(h * np.linalg.norm(v))


@dataclass
class Instance:
    """Full problem data bound to a grid and a scenario set."""

    grid: Grid
    scenarios: ScenarioSet
    c1_lo: np.ndarray
    c1_hi: np.ndarray
    c2_bound: float
    y_target: np.ndarray
    alpha: float
    alpha_prime: float
    mode: str = "slack"
    y_spec: FieldSpec | None = None

    def __post_init__(self):
        n = self.grid.n
        self.c1_lo = np.broadcast_to(np.asarray(self.c1_lo, dtype=float), (n,)).copy()
        self.c1_hi = np.broadcast_to(np.asarray(self.c1_hi, dtype=float), (n,)).copy()
        self.y_target = np.broadcast_to(np.asarray(self.y_target, dtype=float), (n,)).copy()
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if np.any(self.c1_lo > self.c1_hi):
            raise ValueError("control box is empty: c1_lo > c1_hi somewhere")
        if not (np.all(np.isfinite(self.c1_lo)) and np.all(np.isfinite(self.c1_hi))):
            raise ValueError("control box must be bounded (finite bounds)")
        if not 0 < self.c2_bound < math.inf:
            raise ValueError(f"state box bound M must be positive and finite, "
                             f"got {self.c2_bound}")
        if not self.alpha > 0:
            raise ValueError(f"control weight alpha must be positive, got {self.alpha}")
        if not self.alpha_prime > 0:
            raise ValueError(f"slack weight alpha' must be positive, got {self.alpha_prime}")
        if not np.all(np.isfinite(self.y_target)):
            raise ValueError("target contains non-finite values")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def S(self) -> int:
        return self.scenarios.S

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def p(self) -> np.ndarray:
        return self.scenarios.p

    def fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Realized nodal arrays ``(a_closed, g, psi)`` on this grid."""
        return self.scenarios.realize(self.grid)

    def operators(self) -> list[Stencil]:
        """Per-scenario stiffness operators, views of ``block_operator``."""
        blk = self.block_operator()
        return [blk.block(k) for k in range(self.S)]

    def block_operator(self) -> Stencil:
        """Block-diagonal stack of the per-scenario operators, assembled in
        one call and cached on the scenario set, the operator's one copy."""
        key = ("blk", self.grid.n1d)
        if key not in self.scenarios._cache:
            a_closed, _, _ = self.fields()
            self.scenarios._cache[key] = assemble_operator(self.grid, a_closed)
        return self.scenarios._cache[key]

    def factors(self) -> Factorization:
        """One factorization of the whole ``block_operator`` stack, cached
        beside it on the scenario set; it solves (S, n) and (S, n, k)
        right-hand sides, every scenario in one call."""
        key = ("lu", self.grid.n1d)
        if key not in self.scenarios._cache:
            self.scenarios._cache[key] = Factorization(self.block_operator())
        return self.scenarios._cache[key]

    def with_alpha_prime(self, alpha_prime: float) -> "Instance":
        return replace(self, alpha_prime=float(alpha_prime))

    def with_mode(self, mode: str) -> "Instance":
        return replace(self, mode=mode)


@dataclass
class PrimalPoint:
    """First-stage control and per-scenario states and slacks."""

    x1: np.ndarray  # (n,)
    y: np.ndarray   # (S, n)
    z: np.ndarray   # (S, n); all-zero in hard mode

    def copy(self) -> "PrimalPoint":
        return PrimalPoint(self.x1.copy(), self.y.copy(), self.z.copy())


@dataclass
class DualPoint:
    """Multiplier densities with respect to the measure ``p_k h^2``.

    ``adjoint`` multiplies the PDE equality constraint, ``obstacle`` the
    pointwise state constraint (entrywise nonnegative at valid points), and
    ``nonant`` is the nonanticipativity multiplier tied to the first stage.
    """

    adjoint: np.ndarray   # (S, n)
    obstacle: np.ndarray  # (S, n)
    nonant: np.ndarray    # (S, n)

    def copy(self) -> "DualPoint":
        return DualPoint(self.adjoint.copy(), self.obstacle.copy(), self.nonant.copy())


def zeros_dual(inst: Instance) -> DualPoint:
    shape = (inst.S, inst.n)
    return DualPoint(np.zeros(shape), np.zeros(shape), np.zeros(shape))


def objective(inst: Instance, x: PrimalPoint) -> float:
    """Value of the quadratic objective at a primal point."""
    h2 = inst.h * inst.h
    track = x.y - inst.y_target[None, :]
    per_k = 0.5 * np.einsum("ki,ki->k", track, track)
    if inst.mode == "slack":
        per_k = per_k + 0.5 * inst.alpha_prime * np.einsum("ki,ki->k", x.z, x.z)
    val = float(np.dot(inst.p, per_k)) + 0.5 * inst.alpha * float(np.dot(x.x1, x.x1))
    return h2 * val


def project_c1(inst: Instance, v: np.ndarray) -> np.ndarray:
    """Entrywise projection onto the control box C1."""
    return np.clip(v, inst.c1_lo, inst.c1_hi)


def constraint_values(inst: Instance, x: PrimalPoint) -> tuple[np.ndarray, np.ndarray]:
    """Equality residuals ``A_k y_k - x1 - g_k`` and inequality values of a
    primal point.

    The inequality value is ``y - z - psi`` in slack mode and ``y - psi``
    in hard mode; feasibility means it is entrywise nonpositive.
    """
    _, g, psi = inst.fields()
    eq = (inst.block_operator() @ x.y.ravel()).reshape(x.y.shape) - x.x1[None, :] - g
    ineq = x.y - psi if inst.mode == "hard" else x.y - x.z - psi
    return eq, ineq


def dual_function(inst: Instance, lam: DualPoint) -> float:
    """Closed-form dual function value (the inf of the Lagrangian).

    Each inner minimization is a per-node clamped quadratic: the control
    block over C1, and per scenario the state block and (in slack mode)
    the slack block over C2. Returns ``-inf`` exactly when the obstacle
    multiplier has a negative entry.
    """
    if float(lam.obstacle.min()) < 0.0:
        return -math.inf
    h2 = inst.h * inst.h
    M = inst.c2_bound
    _, g, psi = inst.fields()

    e_adj = inst.p @ lam.adjoint  # expectation of the adjoint density
    x1s = np.clip(e_adj / inst.alpha, inst.c1_lo, inst.c1_hi)
    val = h2 * float(np.sum(0.5 * inst.alpha * x1s**2 - e_adj * x1s))

    Alam = (inst.block_operator() @ lam.adjoint.ravel()).reshape(inst.S, inst.n)
    c = Alam + lam.obstacle
    ys = np.clip(inst.y_target[None, :] - c, -M, M)
    vy = 0.5 * (ys - inst.y_target[None, :]) ** 2 + c * ys
    per_k = vy.sum(axis=1)
    if inst.mode == "slack":
        zs = np.clip(lam.obstacle / inst.alpha_prime, -M, M)
        per_k = per_k + np.sum(0.5 * inst.alpha_prime * zs**2 - lam.obstacle * zs, axis=1)
    per_k = per_k - np.einsum("ki,ki->k", lam.adjoint, g)
    per_k = per_k - np.einsum("ki,ki->k", lam.obstacle, psi)
    val += h2 * float(np.dot(inst.p, per_k))
    return val


def hard_mode_infeasibility(inst: Instance) -> str | None:
    """Why a hard-mode instance has no feasible point, or None if the
    a-priori state bounds find no reason.

    Each ``A_k`` is an M-matrix (positive diagonal, nonpositive
    off-diagonals, diagonally dominant, since the coefficients are
    elliptic), so ``A_k^-1 >= 0`` entrywise and every state reachable from
    the control box satisfies

        A_k^-1 (c1_lo + g_k) <= y_k <= A_k^-1 (c1_hi + g_k).

    The instance is infeasible if ``psi_k < -M`` at a node, if the lower
    bound exceeds ``min(psi_k, M)``, or if the upper bound falls below
    ``-M``. A violation counts only beyond ``INFEASIBILITY_MARGIN`` times
    the scale of the bounds, far above the accuracy of the solves.

    The bounds come from one solve of the cached ``Instance.factors``, both
    bounds of every scenario as an (S, n, 2) right-hand side, so a second
    call solves again but factors nothing, and an in-place edit of the
    control box or ``M`` gets a fresh verdict.
    """
    if inst.mode != "hard":
        raise ValueError("the a-priori infeasibility check applies to hard mode")
    _, g, psi = inst.fields()
    M = inst.c2_bound
    bounds = inst.factors().solve(np.stack([inst.c1_lo + g, inst.c1_hi + g], axis=-1))
    lo, hi = bounds[..., 0], bounds[..., 1]
    margin = INFEASIBILITY_MARGIN * (1.0 + max(M, float(np.abs(lo).max()),
                                               float(np.abs(hi).max())))
    excess = {
        "the obstacle lies below the state box": -M - psi,
        "the lowest reachable state exceeds min(obstacle, M)": lo - np.minimum(psi, M),
        "the highest reachable state lies below the state box": -M - hi,
    }
    for reason, arr in excess.items():
        k, i = np.unravel_index(int(np.argmax(arr)), arr.shape)
        if arr[k, i] > margin:
            return f"{reason} by {arr[k, i]:.3g} at scenario {k}, node {i}"
    return None


@dataclass
class SlaterReport:
    """Outcome of the constructive strict-feasibility check."""

    success: bool
    margin: float
    delta: float
    x1: np.ndarray
    worst: dict | None = None


def _second_stage_candidate(inst: Instance, x1: np.ndarray):
    """Solve the PDE per scenario and lift the slack above the obstacle."""
    _, g, psi = inst.fields()
    M = inst.c2_bound
    delta = min(1.0, M / 2.0)
    y = inst.factors().solve(x1 + g)
    z = np.clip(y - psi + delta, -M, M)
    return y, z, delta


def _interior_margins(inst: Instance, x1, y, z) -> dict[str, np.ndarray]:
    _, _, psi = inst.fields()
    M = inst.c2_bound
    return {
        "inequality": psi + z - y,
        "y_box": M - np.abs(y),
        "z_box": M - np.abs(z),
        "x1_box": np.minimum(x1 - inst.c1_lo, inst.c1_hi - x1),
    }


def _worst_margin(margins: dict[str, np.ndarray]) -> tuple[float, dict]:
    eps = math.inf
    worst: dict = {}
    for name, arr in margins.items():
        m = float(arr.min())
        if m < eps:
            eps = m
            flat = int(np.argmin(arr))
            if arr.ndim == 2:
                worst = {"component": name, "scenario": flat // arr.shape[1],
                         "node": flat % arr.shape[1], "margin": m}
            else:
                worst = {"component": name, "scenario": None, "node": flat, "margin": m}
    return eps, worst


def slater_check(inst: Instance) -> SlaterReport:
    """Construct a candidate point with uniform interior margin.

    The candidate takes the control at the box midpoint, the exact PDE
    solutions as states, and slacks lifted a fixed amount above the
    obstacle gap. Success requires a strictly positive margin in every box
    and in the obstacle inequality.
    """
    if inst.mode != "slack":
        raise ValueError("strict-feasibility check requires slack mode")
    x1 = 0.5 * (inst.c1_lo + inst.c1_hi)
    y, z, delta = _second_stage_candidate(inst, x1)
    eps, worst = _worst_margin(_interior_margins(inst, x1, y, z))
    return SlaterReport(success=eps > 0.0, margin=eps, delta=delta, x1=x1,
                        worst=None if eps > 0.0 else worst)
