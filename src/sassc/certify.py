"""Certification of primal-dual pairs against the optimality system.

A candidate pair is scored with natural (projection) residuals, one scalar
per optimality condition, all in mesh-weighted norms:

    r1       first-stage variational inequality over C1
    r2       consistency of the nonanticipativity multiplier with the
             adjoint (identity control-to-load map)
    r3       state stationarity over C2
    r3p      slack stationarity over C2 (slack mode only)
    r4       PDE equality residual
    r5_sign  smallest obstacle-multiplier entry (must be >= -tol)
    r5_feas  largest obstacle violation
    r5_comp  integrated complementarity product

together with the duality gap and the weighted-l1 norms of the multiplier
densities. A natural residual is exactly zero at solutions of the
corresponding variational inequality, which makes "all residuals below
tolerance" a checkable certificate of optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    DualPoint,
    Instance,
    PrimalPoint,
    constraint_values,
    dual_function,
    objective,
)

DEFAULT_TOL = 1e-6

# The natural residuals, which are the first fields of ``KktReport``; the
# CSV row adds the gap and the multiplier norms.
RESIDUAL_NAMES = ("r1", "r2", "r3", "r3p", "r4", "r5_sign", "r5_feas", "r5_comp")
KKT_CSV_COLUMNS = RESIDUAL_NAMES + ("duality_gap", "l1_lambda_e", "l1_lambda_i", "l1_rho")


def max_residual(residuals: dict) -> float:
    """The one rule that decides "certified": the max of r1, r2, r3, r4,
    r5_feas, r5_comp, ``max(0, -r5_sign)`` and r3p unless absent or None,
    taken by ``np.max``, so a NaN anywhere gives NaN."""
    names = ["r1", "r2", "r3", "r4", "r5_feas", "r5_comp"]
    if residuals.get("r3p") is not None:
        names.append("r3p")
    vals = [residuals[name] for name in names]
    vals.append(np.maximum(np.negative(residuals["r5_sign"]), 0.0))
    return float(np.max(vals))


@dataclass
class KktReport:
    """Residuals, gap, and multiplier norms of a candidate pair."""

    r1: float
    r2: float
    r3: float
    r3p: float | None
    r4: float
    r5_sign: float
    r5_feas: float
    r5_comp: float
    duality_gap: float
    l1_lambda_e: float
    l1_lambda_i: float
    l1_rho: float
    objective: float
    dual_value: float

    def max_residual(self) -> float:
        """Largest certificate residual (``max_residual``)."""
        return max_residual(self.residual_dict())

    def relative_gap(self) -> float:
        return self.duality_gap / (1.0 + abs(self.objective))

    def passes(self, tol: float = DEFAULT_TOL, gap_tol: float | None = None) -> bool:
        """Certificate: every residual within ``tol`` (``max_residual``, so
        a NaN residual fails), a finite duality gap, and the relative gap
        within ``gap_tol`` when given.

        The gap is infinite when an obstacle-multiplier entry is negative,
        even one inside the sign tolerance: the dual function is ``-inf``.
        """
        if not self.max_residual() <= tol or not math.isfinite(self.duality_gap):
            return False
        if gap_tol is not None and not self.relative_gap() <= gap_tol:
            return False
        return True

    def residual_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in RESIDUAL_NAMES}

    def to_csv_row(self) -> str:
        """The ``KKT_CSV_COLUMNS`` values; a skipped ``r3p`` reads nan."""
        vals = (getattr(self, name) for name in KKT_CSV_COLUMNS)
        return ",".join(f"{math.nan if v is None else v:.17g}" for v in vals)


def _fold(op: np.ufunc, a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``op`` folded left to right along ``axis``: ``op(...op(op(a[0],
    a[1]), a[2])..., a[-1])``, the last entry of ``op.accumulate``."""
    return op.accumulate(a, axis=axis).take(-1, axis=axis)


def _sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along ``axis``, each ``0.0 + a[0] + a[1] + ...`` left to right,
    the one summation order of the certificate. Adding +0.0 to the fold
    from ``a[0]`` gives the bits of a sum started from +0.0, since the two
    differ only in the sign of a sum of negative zeros."""
    return _fold(np.add, a, axis) + 0.0


def one_nan(v: float) -> float:
    """``v`` as a float, or the one quiet NaN ``math.nan`` if ``v`` is a
    NaN. IEEE 754 leaves open which NaN an operation on two NaNs returns,
    and a compiler may swap the operands of ``+`` and ``*``, so only the
    NaN-ness of a residual is defined, not its bits."""
    return math.nan if math.isnan(v) else float(v)


def max_scenario_norm(a: np.ndarray) -> float:
    """The largest per-scenario Euclidean norm of an (S, n) array: the root
    of the largest left-to-right sum of squares, which is the largest root
    bit for bit."""
    return np.sqrt(_fold(np.maximum, _sum(a * a)))


def natural_residuals(
    inst: Instance,
    x: PrimalPoint,
    lam: DualPoint,
    x1_extra_quad: float = 0.0,
    x1_extra_center: np.ndarray | None = None,
    x1_extra_lin: np.ndarray | None = None,
) -> dict[str, float]:
    """Stationarity and feasibility residuals of a candidate pair, one
    float per residual (no ``r3p`` in hard mode).

    The optional ``x1_extra_*`` terms add ``(q/2)||x1 - c||^2 + <l, x1>``
    to the control objective; the scenario-decomposition solver certifies
    its augmented subproblems through them. They default to zero, which
    yields the plain optimality system.

    Every sum runs left to right from +0.0, over nodes and then over
    scenarios (``_sum``), and every largest or smallest entry is taken left
    to right by ``np.maximum`` or ``np.minimum`` (``_fold``: NaN propagates,
    and a tie of signed zeros gives the later one), so each value follows
    from this definition and not from a BLAS library's or numpy's choice of
    order. A NaN residual is the one quiet NaN (``one_nan``). The engine
    kernel's residual check (``kernel.SOURCE``) repeats each operation in C
    with the same bits.
    """
    h, M = inst.h, inst.c2_bound
    e_rho = _sum(inst.p[:, None] * lam.nonant, axis=0)
    f_x1 = inst.alpha * x.x1 + e_rho
    if x1_extra_quad != 0.0:
        center = 0.0 if x1_extra_center is None else x1_extra_center
        f_x1 = f_x1 + x1_extra_quad * (x.x1 - center)
    if x1_extra_lin is not None:
        f_x1 = f_x1 + x1_extra_lin
    d1 = x.x1 - np.clip(x.x1 - f_x1, inst.c1_lo, inst.c1_hi)

    Alam = (inst.block_operator() @ lam.adjoint.ravel()).reshape(lam.adjoint.shape)
    f_y = x.y - inst.y_target + Alam + lam.obstacle
    eq, ineq = constraint_values(inst, x)
    out = {
        "r1": h * np.sqrt(_sum(d1 * d1)),
        "r2": h * max_scenario_norm(lam.nonant + lam.adjoint),
        "r3": h * max_scenario_norm(x.y - np.clip(x.y - f_y, -M, M)),
        "r4": h * max_scenario_norm(eq),
        "r5_sign": _fold(np.minimum, lam.obstacle.ravel()),
        "r5_feas": _fold(np.maximum, np.maximum(ineq, 0.0).ravel()),
        "r5_comp": np.abs(h * h * _sum(inst.p * _sum(ineq * lam.obstacle))),
    }
    if inst.mode == "slack":
        f_z = inst.alpha_prime * x.z - lam.obstacle
        out["r3p"] = h * max_scenario_norm(x.z - np.clip(x.z - f_z, -M, M))
    return {name: one_nan(val) for name, val in out.items()}


def multiplier_l1_norms(inst: Instance, lam: DualPoint) -> tuple[float, float, float]:
    """Weighted-l1 norms of the three multiplier densities.

    ``sum_k p_k h^2 sum_i |lam[k, i]|``: the discrete analogue of the L1
    norm of an integrable multiplier, which should stay bounded under mesh
    refinement.
    """
    hh = inst.h * inst.h

    def wl1(arr: np.ndarray) -> float:
        return hh * float(np.dot(inst.p, np.abs(arr).sum(axis=1)))

    return wl1(lam.adjoint), wl1(lam.obstacle), wl1(lam.nonant)


def kkt_residuals(inst: Instance, x: PrimalPoint, lam: DualPoint) -> KktReport:
    """Full certification report for a candidate pair."""
    res = natural_residuals(inst, x, lam)
    obj = objective(inst, x)
    dual = dual_function(inst, lam)
    l1e, l1i, l1r = multiplier_l1_norms(inst, lam)
    return KktReport(
        **{name: res.get(name) for name in RESIDUAL_NAMES},
        duality_gap=obj - dual,
        l1_lambda_e=l1e, l1_lambda_i=l1i, l1_rho=l1r,
        objective=obj, dual_value=dual,
    )
