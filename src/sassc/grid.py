"""Finite-difference discretization of variable-coefficient elliptic operators.

The domain is the unit square with homogeneous Dirichlet boundary conditions.
Only interior nodes are unknowns; an ``n1d x n1d`` interior grid has mesh
width ``h = 1/(n1d+1)``. The diffusion operator ``-div(a grad y)`` is
discretized with the five-point flux stencil, face coefficients taken as
arithmetic means of nodal coefficient values. The resulting matrix is
symmetric positive definite whenever the coefficient field is uniformly
positive. Solver tolerances are module constants, not arguments.

``scipy.sparse.linalg`` is imported by the first ``solve_linear`` call,
not with the module: a slack-mode PDHG or progressive-hedging run never
needs it, and importing it with ``scipy.linalg`` took about 0.035 s of the
package's 0.19 s import (2-vCPU Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Direct sparse factorization up to this size, preconditioned CG above.
DIRECT_SOLVE_LIMIT = 10_000
# Relative residual of a linear solve: CG's target; ten times it fails.
LINEAR_SOLVE_TOL = 1e-12
# Power iteration: stopping change of the estimate, cap, start vector seed.
NORM_ESTIMATE_TOL = 1e-6
NORM_ESTIMATE_MAX_ITERS = 500
NORM_ESTIMATE_SEED = 0


class EllipticityError(ValueError):
    """Coefficient field violates the uniform ellipticity lower bound."""


class LinearSolveError(RuntimeError):
    """Linear solve failed to reach the requested residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Grid:
    """Interior-node grid of the unit square.

    Node ``(i, j)`` with ``0 <= i, j < n1d`` sits at ``((i+1)h, (j+1)h)``
    and carries the lexicographic index ``k = i + n1d*j``.
    """

    n1d: int
    h: float
    n: int

    def interior_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat arrays ``(sx, sy)`` of the interior node coordinates."""
        t = (np.arange(self.n1d) + 1.0) * self.h
        sx, sy = np.meshgrid(t, t, indexing="ij")
        return sx.ravel(order="F"), sy.ravel(order="F")

    def closed_coords(self) -> np.ndarray:
        """1D coordinates of the closed grid (boundary nodes included)."""
        return np.arange(self.n1d + 2) * self.h


def build_grid(n1d: int) -> Grid:
    """Construct the interior grid with ``n1d`` nodes per dimension."""
    if n1d < 1:
        raise ValueError(f"n1d must be >= 1, got {n1d}")
    return Grid(n1d=int(n1d), h=1.0 / (n1d + 1), n=int(n1d) ** 2)


def assemble_operator(grid: Grid, a_closed: np.ndarray) -> sp.csr_matrix:
    """Assemble the five-point flux stencil for ``-div(a grad y)``.

    Assembly is a pure function of its inputs and safe to call
    concurrently for different scenarios.

    Parameters
    ----------
    grid : Grid
    a_closed : ndarray, shape (n1d+2, n1d+2)
        Coefficient values on the closed grid, indexed ``[ix, iy]`` with
        ``ix, iy = 0 .. n1d+1``; face values are the arithmetic mean of
        the two adjacent nodal values.

    Returns
    -------
    csr_matrix
        Symmetric positive-definite matrix acting on flat interior vectors.
    """
    m = grid.n1d
    a_closed = np.asarray(a_closed, dtype=float)
    if a_closed.shape != (m + 2, m + 2):
        raise ValueError(
            f"coefficient array must have shape {(m + 2, m + 2)}, got {a_closed.shape}"
        )
    if not np.all(np.isfinite(a_closed)):
        raise EllipticityError("coefficient field contains non-finite values")
    amin = float(a_closed.min())
    if amin <= 0.0:
        raise EllipticityError(
            f"uniform ellipticity requires a positive coefficient field; min value {amin}"
        )

    def face(u, v):
        return 0.5 * (u + v)

    inner = a_closed[1:-1, 1:-1]
    a_w = face(a_closed[:-2, 1:-1], inner)
    a_e = face(a_closed[2:, 1:-1], inner)
    a_s = face(a_closed[1:-1, :-2], inner)
    a_n = face(a_closed[1:-1, 2:], inner)
    inv_h2 = 1.0 / grid.h**2

    # Flat index k = i + m*j comes from Fortran-order raveling of [i, j] arrays.
    def flat(arr: np.ndarray) -> np.ndarray:
        return arr.ravel(order="F")

    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    k = flat(ii + m * jj)

    rows = [k]
    cols = [k]
    vals = [flat(a_w + a_e + a_s + a_n) * inv_h2]

    west = ii >= 1
    rows.append(k[flat(west)])
    cols.append(flat((ii - 1) + m * jj)[flat(west)])
    vals.append(-flat(a_w)[flat(west)] * inv_h2)

    east = ii <= m - 2
    rows.append(k[flat(east)])
    cols.append(flat((ii + 1) + m * jj)[flat(east)])
    vals.append(-flat(a_e)[flat(east)] * inv_h2)

    south = jj >= 1
    rows.append(k[flat(south)])
    cols.append(flat(ii + m * (jj - 1))[flat(south)])
    vals.append(-flat(a_s)[flat(south)] * inv_h2)

    north = jj <= m - 2
    rows.append(k[flat(north)])
    cols.append(flat(ii + m * (jj + 1))[flat(north)])
    vals.append(-flat(a_n)[flat(north)] * inv_h2)

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n, grid.n),
    )
    return mat.tocsr()


def solve_linear(A: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A y = rhs`` for a symmetric positive-definite sparse ``A``.

    Uses a direct sparse factorization up to ``DIRECT_SOLVE_LIMIT`` unknowns
    and Jacobi-preconditioned conjugate gradients beyond. Raises
    ``LinearSolveError`` unless the relative residual is within
    ``10 * LINEAR_SOLVE_TOL``.
    """
    import scipy.sparse.linalg as spla    # loaded by the first linear solve, not at import

    rhs = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {rhs.shape}")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n)

    if n <= DIRECT_SOLVE_LIMIT:
        try:
            y = spla.splu(A.tocsc()).solve(rhs)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    else:
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise LinearSolveError("matrix diagonal not positive; not SPD")
        precond = spla.LinearOperator(A.shape, matvec=lambda v: v / diag)
        y, info = spla.cg(A, rhs, rtol=LINEAR_SOLVE_TOL, atol=0.0, maxiter=20 * n, M=precond)
        if info != 0:
            res = float(np.linalg.norm(A @ y - rhs) / rhs_norm)
            raise LinearSolveError(
                f"conjugate gradients did not converge (info={info})", residual=res
            )

    res = float(np.linalg.norm(A @ y - rhs) / rhs_norm)
    if not np.isfinite(res) or res > 10 * LINEAR_SOLVE_TOL:
        raise LinearSolveError(f"solution residual {res:.3e} exceeds tolerance", residual=res)
    return y


@dataclass(frozen=True)
class MmsRow:
    """One refinement level of the manufactured-solution study."""

    n1d: int
    h: float
    max_error: float
    rate: float | None


def _manufactured_rhs_and_solution(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    sx, sy = grid.interior_coords()
    exact = np.sin(np.pi * sx) * np.sin(np.pi * sy)
    return 2.0 * np.pi**2 * exact, exact


def mms_convergence_study(levels: list[int]) -> list[MmsRow]:
    """Measure max-norm discretization error against an analytic solution.

    Solves ``-div(grad y) = 2 pi^2 sin(pi s1) sin(pi s2)`` (unit coefficient)
    on each level and reports the observed convergence rate between
    consecutive levels: ``rate = log(err_c/err_f) / log(h_c/h_f)``.
    """
    levels = [int(v) for v in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    rows: list[MmsRow] = []
    prev: MmsRow | None = None
    for n1d in levels:
        grid = build_grid(n1d)
        a_closed = np.ones((n1d + 2, n1d + 2))
        A = assemble_operator(grid, a_closed)
        rhs, exact = _manufactured_rhs_and_solution(grid)
        y = solve_linear(A, rhs)
        err = float(np.max(np.abs(y - exact)))
        rate = None
        if prev is not None:
            rate = float(np.log(prev.max_error / err) / np.log(prev.h / grid.h))
        row = MmsRow(n1d=n1d, h=grid.h, max_error=err, rate=rate)
        rows.append(row)
        prev = row
    return rows


def operator_norm_estimate(forward, adjoint, weights: np.ndarray,
                           live: np.ndarray | None = None) -> np.ndarray:
    """Estimate the operator norms of B linear maps by lockstep power
    iterations; returns the (B,) last Rayleigh estimates times a 1.01
    safety factor, exactly 0.0 for a zero map.

    ``forward`` and ``adjoint`` map (L, dim) arrays whose rows are, in
    order, the L maps still running; each adjoint is taken in the inner
    product weighted by its row of the positive (B, dim) ``weights``. A map
    may return a buffer that its next call overwrites: each result is used
    before the map is called again (``solvers._k_maps`` relies on this).
    ``live``, if given, is a (B,) array of ones that the estimate keeps
    equal to the rows still running before each application of the maps.
    Each row keeps its own stopping test, iteration cap and zero-map exit
    (``NORM_ESTIMATE_*``), so its estimate is bitwise that of its own run.
    """
    B = len(weights)
    if live is None:
        live = np.ones(B, dtype=bool)
    rows = np.arange(B)
    est = np.zeros(B)
    # weighted inner products sum((weights * u) * v), one per row: a
    # pairwise sum over the contiguous last axis, as for a single vector
    rng = np.random.default_rng(NORM_ESTIMATE_SEED)
    v = np.tile(rng.standard_normal(weights.shape[1]), (B, 1))
    v /= np.sqrt(np.add.reduce(weights * v * v, axis=-1))[:, None]
    lam_prev = np.full(B, np.inf)
    lam = np.zeros(B)
    for _ in range(NORM_ESTIMATE_MAX_ITERS):
        t = adjoint(forward(v))
        wt = weights * t
        lam = np.add.reduce(wt * v, axis=-1)
        tn = np.sqrt(np.add.reduce(wt * t, axis=-1))
        zero = (tn == 0.0) | (lam <= 0.0)
        stop = zero | (np.abs(lam - lam_prev) <= NORM_ESTIMATE_TOL * np.abs(lam))
        if stop.any():
            done = stop & ~zero
            est[rows[done]] = 1.01 * np.sqrt(lam[done])
            keep = ~stop
            rows, weights, t, tn, lam = (a[keep] for a in (rows, weights, t, tn, lam))
            live[:] = False
            live[rows] = True
            if not len(rows):
                break
        v = t / tn[:, None]
        lam_prev = lam
    est[rows] = 1.01 * np.sqrt(lam)
    return est
