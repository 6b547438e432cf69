"""Finite-difference discretization of variable-coefficient elliptic operators.

The domain is the unit square with homogeneous Dirichlet boundary conditions.
Only interior nodes are unknowns; an ``n1d x n1d`` interior grid has mesh
width ``h = 1/(n1d+1)``. The diffusion operator ``-div(a grad y)`` is
discretized with the five-point flux stencil, face coefficients taken as
arithmetic means of nodal coefficient values. The resulting matrix is
symmetric positive definite whenever the coefficient field is uniformly
positive. Solver tolerances are module constants, not arguments.

The operator is assembled once, as the five-point ``Stencil`` the engine
kernel runs. Its CSR form (``Stencil.tocsr``) serves the barrier's dense
copy and the engine's fallback without a C compiler, and imports scipy on
first use: a ``generate -> solve -> certify`` on the C kernel, in slack or
hard mode, never loads it (``import scipy.sparse`` took 82-86 ms of a
0.152 s benchmark setup).

Every linear solve goes through a ``Factorization``: a block (Schur
complement) factorization of the stencil by grid lines in numpy, of one
operator or of a whole scenario stack at once, reused for each
right-hand side, at every size (no iterative or sparse-LU fallback).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the byte boundary every array the engine kernel reads or writes starts on
ALIGNMENT = 64
# A linear solve fails when a column's relative residual exceeds ten times this.
LINEAR_SOLVE_TOL = 1e-12
# Power iteration: stopping change of the estimate, cap, start vector seed.
NORM_ESTIMATE_TOL = 1e-6
NORM_ESTIMATE_MAX_ITERS = 500
NORM_ESTIMATE_SEED = 0


class EllipticityError(ValueError):
    """Coefficient field violates the uniform ellipticity lower bound."""


class LinearSolveError(RuntimeError):
    """Singular factorization, or a solution residual above the gate."""


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


def aligned(shape, dtype=np.float64) -> np.ndarray:
    """A new, uninitialised C-contiguous array of ``shape`` whose first
    byte lies on a 64-byte boundary, one cache line: a slice of a byte
    buffer ``ALIGNMENT`` bytes longer, which the view keeps alive."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGNMENT
    return raw[start:start + nbytes].view(dtype).reshape(shape)


@dataclass(frozen=True, eq=False)
class Stencil:
    """The five-point operator of one field, or block-diagonal over a stack
    of fields, on the m x m grid; row ``k m^2 + i + m j`` is node (i, j) of
    block k. ``diags`` (5, N) holds each row's entries toward its south,
    west, centre, east and north neighbours (columns ascending), 0.0 for an
    absent one; ``stored`` (4, N) flags the present neighbours. Both are
    ``aligned``, for the kernel."""

    m: int
    diags: np.ndarray
    stored: np.ndarray

    @property
    def nnz(self) -> int:
        """Entries of the matrix: the centres and the stored neighbours."""
        return self.diags.shape[1] + int(np.count_nonzero(self.stored))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``A v`` with the bits of scipy's CSR product (but for the sign of
        a NaN made from two NaNs of opposite sign, which IEEE 754 leaves
        open): rows summed from 0.0 in ascending column order, an absent
        neighbour adding +0.0, and no floating-point warning. About 3x
        slower than CSR: for a certificate's products, not iterations."""
        N, m = self.diags.shape[1], self.m
        padded = np.concatenate([np.zeros(m), np.ravel(v), np.zeros(m)])
        out, stored = np.zeros(N), self.stored.view(bool)
        with np.errstate(all="ignore"):
            for d, offset, held in zip(self.diags, (-m, -1, 0, 1, m),
                                       (stored[0], stored[1], True, stored[2], stored[3])):
                np.add(out, d * padded[m + offset:m + offset + N], out=out, where=held)
        return out

    def tocsr(self):
        """The ``scipy.sparse.csr_matrix``, columns ascending in each row."""
        import scipy.sparse as sp

        N, m = self.diags.shape[1], self.m
        held = np.insert(self.stored.view(bool), 2, True, axis=0).T
        cols = np.arange(N)[:, None] + np.array([-m, -1, 0, 1, m])
        indptr = np.concatenate([[0], np.cumsum(held.sum(axis=1))])
        return sp.csr_matrix((self.diags.T[held], cols[held], indptr), shape=(N, N))

    def block(self, k: int) -> "Stencil":
        """Block ``k`` of a stack, as views."""
        n = self.m * self.m
        return Stencil(self.m, self.diags[:, k * n:(k + 1) * n], self.stored[:, k * n:(k + 1) * n])

def assemble_operator(grid: Grid, a_closed: np.ndarray) -> Stencil:
    """Assemble the five-point flux stencil for ``-div(a grad y)``.

    Assembly is a pure function of its inputs and safe to call
    concurrently for different scenarios.

    Parameters
    ----------
    grid : Grid
    a_closed : ndarray, shape (n1d+2, n1d+2) or (S, n1d+2, n1d+2)
        Coefficient values on the closed grid, indexed ``[ix, iy]`` with
        ``ix, iy = 0 .. n1d+1``, one field or a stack of S; face values are
        the arithmetic mean of the two adjacent nodal values.

    Returns
    -------
    Stencil
        Symmetric positive-definite operator on flat interior vectors,
        block-diagonal over a stack of fields.
    """
    m = grid.n1d
    a_closed = np.asarray(a_closed, dtype=float)
    if a_closed.ndim not in (2, 3) or a_closed.shape[-2:] != (m + 2, m + 2):
        raise ValueError(f"coefficient array must have shape {(m + 2, m + 2)}, or that shape "
                         f"stacked, got {a_closed.shape}")
    if not np.all(np.isfinite(a_closed)):
        raise EllipticityError("coefficient field contains non-finite values")
    amin = float(a_closed.min())
    if amin <= 0.0:
        raise EllipticityError(
            f"uniform ellipticity requires a positive coefficient field; min value {amin}"
        )

    a = a_closed.reshape(-1, m + 2, m + 2)
    inner = a[:, 1:-1, 1:-1]
    a_w = 0.5 * (a[:, :-2, 1:-1] + inner)
    a_e = 0.5 * (a[:, 2:, 1:-1] + inner)
    a_s = 0.5 * (a[:, 1:-1, :-2] + inner)
    a_n = 0.5 * (a[:, 1:-1, 2:] + inner)
    inv_h2 = 1.0 / grid.h**2

    # row k m^2 + i + m j of [k, i, j]: each block raveled in Fortran order
    def flat(arr: np.ndarray) -> np.ndarray:
        return arr.transpose(0, 2, 1).ravel()

    N = a.shape[0] * grid.n
    r = np.arange(N)
    i, j = r % m, r % grid.n // m
    stored = aligned((4, N), np.uint8)
    stored[...] = [j >= 1, i >= 1, i <= m - 2, j <= m - 2]
    diags = aligned((5, N))
    diags[2] = flat(a_w + a_e + a_s + a_n) * inv_h2
    for row, values, flag in zip((0, 1, 3, 4), (a_s, a_w, a_e, a_n), stored):
        diags[row] = np.where(flag, -flat(values) * inv_h2, 0.0)
    return Stencil(m, diags, stored)


def schur_factor(A: Stencil) -> np.ndarray:
    """The inverse Schur complements of every grid line of every block of
    ``A``, an (m, B, m, m) array whose entry ``[j, k]`` is S_j^-1 of block k.

    Grouped by grid lines (node (i, j) on line j), a block is block
    tridiagonal: line j's diagonal block T_j is tridiagonal (the west,
    centre and east entries), line j reaches line j-1 through the diagonal
    L_j of its south entries, and line j-1 reaches line j through the
    diagonal U_{j-1} of its north entries. The recursion S_0 = T_0,
    S_j = T_j - L_j S_{j-1}^-1 U_{j-1} runs for the B blocks in lockstep,
    one ``np.linalg.inv`` of a (B, m, m) stack per line, so each block gets
    the bits of its own factorization. Raises ``LinearSolveError`` on a
    singular S_j.
    """
    m = A.m
    d = A.diags.reshape(5, -1, m, m)     # [south/west/centre/east/north, block, j, i]
    i = np.arange(m)
    inv = np.empty((m, d.shape[1], m, m))
    for j in range(m):
        T = np.zeros(inv.shape[1:])
        T[:, i, i] = d[2, :, j]
        T[:, i[1:], i[:-1]] = d[1, :, j, 1:]
        T[:, i[:-1], i[1:]] = d[3, :, j, :-1]
        if j:
            T -= d[0, :, j, :, None] * inv[j - 1] * d[4, :, j - 1, None, :]
        try:
            inv[j] = np.linalg.inv(T)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"singular Schur complement at grid line {j}") from exc
    return inv


def _lines_matvec(inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(B, k, m) products ``inv[b] @ v[b, c]``: one matrix-vector product
    per (block, column), whose bits do not depend on B or k (a k-column
    matrix product would round differently from k of them)."""
    return (inv[:, None] @ v[..., None])[..., 0]


class Factorization:
    """The block factorization (``schur_factor``) of a ``Stencil``, one
    operator or a block-diagonal stack of B of them. It factors on the
    first solve with a nonzero column and reuses that factor after; the
    factor holds B n m doubles for blocks of n = m^2 unknowns.
    """

    def __init__(self, A: Stencil):
        self.A = A
        self._inv = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A y = rhs`` for one right-hand side (N,) of the whole
        stack or k of them as the columns of an (N, k) array, or the same
        block by block, (B, n) or (B, n, k); y has the shape of rhs. A zero
        (block, column) pair gives zeros, and each pair has the bits of its
        own solve by a factorization of its block alone.

        Raises ``LinearSolveError`` on a singular factorization, or unless
        each pair's relative residual is within ``10 * LINEAR_SOLVE_TOL``.
        """
        rhs = np.asarray(rhs, dtype=float)
        m = self.A.m
        n = m * m
        B = self.A.diags.shape[1] // n
        if not (rhs.ndim in (1, 2) and rhs.shape[0] == B * n
                or rhs.ndim in (2, 3) and rhs.shape[:2] == (B, n)):
            raise ValueError(f"rhs must have shape ({B * n},), ({B * n}, k), ({B}, {n}) "
                             f"or ({B}, {n}, k), got {rhs.shape}")
        b = rhs.reshape(B, n, -1)
        b_norm = np.linalg.norm(b, axis=1)
        live = b_norm != 0.0
        if not live.any():
            return np.zeros(rhs.shape)
        if self._inv is None:
            self._inv = schur_factor(self.A)
        inv, d = self._inv, self.A.diags.reshape(5, B, m, m)
        # x[j, block, column] is line j's vector: forward sweep
        # u_j = b_j - L_j S_{j-1}^-1 u_{j-1}, backward y_j = S_j^-1 (u_j - U_j y_{j+1})
        x = b.reshape(B, m, m, -1).transpose(1, 0, 3, 2).copy()
        for j in range(1, m):
            x[j] -= d[0, :, j, None] * _lines_matvec(inv[j - 1], x[j - 1])
        x[m - 1] = _lines_matvec(inv[m - 1], x[m - 1])
        for j in range(m - 2, -1, -1):
            x[j] = _lines_matvec(inv[j], x[j] - d[4, :, j, None] * x[j + 1])
        y = x.transpose(1, 0, 3, 2).reshape(b.shape)
        y.transpose(0, 2, 1)[~live] = 0.0
        r = np.stack([self.A @ y[..., c] for c in range(b.shape[2])], axis=-1)
        res = np.linalg.norm(r.reshape(b.shape) - b, axis=1)[live] / b_norm[live]
        worst = float(np.max(res))
        if not np.isfinite(worst) or worst > 10 * LINEAR_SOLVE_TOL:
            raise LinearSolveError(f"solution residual {worst:.3e} exceeds tolerance")
        return y.reshape(rhs.shape)


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
        y = Factorization(A).solve(rhs)
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
