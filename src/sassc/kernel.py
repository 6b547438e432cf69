"""Fused C kernel for the PDHG iterations between two residual checks,
and for the check that ends them.

``_pdhg_engine`` would spend most of an iteration in numpy call overhead:
about 26 calls on arrays of a few thousand entries. This module runs all
the iterations between two residual checks, and then the check, in one C
call, ``iterate(a, b, count)``, over the engine's own buffers. It
alternates the two argument sets ``a`` and ``b`` of ``Kernel.bind`` (one
per direction between the two primal buffers), and each iteration is

- the dual step: ``lam_e += tau ((A yb - xb1) - g)`` and
  ``lam_ih = max(0, lam_ih + tau ci ((yb - zb) - psi))`` (``yb`` in hard
  mode);
- the control gradient ``x1n = p @ lam_e``, for each row 0.0 plus
  ``p_k lam_e[k]`` in scenario order, so that its bits follow from this
  source and not from a BLAS library's choice of summation order;
- the primal step: the x1, y and z proxes, the division by the prox
  denominators, the clamp to ``[lo, hi]`` and the extrapolation.

The residual check (``check``) then scores every row at its newest
iterate and writes a (rows, 10) buffer, the columns ``CHECK_COLUMNS``: the
natural residuals of ``certify.natural_residuals`` and the two divergence
magnitudes of the engine. It repeats the definition in ``certify`` bit for
bit: every sum left to right from 0.0, over nodes and then over scenarios,
every largest or smallest entry left to right, and every NaN written as
the one quiet NaN. At S = 8 and n = 256 on a 2-vCPU AVX-512 Xeon it takes
16-18 us per call, its two operator products included, against 86-88 us
for the numpy calls that scored it before (BLAS and pairwise sums), which
the engine also had to prepare for in Python.

The block-diagonal operator ``A`` is applied as a five-point stencil, not
as CSR: ``Kernel.bind`` turns the CSR it is given into five diagonals
(south, west, centre, east and north, at offsets -m, -1, 0, +1, +m on the
m x m grid of each block) and a "stored" flag per neighbour, and rejects a
CSR whose rows are not exactly their grid neighbours in ascending column
order. With no index gathers the compiler runs several rows in one vector.
A numpy stencil is no alternative: its per-call overhead made it 2.9-4.5x
slower than scipy's CSR product at these sizes.

Each element goes through the same IEEE operations, in the same order and
on the same operands, as the numpy form in the engine's comments, so the
iterates are the same bits:

- each row of a product is summed from 0.0 over its stored entries in
  ascending column order, as scipy's ``csr_matvec`` sums it. An absent
  neighbour adds +0.0 instead of a product, so a NaN or infinite value
  there is never multiplied in, and adding +0.0 leaves a sum that started
  at +0.0 unchanged (such a sum is never -0.0);
- ``+ qc`` is added even when it is 0.0;
- ``max``/``min`` return the second operand on a tie of signed zeros and
  propagate NaN, like numpy's ``maximum``/``minimum``;
- a subnormal slack entry ``+-c 2^-1074`` over a denominator ``d >= 1``,
  whose quotient is subnormal or zero, is not divided as a double, since a
  subnormal operand sends the division through a microcode assist. The
  kernel computes ``rint(c / d)`` instead, settles a double quotient that
  lands on a half-integer by the sign of the exact remainder
  ``fma(-q, d, c)``, and uses the integer, with the sign of the entry, as
  the bit pattern of the result: the IEEE quotient, bit for bit. ``fma``
  only decides ties; no result is a fused multiply-add. The slack update
  sets a flag when it writes a subnormal, and only then does the block
  take this path, in a loop the compiler vectorizes. From the default
  preset's end point (85 subnormal slack entries of 2 048), an iteration
  took 3.8-5.2 us longer than with those entries zeroed when they were
  divided as doubles, and 1.4-2.4 us longer on this path (two runs, 40
  paired trials each, on a 2-vCPU AVX-512 Xeon).

The source is compiled on the first ``load()`` call, not at import, with
the system C compiler (``cc``) and ``FLAGS``: ``-O3 -march=native`` for
the host's widest vectors, without fast-math, so nothing is reassociated,
and with ``-ffp-contract=off``, so that no multiply-add is fused.
Vectorizing an elementwise loop changes no bits, and the library is built
on the host it runs on. It is built in a temporary directory, which is
removed once it is loaded. If there is no compiler or the build fails,
``load()`` returns None and the engine runs its numpy loop body (CSR
products) and scores its checks with ``certify``, which gives the same
bits. The outcome is decided once per process.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import tempfile
from types import SimpleNamespace

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from . import certify
from .problem import DualPoint, PrimalPoint, Rows

FLAGS = ("-O3", "-march=native", "-ffp-contract=off")

# The columns of the residual check's (rows, 10) output: the natural
# residuals and the engine's two divergence magnitudes.
CHECK_COLUMNS = certify.RESIDUAL_NAMES + ("mag_e", "mag_i")

SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* One lockstep batch of `rows` problems with S scenarios of n = m x m nodes.
   The primal vectors are [x1 | y | z] with the rows stacked in each block (z
   only in slack mode), the duals [lam_e | lam_ih] and the data [g | psi],
   each block (rows, S, n). Per-row constants have one entry per row. */
typedef struct {
    int64_t rows, S, n, m, slack;
    int64_t has_lin;                /* the check adds lin to its control gradient */
    double h, q;                    /* mesh width, x1_extra_quad */
    const double *diags;            /* block-diagonal operator: (5, rows S n) */
    const uint8_t *stored;          /* (4, rows S n): neighbour stored */
    double *work;                   /* (2, rows S n): the operator's products */
    const double *X;                /* current primal iterate */
    double *Xn;                     /* next primal iterate */
    double *Xb;                     /* extrapolated primal iterate */
    double *duals;
    const double *g_psi;
    const double *p;                /* (rows, S) scenario probabilities */
    const double *dual_steps;       /* [tau | tau ci] */
    const double *ineq_scales;      /* [ci | tauz ci] */
    const double *tau, *tau1;
    const double *tau_yt, *lin;     /* (rows, n) */
    const double *qc;               /* (n,) */
    const double *den, *lo, *hi;    /* one entry per primal entry */
    const double *alpha, *alpha_prime, *M;   /* the check's per-row constants */
    const double *y_target;         /* (rows, n) */
    const double *center;           /* (n,): x1_extra_center */
    double *check;                  /* (rows, 10): the check's output */
} Batch;

/* numpy's maximum and minimum: the second operand on a tie, NaN wins */
static inline double max2(double a, double b) { return (a > b || isnan(a)) ? a : b; }
static inline double min2(double a, double b) { return (a < b || isnan(a)) ? a : b; }

/* row r of the operator's product with v, given the neighbour values: the
   stored entries summed from 0.0 in ascending column order (south, west,
   centre, east, north), an absent one adding +0.0 */
static inline double stencil_row(int64_t N, int64_t r, const double *restrict d,
                                 const uint8_t *restrict stored, double vs, double vw,
                                 double vc, double ve, double vn)
{
    double sum = 0.0;
    sum += stored[r] ? d[r] * vs : 0.0;
    sum += stored[N + r] ? d[N + r] * vw : 0.0;
    sum += d[2 * N + r] * vc;
    sum += stored[2 * N + r] ? d[3 * N + r] * ve : 0.0;
    sum += stored[3 * N + r] ? d[4 * N + r] * vn : 0.0;
    return sum;
}

/* stencil_row for the rows whose neighbours may lie outside v: only the
   stored ones are loaded */
static inline double stencil_edge_row(int64_t N, int64_t r, int64_t m,
                                      const double *restrict d,
                                      const uint8_t *restrict st, const double *restrict v)
{
    return stencil_row(N, r, d, st, st[r] ? v[r - m] : 0.0, st[N + r] ? v[r - 1] : 0.0,
                       v[r], st[2 * N + r] ? v[r + 1] : 0.0, st[3 * N + r] ? v[r + m] : 0.0);
}

/* out = A v. The rows m <= r < N - m load their neighbours without a
   test, which lets the loop run in vectors; the first and last m rows take
   stencil_edge_row. */
static void stencil(const Batch *k, const double *restrict v, double *restrict out)
{
    const int64_t N = k->rows * k->S * k->n, m = k->m, end = N - m > m ? N - m : m;
    const double *restrict d = k->diags;
    const uint8_t *restrict st = k->stored;
    for (int64_t r = 0; r < m; r++)
        out[r] = stencil_edge_row(N, r, m, d, st, v);
    for (int64_t r = m; r < end; r++)
        out[r] = stencil_row(N, r, d, st, v[r - m], v[r - 1], v[r], v[r + 1], v[r + m]);
    for (int64_t r = end; r < N; r++)
        out[r] = stencil_edge_row(N, r, m, d, st, v);
}

/* lam[j] = max2(0.0, lam[j] + (w[j] - psi[j]) * step) for j < m, with
   w = a - b, or w = a when b is NULL */
static void ascend_clamped(int64_t m, double *restrict lam, const double *restrict a,
                           const double *restrict b, const double *restrict psi,
                           double step)
{
    for (int64_t j = 0; j < m; j++) {
        const double w = b ? a[j] - b[j] : a[j];
        lam[j] = max2(0.0, lam[j] + (w - psi[j]) * step);
    }
}

/* x / d as IEEE division rounds it. For a subnormal x = +-c 2^-1074 and
   d >= 1 (inf included) the quotient is subnormal or zero, so its bit pattern
   is the integer nearest to c / d (an exact tie to even) with the sign of
   x; that integer is computed with no subnormal operand. rint(c / d)
   rounds twice, which can only go wrong where c / d rounds to a
   half-integer; there the sign of the exact remainder c - q d (one fma,
   rounded once, keeps its sign) settles it. Any other x or d is divided
   plainly. The integer c < 2^52 and the result r <= c pass between bits
   and doubles through 2^52 + c, whose mantissa bits are c. Every value is
   computed for every entry and then selected, so the loop vectorizes. */
static inline double quotient(double x, double d)
{
    uint64_t bits, cbits, rbits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t sign = bits & 0x8000000000000000u, mag = bits ^ sign;
    const int sub = (mag - 1 < 0x000fffffffffffffu) & (d >= 1.0);
    double c52, y;
    cbits = (mag & 0x000fffffffffffffu) | 0x4330000000000000u;
    memcpy(&c52, &cbits, sizeof c52);
    const double cm = c52 - 0x1p52, c = sub ? cm : x;
    const double q = c / d, t = rint(q), e = fma(-q, d, c), up = q + 0.5, down = q - 0.5;
    const double r52 = (fabs(t - q) != 0.5 ? t : e > 0.0 ? up : e < 0.0 ? down : t) + 0x1p52;
    memcpy(&rbits, &r52, sizeof rbits);
    rbits = (rbits ^ 0x4330000000000000u) | sign;
    memcpy(&y, &rbits, sizeof y);
    return sub ? y : q;
}

/* Xn = min2(max2(Xn / den, lo), hi) and Xb = Xn + (Xn - X), entries j < m;
   with `subnormal` set the division goes through quotient() */
static void finish(int64_t m, const double *restrict X, double *restrict Xn,
                   double *restrict Xb, const double *restrict den,
                   const double *restrict lo, const double *restrict hi, int subnormal)
{
    if (subnormal)  /* two loops: gcc then vectorizes the plain one */
        for (int64_t j = 0; j < m; j++) {
            const double v = min2(max2(quotient(Xn[j], den[j]), lo[j]), hi[j]);
            Xn[j] = v;
            Xb[j] = v + (v - X[j]);
        }
    else
        for (int64_t j = 0; j < m; j++) {
            const double v = min2(max2(Xn[j] / den[j], lo[j]), hi[j]);
            Xn[j] = v;
            Xb[j] = v + (v - X[j]);
        }
}

static void dual_step(const Batch *k)
{
    const int64_t rows = k->rows, Sn = k->S * k->n, n = k->n;
    const int64_t nb = rows * n, NS = rows * Sn;
    const double *restrict xb1 = k->Xb, *restrict yb = k->Xb + nb;
    const double *restrict g = k->g_psi, *Ay = k->work;   /* stencil writes work */
    double *restrict lam_e = k->duals;
    stencil(k, yb, k->work);
    for (int64_t b = 0; b < rows; b++) {
        const double step = k->dual_steps[b];
        for (int64_t r = b * Sn; r < (b + 1) * Sn; r += n)
            for (int64_t i = 0; i < n; i++) {
                const double e = Ay[r + i] - xb1[b * n + i];
                lam_e[r + i] = lam_e[r + i] + (e - g[r + i]) * step;
            }
    }
    for (int64_t b = 0; b < rows; b++) {
        const int64_t r = b * Sn;
        ascend_clamped(Sn, k->duals + NS + r, yb + r,
                       k->slack ? yb + NS + r : NULL, k->g_psi + NS + r,
                       k->dual_steps[rows + b]);
    }
}

static void primal_step(const Batch *k)
{
    const int64_t rows = k->rows, Sn = k->S * k->n, n = k->n;
    const int64_t nb = rows * n, NS = rows * Sn;
    const double *restrict X = k->X, *Alam = k->work;   /* stencil writes work */
    const double *restrict lam_e = k->duals, *restrict lam_ih = k->duals + NS;
    const double *restrict scales = k->ineq_scales;
    double *restrict Xn = k->Xn;
    for (int64_t b = 0; b < rows; b++)
        for (int64_t j = b * n, i = 0; i < n; i++, j++)
            Xn[j] = X[j] + (((Xn[j] + k->qc[i]) - k->lin[j]) * k->tau1[b]);
    stencil(k, lam_e, k->work);
    for (int64_t b = 0; b < rows; b++)
        for (int64_t r = b * Sn; r < (b + 1) * Sn; r += n)
            for (int64_t i = 0; i < n; i++) {
                const double we = (Alam[r + i] + lam_ih[r + i] * scales[b]) * k->tau[b];
                Xn[nb + r + i] = (X[nb + r + i] - we) + k->tau_yt[b * n + i];
            }
    finish(nb + NS, X, Xn, k->Xb, k->den, k->lo, k->hi, 0);
    if (!k->slack)
        return;
    int subnormal = 0;
    for (int64_t b = 0; b < rows; b++)
        for (int64_t r = b * Sn; r < (b + 1) * Sn; r++) {
            const double v = X[nb + NS + r] + lam_ih[r] * scales[rows + b];
            subnormal |= (v != 0.0) & (fabs(v) < DBL_MIN);
            Xn[nb + NS + r] = v;
        }
    const int64_t o = nb + NS;
    finish(NS, X + o, Xn + o, k->Xb + o, k->den + o, k->lo + o, k->hi + o, subnormal);
}

/* x1n = p @ lam_e: for each row, 0.0 plus p_s lam_e[s] in scenario order */
static void control_gradient(const Batch *k)
{
    const int64_t S = k->S, n = k->n;
    const double *restrict lam_e = k->duals;
    for (int64_t b = 0; b < k->rows; b++) {
        double *restrict x1n = k->Xn + b * n;
        for (int64_t i = 0; i < n; i++)
            x1n[i] = 0.0;
        for (int64_t s = 0; s < S; s++) {
            const double ps = k->p[b * S + s], *restrict l = lam_e + (b * S + s) * n;
            for (int64_t i = 0; i < n; i++)
                x1n[i] = x1n[i] + ps * l[i];
        }
    }
}

/* The residual check at the primal iterate X: row b of k->check gets
   (r1, r2, r3, r3p, r4, r5_sign, r5_feas, r5_comp, mag_e, mag_i), the
   natural residuals of the pair (X, (lam_e, ci lam_ih, -lam_e)) and the
   divergence magnitudes h max_k |lam_e,k| and ci h max_k |lam_ih,k|, with
   the IEEE operations of certify.natural_residuals in its order: every sum
   runs left to right from 0.0, over nodes and then over scenarios, and
   every largest or smallest entry is taken left to right with max2/min2,
   from -inf or +inf, which either returns the first entry. A NaN is
   written as the one quiet NaN, as certify writes it, and r3p is NaN in
   hard mode, where the certificate has none. */
static void check(const Batch *k, const double *X)
{
    const int64_t rows = k->rows, S = k->S, n = k->n, Sn = S * n;
    const int64_t nb = rows * n, NS = rows * Sn;
    const double *restrict x1 = X, *restrict y = X + nb, *restrict z = k->slack ? X + nb + NS : y;
    const double *restrict lam_e = k->duals, *restrict lam_ih = k->duals + NS;
    const double *restrict g = k->g_psi, *restrict psi = k->g_psi + NS;
    const double *restrict Ay = k->work, *restrict Alam = k->work + NS;
    const double h = k->h;
    stencil(k, y, k->work);
    stencil(k, lam_e, k->work + NS);
    for (int64_t b = 0; b < rows; b++) {
        const double ci = k->ineq_scales[b], M = k->M[b], ap = k->alpha_prime[b];
        const double *restrict p = k->p + b * S;
        double s1 = 0.0;
        for (int64_t j = b * n, i = 0; i < n; i++, j++) {
            double e_rho = 0.0;
            for (int64_t s = 0; s < S; s++)
                e_rho = e_rho + p[s] * -lam_e[(b * S + s) * n + i];
            double f = k->alpha[b] * x1[j] + e_rho;
            if (k->q != 0.0)
                f = f + k->q * (x1[j] - k->center[i]);
            if (k->has_lin)
                f = f + k->lin[j];
            const double d = x1[j] - min2(max2(x1[j] - f, k->lo[j]), k->hi[j]);
            s1 = s1 + d * d;
        }
        double r2 = -INFINITY, r3 = -INFINITY, r3p = -INFINITY, r4 = -INFINITY;
        double mag_e = -INFINITY, mag_i = -INFINITY, feas = -INFINITY, sign = INFINITY;
        double comp = 0.0;
        for (int64_t s = 0; s < S; s++) {
            double s2 = 0.0, s3 = 0.0, s3p = 0.0, s4 = 0.0, se = 0.0, si = 0.0, c = 0.0;
            for (int64_t i = 0, r = (b * S + s) * n; i < n; i++, r++) {
                const double obst = ci * lam_ih[r], e = -lam_e[r] + lam_e[r];
                const double fy = ((y[r] - k->y_target[b * n + i]) + Alam[r]) + obst;
                const double d3 = y[r] - min2(max2(y[r] - fy, -M), M);
                const double eq = (Ay[r] - x1[b * n + i]) - g[r];
                const double ineq = k->slack ? (y[r] - z[r]) - psi[r] : y[r] - psi[r];
                if (k->slack) {
                    const double d3p = z[r] - min2(max2(z[r] - (ap * z[r] - obst), -M), M);
                    s3p = s3p + d3p * d3p;
                }
                s2 = s2 + e * e;
                s3 = s3 + d3 * d3;
                s4 = s4 + eq * eq;
                sign = min2(sign, obst);
                feas = max2(feas, max2(ineq, 0.0));
                c = c + ineq * obst;
                se = se + lam_e[r] * lam_e[r];
                si = si + lam_ih[r] * lam_ih[r];
            }
            r2 = max2(r2, s2);
            r3 = max2(r3, s3);
            r3p = max2(r3p, s3p);
            r4 = max2(r4, s4);
            mag_e = max2(mag_e, se);
            mag_i = max2(mag_i, si);
            comp = comp + p[s] * c;
        }
        const double out[10] = {h * sqrt(s1), h * sqrt(r2), h * sqrt(r3),
                                k->slack ? h * sqrt(r3p) : NAN, h * sqrt(r4), sign, feas,
                                fabs(h * h * comp), h * sqrt(mag_e), (ci * h) * sqrt(mag_i)};
        for (int j = 0; j < 10; j++)
            k->check[10 * b + j] = isnan(out[j]) ? NAN : out[j];
    }
}

/* `count` iterations, the first from a->X to a->Xn, the next back with b,
   then the residual check at the newest iterate (a->X if count is 0) */
void iterate(const Batch *a, const Batch *b, int64_t count)
{
    for (int64_t c = 0; c < count; c++) {
        const Batch *k = c % 2 ? b : a;
        dual_step(k);
        control_gradient(k);
        primal_step(k);
    }
    check(a, count % 2 ? a->Xn : a->X);
}
"""


class _Batch(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in ("rows", "S", "n", "m", "slack", "has_lin")]
        + [(name, ctypes.c_double) for name in ("h", "q")]
        + [(name, ctypes.c_void_p) for name in (
            "diags", "stored", "work", "X", "Xn", "Xb", "duals", "g_psi", "p", "dual_steps",
            "ineq_scales", "tau", "tau1", "tau_yt", "lin", "qc", "den", "lo", "hi", "alpha",
            "alpha_prime", "M", "y_target", "center", "check")]
    )


def _stencil_diagonals(N: int, n: int, csr) -> tuple[int, np.ndarray, np.ndarray]:
    """The grid width ``m``, the (5, N) diagonals and the (4, N) "stored"
    flags of the block-diagonal operator ``csr`` with blocks of ``n = m * m``
    nodes, as ``Kernel.bind`` passes them to the steps.

    Raises ``ValueError`` unless every row holds exactly its five-point
    grid neighbours, in ascending column order: only then does the stencil
    sum each row as the CSR product does.
    """
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"the stencil needs a square grid, got n = {n}")
    r = np.arange(N)
    i, j = r % m, r % n // m
    # south, west, centre, east, north: ascending column order
    stored = np.stack([j >= 1, i >= 1, np.ones(N, bool), i <= m - 2, j <= m - 2], axis=1)
    cols = r[:, None] + np.array([-m, -1, 0, 1, m])
    indptr, indices, data = csr
    if not (np.array_equal(indptr, np.concatenate([[0], np.cumsum(stored.sum(axis=1))]))
            and np.array_equal(indices, cols[stored]) and np.size(data) == len(indices)):
        raise ValueError("the operator's rows must hold exactly their five-point grid "
                         "neighbours, in ascending column order")
    diags = np.zeros((N, 5))
    diags[stored] = data
    return m, np.ascontiguousarray(diags.T), np.ascontiguousarray(stored[:, [0, 1, 3, 4]].T,
                                                                   dtype=np.uint8)


class Kernel:
    """The loaded kernel library."""

    def __init__(self, lib: ctypes.CDLL):
        self.iterate = lib.iterate
        self.iterate.argtypes = (ctypes.POINTER(_Batch), ctypes.POINTER(_Batch), ctypes.c_int64)
        self.iterate.restype = None

    @staticmethod
    def bind(rows: int, S: int, n: int, slack: bool, csr, X0, X1, Xb, duals, check, z_hard,
             *, h: float, q: float, lin=None, center=None, **consts):
        """Arguments of ``iterate`` for one batch: a pair of pointers, the
        first for a step from ``X0`` to ``X1`` and the second the other way.

        ``X0``, ``X1``, ``Xb``, ``duals`` and the (rows, 10) ``check`` are
        the buffers the kernel writes in place; the ``_Batch`` constants in
        ``consts`` are read, and may be given in any shape that holds their
        entries in order, ``qc`` also as the scalar 0.0. ``h`` and ``q``
        (``x1_extra_quad``) are scalars; ``lin`` (rows, n) and ``center``
        (n,) are ``x1_extra_lin`` and ``x1_extra_center``, each None when
        absent, as in ``certify.natural_residuals``. ``z_hard``, which hard
        mode carries unchanged, is read only by the numpy steps. The CSR
        operator becomes the stencil's diagonals (``_stencil_diagonals``).
        Every array is kept alive by the pointers. Sizes are checked here,
        since the kernel indexes without bounds.
        """
        NS = rows * S * n
        nx = rows * n + (2 if slack else 1) * NS
        m, diags, stored = _stencil_diagonals(NS, n, csr)
        arrays = dict(diags=diags, stored=stored, work=np.empty(2 * NS), Xb=Xb, duals=duals,
                      check=check)
        consts.update(lin=0.0 if lin is None else lin, center=0.0 if center is None else center)
        scalars = dict(lin=(rows, n), qc=(n,), center=(n,))
        for name, a in consts.items():
            a = np.broadcast_to(a, scalars[name]) if np.ndim(a) == 0 else a
            arrays[name] = np.ascontiguousarray(a, dtype=float)
        sizes = dict(X=nx, Xn=nx, Xb=nx, duals=2 * NS, g_psi=2 * NS, p=rows * S,
                     dual_steps=2 * rows, ineq_scales=2 * rows, tau=rows, tau1=rows,
                     tau_yt=rows * n, lin=rows * n, qc=n, den=nx, lo=nx, hi=nx, alpha=rows,
                     alpha_prime=rows, M=rows, y_target=rows * n, center=n, check=rows * 10)
        for name, a in dict(arrays, X=X0, Xn=X1).items():
            if name in sizes and a.size != sizes[name]:
                raise ValueError(f"kernel argument {name} has {a.size} entries, "
                                 f"expected {sizes[name]}")
        for a in (X0, X1, Xb, duals, check):
            if a.dtype != np.float64 or not a.flags.c_contiguous:
                raise ValueError("the buffers written in place must be C-contiguous float64")
        fields = {name: a.ctypes.data for name, a in arrays.items()}
        keep = (X0, X1, *arrays.values())
        pair = []
        for X, Xn in ((X0, X1), (X1, X0)):
            batch = _Batch(rows=rows, S=S, n=n, m=m, slack=int(slack), has_lin=lin is not None,
                           h=h, q=q, X=X.ctypes.data, Xn=Xn.ctypes.data, **fields)
            batch.keep = keep
            pair.append(ctypes.pointer(batch))
        return tuple(pair)


class _NumpySteps:
    """The kernel's ``iterate`` as numpy calls on the same buffers: the
    fallback when the kernel cannot be built, and the form the kernel
    reproduces."""

    @staticmethod
    def bind(rows: int, S: int, n: int, slack: bool, csr, X0, X1, Xb, duals, check, z_hard,
             *, h: float, q: float, lin=None, center=None, **consts):
        """Like ``Kernel.bind``, with the constants in the engine's shapes."""
        nb, NS = rows * n, rows * S * n

        def blocks(X):
            return (X, X[:nb].reshape(rows, 1, n), X[nb:nb + NS].reshape(rows, S, n),
                    X[nb + NS:].reshape(rows, S, n) if slack else z_hard)

        lo, hi = np.ravel(consts["lo"]), np.ravel(consts["hi"])
        g, psi = np.reshape(consts["g_psi"], (2, rows, S, n))
        record = Rows(csr=csr, p=np.reshape(consts["p"], (rows, S)), g=g, psi=psi,
                      c1_lo=lo[:nb].reshape(rows, n), c1_hi=hi[:nb].reshape(rows, n),
                      y_target=np.reshape(consts.pop("y_target"), (rows, n)),
                      alpha=np.ravel(consts.pop("alpha")),
                      alpha_prime=np.ravel(consts.pop("alpha_prime")),
                      M=np.ravel(consts.pop("M")), h=h, mode="slack" if slack else "hard")
        extras = dict(x1_extra_quad=q, x1_extra_center=center,
                      x1_extra_lin=None if lin is None else np.reshape(lin, (rows, n)))
        work = np.empty((2, rows, S, n))
        shared = dict(N=NS, csr=csr, slack=slack, xb=blocks(Xb), duals=duals, work=work,
                      Alam=np.empty((rows, S, n)), product=np.empty((rows, 1, n)),
                      check=check, record=record, extras=extras,
                      lin=0.0 if lin is None else lin,
                      **dict(consts, p=np.reshape(consts["p"], (rows, S)).T[:, :, None, None]))
        return tuple(SimpleNamespace(cur=blocks(X), nxt=blocks(Xn), **shared)
                     for X, Xn in ((X0, X1), (X1, X0)))

    @classmethod
    def iterate(cls, a, b, count: int) -> None:
        """``count`` iterations, the first from ``a``'s current buffer, the
        next back with ``b``, then the residual check at the newest
        iterate."""
        for c in range(count):
            k = b if c % 2 else a
            cls.dual_step(k)
            cls.control_gradient(k)
            cls.primal_step(k)
        cls.check(a, a.nxt if count % 2 else a.cur)

    @staticmethod
    def check(k, X) -> None:
        """The kernel's ``check`` at the primal iterate ``X`` (blocks), by
        its definition: ``certify.natural_residuals`` of (X, (lam_e, ci
        lam_ih, -lam_e)) and ``certify.max_scenario_norm`` for the
        divergence magnitudes."""
        _, x1, y, z = X
        lam_e, lam_ih = k.duals
        ci = np.reshape(k.ineq_scales[0], (-1, 1, 1))
        res = certify.natural_residuals(k.record, PrimalPoint(x1[:, 0], y, z),
                                        DualPoint(lam_e, ci * lam_ih, -lam_e), **k.extras)
        h = k.record.h
        res.update(mag_e=certify.one_nan(h * certify.max_scenario_norm(lam_e)),
                   mag_i=certify.one_nan(ci[:, 0, 0] * h * certify.max_scenario_norm(lam_ih)))
        for j, name in enumerate(CHECK_COLUMNS):
            k.check[:, j] = res.get(name, np.nan)     # no r3p in hard mode

    @staticmethod
    def dual_step(k) -> None:
        _, xb1, yb, zb = k.xb
        work_e, work_i = work = k.work
        work_e.fill(0.0)
        csr_matvec(k.N, k.N, *k.csr, yb, work_e)
        np.subtract(work_e, xb1, out=work_e)
        if k.slack:
            np.subtract(yb, zb, out=work_i)
        else:
            np.copyto(work_i, yb)
        np.subtract(work, k.g_psi, out=work)
        np.multiply(work, k.dual_steps, out=work)
        np.add(k.duals, work, out=k.duals)
        np.maximum(0.0, k.duals[1], out=k.duals[1])

    @staticmethod
    def control_gradient(k) -> None:
        """x1n = p @ lam_e, summed from 0.0 in scenario order."""
        x1n = k.nxt[1]
        x1n.fill(0.0)
        for s, ps in enumerate(k.p):     # ps: (rows, 1, 1)
            np.multiply(ps, k.duals[0][:, s:s + 1], out=k.product)
            np.add(x1n, k.product, out=x1n)

    @staticmethod
    def primal_step(k) -> None:
        X, x1, y, z = k.cur
        Xn, x1n, yn, zn = k.nxt
        Xb = k.xb[0]
        lam_e, lam_ih = k.duals
        work_e, work_i = work = k.work
        np.add(x1n, k.qc, out=x1n)
        np.subtract(x1n, k.lin, out=x1n)
        np.multiply(x1n, k.tau1, out=x1n)
        np.add(x1, x1n, out=x1n)
        k.Alam.fill(0.0)
        csr_matvec(k.N, k.N, *k.csr, lam_e, k.Alam)
        np.multiply(lam_ih, k.ineq_scales, out=work)
        np.add(k.Alam, work_e, out=work_e)
        np.multiply(work_e, k.tau, out=work_e)
        np.subtract(y, work_e, out=yn)
        np.add(yn, k.tau_yt, out=yn)
        if k.slack:
            np.add(z, work_i, out=zn)
        np.divide(Xn, k.den, out=Xn)
        # (value, bound) argument order: on a signed-zero tie numpy returns
        # the second operand, the bound, as np.clip with array bounds does
        np.maximum(Xn, k.lo, out=Xn)
        np.minimum(Xn, k.hi, out=Xn)
        np.subtract(Xn, X, out=Xb)
        np.add(Xn, Xb, out=Xb)


numpy_steps = _NumpySteps()


def _build() -> ctypes.CDLL:
    """Compile ``SOURCE`` with ``cc`` in a temporary directory and load it."""
    with tempfile.TemporaryDirectory(prefix="sassc-kernel-") as tmp:
        src, lib = os.path.join(tmp, "kernel.c"), os.path.join(tmp, "kernel.so")
        with open(src, "w") as fh:
            fh.write(SOURCE)
        subprocess.run(["cc", *FLAGS, "-shared", "-fPIC", "-o", lib, src],
                       check=True, capture_output=True, timeout=120)
        return ctypes.CDLL(lib)


_UNTRIED = object()
_kernel = _UNTRIED


def load() -> Kernel | None:
    """The kernel, compiled and loaded on the first call in this process;
    None if it could not be built or loaded, then and on every later call."""
    global _kernel
    if _kernel is _UNTRIED:
        try:
            _kernel = Kernel(_build())
        except (OSError, subprocess.SubprocessError):
            _kernel = None
    return _kernel
