"""Fused C kernel for the PDHG iterations between two residual checks,
and for the check that ends them.

``_pdhg_engine`` would spend most of an iteration in numpy call overhead:
about 26 calls on arrays of a few thousand entries. This module runs all
the iterations between two residual checks, and then the check, in one C
call, ``iterate(k, count)``, over the buffers ``k`` of one engine call
(``Kernel.bind``, which lays them out from the instance, its step sizes
and the iterates). The kernel swaps the current and next primal buffers
after every iteration, and each iteration is

- the dual step: ``lam_e += tau ((A yb - xb1) - g)`` and
  ``lam_ih = max(0, lam_ih + tau ci ((yb - zb) - psi))`` (``yb`` in hard
  mode);
- the control gradient ``x1n = p @ lam_e``, 0.0 plus ``p_k lam_e[k]`` in
  scenario order, so that its bits follow from this source and not from a
  BLAS library's choice of summation order;
- the primal step: the x1, y and z proxes, the division by the prox
  denominators, the clamp to ``[lo, hi]`` and the extrapolation.

The residual check (``check``) then scores the newest iterate and writes
10 values, the columns ``CHECK_COLUMNS``: the natural residuals of
``certify.natural_residuals`` and the two divergence magnitudes of the
engine. It repeats the definition in ``certify`` bit for
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
on the same operands, as the numpy steps (``numpy_steps``), so the
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

The one exception is the sign of a NaN made from two NaNs of opposite
sign, which IEEE 754 leaves open and gcc decides by swapping the operands
of ``+``; no engine run meets it, since on x86 every NaN the iteration
makes comes from an invalid operation and has one sign.

The source is compiled on the first ``load()`` call, not at import, with
the system C compiler (``cc``) and ``FLAGS``: ``-O3 -march=native`` for
the host's widest vectors, without fast-math, so nothing is reassociated,
and with ``-ffp-contract=off``, so that no multiply-add is fused.
Vectorizing an elementwise loop changes no bits, and the library is built
on the host it runs on. It is built in a temporary directory, which is
removed once it is loaded. If there is no compiler or the build fails,
``load()`` returns None and the engine runs the numpy steps (CSR
products), which score their checks with ``certify`` and give the same
bits. The outcome is decided once per process, under a lock, since the
homotopy study's two threads may make their first engine calls at once.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import tempfile
import threading
from types import SimpleNamespace

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from . import certify
from .problem import DualPoint, PrimalPoint

FLAGS = ("-O3", "-march=native", "-ffp-contract=off")

# The columns of the residual check's output of 10 values: the natural
# residuals and the engine's two divergence magnitudes.
CHECK_COLUMNS = certify.RESIDUAL_NAMES + ("mag_e", "mag_i")

SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The buffers of one engine call: one problem with S scenarios of
   n = m x m nodes, laid out by _batch in kernel.py: the primal vectors are
   [x1 | y | z] (z only in slack mode), the duals [lam_e | lam_ih] and the
   data [g | psi], each block (S, n). */
typedef struct {
    int64_t S, n, m, slack;
    int64_t has_lin;                /* the check adds lin to its control gradient */
    double h, q;                    /* mesh width, x1_extra_quad */
    double tau, tau1;
    double dual_steps[2];           /* tau, tau ci */
    double ineq_scales[2];          /* ci, tauz ci */
    double alpha, alpha_prime, M;   /* the check's constants */
    const double *diags;            /* block-diagonal operator: (5, S n) */
    const uint8_t *stored;          /* (4, S n): neighbour stored */
    double *work;                   /* (2, S n): the operator's products */
    double *X;                      /* current primal iterate */
    double *Xn;                     /* next primal iterate; iterate swaps the two */
    double *Xb;                     /* extrapolated primal iterate */
    double *duals;
    const double *g_psi;
    const double *p;                /* (S,) scenario probabilities */
    const double *tau_yt, *lin;     /* (n,) */
    const double *qc;               /* (n,) */
    const double *den, *lo, *hi;    /* one entry per primal entry */
    const double *y_target;         /* (n,) */
    const double *center;           /* (n,): x1_extra_center */
    double *check;                  /* (10,): the check's output */
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
    const int64_t N = k->S * k->n, m = k->m, end = N - m > m ? N - m : m;
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
    const int64_t Sn = k->S * k->n, n = k->n;
    const double *restrict xb1 = k->Xb, *restrict yb = k->Xb + n;
    const double *restrict g = k->g_psi, *Ay = k->work;   /* stencil writes work */
    double *restrict lam_e = k->duals;
    const double step = k->dual_steps[0];
    stencil(k, yb, k->work);
    for (int64_t r = 0; r < Sn; r += n)
        for (int64_t i = 0; i < n; i++) {
            const double e = Ay[r + i] - xb1[i];
            lam_e[r + i] = lam_e[r + i] + (e - g[r + i]) * step;
        }
    ascend_clamped(Sn, k->duals + Sn, yb, k->slack ? yb + Sn : NULL, k->g_psi + Sn,
                   k->dual_steps[1]);
}

static void primal_step(const Batch *k)
{
    const int64_t Sn = k->S * k->n, n = k->n;
    const double *restrict X = k->X, *Alam = k->work;   /* stencil writes work */
    const double *restrict lam_e = k->duals, *restrict lam_ih = k->duals + Sn;
    const double tau = k->tau, tau1 = k->tau1, ci = k->ineq_scales[0];
    double *restrict Xn = k->Xn;
    for (int64_t i = 0; i < n; i++)
        Xn[i] = X[i] + (((Xn[i] + k->qc[i]) - k->lin[i]) * tau1);
    stencil(k, lam_e, k->work);
    for (int64_t r = 0; r < Sn; r += n)
        for (int64_t i = 0; i < n; i++) {
            const double we = (Alam[r + i] + lam_ih[r + i] * ci) * tau;
            Xn[n + r + i] = (X[n + r + i] - we) + k->tau_yt[i];
        }
    finish(n + Sn, X, Xn, k->Xb, k->den, k->lo, k->hi, 0);
    if (!k->slack)
        return;
    const int64_t o = n + Sn;
    const double scale = k->ineq_scales[1];
    int subnormal = 0;
    for (int64_t r = 0; r < Sn; r++) {
        const double v = X[o + r] + lam_ih[r] * scale;
        subnormal |= (v != 0.0) & (fabs(v) < DBL_MIN);
        Xn[o + r] = v;
    }
    finish(Sn, X + o, Xn + o, k->Xb + o, k->den + o, k->lo + o, k->hi + o, subnormal);
}

/* x1n = p @ lam_e: 0.0 plus p_s lam_e[s] in scenario order */
static void control_gradient(const Batch *k)
{
    const int64_t S = k->S, n = k->n;
    double *restrict x1n = k->Xn;
    for (int64_t i = 0; i < n; i++)
        x1n[i] = 0.0;
    for (int64_t s = 0; s < S; s++) {
        const double ps = k->p[s], *restrict l = k->duals + s * n;
        for (int64_t i = 0; i < n; i++)
            x1n[i] = x1n[i] + ps * l[i];
    }
}

/* The residual check at the current primal iterate: k->check gets (r1, r2,
   r3, r3p, r4, r5_sign, r5_feas, r5_comp, mag_e, mag_i), the natural
   residuals of the pair (X, (lam_e, ci lam_ih, -lam_e)) and the divergence
   magnitudes h max_k |lam_e,k| and ci h max_k |lam_ih,k|, with the IEEE
   operations of certify.natural_residuals in its order: every sum runs
   left to right from 0.0, over nodes and then over scenarios, and every
   largest or smallest entry is taken left to right with max2/min2, from
   -inf or +inf, which either returns the first entry. A NaN is written as
   the one quiet NaN, as certify writes it, and r3p is NaN in hard mode,
   where the certificate has none. */
static void check(const Batch *k)
{
    const double *X = k->X;
    const int64_t S = k->S, n = k->n, Sn = S * n;
    const double *restrict x1 = X, *restrict y = X + n, *restrict z = k->slack ? X + n + Sn : y;
    const double *restrict lam_e = k->duals, *restrict lam_ih = k->duals + Sn;
    const double *restrict g = k->g_psi, *restrict psi = k->g_psi + Sn;
    const double *restrict Ay = k->work, *restrict Alam = k->work + Sn;
    const double *restrict p = k->p;
    const double h = k->h, ci = k->ineq_scales[0], M = k->M, ap = k->alpha_prime;
    stencil(k, y, k->work);
    stencil(k, lam_e, k->work + Sn);
    double s1 = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double e_rho = 0.0;
        for (int64_t s = 0; s < S; s++)
            e_rho = e_rho + p[s] * -lam_e[s * n + i];
        double f = k->alpha * x1[i] + e_rho;
        if (k->q != 0.0)
            f = f + k->q * (x1[i] - k->center[i]);
        if (k->has_lin)
            f = f + k->lin[i];
        const double d = x1[i] - min2(max2(x1[i] - f, k->lo[i]), k->hi[i]);
        s1 = s1 + d * d;
    }
    double r2 = -INFINITY, r3 = -INFINITY, r3p = -INFINITY, r4 = -INFINITY;
    double mag_e = -INFINITY, mag_i = -INFINITY, feas = -INFINITY, sign = INFINITY;
    double comp = 0.0;
    for (int64_t s = 0; s < S; s++) {
        double s2 = 0.0, s3 = 0.0, s3p = 0.0, s4 = 0.0, se = 0.0, si = 0.0, c = 0.0;
        for (int64_t i = 0, r = s * n; i < n; i++, r++) {
            const double obst = ci * lam_ih[r], e = -lam_e[r] + lam_e[r];
            const double fy = ((y[r] - k->y_target[i]) + Alam[r]) + obst;
            const double d3 = y[r] - min2(max2(y[r] - fy, -M), M);
            const double eq = (Ay[r] - x1[i]) - g[r];
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
        k->check[j] = isnan(out[j]) ? NAN : out[j];
}

/* `count` iterations from k->X to k->Xn, each followed by a swap of the two,
   then the residual check at the newest iterate, k->X */
void iterate(Batch *k, int64_t count)
{
    for (int64_t c = 0; c < count; c++) {
        dual_step(k);
        control_gradient(k);
        primal_step(k);
        double *t = k->X;
        k->X = k->Xn;
        k->Xn = t;
    }
    check(k);
}
"""


# the arrays of _Batch, each an attribute of the same name on _batch's
# namespace; the kernel reads them and writes duals and check in place
_ARRAYS = ("duals", "g_psi", "p", "tau_yt", "lin", "qc", "den", "lo", "hi", "y_target",
           "center", "check")


class _Batch(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in ("S", "n", "m", "slack", "has_lin")]
        + [(name, ctypes.c_double) for name in ("h", "q", "tau", "tau1")]
        + [(name, ctypes.c_double * 2) for name in ("dual_steps", "ineq_scales")]
        + [(name, ctypes.c_double) for name in ("alpha", "alpha_prime", "M")]
        + [(name, ctypes.c_void_p) for name in ("diags", "stored", "work", "X", "Xn", "Xb",
                                                 *_ARRAYS)]
    )


def _batch(inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
    """The buffers and constants of one engine call on ``inst``, for both
    forms of the steps: ``step`` holds the instance's tau, ci, tau1 and
    tauz, ``state`` the iterates (x1, y, z, xb1, yb, zb, lam_e, lam_ih), and
    ``q``, ``center`` (n,) and ``lin`` (n,) are ``x1_extra_quad``,
    ``x1_extra_center`` and ``x1_extra_lin``, each None when absent.

    The iterations allocate no arrays. The primal blocks live in one flat
    vector [x1 | y | z] (z only in slack mode; hard mode carries it
    unchanged), the multipliers in one (2, S, n) array [lam_e | lam_ih] and
    the data in [g | psi], so that each update the blocks share is one pass
    over one array. The prox denominators ``den`` and the bounds ``lo`` and
    ``hi`` have one entry per primal entry; a constant array of a scalar
    gives the same bits as the scalar.

    The namespace holds the current, next and extrapolated primal iterates
    ``cur``, ``nxt`` (a copy of ``cur``, so every byte the steps read is
    defined) and ``xb``, each (flat vector, x1 (n,), y, z), the scalars
    ``tau`` and ``tau1``, ``dual_steps`` [tau | tau ci] and ``ineq_scales``
    [ci | tauz ci] shaped (2, 1, 1), and the ``_ARRAYS`` in the numpy steps'
    shapes. Sizes are checked here, since the kernel indexes without bounds.
    """
    x1, y, z, xb1, yb, zb, lam_e, lam_ih = state
    S, n = np.shape(y)
    slack = inst.mode == "slack"
    NS = S * n
    nx = n + NS * (2 if slack else 1)
    tau, ci, tau1, tauz = (float(c) for c in step)
    box = np.full(NS, inst.c2_bound)
    _, g, psi = inst.fields()

    def flat(a1, ay, az):
        """[x1 | y | z], z only in slack mode"""
        parts = [np.ravel(a1), np.ravel(ay)] + ([np.ravel(az)] if slack else [])
        return np.concatenate(parts, dtype=float)

    X, Xb = flat(x1, y, z), flat(xb1, yb, zb)
    k = SimpleNamespace(
        inst=inst, S=S, n=n, slack=slack, tau=tau, tau1=tau1,
        dual_steps=np.array([tau, tau * ci])[:, None, None],
        ineq_scales=np.array([ci, tauz * ci])[:, None, None],
        duals=np.array([lam_e, lam_ih], dtype=float), g_psi=np.stack([g, psi]), p=inst.p,
        tau_yt=tau * inst.y_target,
        lin=np.zeros(n) if lin is None else np.asarray(lin, dtype=float),
        qc=np.zeros(n) if (q == 0.0 or center is None) else q * np.asarray(center),
        den=flat(np.full(n, 1.0 + tau1 * (inst.alpha + q)), np.full(NS, 1.0 + tau),
                 np.full(NS, 1.0 + tauz * inst.alpha_prime)),
        lo=flat(inst.c1_lo, -box, -box), hi=flat(inst.c1_hi, box, box),
        y_target=inst.y_target, center=np.zeros(n) if center is None else center,
        check=np.empty(len(CHECK_COLUMNS)))
    sizes = dict(X=nx, Xb=nx, duals=2 * NS, g_psi=2 * NS, p=S, tau_yt=n, lin=n, qc=n, den=nx,
                 lo=nx, hi=nx, y_target=n, center=n, check=len(CHECK_COLUMNS))
    arrays = dict(vars(k), X=X, Xb=Xb)
    for name, size in sizes.items():
        if np.size(arrays[name]) != size:
            raise ValueError(f"kernel argument {name} has {np.size(arrays[name])} entries, "
                             f"expected {size}")
    z_hard = None if slack else np.array(z, dtype=float)

    def blocks(X):
        return (X, X[:n], X[n:n + NS].reshape(S, n),
                X[n + NS:].reshape(S, n) if slack else z_hard)

    k.cur, k.nxt, k.xb = blocks(X), blocks(X.copy()), blocks(Xb)
    return k


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
        self._iterate = lib.iterate
        self._iterate.argtypes = (ctypes.POINTER(_Batch), ctypes.c_int64)
        self._iterate.restype = None

    @staticmethod
    def bind(inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
        """The buffers of ``_batch`` for ``iterate``, with the ``_Batch``
        struct that points at its arrays (``struct``), which keeps them
        alive. The instance's CSR block operator becomes the stencil's
        diagonals (``_stencil_diagonals``)."""
        k = _batch(inst, step, state, q=q, center=center, lin=lin)
        A = inst.block_operator()
        m, diags, stored = _stencil_diagonals(k.duals[0].size, k.n,
                                              (A.indptr, A.indices, A.data))
        arrays = dict(diags=diags, stored=stored, work=np.empty(k.duals.size), X=k.cur[0],
                      Xn=k.nxt[0], Xb=k.xb[0])
        arrays.update((name, np.ascontiguousarray(getattr(k, name), dtype=float))
                      for name in _ARRAYS)
        pair = ctypes.c_double * 2
        batch = _Batch(S=k.S, n=k.n, m=m, slack=k.slack, has_lin=lin is not None, h=inst.h,
                       q=q, tau=k.tau, tau1=k.tau1, dual_steps=pair(*k.dual_steps.ravel()),
                       ineq_scales=pair(*k.ineq_scales.ravel()), alpha=inst.alpha,
                       alpha_prime=inst.alpha_prime, M=inst.c2_bound,
                       **{name: a.ctypes.data for name, a in arrays.items()})
        batch.keep = arrays
        k.struct = ctypes.pointer(batch)
        return k

    def iterate(self, k, count: int) -> None:
        """``count`` iterations of ``k`` and the residual check at the
        newest iterate, in one kernel call. The kernel swaps its current
        and next primal buffers after every iteration, and ``k``'s ``cur``
        and ``nxt`` follow."""
        self._iterate(k.struct, count)
        if count % 2:
            k.cur, k.nxt = k.nxt, k.cur


class _NumpySteps:
    """The kernel's ``iterate`` as numpy calls on the same buffers: the
    fallback when the kernel cannot be built, and the form the kernel
    reproduces."""

    @staticmethod
    def bind(inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
        """Like ``Kernel.bind``, with the numpy steps' scratch arrays."""
        k = _batch(inst, step, state, q=q, center=center, lin=lin)
        k.extras = dict(x1_extra_quad=q, x1_extra_center=center, x1_extra_lin=lin)
        k.csr = inst.block_operator()
        k.work, k.Alam = np.empty((2, k.S, k.n)), np.empty((k.S, k.n))
        k.product = np.empty(k.n)
        return k

    @classmethod
    def iterate(cls, k, count: int) -> None:
        """``count`` iterations, each followed by a swap of ``k.cur`` and
        ``k.nxt``, then the residual check at the newest iterate."""
        for _ in range(count):
            cls.dual_step(k)
            cls.control_gradient(k)
            cls.primal_step(k)
            k.cur, k.nxt = k.nxt, k.cur
        cls.check(k)

    @staticmethod
    def check(k) -> None:
        """The kernel's ``check`` at ``k.cur``, by its definition:
        ``certify.natural_residuals`` of (x, (lam_e, ci lam_ih, -lam_e)) and
        ``certify.max_scenario_norm`` for the divergence magnitudes."""
        _, x1, y, z = k.cur
        lam_e, lam_ih = k.duals
        ci = k.ineq_scales[0, 0, 0]
        res = certify.natural_residuals(k.inst, PrimalPoint(x1, y, z),
                                        DualPoint(lam_e, ci * lam_ih, -lam_e), **k.extras)
        h = k.inst.h
        res.update(mag_e=certify.one_nan(h * certify.max_scenario_norm(lam_e)),
                   mag_i=certify.one_nan(ci * h * certify.max_scenario_norm(lam_ih)))
        for j, name in enumerate(CHECK_COLUMNS):
            k.check[j] = res.get(name, np.nan)     # no r3p in hard mode

    @staticmethod
    def dual_step(k) -> None:
        _, xb1, yb, zb = k.xb
        work_e, work_i = work = k.work
        work_e.fill(0.0)
        csr_matvec(yb.size, yb.size, k.csr.indptr, k.csr.indices, k.csr.data, yb, work_e)
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
        for ps, lam in zip(k.p, k.duals[0]):
            np.multiply(ps, lam, out=k.product)
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
        csr_matvec(lam_e.size, lam_e.size, k.csr.indptr, k.csr.indices, k.csr.data, lam_e,
                   k.Alam)
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
_load_lock = threading.Lock()


def load() -> Kernel | None:
    """The kernel, compiled and loaded on the first call in this process;
    None if it could not be built or loaded, then and on every later call.
    The first call builds under a lock, so threads that call at once build
    it once."""
    global _kernel
    with _load_lock:
        if _kernel is _UNTRIED:
            try:
                _kernel = Kernel(_build())
            except (OSError, subprocess.SubprocessError):
                _kernel = None
    return _kernel
