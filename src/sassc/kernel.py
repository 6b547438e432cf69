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
11 values, the columns ``CHECK_COLUMNS``: the natural residuals of
``certify.natural_residuals``, the two divergence magnitudes of the
engine, and the worst residual by the rule of ``certify.max_residual``
(NaN when any residual is NaN), which the engine's stop and best-iterate
tests read. It repeats the definition in ``certify`` bit for
bit: every sum left to right from 0.0, over nodes and then over scenarios,
every largest or smallest entry left to right, and every NaN written as
the one quiet NaN. At S = 8 and n = 256 on a 2-vCPU AVX-512 Xeon it takes
16-18 us per call, its two operator products included, against 86-88 us
for the numpy calls that scored it before (BLAS and pairwise sums), which
the engine also had to prepare for in Python.

The same library holds the maps of the K-norm power iteration behind the
engine's step sizes (``solvers._k_maps``), for several instances in
lockstep: ``k_forward`` and ``k_adjoint`` apply each running row's own
operator, with the IEEE operations of the numpy maps in their order. Only
the adjoint's control block ``-s1 (p @ we)`` stays a numpy ``matmul``,
whose summation order at S > 1 is the BLAS library's. ``Kernel.forward``
and ``Kernel.adjoint`` write into buffers laid out once per count of
running rows (``map_buffers``), whose addresses are taken once: taking
an array's address from Python costs about 0.8 us, and a whole ctypes call
of a map on four one-scenario rows at n1d 16 about 1.8 us (2-vCPU Xeon).

The block-diagonal operator ``A`` is the instance's cached
``block_operator()``, a ``grid.Stencil``: five diagonals (south, west,
centre, east and north, at offsets -m, -1, 0, +1, +m on the m x m grid of
each block) and a uint8 "stored" flag, 0 or 1, per neighbour, at whose
arrays ``bind`` and the K-norm maps point the kernel. ``stencil()`` loads
the neighbours of the rows m <= r < N - m without a test, and gcc runs
that loop several rows to a vector (its ``-fopt-info-vec`` notes say so,
and a test keeps it so). Each off-centre term is ``keep(d v, flag)``, the
product's bits ANDed with ``-(uint64_t) flag``: an absent neighbour's
product is computed, a NaN or inf one too, and becomes +0.0. The select
``flag ? d v : 0.0`` gives the same bits, but gcc 12 finds no vector type
for a select on a uint8 flag beside doubles, so it left this loop, the
hottest of the kernel, scalar. int64 flags vectorize too, but move 8x
the flag bytes and were slower in a prototype. ``FLAGS`` asks gcc for
512-bit vectors on x86, where it otherwise picks 256-bit ones on an
AVX-512 host. On the default preset at n1d 16 an iteration took 25-36 us
with the select, 16-22 us with the mask and 12-17 us with the mask in
512-bit vectors (4 alternating trials each, 2-vCPU AVX-512 Xeon, on a
host about 3-4x slower than the one behind the aligned-buffer numbers
below), with the same bits and iteration counts. The numpy steps multiply by the
stencil's CSR form, built once per bind: the numpy ``Stencil @`` was
2.9-4.5x slower.

Every buffer the kernel reads or writes starts on a 64-byte boundary, one
cache line: each array of ``_batch``, the scratch ``work``, the stencil
and the K-norm maps' ``map_buffers``. Each is allocated that way
(``aligned``) and filled in place, not copied once built. numpy starts an
array wherever its allocator puts it, and a buffer that starts off a
cache line makes many of the ``-march=native`` vector loads split a line,
so the cost of an iteration depended on where each array happened to
land. On the default preset at n1d 16 (2-vCPU AVX-512 Xeon) an iteration
takes 7.2-7.5 us with every buffer aligned, against 9.9-10.0 us with
every buffer 8, 16, 32 or 48 bytes past a boundary and 9.1-9.9 us where
numpy placed them, with the same bits and iteration counts.

Each element goes through the same IEEE operations, in the same order and
on the same operands, as the numpy steps (``numpy_steps``), so the
iterates are the same bits:

- each row of a product is summed from 0.0 over its stored entries in
  ascending column order, as scipy's ``csr_matvec`` sums it. An absent
  neighbour adds +0.0 whatever its product, so a NaN or infinite value
  there never enters the sum, and adding +0.0 leaves a sum that started
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
the system C compiler (``cc``) and ``FLAGS``: ``-O3 -march=native`` and,
on x86, ``-mprefer-vector-width=512`` for the host's widest vectors,
without fast-math, so nothing is reassociated, and with
``-ffp-contract=off``, so that no multiply-add is fused.
Vectorizing an elementwise loop changes no bits, and the library is built
on the host it runs on. It is built in a temporary directory, which is
removed once it is loaded. If there is no compiler or the build fails,
``load()`` returns None and the engine runs the numpy steps (scipy's CSR
products), which score their checks with ``certify``, and the K-norm
estimate runs the numpy maps (each running row's own CSR product); both
give the same bits. The outcome is decided once per process, under a
lock, since the homotopy study's two threads may make their first engine
calls at once.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import subprocess
import tempfile
import threading
from types import SimpleNamespace

import numpy as np

from . import certify
from .grid import aligned
from .problem import DualPoint, PrimalPoint

# gcc's x86 backend picks 256-bit vectors on an AVX-512 host unless told
# otherwise; the option exists only there
FLAGS = ("-O3", "-march=native", "-ffp-contract=off",
         *(("-mprefer-vector-width=512",) if platform.machine() == "x86_64" else ()))

# The columns of the residual check's output of 11 values: the natural
# residuals, the engine's two divergence magnitudes and the worst residual
# (``certify.max_residual``).
CHECK_COLUMNS = certify.RESIDUAL_NAMES + ("mag_e", "mag_i", "worst")

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
    double *check;                  /* (11,): the check's output */
} Batch;

/* numpy's maximum and minimum: the second operand on a tie, NaN wins */
static inline double max2(double a, double b) { return (a > b || isnan(a)) ? a : b; }
static inline double min2(double a, double b) { return (a < b || isnan(a)) ? a : b; }

/* x when flag is 1 and +0.0 when it is 0, by the bits of x ANDed with
   -flag: gcc vectorizes this mask, but not a select on a uint8 flag */
static inline double keep(double x, uint8_t flag)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits &= -(uint64_t)flag;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* row r of the operator's product with v, given the neighbour values: the
   stored entries summed from 0.0 in ascending column order (south, west,
   centre, east, north), an absent one adding +0.0 whatever its product */
static inline double stencil_row(int64_t N, int64_t r, const double *restrict d,
                                 const uint8_t *restrict stored, double vs, double vw,
                                 double vc, double ve, double vn)
{
    double sum = 0.0;
    sum += keep(d[r] * vs, stored[r]);
    sum += keep(d[N + r] * vw, stored[N + r]);
    sum += d[2 * N + r] * vc;
    sum += keep(d[3 * N + r] * ve, stored[2 * N + r]);
    sum += keep(d[4 * N + r] * vn, stored[3 * N + r]);
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
   r3, r3p, r4, r5_sign, r5_feas, r5_comp, mag_e, mag_i, worst), the natural
   residuals of the pair (X, (lam_e, ci lam_ih, -lam_e)), the divergence
   magnitudes h max_k |lam_e,k| and ci h max_k |lam_ih,k| and the worst
   residual of certify.max_residual, with the IEEE operations of
   certify.natural_residuals in its order: every sum runs
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
    double out[11] = {h * sqrt(s1), h * sqrt(r2), h * sqrt(r3),
                      k->slack ? h * sqrt(r3p) : NAN, h * sqrt(r4), sign, feas,
                      fabs(h * h * comp), h * sqrt(mag_e), (ci * h) * sqrt(mag_i)};
    /* the worst residual of certify.max_residual: r1, r2, r3, r4, r5_feas,
       r5_comp, r3p in slack mode, then max(-r5_sign, 0), folded by max2 */
    double worst = out[0];
    const int names[6] = {1, 2, 4, 6, 7, 3};
    for (int j = 0; j < (k->slack ? 6 : 5); j++)
        worst = max2(worst, out[names[j]]);
    out[10] = max2(worst, max2(-sign, 0.0));
    for (int j = 0; j < 11; j++)
        k->check[j] = isnan(out[j]) ? NAN : out[j];
}

/* The maps of the K-norm power iteration (solvers._k_maps) on the L running
   rows: row l of v and out belongs to the instance rows[idx[l]], whose
   Batch sets only S, n, m, slack, diags and stored, with the constants
   c = coef + 4 idx[l] = (s1, sz, ci, -ci sz). Each entry goes through the
   IEEE operations of the numpy maps, in their order. k_forward maps
   v = [x1 | y | z] (z only in slack mode) to [e | i]:
   e = A y - s1 x1 per scenario, i = ci (y - sz z), or ci y in hard mode. */
void k_forward(const Batch *rows, const double *coef, const int64_t *idx, int64_t L,
               const double *v, double *out)
{
    for (int64_t l = 0; l < L; l++) {
        const Batch *k = rows + idx[l];
        const double *c = coef + 4 * idx[l];
        const int64_t n = k->n, Sn = k->S * n, nx = n + Sn * (k->slack ? 2 : 1);
        const double *restrict x1 = v + l * nx, *restrict y = x1 + n, *restrict z = y + Sn;
        double *restrict e = out + l * 2 * Sn, *restrict in = e + Sn;
        stencil(k, y, e);
        for (int64_t r = 0; r < Sn; r += n)
            for (int64_t i = 0; i < n; i++)
                e[r + i] = e[r + i] - c[0] * x1[i];
        if (k->slack)
            for (int64_t r = 0; r < Sn; r++)
                in[r] = c[2] * (y[r] - c[1] * z[r]);
        else
            for (int64_t r = 0; r < Sn; r++)
                in[r] = c[2] * y[r];
    }
}

/* The adjoint of k_forward on w = [we | wi], without its control block
   -s1 (p @ we), which the caller adds: out gets y' = A we + ci wi and, in
   slack mode, z' = (-ci sz) wi, and its control block is left as it is. */
void k_adjoint(const Batch *rows, const double *coef, const int64_t *idx, int64_t L,
               const double *w, double *out)
{
    for (int64_t l = 0; l < L; l++) {
        const Batch *k = rows + idx[l];
        const double *c = coef + 4 * idx[l];
        const int64_t n = k->n, Sn = k->S * n, nx = n + Sn * (k->slack ? 2 : 1);
        const double *restrict we = w + l * 2 * Sn, *restrict wi = we + Sn;
        double *restrict oy = out + l * nx + n, *restrict oz = oy + Sn;
        stencil(k, we, oy);
        for (int64_t r = 0; r < Sn; r++)
            oy[r] = oy[r] + c[2] * wi[r];
        if (k->slack)
            for (int64_t r = 0; r < Sn; r++)
                oz[r] = c[3] * wi[r];
    }
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


def _blocks(name: str, sizes, parts) -> np.ndarray:
    """A new ``aligned`` vector of ``parts`` one after the other, part j in
    the next ``sizes[j]`` entries: a scalar broadcast, an array raveled.
    Raises ``ValueError`` unless each array part has its block's size, since
    the kernel indexes without bounds."""
    got = [np.size(a) if np.ndim(a) else size for a, size in zip(parts, sizes)]
    if got != list(sizes):
        raise ValueError(f"kernel argument {name} has {sum(got)} entries, expected "
                         f"{sum(sizes)}")
    out = aligned(sum(sizes))
    for a, end, size in zip(parts, np.cumsum(sizes), sizes):
        out[end - size:end] = np.ravel(a)
    return out


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
    ``hi`` have one entry per primal entry; a constant block of a scalar
    gives the same bits as the scalar. Every array the kernel reads or
    writes is ``aligned`` and filled in place, copies of the instance's
    ``p`` and ``y_target`` included.

    The namespace holds the current, next and extrapolated primal iterates
    ``cur``, ``nxt`` (a copy of ``cur``, so every byte the steps read is
    defined) and ``xb``, each (flat vector, x1 (n,), y, z), the buffers
    ``best`` (of the same form) and ``best_duals`` where the engine keeps
    its best iterate, which the steps never touch, the scalars
    ``tau`` and ``tau1``, ``dual_steps`` [tau | tau ci] and ``ineq_scales``
    [ci | tauz ci] shaped (2, 1, 1), and the ``_ARRAYS`` in the numpy steps'
    shapes. Sizes are checked here, since the kernel indexes without bounds.
    """
    x1, y, z, xb1, yb, zb, lam_e, lam_ih = state
    S, n = np.shape(y)
    slack = inst.mode == "slack"
    NS = S * n
    sizes = (n, NS, NS) if slack else (n, NS)
    nx = sum(sizes)
    tau, ci, tau1, tauz = (float(c) for c in step)
    M = inst.c2_bound
    _, g, psi = inst.fields()

    def flat(name, a1, ay, az):
        """[x1 | y | z], z only in slack mode"""
        return _blocks(name, sizes, (a1, ay, az)[:len(sizes)])

    X, Xb = flat("X", x1, y, z), flat("Xb", xb1, yb, zb)
    k = SimpleNamespace(
        inst=inst, S=S, n=n, slack=slack, tau=tau, tau1=tau1,
        dual_steps=np.array([tau, tau * ci])[:, None, None],
        ineq_scales=np.array([ci, tauz * ci])[:, None, None],
        duals=_blocks("duals", (NS, NS), (lam_e, lam_ih)).reshape(2, S, n),
        g_psi=_blocks("g_psi", (NS, NS), (g, psi)).reshape(2, S, n),
        p=_blocks("p", (S,), (inst.p,)),
        tau_yt=_blocks("tau_yt", (n,), (tau * inst.y_target,)),
        lin=_blocks("lin", (n,), (0.0 if lin is None else lin,)),
        qc=_blocks("qc", (n,),
                   (0.0 if (q == 0.0 or center is None) else q * np.asarray(center),)),
        den=flat("den", 1.0 + tau1 * (inst.alpha + q), 1.0 + tau,
                 1.0 + tauz * inst.alpha_prime),
        lo=flat("lo", inst.c1_lo, -M, -M), hi=flat("hi", inst.c1_hi, M, M),
        y_target=_blocks("y_target", (n,), (inst.y_target,)),
        center=_blocks("center", (n,), (0.0 if center is None else center,)),
        check=aligned(len(CHECK_COLUMNS)))
    z_hard = None if slack else np.array(z, dtype=float)

    def blocks(X):
        return (X, X[:n], X[n:n + NS].reshape(S, n),
                X[n + NS:].reshape(S, n) if slack else z_hard)

    Xn = aligned(nx)
    Xn[:] = X
    k.cur, k.nxt, k.xb, k.best = blocks(X), blocks(Xn), blocks(Xb), blocks(aligned(nx))
    k.best_duals = aligned(k.duals.shape)
    return k


class Kernel:
    """The loaded kernel library."""

    def __init__(self, lib: ctypes.CDLL):
        self._iterate = lib.iterate
        self._iterate.argtypes = (ctypes.POINTER(_Batch), ctypes.c_int64)
        self._iterate.restype = None
        self._k_forward, self._k_adjoint = lib.k_forward, lib.k_adjoint
        for fn in (self._k_forward, self._k_adjoint):
            fn.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2
            fn.restype = None

    @staticmethod
    def bind(inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
        """The buffers of ``_batch`` for ``iterate``, with the ``_Batch``
        struct that points at its arrays (``struct``), which keeps them
        alive, and at the arrays of the instance's cached stencil
        (``block_operator()``)."""
        k = _batch(inst, step, state, q=q, center=center, lin=lin)
        A = inst.block_operator()
        if A.diags.shape[1] != k.duals[0].size:
            raise ValueError(f"kernel argument diags has {A.diags.shape[1]} rows, expected "
                             f"{k.duals[0].size}")
        arrays = dict(diags=A.diags, stored=A.stored, work=aligned(k.duals.size), X=k.cur[0],
                      Xn=k.nxt[0], Xb=k.xb[0])
        arrays.update((name, getattr(k, name)) for name in _ARRAYS)
        pair = ctypes.c_double * 2
        batch = _Batch(S=k.S, n=k.n, m=A.m, slack=k.slack, has_lin=lin is not None, h=inst.h,
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

    @staticmethod
    def bind_maps(rows, coef: np.ndarray) -> SimpleNamespace:
        """The K-norm maps' data: one ``_Batch`` per instance of ``rows``
        (which must share the grid, mode and S, ``_map_dims``) that points
        at its cached stencil (``block_operator()``), and the (R, 4)
        constants ``coef``, one row (s1, sz, ci, -ci sz) per instance."""
        dims = _map_dims(rows)
        structs = (_Batch * len(rows))()
        stencils = [sub.block_operator() for sub in rows]
        for struct, sub, A in zip(structs, rows, stencils):
            struct.S, struct.n, struct.m, struct.slack = sub.S, sub.n, A.m, sub.mode == "slack"
            struct.diags, struct.stored = A.diags.ctypes.data, A.stored.ctypes.data
        coef = np.ascontiguousarray(coef, dtype=float)
        if coef.shape != (len(rows), 4):
            raise ValueError(f"K-norm constants have shape {coef.shape}, expected "
                             f"{(len(rows), 4)}")
        return SimpleNamespace(R=len(rows), dims=dims, keep=(structs, stencils, coef),
                               args=(ctypes.addressof(structs), coef.ctypes.data))

    def forward(self, maps, buf, v: np.ndarray) -> None:
        """``buf.e`` = the forward maps of the running rows ``buf.idx`` at
        ``v``, one row each: (L, dim) to (L, 2 S n)."""
        L = len(buf.idx)
        _check_map_input(v, (L, maps.dims[2]))
        self._k_forward(*maps.args, buf.address.idx, L, v.ctypes.data, buf.address.e)

    def adjoint(self, maps, buf, w: np.ndarray) -> None:
        """The state and slack blocks of ``buf.t`` = the adjoint maps of
        the running rows ``buf.idx`` at ``w``; the control block is left to
        the caller. ``w`` is ``buf.e`` in the power iteration, whose
        address is known."""
        L = len(buf.idx)
        if w is buf.e:
            address = buf.address.e
        else:
            _check_map_input(w, (L, 2 * maps.dims[1]))
            address = w.ctypes.data
        self._k_adjoint(*maps.args, buf.address.idx, L, address, buf.address.t)


def _map_dims(rows) -> tuple[int, int, int]:
    """n, S n and the domain dimension n + S n (+ S n in slack mode) of
    the K-norm maps of ``rows``; raises ``ValueError`` unless the rows
    share the grid, mode and scenario count, since the kernel's maps index
    every row by the first row's sizes."""
    first = rows[0]
    if any((sub.S, sub.n, sub.mode) != (first.S, first.n, first.mode) for sub in rows):
        raise ValueError("stacked instances must share the grid, mode and scenario count")
    n, Sn = first.n, first.S * first.n
    return n, Sn, n + Sn * (2 if first.mode == "slack" else 1)


def map_buffers(maps, idx: np.ndarray) -> SimpleNamespace:
    """The running rows ``idx`` of the K-norm maps ``maps`` (of either
    form's ``bind_maps``), as an int64 array of indices below R, the
    ``aligned`` (L, 2 S n) and (L, dim) buffers ``e`` and ``t`` where
    ``forward`` and ``adjoint`` write their results, and the ``address`` of
    each array, which the kernel is called with."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.ndim != 1 or np.any((idx < 0) | (idx >= maps.R)):
        raise ValueError(f"K-norm rows must be indices below {maps.R}")
    _, Sn, nx = maps.dims
    buf = SimpleNamespace(idx=idx, e=aligned((len(idx), 2 * Sn)), t=aligned((len(idx), nx)))
    buf.address = SimpleNamespace(idx=idx.ctypes.data, e=buf.e.ctypes.data,
                                  t=buf.t.ctypes.data)
    return buf


def _check_map_input(v: np.ndarray, shape: tuple[int, int]) -> None:
    """Raise ``ValueError`` unless ``v`` is a C-contiguous float array of
    ``shape``, which the kernel's maps index without bounds."""
    if v.shape != shape or v.dtype != np.float64 or not v.flags.c_contiguous:
        raise ValueError(f"a K-norm map's input must be a C-contiguous {shape} float array")


class _NumpySteps:
    """The kernel's ``iterate`` and K-norm maps as numpy calls on the same
    buffers: the fallback when the kernel cannot be built, and the form the
    kernel reproduces."""

    @staticmethod
    def bind(inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
        """Like ``Kernel.bind``, with the numpy steps' scratch arrays and
        the block operator's CSR product ``matvec``."""
        k = _batch(inst, step, state, q=q, center=center, lin=lin)
        k.extras = dict(x1_extra_quad=q, x1_extra_center=center, x1_extra_lin=lin)
        k.matvec = _csr_matvec(inst.block_operator())
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
        ``certify.natural_residuals`` of (x, (lam_e, ci lam_ih, -lam_e)),
        ``certify.max_scenario_norm`` for the divergence magnitudes and
        ``certify.max_residual`` for the worst residual."""
        _, x1, y, z = k.cur
        lam_e, lam_ih = k.duals
        ci = k.ineq_scales[0, 0, 0]
        res = certify.natural_residuals(k.inst, PrimalPoint(x1, y, z),
                                        DualPoint(lam_e, ci * lam_ih, -lam_e), **k.extras)
        h = k.inst.h
        res.update(mag_e=certify.one_nan(h * certify.max_scenario_norm(lam_e)),
                   mag_i=certify.one_nan(ci * h * certify.max_scenario_norm(lam_ih)),
                   worst=certify.one_nan(certify.max_residual(res)))
        for j, name in enumerate(CHECK_COLUMNS):
            k.check[j] = res.get(name, np.nan)     # no r3p in hard mode

    @staticmethod
    def dual_step(k) -> None:
        _, xb1, yb, zb = k.xb
        work_e, work_i = work = k.work
        work_e.fill(0.0)
        k.matvec(yb, work_e)
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
        k.matvec(lam_e, k.Alam)
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

    @staticmethod
    def bind_maps(rows, coef: np.ndarray) -> SimpleNamespace:
        """Like ``Kernel.bind_maps``, with each row's CSR product."""
        return SimpleNamespace(R=len(rows), dims=_map_dims(rows), S=rows[0].S,
                               slack=rows[0].mode == "slack",
                               matvecs=[_csr_matvec(sub.block_operator()) for sub in rows],
                               coef=np.asarray(coef, dtype=float)[:, :, None])

    @staticmethod
    def _product(maps, idx, v, out) -> None:
        """``out[l] = A v[l]`` with the block operator of row ``idx[l]``."""
        out.fill(0.0)
        for vl, ol, j in zip(v, out, idx):
            maps.matvecs[j](vl, ol)

    @classmethod
    def forward(cls, maps, buf, v) -> None:
        """``Kernel.forward``: e = A y - s1 x1 per scenario and
        i = ci (y - sz z), or ci y in hard mode."""
        n, Sn, _ = maps.dims
        s1, sz, ci, _ = maps.coef[buf.idx].transpose(1, 0, 2)
        y, e, i = v[:, n:n + Sn], buf.e[:, :Sn], buf.e[:, Sn:]
        cls._product(maps, buf.idx, y, e)
        e = e.reshape(len(v), maps.S, n)
        np.subtract(e, (s1 * v[:, :n])[:, None, :], out=e)
        if maps.slack:
            np.multiply(sz, v[:, n + Sn:], out=i)
            np.subtract(y, i, out=i)
            np.multiply(ci, i, out=i)
        else:
            np.multiply(ci, y, out=i)

    @classmethod
    def adjoint(cls, maps, buf, w) -> None:
        """``Kernel.adjoint``: y' = A we + ci wi and z' = (-ci sz) wi."""
        n, Sn, _ = maps.dims
        _, _, ci, neg_ci_sz = maps.coef[buf.idx].transpose(1, 0, 2)
        we, wi, out_y = w[:, :Sn], w[:, Sn:], buf.t[:, n:n + Sn]
        Alam = np.empty((len(w), Sn))
        cls._product(maps, buf.idx, we, Alam)
        np.multiply(ci, wi, out=out_y)
        np.add(Alam, out_y, out=out_y)
        if maps.slack:
            np.multiply(neg_ci_sz, wi, out=buf.t[:, n + Sn:])


def _csr_matvec(A):
    """``matvec(v, out)``, out += A v by scipy's ``csr_matvec`` on the CSR
    form of the stencil ``A``, built and imported here, not per product."""
    from scipy.sparse._sparsetools import csr_matvec

    csr = A.tocsr()
    N = csr.shape[0]
    return functools.partial(csr_matvec, N, N, csr.indptr, csr.indices, csr.data)


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
