"""Fused C kernel for the PDHG iterations between two residual checks,
and for the check that ends them.

``_pdhg_engine`` would spend most of an iteration in numpy call overhead:
about 26 calls on arrays of a few thousand entries. This module runs all
the iterations between two residual checks, and then the check, in one C
call, ``iterate(k, count)``, over the buffers ``k`` of one engine call
(``Kernel.bind``, which lays them out from the instance and its step
sizes and loads the iterates; ``Kernel.refill`` loads another engine
call's iterates and extras into them, which progressive hedging does for
its subproblems every round). The kernel swaps the current and next
primal buffers after every iteration, and each iteration is

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

The same library holds the K-norm power iteration behind the engine's
step sizes (``solvers._k_maps``), for several instances in lockstep:
``k_forward`` applies each running row's own operator, with the IEEE
operations of the numpy map in their order, and ``k_power_step`` does the
rest of a power step in one call: the adjoint's state and slack blocks,
the weighted Rayleigh quotient and norm of each row, each summed in the
order of numpy's pairwise ``add.reduce`` over a contiguous row, the
normalisation and the stop test of ``grid.power_step``. Only the
adjoint's control block ``-s1 (p @ we)`` stays a numpy ``matmul``, whose
summation order at S > 1 is the BLAS library's; the caller writes it
first. ``Kernel.forward`` and ``Kernel.power_step`` take one pointer, a
``_Maps`` struct built once per count of running rows (``map_buffers``)
that points at its buffers: taking an array's address from Python costs
about 0.8 us. With four one-scenario rows at n1d 16 a power step took
29.4 us with the numpy scores and 11.5 us with this one (2-vCPU Xeon).

The block-diagonal operator ``A`` is the instance's cached
``block_operator()``, a ``grid.Stencil``: five diagonals (south, west,
centre, east and north, at offsets -m, -1, 0, +1, +m on the m x m grid of
each block) and a uint8 "stored" flag, 0 or 1, per neighbour, at whose
arrays ``bind`` and the K-norm maps point the kernel. ``stencil()`` runs
every row through one loop that loads all four neighbours without a test,
and gcc runs that loop several rows to a vector (its ``-fopt-info-vec``
notes say so, and a test keeps it so). So every vector it reads has at
least m readable entries on each side: ``_guard(m)`` zero entries, m
rounded up to a multiple of 8, between y and its neighbour blocks in the
primal vectors, before and after lam_e in the duals, and between the rows
of the K-norm maps' inputs. The zeros keep a NaN, inf or subnormal
neighbour (a subnormal slack entry, say) out of the masked products. At
S = 1 and n1d 16 an iteration took 1.55 us with the first and last m rows
in a separate loop that tested each flag, and 1.37 us with one loop
(2-vCPU Xeon). Each off-centre term is ``keep(d v, flag)``, the
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
below), with the same bits and iteration counts. The numpy steps multiply
with the stencil's numpy product, ``Stencil @``.

Every buffer the kernel reads or writes starts on a 64-byte boundary, one
cache line: each array of ``_batch``, the scratch ``work``, the stencil
and the K-norm maps' ``map_buffers``, the first vector of a buffer that
starts with a guard included. Each is allocated that way (``aligned``)
and filled in place, not copied once built. numpy starts an
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
  ascending column order, as ``Stencil @`` sums it, and each weighted sum
  of a K-norm power step in numpy's pairwise order, from 0.0. An absent
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
``load()`` returns None and the engine runs the numpy steps (products
with ``Stencil @``), which score their checks with ``certify``, and the
K-norm estimate runs the numpy maps (each running row's own stencil);
both give the same bits. The outcome is decided once per process, under
a lock: the package starts no threads itself, but a library caller may
make first engine calls from several threads at once.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import tempfile
import threading
from types import SimpleNamespace

import numpy as np

from . import certify, grid
from .grid import NORM_ESTIMATE_TOL, aligned
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
   [x1 | guard | y | guard | z] (z only in slack mode), the duals
   [guard | lam_e | guard | lam_ih] and the data [g | psi], each block
   (S, n) but x1, each guard `pad` zero entries (pad >= m), so that
   stencil() may load m entries past either end of y and lam_e. */
typedef struct {
    int64_t S, n, m, pad, slack;
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
    double *duals;                  /* lam_e; lam_ih starts S n + pad entries on */
    const double *g_psi;
    const double *p;                /* (S,) scenario probabilities */
    const double *tau_yt, *lin;     /* (n,) */
    const double *qc;               /* (n,) */
    const double *den, *lo, *hi;    /* one entry per primal entry, guards included */
    const double *y_target;         /* (n,) */
    const double *center;           /* (n,): x1_extra_center */
    double *check;                  /* (11,): the check's output */
} Batch;

/* the offsets of y and z in a primal vector, and lam_ih */
#define OFF_Y(k) ((k)->n + (k)->pad)
#define OFF_Z(k) (OFF_Y(k) + (k)->S * (k)->n + (k)->pad)
#define LAM_IH(k) ((k)->duals + (k)->S * (k)->n + (k)->pad)

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

/* row r of the operator's product with v: the stored entries summed
   from 0.0 in ascending column order (south, west, centre, east, north),
   an absent one adding +0.0 whatever its product */
static inline double stencil_row(int64_t N, int64_t r, int64_t m, const double *restrict d,
                                 const uint8_t *restrict stored, const double *restrict v)
{
    double sum = 0.0;
    sum += keep(d[r] * v[r - m], stored[r]);
    sum += keep(d[N + r] * v[r - 1], stored[N + r]);
    sum += d[2 * N + r] * v[r];
    sum += keep(d[3 * N + r] * v[r + 1], stored[2 * N + r]);
    sum += keep(d[4 * N + r] * v[r + m], stored[3 * N + r]);
    return sum;
}

/* out = A v, every row through one loop without a test, which runs in
   vectors. v must have at least m readable entries on each side: the
   first and last m rows load neighbours outside v, which their flags
   mask. */
static void stencil(const Batch *k, const double *restrict v, double *restrict out)
{
    const int64_t N = k->S * k->n, m = k->m;
    const double *restrict d = k->diags;
    const uint8_t *restrict st = k->stored;
    for (int64_t r = 0; r < N; r++)
        out[r] = stencil_row(N, r, m, d, st, v);
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
    const double *restrict xb1 = k->Xb, *restrict yb = k->Xb + OFF_Y(k);
    const double *restrict g = k->g_psi, *Ay = k->work;   /* stencil writes work */
    double *restrict lam_e = k->duals;
    const double step = k->dual_steps[0];
    stencil(k, yb, k->work);
    for (int64_t r = 0; r < Sn; r += n)
        for (int64_t i = 0; i < n; i++) {
            const double e = Ay[r + i] - xb1[i];
            lam_e[r + i] = lam_e[r + i] + (e - g[r + i]) * step;
        }
    ascend_clamped(Sn, LAM_IH(k), yb, k->slack ? k->Xb + OFF_Z(k) : NULL,
                   k->g_psi + Sn, k->dual_steps[1]);
}

static void primal_step(const Batch *k)
{
    const int64_t Sn = k->S * k->n, n = k->n, oy = OFF_Y(k);
    const double *restrict X = k->X, *Alam = k->work;   /* stencil writes work */
    const double *restrict lam_e = k->duals, *restrict lam_ih = LAM_IH(k);
    const double tau = k->tau, tau1 = k->tau1, ci = k->ineq_scales[0];
    double *restrict Xn = k->Xn;
    for (int64_t i = 0; i < n; i++)
        Xn[i] = X[i] + (((Xn[i] + k->qc[i]) - k->lin[i]) * tau1);
    stencil(k, lam_e, k->work);
    for (int64_t r = 0; r < Sn; r += n)
        for (int64_t i = 0; i < n; i++) {
            const double we = (Alam[r + i] + lam_ih[r + i] * ci) * tau;
            Xn[oy + r + i] = (X[oy + r + i] - we) + k->tau_yt[i];
        }
    /* x1, the guard after it and y in one pass; a guard entry, 0.0 over a
       den of 1.0 clamped to [0.0, 0.0], stays +0.0 */
    finish(oy + Sn, X, Xn, k->Xb, k->den, k->lo, k->hi, 0);
    if (!k->slack)
        return;
    const int64_t o = OFF_Z(k);
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
    const double *restrict x1 = X, *restrict y = X + OFF_Y(k);
    const double *restrict z = k->slack ? X + OFF_Z(k) : y;
    const double *restrict lam_e = k->duals, *restrict lam_ih = LAM_IH(k);
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

/* numpy's pairwise sum of the n products (w[i] a[i]) b[i], the order in
   which add.reduce sums a contiguous row: below 8 terms one running sum,
   up to 128 eight running sums, one per lane, combined as
   ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and followed by the
   rest, and above 128 the sums of two halves, split at a multiple of 8 */
static double pairwise(const double *w, const double *a, const double *b, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += (w[i] * a[i]) * b[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = (w[j] * a[j]) * b[j];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += (w[i + j] * a[i + j]) * b[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += (w[i] * a[i]) * b[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise(w, a, b, half) + pairwise(w + half, a + half, b + half, n - half);
}

/* np.add.reduce((w * a) * b): the pairwise sum added to the reduction's
   identity, 0.0 */
double weighted_sum(const double *w, const double *a, const double *b, int64_t n)
{
    return 0.0 + pairwise(w, a, b, n);
}

/* The buffers of the K-norm power iteration (solvers._k_maps) on the L
   running rows: row l belongs to the instance rows[idx[l]], whose Batch
   sets only S, n, m, slack, diags and stored, with the constants
   c = coef + 4 idx[l] = (s1, sz, ci, -ci sz). The rows of v, [x1 | y | z]
   (z only in slack mode), and of e, [we | wi], lie pad zero entries
   apart, with pad more before the first and after the last (pad >= m). */
typedef struct {
    const Batch *rows;
    const double *coef;
    const int64_t *idx;
    int64_t L, pad;
    const double *weights;          /* (L, nx): the weights of the running rows */
    double *v, *e, *t;              /* (L, nx), (L, 2 S n) and (L, nx) */
    double *lam;                    /* (L,): the last Rayleigh quotients */
    uint8_t *stop, *zero;           /* (L,): the row stops; its map is zero */
    double tol;                     /* grid.NORM_ESTIMATE_TOL */
} Maps;

/* Each entry of the maps goes through the IEEE operations of the numpy
   maps, in their order. k_forward maps v = [x1 | y | z] to e = [e | i]:
   e = A y - s1 x1 per scenario, i = ci (y - sz z), or ci y in hard mode. */
void k_forward(const Maps *mp)
{
    for (int64_t l = 0; l < mp->L; l++) {
        const Batch *k = mp->rows + mp->idx[l];
        const double *c = mp->coef + 4 * mp->idx[l];
        const int64_t n = k->n, Sn = k->S * n, nx = n + Sn * (k->slack ? 2 : 1);
        const double *restrict x1 = mp->v + l * (nx + mp->pad), *restrict y = x1 + n;
        const double *restrict z = y + Sn;
        double *restrict e = mp->e + l * (2 * Sn + mp->pad), *restrict in = e + Sn;
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

/* One power step after k_forward, the step of grid.power_step: t, whose
   control block -s1 (p @ we) the caller wrote, gets the rest of the
   adjoint at e, y' = A we + ci wi and, in slack mode, z' = (-ci sz) wi;
   then lam = sum((w t) v) and tn = sqrt(sum((w t) t)), each summed as
   np.add.reduce sums a row; zero when tn == 0 or lam <= 0; stop when zero
   or |lam - lam_prev| <= tol |lam|, lam_prev read from lam before lam is
   written; and v = t / tn, the next iterate, written over the old. */
void k_power_step(const Maps *mp)
{
    for (int64_t l = 0; l < mp->L; l++) {
        const Batch *k = mp->rows + mp->idx[l];
        const double *c = mp->coef + 4 * mp->idx[l];
        const int64_t n = k->n, Sn = k->S * n, nx = n + Sn * (k->slack ? 2 : 1);
        const double *restrict we = mp->e + l * (2 * Sn + mp->pad), *restrict wi = we + Sn;
        const double *w = mp->weights + l * nx;
        double *t = mp->t + l * nx, *v = mp->v + l * (nx + mp->pad);
        {
            double *restrict oy = t + n, *restrict oz = oy + Sn;
            stencil(k, we, oy);
            for (int64_t r = 0; r < Sn; r++)
                oy[r] = oy[r] + c[2] * wi[r];
            if (k->slack)
                for (int64_t r = 0; r < Sn; r++)
                    oz[r] = c[3] * wi[r];
        }
        const double lam = weighted_sum(w, t, v, nx);
        const double tn = sqrt(weighted_sum(w, t, t, nx));
        const int zero = (tn == 0.0) | (lam <= 0.0);
        mp->stop[l] = zero | (fabs(lam - mp->lam[l]) <= mp->tol * fabs(lam));
        mp->zero[l] = zero;
        mp->lam[l] = lam;
        for (int64_t i = 0; i < nx; i++)
            v[i] = t[i] / tn;
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
        [(name, ctypes.c_int64) for name in ("S", "n", "m", "pad", "slack", "has_lin")]
        + [(name, ctypes.c_double) for name in ("h", "q", "tau", "tau1")]
        + [(name, ctypes.c_double * 2) for name in ("dual_steps", "ineq_scales")]
        + [(name, ctypes.c_double) for name in ("alpha", "alpha_prime", "M")]
        + [(name, ctypes.c_void_p) for name in ("diags", "stored", "work", "X", "Xn", "Xb",
                                                 *_ARRAYS)]
    )


class _Maps(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_void_p) for name in ("rows", "coef", "idx")]
        + [(name, ctypes.c_int64) for name in ("L", "pad")]
        + [(name, ctypes.c_void_p) for name in ("weights", "v", "e", "t", "lam", "stop", "zero")]
        + [("tol", ctypes.c_double)]
    )


def _guard(m: int) -> int:
    """The zero entries kept on each side of a vector that the stencil of
    an m x m grid reads: m rounded up to a multiple of 8, so that the
    vector after a guard that starts a buffer starts on a cache line too."""
    return -(-m // 8) * 8


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


def _zeros(size: int) -> np.ndarray:
    """A new ``aligned`` vector of ``size`` zeros."""
    out = aligned(size)
    out.fill(0.0)
    return out


def _guarded_rows(L: int, width: int, pad: int) -> np.ndarray:
    """An (L, width) view of a new zero-filled ``aligned`` buffer whose rows
    lie ``pad`` entries apart, with ``pad`` more before the first row and
    after the last: the rows the stencil reads past their ends."""
    return _zeros(pad + L * (width + pad))[pad:].reshape(L, width + pad)[:, :width]


def _batch(inst, step, state) -> SimpleNamespace:
    """The buffers and constants of one engine call on ``inst``, for both
    forms of the steps, which ``_fill`` loads with the iterates and the
    extras: ``step`` holds the instance's tau, ci, tau1 and tauz, and
    ``state`` the iterates (x1, y, z, xb1, yb, zb, lam_e, lam_ih), of which
    only the shape of y is read here.

    The iterations allocate no arrays. The primal blocks live in one flat
    vector [x1 | guard | y | guard | z] (z only in slack mode; hard mode
    carries it unchanged), the multipliers in the (2, S, n) view
    ``duals`` of [guard | lam_e | guard | lam_ih | guard] and the data in
    [g | psi], so that each update the blocks share is one pass over one
    array. A guard is ``_guard(m)`` zero entries: the stencil reads up to m
    entries past either end of y and lam_e, and the zeros keep a NaN, inf
    or subnormal neighbour out of its masked products. The prox
    denominators ``den`` and the bounds ``lo`` and ``hi`` have one entry
    per primal entry; a constant block of a scalar gives the same bits as
    the scalar, and a guard has den 1.0 and bounds 0.0, which keep its
    iterate entries at +0.0. Every array the kernel reads or writes is
    ``aligned`` and filled in place, copies of the instance's ``p`` and
    ``y_target`` included.

    The namespace holds the current, next and extrapolated primal iterates
    ``cur``, ``nxt`` and ``xb``, each (flat vector, x1 (n,), y, z), the
    buffers ``best`` (of the same form) and ``best_duals`` where the engine
    keeps its best iterate, which the steps never touch, the scalars
    ``tau``, ``ci`` and ``tau1``, ``dual_steps`` [tau | tau ci] and
    ``ineq_scales`` [ci | tauz ci] shaped (2, 1, 1), and the ``_ARRAYS`` in
    the numpy steps' shapes. Sizes are checked, since the kernel indexes
    without bounds.
    """
    S, n = np.shape(state[1])
    slack = inst.mode == "slack"
    NS = S * n
    pad = _guard(inst.block_operator().m)
    sizes = (n, pad, NS, pad, NS) if slack else (n, pad, NS, pad)
    tau, ci, tau1, tauz = (float(c) for c in step)
    M = inst.c2_bound
    _, g, psi = inst.fields()

    def flat(name, a1, ay, az, at_guard):
        """[x1 | guard | y | guard | z], z only in slack mode"""
        return _blocks(name, sizes, (a1, at_guard, ay, at_guard, az)[:len(sizes)])

    k = SimpleNamespace(
        inst=inst, S=S, n=n, pad=pad, slack=slack, tau=tau, ci=ci, tau1=tau1,
        dual_steps=np.array([tau, tau * ci])[:, None, None],
        ineq_scales=np.array([ci, tauz * ci])[:, None, None],
        duals=_guarded_rows(2, NS, pad).reshape(2, S, n),
        g_psi=_blocks("g_psi", (NS, NS), (g, psi)).reshape(2, S, n),
        p=_blocks("p", (S,), (inst.p,)),
        tau_yt=_blocks("tau_yt", (n,), (tau * inst.y_target,)),
        lin=aligned(n), qc=aligned(n), center=aligned(n),
        # the x1 block, which holds x1_extra_quad, is _fill's
        den=flat("den", 0.0, 1.0 + tau, 1.0 + tauz * inst.alpha_prime, 1.0),
        lo=flat("lo", inst.c1_lo, -M, -M, 0.0), hi=flat("hi", inst.c1_hi, M, M, 0.0),
        y_target=_blocks("y_target", (n,), (inst.y_target,)),
        check=aligned(len(CHECK_COLUMNS)))
    z_hard = None if slack else np.empty((S, n))

    def blocks(X):
        y = n + pad
        return (X, X[:n], X[y:y + NS].reshape(S, n),
                X[y + NS + pad:].reshape(S, n) if slack else z_hard)

    k.cur, k.nxt, k.xb, k.best = (blocks(_zeros(sum(sizes))) for _ in range(4))
    k.best_duals = aligned(k.duals.shape)
    return k


def _fill(k, state, *, q: float, center=None, lin=None) -> None:
    """Load the iterates ``state`` (x1, y, z, xb1, yb, zb, lam_e, lam_ih)
    and the extras ``q``, ``center`` (n,) and ``lin`` (n,)
    (``x1_extra_quad``, ``x1_extra_center`` and ``x1_extra_lin``, each None
    when absent) into the buffers of ``_batch`` ``k``, for a new engine
    call: the blocks of the current primal iterate, and of the next one as
    its copy, so every byte the steps read is defined, of the extrapolated
    one and of the duals, then ``lin``, ``qc`` = q center, ``center`` and
    the x1 block of ``den``. The guards keep their zeros."""
    x1, y, z, xb1, yb, zb, lam_e, lam_ih = state
    loads = [("X", k.cur, (x1, y, z)), ("Xb", k.xb, (xb1, yb, zb)[:2 + k.slack]),
             ("duals", (None, *k.duals), (lam_e, lam_ih))]
    for name, outs, parts in loads:
        for out, a in zip(outs[1:], parts):
            _load(name, out, a)
    np.copyto(k.nxt[0], k.cur[0])
    _load("lin", k.lin, 0.0 if lin is None else lin)
    _load("qc", k.qc, 0.0 if (q == 0.0 or center is None) else q * np.asarray(center))
    _load("center", k.center, 0.0 if center is None else center)
    k.den[:k.n] = 1.0 + k.tau1 * (k.inst.alpha + q)


def _load(name: str, out: np.ndarray, a) -> None:
    """``out[...] = a``, a scalar broadcast or an array of ``out``'s size
    in its shape; raises ``ValueError`` for another size, since the kernel
    indexes without bounds."""
    if np.ndim(a) and np.shape(a) != out.shape:
        if np.size(a) != out.size:
            raise ValueError(f"kernel argument {name} has a block of {np.size(a)} entries, "
                             f"expected {out.size}")
        a = np.reshape(a, out.shape)
    out[...] = a


class Kernel:
    """The loaded kernel library."""

    def __init__(self, lib: ctypes.CDLL):
        self._iterate = lib.iterate
        self._iterate.argtypes = (ctypes.POINTER(_Batch), ctypes.c_int64)
        self._iterate.restype = None
        self._k_forward, self._k_power_step = lib.k_forward, lib.k_power_step
        for fn in (self._k_forward, self._k_power_step):
            fn.argtypes = (ctypes.c_void_p,)
            fn.restype = None

    def bind(self, inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
        """The buffers of ``_batch`` for ``iterate``, loaded by ``refill``,
        with the ``_Batch`` struct that points at its arrays (``struct``),
        which keeps them alive, and at the arrays of the instance's cached
        stencil (``block_operator()``)."""
        k = _batch(inst, step, state)
        A = inst.block_operator()
        if A.diags.shape[1] != k.duals[0].size:
            raise ValueError(f"kernel argument diags has {A.diags.shape[1]} rows, expected "
                             f"{k.duals[0].size}")
        arrays = dict(diags=A.diags, stored=A.stored, work=aligned(k.duals.size), X=k.cur[0],
                      Xn=k.nxt[0], Xb=k.xb[0])
        arrays.update((name, getattr(k, name)) for name in _ARRAYS)
        pair = ctypes.c_double * 2
        batch = _Batch(S=k.S, n=k.n, m=A.m, pad=k.pad, slack=k.slack, h=inst.h, tau=k.tau,
                       tau1=k.tau1, dual_steps=pair(*k.dual_steps.ravel()),
                       ineq_scales=pair(*k.ineq_scales.ravel()), alpha=inst.alpha,
                       alpha_prime=inst.alpha_prime, M=inst.c2_bound,
                       **{name: a.ctypes.data for name, a in arrays.items()})
        batch.keep = arrays
        k.struct = ctypes.pointer(batch)
        self.refill(k, state, q=q, center=center, lin=lin)
        return k

    @staticmethod
    def refill(k, state, *, q: float, center=None, lin=None) -> None:
        """``_fill`` for a new engine call on the instance ``k`` is bound
        to, and the struct's ``q`` and ``has_lin``."""
        _fill(k, state, q=q, center=center, lin=lin)
        batch = k.struct.contents
        batch.q, batch.has_lin = q, lin is not None

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
        """``_map_data`` of ``rows`` and ``coef``, with one ``_Batch`` per
        instance (``structs``) that points at its cached stencil
        (``block_operator()``)."""
        maps = _map_data(rows, coef)
        structs = (_Batch * len(rows))()
        stencils = [sub.block_operator() for sub in rows]
        for struct, sub, A in zip(structs, rows, stencils):
            struct.S, struct.n, struct.m, struct.slack = sub.S, sub.n, A.m, sub.mode == "slack"
            struct.diags, struct.stored = A.diags.ctypes.data, A.stored.ctypes.data
        maps.structs, maps.keep = structs, (structs, stencils, maps.coef)
        return maps

    def forward(self, maps, buf, v: np.ndarray) -> None:
        """``buf.e`` = the forward maps of the running rows ``buf.idx`` at
        ``v``, one row each: (L, dim) to (L, 2 S n). ``v`` is copied into
        ``buf.v`` unless it is that buffer."""
        _into(buf.v, v)
        self._k_forward(buf.address)

    def power_step(self, maps, buf, v: np.ndarray, lam_prev: np.ndarray):
        """``grid.power_step`` of the running rows after ``forward`` at
        ``v``, in one kernel call (``k_power_step``) that also applies the
        adjoint's state and slack blocks to ``buf.e``; the control block of
        ``buf.t`` is the caller's. Returns the buffers ``buf.v``, which the
        next iterate overwrites, ``buf.lam``, ``buf.stop`` and ``buf.zero``;
        ``v`` and ``lam_prev`` are copied in unless they are ``buf.v`` and
        ``buf.lam``."""
        _into(buf.v, v)
        _into(buf.lam, lam_prev)
        self._k_power_step(buf.address)
        return buf.v, buf.lam, buf.stop, buf.zero


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


def _map_data(rows, coef: np.ndarray) -> SimpleNamespace:
    """What either form's K-norm maps share for ``rows``, which must share
    the grid, mode and S (``_map_dims``): R, ``dims``, the ``_guard`` ``pad``
    of their grid, the (R, 4) constants ``coef``, one row (s1, sz, ci,
    -ci sz) per instance, and the (R, dim) ``weights`` of the power
    iteration's inner products: h^2 on the control block and p_k h^2 on
    scenario k's state and slack blocks."""
    dims = _map_dims(rows)
    n, Sn, nx = dims
    coef = np.ascontiguousarray(coef, dtype=float)
    if coef.shape != (len(rows), 4):
        raise ValueError(f"K-norm constants have shape {coef.shape}, expected "
                         f"{(len(rows), 4)}")
    p = np.array([sub.p for sub in rows])
    hh = rows[0].h * rows[0].h
    weights = np.concatenate([np.full((len(rows), n), hh)]
                             + [np.repeat(p * hh, n, axis=1)] * ((nx - n) // Sn), axis=1)
    return SimpleNamespace(R=len(rows), dims=dims, pad=_guard(rows[0].block_operator().m),
                           coef=coef, weights=weights, structs=None)


def map_buffers(maps, idx: np.ndarray) -> SimpleNamespace:
    """The running rows ``idx`` of the K-norm maps ``maps`` (of either
    form's ``bind_maps``), as an int64 array of indices below R, and their
    buffers: the iterate ``v`` and the forward maps' result ``e``, (L, dim)
    and (L, 2 S n) views of zero-guarded rows (``_guarded_rows``), where
    the stencil reads past each row's blocks, the adjoint ``t`` (L, dim),
    the running rows' ``weights`` and the power step's ``lam``, ``stop``
    and ``zero``, each (L,). For the kernel's maps, also the ``_Maps``
    struct that points at them, and its ``address``, which the kernel is
    called with."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.ndim != 1 or np.any((idx < 0) | (idx >= maps.R)):
        raise ValueError(f"K-norm rows must be indices below {maps.R}")
    L, (_, Sn, nx) = len(idx), maps.dims
    buf = SimpleNamespace(idx=idx, v=_guarded_rows(L, nx, maps.pad),
                          e=_guarded_rows(L, 2 * Sn, maps.pad), t=aligned((L, nx)),
                          weights=aligned((L, nx)), lam=aligned(L), stop=aligned(L, bool),
                          zero=aligned(L, bool))
    buf.weights[...] = maps.weights[idx]
    if maps.structs is not None:
        buf.struct = _Maps(rows=ctypes.addressof(maps.structs), coef=maps.coef.ctypes.data,
                           idx=idx.ctypes.data, L=L, pad=maps.pad, tol=NORM_ESTIMATE_TOL,
                           **{name: getattr(buf, name).ctypes.data
                              for name in ("weights", "v", "e", "t", "lam", "stop", "zero")})
        buf.address = ctypes.addressof(buf.struct)
    return buf


def _into(buf: np.ndarray, a: np.ndarray) -> None:
    """Copy ``a`` into the kernel buffer ``buf`` unless it is that buffer;
    raises ``ValueError`` unless ``a`` has its shape, since the kernel
    indexes without bounds."""
    if a is not buf:
        if np.shape(a) != buf.shape:
            raise ValueError(f"a K-norm map's input must have shape {buf.shape}, "
                             f"got {np.shape(a)}")
        buf[...] = a


class _NumpySteps:
    """The kernel's ``iterate`` and K-norm maps as numpy calls on the same
    buffers: the fallback when the kernel cannot be built, and the form the
    kernel reproduces."""

    def bind(self, inst, step, state, *, q: float, center=None, lin=None) -> SimpleNamespace:
        """Like ``Kernel.bind``, with the numpy steps' scratch arrays and
        the block operator ``A``, the instance's cached stencil."""
        k = _batch(inst, step, state)
        k.A = inst.block_operator()
        k.work = np.empty((2, k.S, k.n))
        k.product = np.empty(k.n)
        self.refill(k, state, q=q, center=center, lin=lin)
        return k

    @staticmethod
    def refill(k, state, *, q: float, center=None, lin=None) -> None:
        """Like ``Kernel.refill``: ``_fill``, and the extras the check
        passes to ``certify``."""
        _fill(k, state, q=q, center=center, lin=lin)
        k.extras = dict(x1_extra_quad=q, x1_extra_center=center, x1_extra_lin=lin)

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
        np.subtract((k.A @ yb).reshape(work_e.shape), xb1, out=work_e)
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
        np.multiply(lam_ih, k.ineq_scales, out=work)
        np.add((k.A @ lam_e).reshape(work_e.shape), work_e, out=work_e)
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
        """Like ``Kernel.bind_maps``, with each row's cached stencil."""
        maps = _map_data(rows, coef)
        maps.S, maps.slack = rows[0].S, rows[0].mode == "slack"
        maps.stencils = [sub.block_operator() for sub in rows]
        return maps

    @staticmethod
    def _product(maps, idx, v, out) -> None:
        """``out[l] = A v[l]`` with the block operator of row ``idx[l]``."""
        for vl, ol, j in zip(v, out, idx):
            ol[:] = maps.stencils[j] @ vl

    @classmethod
    def forward(cls, maps, buf, v) -> None:
        """``Kernel.forward``: e = A y - s1 x1 per scenario and
        i = ci (y - sz z), or ci y in hard mode."""
        n, Sn, _ = maps.dims
        s1, sz, ci, _ = maps.coef[buf.idx].T[:, :, None]
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
        """The adjoint's state and slack blocks at ``w`` into ``buf.t``,
        as ``Kernel.power_step`` applies them: y' = A we + ci wi and
        z' = (-ci sz) wi."""
        n, Sn, _ = maps.dims
        _, _, ci, neg_ci_sz = maps.coef[buf.idx].T[:, :, None]
        we, wi, out_y = w[:, :Sn], w[:, Sn:], buf.t[:, n:n + Sn]
        Alam = np.empty((len(w), Sn))
        cls._product(maps, buf.idx, we, Alam)
        np.multiply(ci, wi, out=out_y)
        np.add(Alam, out_y, out=out_y)
        if maps.slack:
            np.multiply(neg_ci_sz, wi, out=buf.t[:, n + Sn:])

    @classmethod
    def power_step(cls, maps, buf, v, lam_prev):
        """``Kernel.power_step``: the adjoint at ``buf.e``, then
        ``grid.power_step``'s numpy scores, in new arrays."""
        cls.adjoint(maps, buf, buf.e)
        return grid.power_step(buf.t, v, buf.weights, lam_prev)


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
    The first call builds under a lock, so a library caller's threads that
    call at once build it once."""
    global _kernel
    with _load_lock:
        if _kernel is _UNTRIED:
            try:
                _kernel = Kernel(_build())
            except (OSError, subprocess.SubprocessError):
                _kernel = None
    return _kernel
