"""Fused C kernel for the two elementwise halves of a PDHG iteration.

``_pdhg_engine`` spends most of an iteration in numpy call overhead: about
26 calls on arrays of a few thousand entries. This module fuses them into
two C functions over the engine's own buffers:

- ``dual_step``: ``lam_e += tau ((A yb - xb1) - g)`` and
  ``lam_ih = max(0, lam_ih + tau ci ((yb - zb) - psi))`` (``yb`` in hard
  mode);
- ``primal_step``: the x1, y and z proxes, the division by the prox
  denominators, the clamp to ``[lo, hi]`` and the extrapolation, given
  ``x1n = p @ lam_e``, which the engine computes with numpy in between so
  that its BLAS summation order stays the same.

Each element goes through the same IEEE operations, in the same order and
on the same operands, as the numpy form in the engine's comments, so the
iterates are the same bits: the CSR products sum each row from 0.0 in
stored order like scipy's ``csr_matvec``, ``+ qc`` is added even when it
is 0.0, and ``max``/``min`` return the second operand on a tie of signed
zeros and propagate NaN, like numpy's ``maximum``/``minimum``.

The source is compiled on the first ``load()`` call, not at import, with
the system C compiler (``cc``) and ``FLAGS``: ``-O2`` without fast-math
or ``-march``, and ``-ffp-contract=off`` so that no multiply-add is fused.
The library is built in a temporary directory, which is removed once it
is loaded. If there is no compiler or the build fails, ``load()`` returns
None and the engine runs its numpy loop body, which gives the same bits.
The outcome is decided once per process.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
from types import SimpleNamespace

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

FLAGS = ("-O2", "-ffp-contract=off")

SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* One lockstep batch of `rows` problems with S scenarios of n nodes. The
   primal vectors are [x1 | y | z] with the rows stacked in each block (z
   only in slack mode), the duals [lam_e | lam_ih] and the data [g | psi],
   each block (rows, S, n). Per-row constants have one entry per row. */
typedef struct {
    int64_t rows, S, n, slack;
    const int32_t *indptr, *indices;
    const double *data;             /* block-diagonal operator, CSR */
    const double *X;                /* current primal iterate */
    double *Xn;                     /* next primal iterate; x1 holds p @ lam_e */
    double *Xb;                     /* extrapolated primal iterate */
    const double *z_hard;           /* hard mode: the carried z */
    double *duals;
    const double *g_psi;
    const double *dual_steps;       /* [tau | tau ci] */
    const double *ineq_scales;      /* [ci | tauz ci] */
    const double *tau, *tau1;
    const double *tau_yt, *lin;     /* (rows, n) */
    const double *qc;               /* (n,) */
    const double *den, *lo, *hi;    /* one entry per primal entry */
} Batch;

/* numpy's maximum and minimum: the second operand on a tie, NaN wins.
   With a first operand that is not NaN they are the SSE2 max and min. */
static inline double max2(double a, double b) { return (a > b || isnan(a)) ? a : b; }
static inline double min2(double a, double b) { return (a < b || isnan(a)) ? a : b; }

/* row r of the CSR product with v, summed from 0.0 in stored order */
static inline double row_product(const int32_t *restrict indptr,
                                 const int32_t *restrict indices,
                                 const double *restrict data, int64_t r,
                                 const double *restrict v)
{
    int32_t jj = indptr[r];
    const int32_t end = indptr[r + 1];
    double sum = 0.0;
    if (end - jj == 5) {    /* an interior row of the 5-point stencil, unrolled */
        sum += data[jj] * v[indices[jj]];
        sum += data[jj + 1] * v[indices[jj + 1]];
        sum += data[jj + 2] * v[indices[jj + 2]];
        sum += data[jj + 3] * v[indices[jj + 3]];
        sum += data[jj + 4] * v[indices[jj + 4]];
        return sum;
    }
    for (; jj < end; jj++)
        sum += data[jj] * v[indices[jj]];
    return sum;
}

/* lam[j] = max2(0.0, lam[j] + (w[j] - psi[j]) * step) for j < m, with
   w = a - b, or w = a when b is NULL; 0.0 is not NaN */
static void ascend_clamped(int64_t m, double *restrict lam, const double *restrict a,
                           const double *restrict b, const double *restrict psi,
                           double step)
{
    int64_t j = 0;
#ifdef __SSE2__
    const __m128d zero = _mm_setzero_pd(), st = _mm_set1_pd(step);
    for (; j + 2 <= m; j += 2) {
        __m128d w = _mm_loadu_pd(a + j);
        if (b)
            w = _mm_sub_pd(w, _mm_loadu_pd(b + j));
        w = _mm_mul_pd(_mm_sub_pd(w, _mm_loadu_pd(psi + j)), st);
        _mm_storeu_pd(lam + j, _mm_max_pd(zero, _mm_add_pd(_mm_loadu_pd(lam + j), w)));
    }
#endif
    for (; j < m; j++) {
        const double w = b ? a[j] - b[j] : a[j];
        const double l = lam[j] + (w - psi[j]) * step;
        lam[j] = 0.0 > l ? 0.0 : l;
    }
}

/* Xn = min2(max2(Xn / den, lo), hi) and Xb = Xn + (Xn - X), entry j */
static inline void finish1(int64_t j, const double *restrict X, double *restrict Xn,
                           double *restrict Xb, const double *restrict den,
                           const double *restrict lo, const double *restrict hi)
{
    const double v = min2(max2(Xn[j] / den[j], lo[j]), hi[j]);
    Xn[j] = v;
    Xb[j] = v + (v - X[j]);
}

/* finish1 for entries j < m, two at a time where SSE2 is available */
static void finish(int64_t m, const double *restrict X, double *restrict Xn,
                   double *restrict Xb, const double *restrict den,
                   const double *restrict lo, const double *restrict hi)
{
    int64_t j = 0;
#ifdef __SSE2__
    for (; j + 2 <= m; j += 2) {
        __m128d v = _mm_div_pd(_mm_loadu_pd(Xn + j), _mm_loadu_pd(den + j));
        const __m128d l = _mm_loadu_pd(lo + j);
        if (_mm_movemask_pd(_mm_cmpunord_pd(v, l))) {   /* a NaN: numpy's rules */
            finish1(j, X, Xn, Xb, den, lo, hi);
            finish1(j + 1, X, Xn, Xb, den, lo, hi);
            continue;
        }
        v = _mm_min_pd(_mm_max_pd(v, l), _mm_loadu_pd(hi + j));
        _mm_storeu_pd(Xn + j, v);
        _mm_storeu_pd(Xb + j, _mm_add_pd(v, _mm_sub_pd(v, _mm_loadu_pd(X + j))));
    }
#endif
    for (; j < m; j++)
        finish1(j, X, Xn, Xb, den, lo, hi);
}

void dual_step(const Batch *k)
{
    const int64_t rows = k->rows, Sn = k->S * k->n, n = k->n;
    const int64_t nb = rows * n, NS = rows * Sn;
    const int32_t *restrict indptr = k->indptr, *restrict indices = k->indices;
    const double *restrict data = k->data;
    const double *restrict xb1 = k->Xb, *restrict yb = k->Xb + nb;
    const double *restrict g = k->g_psi;
    double *restrict lam_e = k->duals;
    for (int64_t b = 0; b < rows; b++) {
        const double step = k->dual_steps[b];
        for (int64_t r = b * Sn; r < (b + 1) * Sn; r += n)
            for (int64_t i = 0; i < n; i++) {
                const double e = row_product(indptr, indices, data, r + i, yb) - xb1[b * n + i];
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

void primal_step(const Batch *k)
{
    const int64_t rows = k->rows, Sn = k->S * k->n, n = k->n;
    const int64_t nb = rows * n, NS = rows * Sn;
    const int32_t *restrict indptr = k->indptr, *restrict indices = k->indices;
    const double *restrict data = k->data;
    const double *restrict X = k->X;
    const double *restrict lam_e = k->duals, *restrict lam_ih = k->duals + NS;
    const double *restrict scales = k->ineq_scales;
    double *restrict Xn = k->Xn;
    for (int64_t b = 0; b < rows; b++)
        for (int64_t j = b * n, i = 0; i < n; i++, j++)
            Xn[j] = X[j] + (((Xn[j] + k->qc[i]) - k->lin[j]) * k->tau1[b]);
    for (int64_t b = 0; b < rows; b++)
        for (int64_t r = b * Sn; r < (b + 1) * Sn; r += n)
            for (int64_t i = 0; i < n; i++) {
                const double we = (row_product(indptr, indices, data, r + i, lam_e)
                                   + lam_ih[r + i] * scales[b]) * k->tau[b];
                Xn[nb + r + i] = (X[nb + r + i] - we) + k->tau_yt[b * n + i];
            }
    if (k->slack)
        for (int64_t b = 0; b < rows; b++)
            for (int64_t r = b * Sn; r < (b + 1) * Sn; r++)
                Xn[nb + NS + r] = X[nb + NS + r] + lam_ih[r] * scales[rows + b];
    finish(k->slack ? nb + 2 * NS : nb + NS, X, Xn, k->Xb, k->den, k->lo, k->hi);
}
"""


class _Batch(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in ("rows", "S", "n", "slack")]
        + [(name, ctypes.c_void_p) for name in (
            "indptr", "indices", "data", "X", "Xn", "Xb", "z_hard", "duals", "g_psi",
            "dual_steps", "ineq_scales", "tau", "tau1", "tau_yt", "lin", "qc", "den",
            "lo", "hi")]
    )


class Kernel:
    """The loaded kernel library."""

    def __init__(self, lib: ctypes.CDLL):
        self.dual_step = lib.dual_step
        self.primal_step = lib.primal_step
        for fn in (self.dual_step, self.primal_step):
            fn.argtypes, fn.restype = (ctypes.POINTER(_Batch),), None

    @staticmethod
    def bind(rows: int, S: int, n: int, slack: bool, csr, X0, X1, Xb, duals, z_hard,
             **consts):
        """Arguments of the two steps for one batch: a pair of pointers, the
        first for a step from ``X0`` to ``X1`` and the second the other way.

        ``X0``, ``X1``, ``Xb`` and ``duals`` are the buffers the steps write
        in place; ``z_hard`` (hard mode only) and the ``_Batch`` constants
        in ``consts`` are read, and may be given in any shape that holds
        their entries in order, ``lin`` and ``qc`` also as the scalar 0.0.
        Every array is kept alive by the pointers. Sizes and CSR column
        indices are checked here, since the steps index without bounds.
        """
        NS = rows * S * n
        nx = rows * n + (2 if slack else 1) * NS
        indptr, indices = (np.asarray(a) for a in csr[:2])
        nnz = int(indptr[-1])
        if max(nnz, NS) >= 2**31:
            raise ValueError("batch too large for the kernel's 32-bit CSR indices")
        indptr, indices = (np.ascontiguousarray(a, dtype=np.int32) for a in (indptr, indices))
        arrays = dict(indptr=indptr, indices=indices, Xb=Xb, duals=duals)
        if not slack:
            arrays["z_hard"] = np.ascontiguousarray(z_hard, dtype=float)
        scalars = dict(lin=(rows, n), qc=(n,))
        for name, a in consts.items():
            a = np.broadcast_to(a, scalars[name]) if np.ndim(a) == 0 else a
            arrays[name] = np.ascontiguousarray(a, dtype=float)
        arrays["data"] = np.ascontiguousarray(csr[2], dtype=float)
        sizes = dict(indptr=NS + 1, indices=nnz, data=nnz, X=nx, Xn=nx, Xb=nx, z_hard=NS,
                     duals=2 * NS, g_psi=2 * NS, dual_steps=2 * rows, ineq_scales=2 * rows,
                     tau=rows, tau1=rows, tau_yt=rows * n, lin=rows * n, qc=n, den=nx,
                     lo=nx, hi=nx)
        for name, a in dict(arrays, X=X0, Xn=X1).items():
            if a.size != sizes[name]:
                raise ValueError(f"kernel argument {name} has {a.size} entries, "
                                 f"expected {sizes[name]}")
        for a in (X0, X1, Xb, duals):
            if a.dtype != np.float64 or not a.flags.c_contiguous:
                raise ValueError("the buffers written in place must be C-contiguous float64")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("CSR row pointers must start at 0 and not decrease")
        if nnz and not (0 <= indices.min() and indices.max() < NS):
            raise ValueError("CSR column index out of range")
        fields = {name: a.ctypes.data for name, a in arrays.items()}
        keep = (X0, X1, *arrays.values())
        pair = []
        for X, Xn in ((X0, X1), (X1, X0)):
            batch = _Batch(rows=rows, S=S, n=n, slack=int(slack), X=X.ctypes.data,
                           Xn=Xn.ctypes.data, **fields)
            batch.keep = keep
            pair.append(ctypes.pointer(batch))
        return tuple(pair)


class _NumpySteps:
    """The two steps as numpy calls on the same buffers: the fallback when
    the kernel cannot be built, and the form the kernel reproduces."""

    @staticmethod
    def bind(rows: int, S: int, n: int, slack: bool, csr, X0, X1, Xb, duals, z_hard,
             **consts):
        """Like ``Kernel.bind``, with the constants in the engine's shapes."""
        nb, NS = rows * n, rows * S * n

        def blocks(X):
            return (X, X[:nb].reshape(rows, 1, n), X[nb:nb + NS].reshape(rows, S, n),
                    X[nb + NS:].reshape(rows, S, n) if slack else z_hard)

        work = np.empty((2, rows, S, n))
        shared = dict(N=NS, csr=csr, slack=slack, xb=blocks(Xb), duals=duals, work=work,
                      Alam=np.empty((rows, S, n)), **consts)
        return tuple(SimpleNamespace(cur=blocks(X), nxt=blocks(Xn), **shared)
                     for X, Xn in ((X0, X1), (X1, X0)))

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
