"""Reference forms of the residual check and of the K-norm power
iteration, kept in their plain per-pair form. The package's residual
check must reproduce them bit for bit, and its lockstep K-norm estimate
row by row. Also the plain streaming form of the history CSV writer,
whose bytes the atomic writer must match, the plain canonical JSON
renderer, whose bytes ``io.canonical_json`` must match, and the test-only
helpers ``pairing`` and ``project_c2``. Also the COO assembly of the
five-point operator, whose CSR arrays ``grid.Stencil.tocsr`` must match."""

import functools
import json
import math

import numpy as np
import scipy.sparse as sp

from sassc.problem import project_c1


def assemble_operator(grid, a_closed):
    """The five-point flux stencil of ``-div(a grad y)`` for one field on
    the closed grid, assembled as COO triples (centre, west, east, south,
    north) and converted to CSR, which sorts each row's columns."""
    m = grid.n1d
    a_closed = np.asarray(a_closed, dtype=float)

    def face(u, v):
        return 0.5 * (u + v)

    inner = a_closed[1:-1, 1:-1]
    a_w = face(a_closed[:-2, 1:-1], inner)
    a_e = face(a_closed[2:, 1:-1], inner)
    a_s = face(a_closed[1:-1, :-2], inner)
    a_n = face(a_closed[1:-1, 2:], inner)
    inv_h2 = 1.0 / grid.h**2

    # flat index k = i + m*j comes from Fortran-order raveling of [i, j] arrays
    def flat(arr):
        return arr.ravel(order="F")

    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    k = flat(ii + m * jj)
    rows, cols, vals = [k], [k], [flat(a_w + a_e + a_s + a_n) * inv_h2]
    for mask, di, dj, a in ((ii >= 1, -1, 0, a_w), (ii <= m - 2, 1, 0, a_e),
                            (jj >= 1, 0, -1, a_s), (jj <= m - 2, 0, 1, a_n)):
        rows.append(k[flat(mask)])
        cols.append(flat((ii + di) + m * (jj + dj))[flat(mask)])
        vals.append(-flat(a)[flat(mask)] * inv_h2)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n, grid.n),
    )
    return mat.tocsr()


def pairing(u: np.ndarray, lam: np.ndarray, p: np.ndarray, h: float) -> float:
    """Duality pairing of a random field with a multiplier density.

    ``sum_k p_k h^2 sum_i u[k, i] lam[k, i]`` for arrays of shape (S, n).
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    per_scenario = np.einsum("ki,ki->k", u, lam)
    return float(h * h * np.dot(p, per_scenario))


def project_c2(inst, v: np.ndarray) -> np.ndarray:
    """Entrywise projection onto the state box C2 = [-M, M]."""
    M = inst.c2_bound
    return np.clip(v, -M, M)


def lsum(terms) -> float:
    """``0.0 + t[0] + t[1] + ...``, one addition at a time, left to right."""
    total = 0.0
    for t in np.ravel(terms).tolist():
        total = total + t
    return total


def largest(values, op=np.maximum) -> float:
    """``op`` (``np.maximum`` or ``np.minimum``) applied left to right."""
    return functools.reduce(op, np.ravel(values).tolist())


def max_norm(a) -> float:
    """The largest per-scenario Euclidean norm of an (S, n) array."""
    return np.sqrt(largest([lsum(row * row) for row in a]))


def natural_residuals(inst, x, lam, x1_extra_quad=0.0, x1_extra_center=None,
                      x1_extra_lin=None):
    """Residuals of one candidate pair, one plain expression per term, each
    sum taken one addition at a time, left to right from 0.0, and a NaN
    residual given as the one quiet NaN."""
    h = inst.h
    p = inst.p

    e_rho = 0.0
    for pk, nk in zip(p, lam.nonant):
        e_rho = e_rho + pk * nk
    f_x1 = inst.alpha * x.x1 + e_rho
    if x1_extra_quad != 0.0:
        center = 0.0 if x1_extra_center is None else x1_extra_center
        f_x1 = f_x1 + x1_extra_quad * (x.x1 - center)
    if x1_extra_lin is not None:
        f_x1 = f_x1 + x1_extra_lin
    d1 = x.x1 - project_c1(inst, x.x1 - f_x1)
    r1 = h * np.sqrt(lsum(d1 * d1))

    r2 = h * max_norm(lam.nonant + lam.adjoint)

    Alam = (inst.block_operator().tocsr() @ lam.adjoint.ravel()).reshape(inst.S, inst.n)
    f_y = x.y - inst.y_target[None, :] + Alam + lam.obstacle
    r3 = h * max_norm(x.y - project_c2(inst, x.y - f_y))

    if inst.mode == "slack":
        f_z = inst.alpha_prime * x.z - lam.obstacle
        r3p = h * max_norm(x.z - project_c2(inst, x.z - f_z))
    else:
        r3p = None

    _, g, psi = inst.fields()
    Ay = (inst.block_operator().tocsr() @ x.y.ravel()).reshape(inst.S, inst.n)
    eq = Ay - x.x1[None, :] - g
    ineq = x.y - x.z - psi if inst.mode == "slack" else x.y - psi
    r4 = h * max_norm(eq)
    r5_sign = largest(lam.obstacle, np.minimum)
    r5_feas = largest(np.maximum(ineq, 0.0))
    r5_comp = abs(h * h * lsum([pk * lsum(ik * ok) for pk, ik, ok in zip(p, ineq, lam.obstacle)]))

    out = {"r1": r1, "r2": r2, "r3": r3, "r4": r4,
           "r5_sign": r5_sign, "r5_feas": r5_feas, "r5_comp": r5_comp}
    if r3p is not None:
        out["r3p"] = r3p
    return {name: math.nan if np.isnan(val) else val for name, val in out.items()}


def operator_norm_estimate(forward, adjoint, dim, weights=None, tol=1e-6,
                           max_iters=500, seed=0):
    """Power iteration on one map; returns (estimate, iterations run)."""
    if weights is None:
        weights = np.ones(dim)

    def wdot(u, v):
        return float(np.sum(weights * u * v))

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.sqrt(wdot(v, v))
    lam_prev = np.inf
    lam = 0.0
    it = 0
    for it in range(1, max_iters + 1):
        t = adjoint(forward(v))
        lam = wdot(t, v)
        tn = np.sqrt(wdot(t, t))
        if tn == 0.0 or lam <= 0.0:
            return 0.0, it
        v = t / tn
        if abs(lam - lam_prev) <= tol * abs(lam):
            break
        lam_prev = lam
    return 1.01 * float(np.sqrt(lam)), it


def k_norm(inst, s1=1.0, sz=1.0, ci=1.0):
    """Weighted norm of the block-balanced constraint map of one instance,
    uncached; returns (estimate, power iterations run)."""
    S, n = inst.S, inst.n
    slack = inst.mode == "slack"
    Ablk = inst.block_operator().tocsr()
    p = inst.p
    hh = inst.h * inst.h
    nx = n + S * n + (S * n if slack else 0)

    w_x1 = np.full(n, hh)
    w_block = np.repeat(p * hh, n)
    weights = np.concatenate([w_x1] + [w_block] * (2 if slack else 1))

    def forward(v):
        x1 = v[:n]
        y = v[n:n + S * n]
        e = Ablk @ y - np.tile(s1 * x1, S)
        if slack:
            z = v[n + S * n:]
            i = ci * (y - sz * z)
        else:
            i = ci * y
        return np.concatenate([e, i])

    def adjoint(w):
        we = w[:S * n].reshape(S, n)
        wi = w[S * n:].reshape(S, n)
        out_x1 = -s1 * (p @ we)
        out_y = (Ablk @ we.ravel()).reshape(S, n) + ci * wi
        parts = [out_x1, out_y.ravel()]
        if slack:
            parts.append(-ci * sz * wi.ravel())
        return np.concatenate(parts)

    return operator_norm_estimate(forward, adjoint, nx, weights=weights)


def history_writer(inst, fh):
    """History hook writing the CSV rows of ``sassc solve --history-csv``
    straight to the open file ``fh``; the caller writes the header."""
    from sassc.problem import dual_function, objective

    def write(it, res, xp, lam):
        r3p = res.get("r3p", float("nan"))
        fh.write(
            f"{it},{res['r1']:.17g},0,{res['r3']:.17g},{r3p:.17g},{res['r4']:.17g},"
            f"{res['r5_sign']:.17g},{res['r5_feas']:.17g},{res['r5_comp']:.17g},"
            f"{objective(inst, xp):.17g},{dual_function(inst, lam):.17g}\n"
        )

    return write


def canonical_json(obj) -> str:
    """Canonical JSON text of nested dict/list/scalar data, every value
    through the same chain of type tests, an array as its ``tolist()``, and
    every float checked for finiteness on its own."""

    def fmt(x) -> str:
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x}")
        return format(float(x), ".17g")

    def render(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return fmt(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items())
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        raise TypeError(f"cannot serialize object of type {type(o)}")

    return render(obj) + "\n"
