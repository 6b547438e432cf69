from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sassc import grid, io
from sassc.grid import (
    LINEAR_SOLVE_TOL,
    EllipticityError,
    Factorization,
    LinearSolveError,
    Stencil,
    assemble_operator,
    build_grid,
    mms_convergence_study,
    operator_norm_estimate,
)
from sassc.scenarios import FieldSpec, sample_scenarios

import reference_impl

# Manufactured-solution constant measured once on n1d=8 and frozen.
MMS_C_N1D8 = 0.81
# Sup norm of the unit-coefficient inverse, measured on n1d=16 and frozen;
# it grows under refinement, so the frozen value covers every coarser grid.
C0_SUPNORM = 0.0731


def test_build_grid_basic():
    g = build_grid(3)
    assert g.h == 0.25
    assert g.n == 9
    assert abs(g.h * (g.n1d + 1) - 1.0) < 1e-15


def test_build_grid_single_node():
    g = build_grid(1)
    assert g.h == 0.5
    sx, sy = g.interior_coords()
    assert (sx.tolist(), sy.tolist()) == ([0.5], [0.5])


def test_build_grid_larger():
    g = build_grid(63)
    assert g.h == 1.0 / 64.0
    assert g.n == 3969


def test_build_grid_rejects_zero():
    with pytest.raises(ValueError):
        build_grid(0)


def test_constant_coefficient_stencil():
    g = build_grid(3)
    A = assemble_operator(g, np.ones((5, 5))).tocsr().toarray()
    assert np.allclose(np.diag(A), 64.0)
    # interior node 4 (center) has all four neighbors
    assert A[4, 1] == A[4, 3] == A[4, 5] == A[4, 7] == -16.0
    assert A[4, 0] == A[4, 2] == 0.0


def test_single_node_operator():
    g = build_grid(1)
    A = assemble_operator(g, np.ones((3, 3))).tocsr().toarray()
    assert A.shape == (1, 1)
    assert A[0, 0] == 16.0


def test_variable_coefficient_matches_direct_stencil():
    """Entrywise oracle: evaluate the flux stencil formula independently."""
    g = build_grid(3)
    m = g.n1d
    t = g.closed_coords()
    a_closed = 1.0 + t[:, None] + 0.0 * t[None, :]  # a(s) = 1 + s1
    A = assemble_operator(g, a_closed).tocsr().toarray()

    expect = np.zeros((g.n, g.n))
    inv_h2 = 1.0 / g.h**2
    for i in range(m):
        for j in range(m):
            k = i + m * j
            ix, iy = i + 1, j + 1
            aw = 0.5 * (a_closed[ix - 1, iy] + a_closed[ix, iy])
            ae = 0.5 * (a_closed[ix + 1, iy] + a_closed[ix, iy])
            as_ = 0.5 * (a_closed[ix, iy - 1] + a_closed[ix, iy])
            an = 0.5 * (a_closed[ix, iy + 1] + a_closed[ix, iy])
            expect[k, k] = (aw + ae + as_ + an) * inv_h2
            if i > 0:
                expect[k, k - 1] = -aw * inv_h2
            if i < m - 1:
                expect[k, k + 1] = -ae * inv_h2
            if j > 0:
                expect[k, k - m] = -as_ * inv_h2
            if j < m - 1:
                expect[k, k + m] = -an * inv_h2
    np.testing.assert_allclose(A, expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n1d", [1, 2, 3, 5, 8])
def test_csr_form_matches_the_coo_assembly(n1d):
    """``Stencil.tocsr`` gives the data, indices and indptr of the plain COO
    assembly (``reference_impl.assemble_operator``) bit for bit, dtypes
    included; a stack of three fields assembles into their per-field
    stencils block by block, and its CSR form is their block diagonal."""
    g = build_grid(n1d)
    fields = 0.5 + np.random.default_rng(n1d).random((3, n1d + 2, n1d + 2))
    stacked = assemble_operator(g, fields)
    want = [reference_impl.assemble_operator(g, a) for a in fields]
    pairs = [(stacked.tocsr(), sp.block_diag(want, format="csr"))]
    for k, a in enumerate(fields):
        single, block = assemble_operator(g, a), stacked.block(k)
        assert single.m == block.m == n1d and single.nnz == want[k].nnz
        for name in ("diags", "stored"):
            assert getattr(single, name).tobytes() == getattr(block, name).tobytes()
        pairs += [(single.tocsr(), want[k]), (block.tocsr(), want[k])]
    assert stacked.nnz == sum(w.nnz for w in want)
    for got, csr in pairs:
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(csr, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_assemble_rejects_nonpositive_coefficient():
    g = build_grid(3)
    a = np.ones((5, 5))
    a[2, 2] = 0.0
    with pytest.raises(EllipticityError):
        assemble_operator(g, a)


def test_assemble_rejects_bad_shape():
    with pytest.raises(ValueError):
        assemble_operator(build_grid(3), np.ones((4, 4)))


def test_operator_symmetry_and_scaling():
    g = build_grid(5)
    rng = np.random.default_rng(3)
    a = 1.0 + 0.5 * rng.random((7, 7))
    A = assemble_operator(g, a).tocsr()
    assert abs(A - A.T).max() == 0.0
    A3 = assemble_operator(g, 3.0 * a).tocsr()
    assert abs(A3 - 3.0 * A).max() < 1e-12


def test_adjoint_consistency_weighted_inner_product():
    g = build_grid(6)
    rng = np.random.default_rng(11)
    a = 1.0 + rng.random((8, 8))
    A = assemble_operator(g, a)
    for trial in range(5):
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        lhs = g.h**2 * np.dot(A @ u, v)
        rhs = g.h**2 * np.dot(u, A @ v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_solve_zero_rhs_is_exact_zero():
    g = build_grid(4)
    A = assemble_operator(g, np.ones((6, 6)))
    y = Factorization(A).solve(np.zeros(g.n))
    assert np.array_equal(y, np.zeros(g.n))


def test_solve_single_node():
    g = build_grid(1)
    A = assemble_operator(g, np.ones((3, 3)))
    y = Factorization(A).solve(np.array([1.0]))
    np.testing.assert_allclose(y, [1.0 / 16.0], rtol=1e-14)


def test_manufactured_solution_frozen_bound():
    g = build_grid(8)
    A = assemble_operator(g, np.ones((10, 10)))
    sx, sy = g.interior_coords()
    exact = np.sin(np.pi * sx) * np.sin(np.pi * sy)
    y = Factorization(A).solve(2.0 * np.pi**2 * exact)
    assert np.abs(y - exact).max() <= MMS_C_N1D8 * g.h**2


def test_solve_columns_match_single_solves():
    """An (n, k) right-hand side is solved column by column's bits, from one
    factorization; a zero column gives zeros, and an all-zero one needs no
    factorization."""
    g = build_grid(6)
    rng = np.random.default_rng(11)
    A = assemble_operator(g, 1.0 + rng.random((8, 8)))
    rhs = rng.standard_normal((g.n, 3))
    rhs[:, 1] = 0.0
    y = Factorization(A).solve(rhs)
    assert y.shape == rhs.shape and not y[:, 1].any()
    for j in (0, 2):
        assert y[:, j].tobytes() == Factorization(A).solve(rhs[:, j]).tobytes()
    singular = Stencil(g.n1d, np.zeros((5, g.n)), A.stored)   # zero diagonals
    assert np.array_equal(Factorization(singular).solve(np.zeros((g.n, 2))), np.zeros((g.n, 2)))
    with pytest.raises(LinearSolveError):
        Factorization(singular).solve(rhs)


def test_solve_failure_reports():
    g = build_grid(2)
    stored = assemble_operator(g, np.ones((4, 4))).stored
    A = Stencil(g.n1d, np.zeros((5, g.n)), stored)  # singular; assembly rejects a zero field
    with pytest.raises(LinearSolveError):
        Factorization(A).solve(np.ones(g.n))


def test_solve_rejects_bad_rhs_shape():
    g = build_grid(2)
    A = assemble_operator(g, np.ones((4, 4)))
    for bad in (np.ones(5), np.ones((5, 2)), np.ones((4, 1, 1))):
        with pytest.raises(ValueError):
            Factorization(A).solve(bad)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n1d=st.integers(1, 6), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_factorization_solve_properties(data, n1d, k, seed):
    """On a random positive coefficient field, each column of an (n, k)
    solve meets the residual gate, a zero column comes back as exact
    zeros, and the k columns have the bits of k one-column solves."""
    g = build_grid(n1d)
    a = data.draw(hnp.arrays(float, (n1d + 2, n1d + 2), elements=st.floats(0.01, 100.0)))
    A = assemble_operator(g, a)
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    rhs = np.random.default_rng(seed).standard_normal((g.n, k))
    rhs[:, zero] = 0.0
    lu = Factorization(A)
    y = lu.solve(rhs)
    live = ~zero
    res = np.linalg.norm(A.tocsr() @ y[:, live] - rhs[:, live], axis=0)
    assert np.all(res <= 10 * LINEAR_SOLVE_TOL * np.linalg.norm(rhs[:, live], axis=0))
    assert y[:, zero].tobytes() == np.zeros((g.n, int(zero.sum()))).tobytes()
    for j in range(k):
        assert y[:, j].tobytes() == Factorization(A).solve(rhs[:, j]).tobytes()
        assert y[:, j].tobytes() == lu.solve(rhs[:, j]).tobytes()


@settings(max_examples=10, deadline=None)
@given(n1d=st.integers(1, 6), S=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_instance_factors_are_cached(n1d, S, seed):
    """``Instance.factors`` factors the scenario stack once, in one
    ``schur_factor`` call: a second call factors nothing and solves with
    the same bits, which are each scenario's from a factorization of its
    own."""
    inst = io.make_instance("default", n1d=n1d, scenario_count=S, seed=seed)
    _, g, _ = inst.fields()
    with mock.patch.object(grid, "schur_factor", wraps=grid.schur_factor) as factor:
        first = inst.factors().solve(g)
        assert factor.call_count == 1
        again = inst.factors().solve(g)
        assert factor.call_count == 1
    for k, A in enumerate(inst.operators()):
        assert first[k].tobytes() == again[k].tobytes() == Factorization(A).solve(g[k]).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n1d=st.integers(1, 6), S=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_solve_properties(data, n1d, S, k, seed):
    """On random positive coefficient fields, each (scenario, column) pair
    of one (S, n, k) solve of ``Instance.factors`` has the bits of its own
    solve by a factorization of its block alone, a zero pair comes back as
    exact zeros, and a second ``inst.factors()`` factors nothing."""
    inst = io.make_instance("default", n1d=n1d, scenario_count=S)
    _, g, psi = inst.fields()
    a = data.draw(hnp.arrays(float, (S, n1d + 2, n1d + 2), elements=st.floats(0.01, 100.0)))
    inst.scenarios._cache[n1d] = (a, g, psi)
    zero = data.draw(hnp.arrays(bool, (S, k)))
    rhs = np.random.default_rng(seed).standard_normal((S, inst.n, k))
    rhs.transpose(0, 2, 1)[zero] = 0.0
    y = inst.factors().solve(rhs)
    A = inst.block_operator()
    for s in range(S):
        for c in range(k):
            alone = Factorization(A.block(s)).solve(rhs[s, :, c])
            assert y[s, :, c].tobytes() == (np.zeros(inst.n) if zero[s, c] else alone).tobytes()
    with mock.patch.object(grid, "schur_factor", wraps=grid.schur_factor) as factor:
        assert inst.factors().solve(rhs).tobytes() == y.tobytes()
        assert factor.call_count == 0


def test_discrete_maximum_principle():
    g = build_grid(9)
    A = assemble_operator(g, np.ones((11, 11)))
    rng = np.random.default_rng(2)
    for _ in range(5):
        rhs = rng.random(g.n)  # nonnegative
        y = Factorization(A).solve(rhs)
        assert y.min() >= -1e-12


def test_uniform_ensemble_bound():
    """Solutions over a scenario set stay within the frozen sup-norm bound."""
    spec_a = FieldSpec(1.0, ((0.6, (1, 1)), (0.3, (2, 2))), clip=(0.4, 1.8))
    spec_g = FieldSpec(1.0, ((0.8, (1, 2)),))
    spec_psi = FieldSpec(0.0, ())
    for seed in (1, 2, 3):
        scen = sample_scenarios(spec_a, spec_g, spec_psi, S=5, seed=seed)
        for n1d in (4, 8, 16):
            g = build_grid(n1d)
            a, load, _ = scen.realize(g)
            a_min = a.min()
            rng = np.random.default_rng(seed + 100)
            x1 = rng.uniform(-1.0, 1.0, g.n)
            bound = (1.0 / a_min) * C0_SUPNORM * (
                np.abs(x1).max() + max(np.abs(load[k]).max() for k in range(5))
            )
            for k in range(5):
                A = assemble_operator(g, a[k])
                y = Factorization(A).solve(x1 + load[k])
                assert np.abs(y).max() <= bound


def test_mms_rates_in_window():
    rows = mms_convergence_study([7, 15, 31])
    assert rows[0].rate is None
    for r in rows[1:]:
        assert 1.85 <= r.rate <= 2.15


def test_mms_single_level_no_rate():
    rows = mms_convergence_study([9])
    assert len(rows) == 1 and rows[0].rate is None


def test_mms_errors_strictly_decreasing():
    rows = mms_convergence_study([7, 15, 31, 63])
    errs = [r.max_error for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_mms_rejects_nonincreasing_levels():
    with pytest.raises(ValueError):
        mms_convergence_study([7, 7, 15])


def test_norm_estimate_identity():
    est = operator_norm_estimate(lambda v: v, lambda v: v, np.ones((1, 13)))
    assert est.shape == (1,) and abs(est[0] - 1.01) <= 1e-4


def test_norm_estimate_zero_map():
    z = lambda v: np.zeros_like(v)
    assert operator_norm_estimate(z, z, np.ones((2, 7))).tolist() == [0.0, 0.0]


def test_norm_estimate_matches_dense_eigensolve():
    g = build_grid(3)
    A = assemble_operator(g, np.ones((5, 5))).tocsr()
    dense = A.toarray()
    lam_max = np.linalg.eigvalsh(dense).max()
    apply = lambda v: (A @ v.T).T
    est = operator_norm_estimate(apply, apply, np.ones((1, g.n)))[0]
    assert abs(est - 1.01 * lam_max) <= 1e-3 * lam_max


def test_norm_estimate_weighted():
    # diagonal map in a weighted space; norm is the largest diagonal entry
    d = np.array([3.0, 1.0, 0.5])
    w = np.array([[2.0, 1.0, 0.25]])
    est = operator_norm_estimate(lambda v: d * v, lambda v: d * v, w)[0]
    assert abs(est - 1.01 * 3.0) <= 1e-3


def test_stacked_norm_estimates_match_reference_rows():
    """Rows that stop early, a row that hits the 500-iteration cap and a zero
    map run in lockstep, each leaving as it stops; each estimate has the
    bits of its row's own run, which is also that of a one-row call."""
    dim = 400
    rng = np.random.default_rng(3)
    diag = np.stack([
        np.sqrt(np.linspace(0.0, 1.0, dim)),         # dense top of the spectrum: cap
        np.r_[3.0, rng.uniform(0.0, 1.0, dim - 1)],  # separated top: stops early
        np.zeros(dim),                               # zero map
        rng.uniform(0.5, 2.0, dim),
    ])
    weights = rng.uniform(0.5, 2.0, diag.shape)
    live = np.ones(len(diag), dtype=bool)
    applied = []

    def apply(v):
        applied.append(len(v))
        return diag[live] * v

    est = operator_norm_estimate(apply, apply, weights, live=live)
    assert est.shape == (4,)
    iters = []
    for d, w, got in zip(diag, weights, est):
        want, it = reference_impl.operator_norm_estimate(
            lambda v: d * v, lambda v: d * v, dim, weights=w)
        iters.append(it)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        single = operator_norm_estimate(lambda v: d * v, lambda v: d * v, w[None])
        assert single.shape == (1,)
        assert single[0].tobytes() == np.float64(want).tobytes()
    assert iters[0] == 500 and iters[1] < 500 and iters[3] < 500
    assert est[2] == 0.0
    # rows leave the lockstep as they stop; the last one runs alone
    assert applied[0] == 4 and applied[-1] == 1 and len(applied) == 2 * 500
    assert live.tolist() == [True, False, False, False]    # running at the cap
