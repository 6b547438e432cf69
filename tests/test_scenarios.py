import numpy as np
import pytest

from sassc.grid import build_grid
from sassc.scenarios import FieldSpec, sample_scenarios

SPEC_A = FieldSpec(1.0, ((0.4, (1, 1)), (0.2, (2, 1))), clip=(0.5, 2.0))
SPEC_G = FieldSpec(1.0, ((0.5, (1, 2)),))
SPEC_PSI = FieldSpec(0.1, ())


def test_sampling_deterministic_bitwise():
    s1 = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=4, seed=7)
    s2 = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=4, seed=7)
    assert np.array_equal(s1.xi_a, s2.xi_a)
    assert np.array_equal(s1.xi_g, s2.xi_g)
    assert np.array_equal(s1.xi_psi, s2.xi_psi)


def test_different_seeds_differ():
    s1 = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=4, seed=7)
    s2 = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=4, seed=8)
    assert not np.array_equal(s1.xi_a, s2.xi_a)


def test_scenario_order_independence():
    """Counter-based draws: scenario k's weights do not depend on S."""
    s4 = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=4, seed=3)
    s9 = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=9, seed=3)
    assert np.array_equal(s4.xi_a, s9.xi_a[:4])


def test_uniform_probabilities():
    s = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=3, seed=1)
    np.testing.assert_allclose(s.p, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=0)
    assert abs(s.p.sum() - 1.0) <= 1e-14


def test_explicit_probabilities_validated():
    p = np.array([0.5, 0.25, 0.25])
    s = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=3, seed=1, probabilities=p)
    assert abs(s.p.sum() - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=3, seed=1,
                         probabilities=np.array([0.5, 0.25, 0.2]))
    with pytest.raises(ValueError):
        sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=3, seed=1,
                         probabilities=np.array([1.5, -0.25, -0.25]))


def test_zero_scenarios_rejected():
    with pytest.raises(ValueError):
        sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=0, seed=1)


def test_clipping_always_respected():
    wild = FieldSpec(1.0, ((10.0, (1, 1)),), clip=(0.1, 2.0))
    s = sample_scenarios(wild, SPEC_G, SPEC_PSI, S=6, seed=2)
    a, _, _ = s.realize(build_grid(8))
    assert a.min() >= 0.1 and a.max() <= 2.0


def test_clip_activation_on_seeded_draw():
    wild = FieldSpec(1.0, ((10.0, (1, 1)),), clip=(0.1, 2.0))
    s = sample_scenarios(wild, SPEC_G, SPEC_PSI, S=6, seed=2)
    a, _, _ = s.realize(build_grid(8))
    # amplitude 10 swamps the clip interval, so both bounds activate exactly
    assert a.min() == 0.1
    assert a.max() == 2.0


def test_zero_mode_fields_constant():
    const_a = FieldSpec(1.0, (), clip=(0.5, 2.0))
    s = sample_scenarios(const_a, FieldSpec(0.0, ()), SPEC_PSI, S=3, seed=5)
    a, g, psi = s.realize(build_grid(4))
    assert np.all(a == 1.0)
    assert np.all(g == 0.0)
    assert np.all(psi == 0.1)


def test_mode_evaluation_closed_form():
    spec = FieldSpec(1.0, ((0.5, (1, 1)),))
    val = spec.evaluate(np.array([1.0]), np.array([0.5]), np.array([0.5]))
    np.testing.assert_allclose(val, [1.5], rtol=1e-15)


def test_realization_cached_and_pure():
    s = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=3, seed=9)
    grid = build_grid(6)
    a1, g1, p1 = s.realize(grid)
    a2, g2, p2 = s.realize(grid)
    assert a1 is a2  # cached
    fresh = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=3, seed=9)
    a3, g3, p3 = fresh.realize(build_grid(6))
    assert np.array_equal(a1, a3) and np.array_equal(g1, g3) and np.array_equal(p1, p3)


def test_coefficient_spec_requires_positive_clip():
    with pytest.raises(ValueError):
        sample_scenarios(FieldSpec(1.0, ()), SPEC_G, SPEC_PSI, S=2, seed=1)
    with pytest.raises(ValueError):
        sample_scenarios(FieldSpec(1.0, (), clip=(0.0, 2.0)), SPEC_G, SPEC_PSI,
                         S=2, seed=1)


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(1.0, clip=(2.0, 1.0))
    with pytest.raises(ValueError):
        FieldSpec(1.0, ((0.1, (0, 1)),))


def test_subset_matches_parent_slice():
    s = sample_scenarios(SPEC_A, SPEC_G, SPEC_PSI, S=5, seed=11)
    grid = build_grid(5)
    a, g, psi = s.realize(grid)
    sub = s.subset([2])
    a2, g2, p2 = sub.realize(grid)
    assert np.array_equal(a2[0], a[2])
    assert np.array_equal(g2[0], g[2])
    assert np.array_equal(p2[0], psi[2])
    assert sub.p.tolist() == [1.0]
