import warnings

import numpy as np
import pytest

from diracloud.eigen import (EmptySpectrum, FLAG_COINCIDENCE, FLAG_GENUINE,
                             FLAG_INSTILLED, FLAG_TAIL, check_spectrum_reality,
                             classify_spectrum, convergence_rate, exact_levels,
                             solve_generalized)
from diracloud.physics import PhysicalSystem, exact_eigenvalue

from _oracles import charpoly_eigenvalues, max_pairing_distance, random_pencil


# ----------------------------------------------------------------- the solver

def test_diagonal_pencil():
    w = solve_generalized(np.diag([2.0, 3.0]), np.eye(2))
    assert sorted(w.real) == pytest.approx([2.0, 3.0], abs=1e-14)
    w = solve_generalized(np.diag([2.0, 3.0]), np.diag([2.0, 1.0]))
    assert sorted(w.real) == pytest.approx([1.0, 3.0], abs=1e-14)


def test_pencil_shape_validation():
    with pytest.raises(ValueError):
        solve_generalized(np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        solve_generalized(np.ones((2, 3)), np.ones((2, 3)))


def test_matches_characteristic_polynomial_roots():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        A, B = random_pencil(rng, dim)
        mine = solve_generalized(A, B)
        ref = charpoly_eigenvalues(A, B)
        scale = max(1.0, np.abs(ref).max())
        assert max_pairing_distance(mine, ref) <= 1e-8 * scale


def test_right_vectors_satisfy_the_pencil():
    rng = np.random.default_rng(11)
    A, B = random_pencil(rng, 7)
    w, V = solve_generalized(A, B, return_vectors=True)
    nA, nB = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    for k in range(len(w)):
        x = V[:, k]
        r = np.linalg.norm(A @ x - w[k] * (B @ x))
        assert r <= 1e-10 * (nA + abs(w[k]) * nB) * np.linalg.norm(x)


def test_symmetric_path_agrees_with_qz():
    rng = np.random.default_rng(3)
    A, B = random_pencil(rng, 6)
    A = 0.5 * (A + A.T)
    B = B @ B.T + 6.0 * np.eye(6)
    fast = np.sort(solve_generalized(A, B, symmetric_definite=True).real)
    slow = np.sort(solve_generalized(A, B).real)
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)
    w, V = solve_generalized(A, B, symmetric_definite=True, return_vectors=True)
    for k in range(len(w)):
        x = V[:, k].real
        r = np.linalg.norm(A @ x - w[k].real * (B @ x))
        assert r <= 1e-10 * (np.linalg.norm(A, 2) + abs(w[k]) *
                             np.linalg.norm(B, 2)) * np.linalg.norm(x)


def test_symmetric_path_rejects_nonpositive_mass_diagonal():
    with pytest.raises(ValueError):
        solve_generalized(np.eye(2), -np.eye(2), symmetric_definite=True)


# ------------------------------------------------------------- exact ladders

def test_exact_level_ladder_starting_slot():
    neg = PhysicalSystem(Z=1.0, kappa=-1)
    pos = PhysicalSystem(Z=1.0, kappa=1)
    assert exact_levels(neg, 3)[0] == exact_eigenvalue(neg, 1)
    assert exact_levels(pos, 3)[0] == exact_eigenvalue(pos, 2)
    assert len(exact_levels(neg, 7)) == 7


# ------------------------------------------------------------ classification

HYDROGEN = PhysicalSystem(Z=1.0, kappa=-1)


def unshift(sys, shifted):
    return np.asarray(shifted) + sys.mc2


def test_clean_spectrum_all_genuine():
    ex = exact_levels(HYDROGEN, 5)
    rep = classify_spectrum(unshift(HYDROGEN, ex), HYDROGEN, levels=5)
    assert rep.flags == [FLAG_GENUINE] * 5
    assert [m.level for m in rep.matches] == [1, 2, 3, 4, 5]
    assert max(m.rel_error for m in rep.matches) < 1e-12
    assert rep.n_complex == 0


def test_interloper_between_levels_is_flagged_instilled():
    ex = exact_levels(HYDROGEN, 5)
    vals = sorted(ex + [-0.040])  # sits between levels 3 and 4
    rep = classify_spectrum(unshift(HYDROGEN, vals), HYDROGEN, levels=5)
    assert rep.flags.count(FLAG_INSTILLED) == 1
    assert rep.positive_shifted[rep.flags.index(FLAG_INSTILLED)] == pytest.approx(-0.040)
    assert len(rep.matches) == 5


def test_interloper_hugging_a_level_is_not_instilled():
    ex = exact_levels(HYDROGEN, 5)
    hug = ex[2] * (1.0 - 5e-4)  # within match_tol of level 3
    vals = sorted(ex + [hug])
    rep = classify_spectrum(unshift(HYDROGEN, vals), HYDROGEN, levels=5)
    assert FLAG_INSTILLED not in rep.flags
    assert rep.flags.count(FLAG_TAIL) == 1


def test_mirror_ground_state_flagged_for_positive_kappa():
    sys = PhysicalSystem(Z=1.0, kappa=1)
    mirror = exact_eigenvalue(sys, 1)
    vals = sorted([mirror] + exact_levels(sys, 3))
    rep = classify_spectrum(unshift(sys, vals), sys, levels=3)
    assert rep.flags[0] == FLAG_COINCIDENCE
    assert rep.flags[1:] == [FLAG_GENUINE] * 3


def test_no_mirror_flag_for_negative_kappa():
    ex = exact_levels(HYDROGEN, 3)
    rep = classify_spectrum(unshift(HYDROGEN, ex), HYDROGEN, levels=3)
    assert FLAG_COINCIDENCE not in rep.flags


def test_reality_filter_scales_with_magnitude():
    e1 = exact_levels(HYDROGEN, 1)[0]
    eigs = np.array([HYDROGEN.mc2 + e1, 5.0 + 1e-3j, 0.0 + 1e-9j,
                     -HYDROGEN.mc2 - 3.0])
    rep = classify_spectrum(eigs, HYDROGEN, levels=1)
    assert rep.n_complex == 1           # 5+1e-3j dropped
    assert len(rep.real_spectrum) == 3  # the 1e-9 ripple at zero survives
    assert rep.positive_shifted == pytest.approx([e1])
    assert rep.matches[0].rel_error < 1e-14
    with pytest.warns(RuntimeWarning):
        assert check_spectrum_reality(eigs) == rep.n_complex


def test_reality_check_warns_on_complex_pairs():
    vals = np.array([1.0 + 0j, 2.0 + 0.5j, 2.0 - 0.5j])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        check_spectrum_reality(vals)
    assert len(rec) == 1


def test_all_complex_input_raises():
    with pytest.raises(EmptySpectrum):
        classify_spectrum(np.array([1.0j, 2.0 + 0.5j]), HYDROGEN)


def test_zero_levels_classifies_everything_as_tail():
    ex = exact_levels(HYDROGEN, 3)
    rep = classify_spectrum(unshift(HYDROGEN, ex), HYDROGEN, levels=0)
    assert rep.matches == []
    assert rep.flags == [FLAG_TAIL] * 3


def test_matching_tie_breaks_toward_the_lower_value():
    ex = exact_levels(HYDROGEN, 1)
    gap = 1e-6 * abs(ex[0])
    vals = [ex[0] - gap, ex[0] + gap]
    rep = classify_spectrum(unshift(HYDROGEN, vals), HYDROGEN, levels=1)
    assert rep.matches[0].computed == pytest.approx(ex[0] - gap, rel=1e-14)


# ---------------------------------------------------------------- rate fits

def test_rate_recovers_pure_powers():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    assert convergence_rate(zip(h, 3.0 * h)) == pytest.approx(1.0, abs=1e-8)
    assert convergence_rate(zip(h, 0.7 * h ** 2)) == pytest.approx(2.0, abs=1e-8)


def test_rate_input_validation():
    with pytest.raises(ValueError):
        convergence_rate([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        convergence_rate([(0.1, 1.0), (0.1, 0.5), (0.1, 0.25)])
    with pytest.raises(ValueError):
        convergence_rate([(0.1, 1.0), (0.05, -0.5), (0.025, 0.25)])
