import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from diracloud import eigen
from diracloud.assembly import METHODS, assemble_system
from diracloud.band import Band, bandwidth
from diracloud.cli import RunConfig, run_solve, solve_rows
from diracloud.eigen import (EmptySpectrum, FLAG_COINCIDENCE, FLAG_GENUINE,
                             FLAG_INSTILLED, FLAG_TAIL, BoundWindow, bound_window,
                             check_spectrum_reality, classify_spectrum,
                             convergence_rate, exact_levels, solve_generalized)
from diracloud.physics import PhysicalSystem, exact_eigenvalue

from _oracles import (band_from_dense, band_matvec, charpoly_eigenvalues,
                      ellipse_filter, max_pairing_distance, random_pencil,
                      reference_dense_solve, serial_window, symmetric_bands)


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


def test_symmetric_path_agrees_with_qz():
    rng = np.random.default_rng(3)
    A, B = random_pencil(rng, 6)
    A = 0.5 * (A + A.T)
    B = B @ B.T + 6.0 * np.eye(6)
    fast = np.sort(solve_generalized(A, B, symmetric_definite=True).real)
    slow = np.sort(sla.eigvals(A, B).real)
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)


def test_symmetric_path_rejects_nonpositive_mass_diagonal():
    with pytest.raises(ValueError):
        solve_generalized(np.eye(2), -np.eye(2), symmetric_definite=True)


def _forbid_qz(monkeypatch):
    """Make a QZ call (LAPACK ggev, or scipy.linalg.eigvals with a B) fail
    the test."""
    real_eigvals, real_funcs = sla.eigvals, sla.get_lapack_funcs

    def eigvals(a, b=None, **kwargs):
        assert b is None, "the solve fell back to QZ"
        return real_eigvals(a, **kwargs)

    def get_lapack_funcs(names, *args, **kwargs):
        assert "ggev" not in names, "the solve fell back to QZ"
        return real_funcs(names, *args, **kwargs)

    monkeypatch.setattr(eigen.sla, "eigvals", eigvals)
    monkeypatch.setattr(eigen.sla, "get_lapack_funcs", get_lapack_funcs)


def _refuse_dense(self):
    """Band.dense, for a test that no band is densified."""
    raise AssertionError("a band was densified")


def _graded_pencil(rng, dim):
    """A nonsymmetric A against a B whose diagonal spans eight decades,
    as exponential grids give: cond(B) ~ 1e8, cond(dBd) ~ 1."""
    A = rng.normal(size=(dim, dim))
    s = np.sqrt(np.logspace(0, 8, dim))
    E = 0.1 * rng.normal(size=(dim, dim))
    B = s[:, None] * (np.eye(dim) + E @ E.T) * s[None, :]
    return s[:, None] * A * s[None, :], B


def test_equilibrated_path_agrees_with_qz_on_a_graded_pencil(monkeypatch):
    A, B = _graded_pencil(np.random.default_rng(5), 12)
    ref = sla.eigvals(A, B)
    _forbid_qz(monkeypatch)
    w = solve_generalized(A, B)
    scale = max(1.0, np.abs(ref).max())
    assert max_pairing_distance(w, ref) <= 1e-10 * scale


@pytest.mark.parametrize("method", ["cpg", "cpg_fem_tau", "galerkin"])
def test_equilibrated_path_agrees_with_qz_on_the_flagship_pencil(
        method, monkeypatch, uuo_wfm_200, uuo_system, uuo_grid_200):
    # dense QZ is the oracle; galerkin normally takes eigh and is run
    # through the nonsymmetric path here as a cross-check
    out = assemble_system(uuo_wfm_200, uuo_system, method, grid=uuo_grid_200)
    qz = classify_spectrum(sla.eigvals(out.A, out.B), uuo_system)
    _forbid_qz(monkeypatch)
    fast = classify_spectrum(solve_generalized(out.A, out.B), uuo_system)
    assert fast.flags == qz.flags
    assert fast.n_complex == qz.n_complex
    assert len(fast.matches) == len(qz.matches) == 15
    for m, q in zip(fast.matches, qz.matches):
        assert m.computed == pytest.approx(q.computed, rel=1e-10)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_mass_diagonal_falls_back_to_qz(bad):
    rng = np.random.default_rng(13)
    A, B = random_pencil(rng, 6)
    B[2, 2] = bad
    # no scale 1 / sqrt(diag B) may be formed from such an entry
    with np.errstate(divide="raise", invalid="raise"):
        w = solve_generalized(A, B)
    np.testing.assert_array_equal(w, sla.eigvals(A, B))


def test_singular_mass_falls_back_to_qz():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(5, 5))
    B = np.ones((5, 5)) + np.eye(5)
    B[:, 4] = B[:, 3]  # positive diagonal, exactly singular
    np.testing.assert_array_equal(solve_generalized(A, B), sla.eig(A, B)[0])
    B[:, 4] = B[:, 3] * (1.0 + 1e-9)  # nonsingular, rcond far below the floor
    np.testing.assert_array_equal(solve_generalized(A, B), sla.eig(A, B)[0])


@pytest.mark.parametrize("method,symmetric", [("cpg", False), ("cpg_fem_tau", False),
                                              ("galerkin", False), ("galerkin", True),
                                              (None, False)])
def test_dense_paths_equal_the_scipy_composition_bit_for_bit(
        method, symmetric, uuo_wfm_200, uuo_system, uuo_grid_200):
    # getrf, gecon and getrs called straight from LAPACK give what
    # lu_factor, gecon, lu_solve and eigvals gave, and eigh what it gave
    # on two equilibrated copies, banded or dense (dump_matrices' read-back
    # solves the dumped dense pencil this way)
    if method is None:
        pencils = [_graded_pencil(np.random.default_rng(5), 12)]
    else:
        out = assemble_system(uuo_wfm_200, uuo_system, method, grid=uuo_grid_200)
        pencils = [(out.bands["A"], out.bands["B"]), (out.A, out.B)]
    for pencil in pencils:
        info = {}
        w = solve_generalized(*pencil, symmetric_definite=symmetric, info=info)
        path, ref = reference_dense_solve(*pencil, symmetric_definite=symmetric)
        assert info["path"] == path == ("eigh" if symmetric else "lu_dgeev")
        np.testing.assert_array_equal(w.view(np.uint64), ref.view(np.uint64))


def test_the_dense_fallback_peaks_below_four_copies(uuo_wfm_200, uuo_system, uuo_grid_200):
    # each dense matrix is made where it is read: dBd, factored in place,
    # then dAd, overwritten by C for dgeev.  2.2 copies of 8 n^2 bytes at
    # the peak since both are densified straight into Fortran order and
    # scaled in place (3.0 before; keeping both densified matrices alive
    # took 4.1)
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    A, B = out.bands["A"], out.bands["B"]
    info = {}
    tracemalloc.start()
    try:
        solve_generalized(A, B, info=info)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["path"] == "lu_dgeev" and A.n == 398
    assert peak <= 3.5 * 8 * A.n ** 2


@pytest.mark.parametrize("path", ["eigh", "lu_dgeev", "qz"])
def test_every_dense_path_peaks_at_dense_copies(path, monkeypatch, uuo_wfm_200, uuo_system,
                                                uuo_grid_200):
    # each path densifies its two matrices straight into the Fortran order
    # LAPACK works in and overwrites, QZ (taken here with a floor no rcond
    # reaches) without the eigenvector arrays of eigvals' workspace query:
    # the memory bound holds on every path, up to the O(n k) index arrays
    out = assemble_system(uuo_wfm_200, uuo_system, "galerkin" if path == "eigh" else "cpg",
                          grid=uuo_grid_200)
    if path == "qz":
        monkeypatch.setattr(eigen, "RCOND_FLOOR", np.inf)
    A, B = out.bands["A"], out.bands["B"]
    info = {}
    tracemalloc.start()
    try:
        solve_generalized(A, B, symmetric_definite=path == "eigh", info=info)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["path"] == path and A.n == 398
    assert peak <= (eigen.DENSE_COPIES + 0.5) * 8 * A.n ** 2, peak / (8 * A.n ** 2)


def test_a_dense_block_past_physical_memory_raises_before_densifying(monkeypatch):
    # the bound is DENSE_COPIES n x n float64 arrays against the machine's
    # physical memory: a pencil of the first even order past it, stored
    # as three diagonals, raises LinAlgError on every dense path, and no
    # band is densified
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = 2 * (math.isqrt(have // (8 * eigen.DENSE_COPIES)) // 2 + 1)
    data = np.zeros((3, n))
    data[1] = 1.0
    monkeypatch.setattr(Band, "dense", _refuse_dense)
    for symmetric in (False, True):
        info = {}
        with pytest.raises(np.linalg.LinAlgError, match=(
                f"^dense fallback: order {n} needs {eigen.DENSE_COPIES * 8 * n * n} "
                f"bytes, {have} are installed$")):
            solve_generalized(Band(data, True), Band(data, True),
                              symmetric_definite=symmetric, info=info)
        assert info == {}
    # a window given up names its reason
    A, B = random_pencil(np.random.default_rng(29), 6)
    B[3, 3] = 0.0
    monkeypatch.setattr(eigen, "DENSE_COPIES", have)
    with pytest.raises(np.linalg.LinAlgError, match=(
            "^dense fallback: order 6 needs .* installed; the window was given up: "
            "a diagonal entry of B is not positive$")):
        solve_generalized(*band_from_dense(A, B, interleaved=True),
                          window=BoundWindow(hi=10.0, guesses=(0.0,)))


@pytest.mark.parametrize("where", ["A", "B"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)])
def test_nonfinite_pencil_entries_are_rejected(where, value, entry):
    A, B = _graded_pencil(np.random.default_rng(19), 4)
    (A if where == "A" else B)[entry] = value
    # one check before any path is picked: no scale is formed, nothing
    # is banded and no path is recorded; a banded pencil is checked too
    for pencil in ((A, B), band_from_dense(A, B, interleaved=True)):
        for symmetric in (False, True):
            for window in (None, BoundWindow(hi=1e9, guesses=(1.0,))):
                info = {}
                with pytest.raises(ValueError, match="infs or NaNs"), \
                        np.errstate(divide="raise", invalid="raise"):
                    solve_generalized(*pencil, symmetric_definite=symmetric,
                                      window=window, info=info)
                assert "path" not in info


def test_a_pencil_is_two_bands_or_two_arrays(uuo_wfm_200, uuo_system, uuo_grid_200):
    # one band and one array, in either order: rejected before any path
    # is picked, with or without a window
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    for A, B in ((out.bands["A"], out.B), (out.A, out.bands["B"])):
        for window in (None, bound_window(uuo_system, 15)):
            info = {}
            with pytest.raises(ValueError, match="two interleaved Bands or two dense"):
                solve_generalized(A, B, window=window, info=info)
            assert info == {}


def test_an_interleaved_band_of_odd_order_is_refused():
    with pytest.raises(ValueError, match="even order; this one has order 5"):
        Band(np.ones((3, 5)), interleaved=True)
    assert Band(np.ones((3, 5))).n == 5  # a band that is not interleaved may be odd


# ---------------------------------------------------------- the bound window

def _dense_in_window(A, B, win):
    """The default (LU + dgeev) spectrum, its in-window part and the
    complex values among those."""
    dense = solve_generalized(A, B)
    inside = (dense.real > 0.0) & (dense.real <= win.hi)
    cplx = np.abs(dense.imag) > eigen.IMAG_TOL * np.maximum(np.abs(dense.real), 1.0)
    return dense, int(inside.sum()), int((inside & cplx).sum())


@pytest.mark.parametrize("kwargs", [
    dict(kappa=-2, method="cpg"),
    dict(kappa=-2, method="cpg", n_intervals=1000),
    dict(kappa=2, method="cpg"),
    dict(kappa=-2, method="cpg_fem_tau", nu=1.1),
    dict(kappa=-2, method="cpg", A=294.0, nucleus="extended_uniform", levels=3),
], ids=["flagship", "n1000", "kappa+2", "fem_tau", "extended"])
def test_window_agrees_with_the_dense_path(kwargs, solve_cached):
    res = solve_cached(Z=118.0, **kwargs)
    sys = res.config.physical_system()
    levels = res.config.levels
    assert res.eigen_path == "window"
    assert res.eigen_window["fallback"] is None
    win = bound_window(sys, levels)
    dense, n_inside, n_complex_inside = _dense_in_window(res.system.A, res.system.B, win)
    assert len(res.report.raw) == n_inside == sum(res.eigen_window["slice_counts"])
    assert res.report.n_complex == n_complex_inside == 0
    ref = classify_spectrum(dense, sys, levels=levels)
    got = res.report
    assert got.flags == ref.flags[:len(got.flags)]
    assert len(got.matches) == len(ref.matches) == levels
    for m, r in zip(got.matches, ref.matches):
        assert m.computed == pytest.approx(r.computed, rel=1e-10)
    assert [row[0] for row in solve_rows(got)] == [row[0] for row in solve_rows(ref)]


def _drop_from_finder(monkeypatch, j):
    """Make the window finder lose its j-th value (ascending)."""
    find = eigen._find_window_eigenvalues
    monkeypatch.setattr(eigen, "_find_window_eigenvalues",
                        lambda Ab, Bb, win: np.delete(find(Ab, Bb, win), j))


def test_window_count_catches_the_instilled_galerkin_state(solve_cached, monkeypatch):
    # the galerkin pencil's instilled state sits between levels 13 and 14,
    # away from every closed-form guess: inverse iteration misses it, the
    # finder's parity search finds it, and the nonsymmetric window keeps
    # it.  A finder that drops it must not get past the contour count
    # over its slice
    res = solve_cached(Z=118.0, kappa=-2, method="galerkin")
    bands = res.system.bands
    sys = res.config.physical_system()
    win = bound_window(sys, 15)
    dense = solve_generalized(res.system.A, res.system.B)
    info = {}
    w = solve_generalized(bands["A"], bands["B"], window=win, info=info)
    assert info["path"] == "window" and info["window"]["fallback"] is None
    rep, ref = classify_spectrum(w, sys), classify_spectrum(dense, sys)
    assert rep.flags == ref.flags[:len(rep.flags)]
    assert rep.flags.count(FLAG_INSTILLED) == 1
    _drop_from_finder(monkeypatch, rep.flags.index(FLAG_INSTILLED))
    info = {}
    w = solve_generalized(bands["A"], bands["B"], window=win, info=info)
    assert info["path"] == "lu_dgeev"
    assert info["window"]["fallback"].startswith("slice ")
    np.testing.assert_array_equal(w, dense)


def test_dense_levels_are_kept_when_the_window_cannot_be_certified(solve_cached):
    # at n=60 the levels are off by O(1) from the closed form: the window
    # gives up and the run returns the dense spectrum and rows of before
    res = solve_cached(Z=118.0, kappa=-2, method="cpg", n_intervals=60)
    assert res.eigen_path == "lu_dgeev"
    assert res.eigen_window["fallback"] is not None
    assert res.eigen_window["slice_counts"] is None
    assert res.eigen_window["slice_nodes"] is None
    dense = solve_generalized(res.system.A, res.system.B)
    np.testing.assert_array_equal(res.report.raw, dense)
    ref = classify_spectrum(dense, res.config.physical_system())
    assert solve_rows(res.report) == solve_rows(ref)
    assert res.report.flags == ref.flags


def test_zero_levels_solve_every_eigenvalue(solve_cached):
    res = solve_cached(Z=118.0, kappa=-2, method="cpg", n_intervals=60, levels=0)
    assert res.eigen_path == "lu_dgeev"
    assert res.eigen_window is None
    assert len(res.report.raw) == 118
    assert solve_rows(res.report) == []


_SPURIOUS_GRID = dict(Z=109.0, kappa=1, nu=2.678, eps=7.673956417933814e-6,
                      n_intervals=114, levels=5)


def test_certificate_refuses_a_stabilized_window_that_holds_a_spurious_state(
        solve_cached, monkeypatch):
    # on this coarse grid cpg_fem_tau instills a state between levels 1
    # and 2: inverse iteration finds only the genuine level in its slice,
    # the finder's parity search finds the state, and the window keeps it
    # with the dense solve's rows and flags
    grid = _SPURIOUS_GRID
    res = solve_cached(method="cpg_fem_tau", **grid)
    assert res.eigen_path == "window" and res.eigen_window["fallback"] is None
    sys = res.config.physical_system()
    win = bound_window(sys, grid["levels"])
    dense, n_inside, n_complex_inside = _dense_in_window(res.system.A, res.system.B, win)
    assert len(res.report.raw) == n_inside and n_complex_inside == 0
    rows = solve_rows(res.report)
    assert [r[0] for r in rows] == [1, None, 2, 3, 4, 5]
    assert [r[4] for r in rows] == [FLAG_GENUINE, FLAG_INSTILLED] + [FLAG_GENUINE] * 4
    assert rows[1][1] == pytest.approx(-1090.1616, abs=1e-4)
    ref_rows = solve_rows(classify_spectrum(dense, sys, levels=grid["levels"]))
    assert [(r[0], r[4]) for r in rows] == [(r[0], r[4]) for r in ref_rows]
    for r, q in zip(rows, ref_rows):
        assert r[1] == pytest.approx(q[1], rel=1e-10)
    # plain cpg on the same grid keeps the window, and every row is genuine
    plain = solve_cached(method="cpg", **grid)
    assert plain.eigen_path == "window" and plain.eigen_window["fallback"] is None
    plain_rows = solve_rows(plain.report)
    assert [r[0] for r in plain_rows] == [1, 2, 3, 4, 5]
    assert all(r[4] == FLAG_GENUINE for r in plain_rows)
    # a finder that drops the state: its slice's moments show a second
    # singular value 196x below the first (less than SV_GAP apart), so the
    # window is given up and the dense solve flags the state
    _drop_from_finder(monkeypatch, res.report.flags.index(FLAG_INSTILLED))
    info = {}
    w = solve_generalized(res.system.bands["A"], res.system.bands["B"], window=win,
                          info=info)
    assert info["path"] == "lu_dgeev"
    fallback = info["window"]["fallback"]
    assert fallback.startswith("slice 5 of 9 holds 1 found; ")
    assert "singular values are 1.18e+00, 6.02e-03, " in fallback
    np.testing.assert_array_equal(w, dense)


def test_window_takes_eigenvalues_of_a_block_pencil_only(
        uuo_wfm_200, uuo_system, uuo_grid_200):
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    win = bound_window(uuo_system, 15)
    # both paths take a window: the symmetric one certified by inertia counts
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    info = {}
    solve_generalized(sym.bands["A"], sym.bands["B"], window=win, symmetric_definite=True,
                      info=info)
    assert info["path"] == "inertia" and info["window"]["fallback"] is None
    info = {}
    with pytest.raises(ValueError, match="window= needs a banded"):
        solve_generalized(out.A, out.B, window=win, info=info)  # a dense pencil
    assert info == {}
    with pytest.raises(ValueError, match="window"):
        solve_generalized(out.bands["A"], out.bands["B"], window=BoundWindow(win.hi, ()))


def test_window_record_partitions_the_window(uuo_wfm_200, uuo_system, uuo_grid_200,
                                             monkeypatch):
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    win = bound_window(uuo_system, 15)
    assert len(win.guesses) == 15
    ex = exact_levels(uuo_system, 16)
    assert win.hi - uuo_system.mc2 == pytest.approx(0.5 * (ex[14] + ex[15]), rel=1e-12)
    _forbid_qz(monkeypatch)
    info = {}
    w = solve_generalized(out.bands["A"], out.bands["B"], window=win, info=info)
    rec = info["window"]
    assert info["path"] == "window" and rec["fallback"] is None
    edges = np.array(rec["slice_edges"])
    assert edges[0] == 0.0 and edges[-1] == win.hi
    assert np.all(np.diff(edges) > 0.0)
    counts = [int(np.sum((w.real > a) & (w.real <= b)))
              for a, b in zip(edges[:-1], edges[1:])]
    assert counts == rec["slice_counts"]
    assert max(counts) == 1 and sum(counts) == len(w) == 15
    np.testing.assert_array_equal(w.imag, 0.0)
    # one key order for every outcome (the JSON twin's bytes follow it),
    # and the entries each outcome leaves None: the window path only the
    # fallback, the inertia path its nodes and aspect too, and a window
    # given up every certificate entry
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    inertia, given_up = {}, {}
    solve_generalized(sym.bands["A"], sym.bands["B"], symmetric_definite=True,
                      window=win, info=inertia)
    twice = BoundWindow(hi=win.hi, guesses=win.guesses + (win.guesses[-1] + 1e-3,))
    solve_generalized(out.bands["A"], out.bands["B"], window=twice, info=given_up)
    for got, path, unset in (
            (info, "window", ["fallback"]),
            (inertia, "inertia", ["slice_nodes", "contour_aspect", "fallback"]),
            (given_up, "lu_dgeev", ["slice_edges", "slice_counts", "slice_nodes",
                                    "contour_aspect"])):
        assert got["path"] == path
        assert list(got["window"]) == ["lo", "hi", "slice_edges", "slice_counts",
                                       "slice_nodes", "contour_aspect", "fallback"]
        assert [key for key, v in got["window"].items() if v is None] == unset
        assert got["window"]["lo"] == 0.0 and got["window"]["hi"] == win.hi


_VARIANTS = [dict(Z=Z, I_b=I_b) for Z in (117.0, 118.0, 119.0)
             for I_b in (95.0, 100.0, 105.0)]


@pytest.mark.parametrize("kwargs", _VARIANTS + [
    dict(Z=118.0, n_intervals=200), dict(Z=118.0, n_intervals=2000), dict(Z=50.0, kappa=3),
], ids=[f"Z{v['Z']:g}-Ib{v['I_b']:g}" for v in _VARIANTS] + ["n200", "n2000", "Z50-kappa3"])
def test_slice_nodes_certify_with_fewer_than_the_cap(kwargs, solve_cached):
    # the nine variants of Z and domain end at n=600, the flagship at
    # n=200 and n=2000, and Z=50 kappa=3, whose bottom slice holds nothing
    # but the leak of the negative continuum: each takes the window with
    # fewer contour nodes than the cap on every slice would use
    cfg = RunConfig(**{"kappa": -2, "method": "cpg", **kwargs})
    flagship = cfg == RunConfig(Z=118.0, kappa=-2, method="cpg")
    res = solve_cached(**cfg.as_dict()) if flagship else run_solve(cfg)
    assert res.eigen_path == "window"
    win = res.eigen_window
    nodes = win["slice_nodes"]
    assert len(nodes) == len(win["slice_counts"])
    assert all(2 <= m <= eigen.CONTOUR_NODES_MAX for m in nodes)
    assert sum(nodes) < eigen.CONTOUR_NODES_MAX * len(win["slice_counts"])
    # no slice of these runs reaches past 12 nodes
    assert max(nodes) <= 12
    if flagship or kwargs == dict(Z=118.0, n_intervals=2000):
        assert sum(nodes) <= 115


@settings(max_examples=25, deadline=None, derandomize=True)
@given(Z=st.integers(1, 118), kappa=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       nu=st.floats(1.5, 3.0), eps=st.floats(1e-6, 1e-3),
       n=st.integers(60, 120), method=st.sampled_from(METHODS),
       levels=st.integers(1, 6))
def test_window_paths_keep_the_dense_levels_or_say_why_not(
        Z, kappa, nu, eps, n, method, levels):
    # coarse random grids: a kept window (window or inertia) holds the
    # dense solve's levels and flags, and a window given up says why.
    # Only the dense spectrum of a window given up may warn of complex
    # pairs (that of Z=5, kappa=3, nu=2.04, eps=5.9e-4, n=60 cpg does)
    cfg = RunConfig(Z=float(Z), kappa=kappa, nu=nu, eps=eps, n_intervals=n,
                    method=method, levels=levels)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_solve(cfg)
    win = res.eigen_window
    if res.eigen_path not in ("window", "inertia"):
        assert isinstance(win["fallback"], str) and win["fallback"]
        return
    assert win["fallback"] is None and not caught
    sys = cfg.physical_system()
    dense = solve_generalized(res.system.A, res.system.B,
                              symmetric_definite=res.eigen_path == "inertia")
    ref = classify_spectrum(dense, sys, levels=levels)
    got = res.report
    assert len(got.matches) == len(ref.matches)
    # on the scale of the unshifted value: E - mc^2 cancels the leading
    # digits for light nuclei
    for m, r in zip(got.matches, ref.matches):
        assert abs(m.computed - r.computed) <= 1e-12 * sys.mc2
    inside = eigen._is_real(dense) & (dense.real > 0.0) & (dense.real <= win["hi"] + sys.mc2)
    assert len(got.flags) == int(inside.sum())
    assert got.flags == ref.flags[:len(got.flags)]


def test_z92_kappa_minus1_takes_the_window_with_an_11_node_slice():
    # level 2's slice lies close to level 3 (r/delta = 0.75): it needs 11
    # nodes on its ellipse (17 on its circle), where 12 on the circle left
    # level 3 a filter weight of about 1e-3 and the certificate failed on a
    # spectrum with exactly the 15 levels inside
    res = run_solve(RunConfig(Z=92.0, kappa=-1, method="cpg"))
    assert res.eigen_path == "window"
    win = res.eigen_window
    assert win["fallback"] is None
    assert win["slice_nodes"][4] == 11 and max(win["slice_nodes"]) == 11
    dense = solve_generalized(res.system.A, res.system.B)
    ref = classify_spectrum(dense, res.config.physical_system())
    rows, ref_rows = solve_rows(res.report), solve_rows(ref)
    assert [(r[0], r[4]) for r in rows] == [(r[0], r[4]) for r in ref_rows]
    for r, q in zip(rows, ref_rows):
        assert r[1] == pytest.approx(q[1], rel=1e-10)


@pytest.mark.parametrize("kwargs", [
    dict(Z=119.0, kappa=2, I_b=95.0), dict(Z=119.0, kappa=2, I_b=100.0),
    dict(Z=119.0, kappa=2, I_b=105.0), dict(Z=80.0, kappa=-3),
    dict(Z=81.0, kappa=-1, nu=2.197415589041057, eps=1.4059438169167407e-06,
         n_intervals=108, levels=13),
], ids=["Z119-kappa+2-Ib95", "Z119-kappa+2-Ib100", "Z119-kappa+2-Ib105", "Z80-kappa-3",
        "Z81-kappa-1-unsettled"])
def test_windows_once_given_up_are_kept_with_the_dense_rows(kwargs, solve_cached):
    # on circles over the same slices the first four gave their window up
    # ("slice 1 ... holds 0 found", moment singular values about 1e-3 of
    # the weakest kept); on the flatter ellipses they keep it.  The last
    # was given up when inverse iteration from guess 12 did not settle;
    # the finder's parity search finds that level.  Each keeps the dense
    # solve's rows, with no complex value of the dense spectrum in it
    res = solve_cached(method="cpg", **kwargs)
    assert res.eigen_path == "window" and res.eigen_window["fallback"] is None
    assert res.eigen_window["contour_aspect"] == eigen.CONTOUR_ASPECT
    levels = res.config.levels
    win = bound_window(res.config.physical_system(), levels)
    dense, n_inside, n_complex_inside = _dense_in_window(res.system.A, res.system.B, win)
    assert len(res.report.raw) == n_inside and n_complex_inside == 0
    ref = classify_spectrum(dense, res.config.physical_system(), levels=levels)
    rows, ref_rows = solve_rows(res.report), solve_rows(ref)
    assert len(rows) == levels
    assert [(r[0], r[4]) for r in rows] == [(r[0], r[4]) for r in ref_rows]
    for r, q in zip(rows, ref_rows):
        assert r[1] == pytest.approx(q[1], rel=1e-10)


@pytest.mark.parametrize("kappa", [-2, 2])
@pytest.mark.parametrize("kwargs", _VARIANTS,
                         ids=[f"Z{v['Z']:g}-Ib{v['I_b']:g}" for v in _VARIANTS])
def test_galerkin_window_matches_the_dense_spectrum(kwargs, kappa, solve_cached):
    # the nine variants at n=600: the inertia window returns exactly the dense
    # spectrum's window, its one instilled state included, and
    # classification gives the dense path's rows and flags
    cfg = RunConfig(kappa=kappa, method="galerkin", **kwargs)
    flagship = cfg == RunConfig(Z=118.0, kappa=-2, method="galerkin")
    res = solve_cached(**cfg.as_dict()) if flagship else run_solve(cfg)
    assert res.eigen_path == "inertia"
    win = res.eigen_window
    assert win["fallback"] is None and win["slice_nodes"] is None
    assert win["slice_edges"] == [win["lo"], win["hi"]]
    assert win["slice_counts"] == [len(res.report.raw)]
    sys = cfg.physical_system()
    dense = solve_generalized(res.system.A, res.system.B, symmetric_definite=True).real
    inside = np.sort(dense[(dense > 0.0) & (dense <= bound_window(sys, 15).hi)])
    np.testing.assert_allclose(res.report.raw.real, inside, rtol=1e-10, atol=0)
    ref = classify_spectrum(dense, sys)
    assert res.report.flags == ref.flags[:len(res.report.flags)]
    assert res.report.flags.count(FLAG_INSTILLED) == 1
    rows, ref_rows = solve_rows(res.report), solve_rows(ref)
    assert [(r[0], r[4]) for r in rows] == [(r[0], r[4]) for r in ref_rows]
    for r, q in zip(rows, ref_rows):
        assert r[1] == pytest.approx(q[1], rel=1e-10)


@pytest.mark.parametrize("method,path", [("cpg", "window"), ("galerkin", "inertia")])
def test_window_paths_never_densify(method, path, monkeypatch):
    monkeypatch.setattr(Band, "dense", _refuse_dense)
    res = run_solve(RunConfig(Z=118.0, kappa=-2, method=method))
    assert res.eigen_path == path
    assert len(res.report.matches) == 15


def test_a_large_window_solve_stays_small():
    # the peak Python-traced allocation of a whole n=2000 run_solve: for
    # cpg 896 MB with the weak form and the pencil stored dense, 7.9 MB
    # banded; for galerkin 6.1 MB banded, where the densified pencil
    # alone would be 128 MB
    for method, path in (("cpg", "window"), ("galerkin", "inertia")):
        cfg = RunConfig(Z=118.0, kappa=-2, method=method, n_intervals=2000)
        tracemalloc.start()
        try:
            res = run_solve(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.eigen_path == path, method
        assert peak <= 32e6, method


def test_coarse_galerkin_window_falls_back_to_eigh(solve_cached):
    # at n=60 the levels are off by O(1): a guess is matched beyond the
    # window edge, and the run returns the dense spectrum and its rows
    res = solve_cached(Z=118.0, kappa=-2, method="galerkin", n_intervals=60)
    assert res.eigen_path == "eigh"
    win = res.eigen_window
    assert "window edge" in win["fallback"]
    assert win["slice_edges"] is win["slice_counts"] is win["slice_nodes"] is None
    dense = solve_generalized(res.system.A, res.system.B, symmetric_definite=True)
    np.testing.assert_array_equal(res.report.raw, dense)
    ref = classify_spectrum(dense, res.config.physical_system())
    assert solve_rows(res.report) == solve_rows(ref)
    assert res.report.flags == ref.flags


def _garbage_above(sym):
    """galerkin's A with random values on its nonzero pattern strictly
    above the block-order diagonal."""
    upper = np.triu(sym.A != 0.0, 1)
    return sym.A + upper * np.random.default_rng(31).normal(size=sym.A.shape)


def test_inertia_window_reads_the_block_order_lower_triangle(uuo_wfm_200, uuo_system):
    # galerkin's A is symmetric only up to quadrature error; both
    # symmetric paths read the lower triangle in block order, so garbage
    # in the strict upper one moves neither.  In the interleaved order
    # the pair (G_a, F_b), a > b, lies below the diagonal but above it
    # in block order.
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    win = bound_window(uuo_system, 15)
    garbage = _garbage_above(sym)
    got = {}
    for name, A in (("clean", sym.A), ("garbage", garbage)):
        info = {}
        got[name] = solve_generalized(*band_from_dense(A, sym.B, interleaved=True),
                                      symmetric_definite=True, window=win, info=info)
        assert info["path"] == "inertia"
    np.testing.assert_array_equal(got["garbage"], got["clean"])
    dense = solve_generalized(garbage, sym.B, symmetric_definite=True).real
    inside = np.sort(dense[(dense > 0.0) & (dense <= win.hi)])
    np.testing.assert_allclose(got["garbage"].real, inside, rtol=1e-12, atol=0)


def test_lower_bands_hold_the_block_order_lower_triangle(uuo_wfm_200, uuo_system):
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    n = sym.A.shape[0]
    d = 1.0 / np.sqrt(np.diag(sym.B))
    Ab, Bb, k = eigen._symmetric_bands(sym.bands["A"], sym.bands["B"], d)
    assert Ab.flags.f_contiguous and Bb.flags.f_contiguous
    Al, Bl = Ab[2 * k:], Bb[2 * k:]
    assert k == 9 and Al.shape == Bl.shape == (k + 1, n)
    perm = np.concatenate([np.arange(n // 2)[:, None],
                           np.arange(n // 2, n)[:, None]], axis=1).ravel()
    for M, Ml in ((sym.A, Al), (sym.B, Bl)):
        low = np.tril(eigen._dense(M, d))
        dense = (low + np.tril(low, -1).T)[np.ix_(perm, perm)]
        i, j = np.nonzero(np.tril(dense))
        np.testing.assert_array_equal(Ml[i - j, j], dense[i, j])
        assert np.count_nonzero(Ml) == len(i)


def test_symmetric_bands_equal_the_mirrored_lower_bands_bit_for_bit(
        solve_cached, uuo_wfm_200, uuo_system):
    # one pair in the factor layout, both triangles filled in one pass,
    # against the lower bands cut to the outermost nonzero diagonal and
    # mirrored one diagonal at a time: on the flagship pencil, and on one
    # with garbage above the block-order diagonal, which neither reads
    flagship = solve_cached(Z=118.0, kappa=-2, method="galerkin").system.bands
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    garbage = band_from_dense(_garbage_above(sym), sym.B, interleaved=True)
    for A, B in ((flagship["A"], flagship["B"]), garbage):
        d = 1.0 / np.sqrt(B.diagonal())
        Ab, Bb, k = eigen._symmetric_bands(A, B, d)
        rAb, rBb, rk = symmetric_bands(A, B, d)
        assert k == rk == A.k == 9
        assert Ab.flags.f_contiguous and Bb.flags.f_contiguous
        for got, ref in ((Ab, rAb), (Bb, rBb)):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("method", METHODS)
def test_window_bands_take_the_half_bandwidth_of_the_assembled_pencil(
        method, uuo_wfm_200, uuo_system, uuo_grid_200):
    # assembled bands are tight: their outermost diagonal holds a nonzero,
    # so the windows read k off the pencil without trimming it
    out = assemble_system(uuo_wfm_200, uuo_system, method, grid=uuo_grid_200)
    A, B = out.bands["A"], out.bands["B"]
    assert A.k == B.k == bandwidth(A, B)
    d = 1.0 / np.sqrt(B.diagonal())
    assert eigen._interleaved_bands(A, B, d)[2] == A.k
    assert eigen._symmetric_bands(A, B, d)[2] == A.k


def test_non_positive_definite_mass_falls_back_to_eigh_and_raises(uuo_wfm_200,
                                                                   uuo_system):
    # a positive diagonal, but no Cholesky factor: dpbtrf reports it, and
    # the dense path raises as it always did
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    B = sym.B.copy()
    B[0, 1] = B[1, 0] = 2.0 * np.sqrt(B[0, 0] * B[1, 1])
    info = {}
    with pytest.raises(np.linalg.LinAlgError):
        solve_generalized(*band_from_dense(sym.A, B, interleaved=True),
                          symmetric_definite=True, window=bound_window(uuo_system, 15),
                          info=info)
    assert info["path"] == "eigh"
    assert "not positive definite" in info["window"]["fallback"]


def _dense_lower(Ml):
    """The dense symmetric matrix whose lower band is Ml, (k + 1, n)."""
    k, n = Ml.shape[0] - 1, Ml.shape[1]
    M = np.zeros((n, n))
    for o in range(k + 1):
        M[np.arange(o, n), np.arange(n - o)] = Ml[o, :n - o]
    return np.tril(M) + np.tril(M, -1).T


def test_inertia_counts_match_eigvalsh_on_the_galerkin_pencil(uuo_wfm_200, uuo_system):
    # d(A - s B)d at 0, at hi and 1e-9 (relative) on either side of each
    # eigenvalue in the window: the block LDL^T counts the negative
    # eigenvalues eigvalsh finds, which count the eigenvalues below s
    sym = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    win = bound_window(uuo_system, 15)
    d = 1.0 / np.sqrt(np.diag(sym.B))
    Ab, Bb, k = eigen._symmetric_bands(sym.bands["A"], sym.bands["B"], d)
    Al, Bl = Ab[2 * k:], Bb[2 * k:]
    lam = solve_generalized(sym.A, sym.B, symmetric_definite=True).real
    inside = lam[(lam > 0.0) & (lam <= win.hi)]
    assert len(inside) >= 15
    shifts = np.concatenate([[0.0, win.hi], inside * (1.0 - 1e-9), inside * (1.0 + 1e-9)])
    Ml = Al - shifts[:, None, None] * Bl
    counts = eigen._negative_counts(Ml)
    ref = [int(np.sum(np.linalg.eigvalsh(_dense_lower(M)) < 0.0)) for M in Ml]
    np.testing.assert_array_equal(counts, ref)
    np.testing.assert_array_equal(counts, [np.sum(lam < s) for s in shifts])
    assert counts[1] - counts[0] == len(inside)


@pytest.mark.parametrize("n,k", [(50, 3), (61, 4), (5, 3), (9, 9), (7, 0)])
def test_inertia_counts_match_eigvalsh_on_random_banded_pencils(n, k):
    # n a multiple of k or not (the last block is padded), n < k, and a
    # diagonal pencil (1 x 1 blocks)
    rng = np.random.default_rng(41 + n)
    Al, Bl = rng.normal(size=(k + 1, n)), 0.1 * rng.normal(size=(k + 1, n))
    Bl[0] = 2.0 * k + rng.uniform(size=n)  # diagonally dominant: B is SPD
    for o in range(k + 1):
        Al[o, n - o:] = Bl[o, n - o:] = 0.0
    A, B = _dense_lower(Al), _dense_lower(Bl)
    lam = sla.eigh(A, B, eigvals_only=True)
    shifts = np.concatenate([[lam[0] - 1.0, lam[-1] + 1.0, 0.0],
                             lam * (1.0 - 1e-9), lam * (1.0 + 1e-9)])
    Ml = Al - shifts[:, None, None] * Bl
    counts = eigen._negative_counts(Ml)
    ref = [int(np.sum(np.linalg.eigvalsh(_dense_lower(M)) < 0.0)) for M in Ml]
    np.testing.assert_array_equal(counts, ref)
    np.testing.assert_array_equal(counts, [np.sum(lam < s) for s in shifts])


def test_a_singular_schur_complement_gives_no_count():
    Ml = np.zeros((1, 3, 7))
    Ml[0, 0] = np.arange(7.0) - 3.0  # diag(-3, ..., 3): the fourth pivot is 0
    assert eigen._negative_counts(Ml) is None
    Ml[0, 0, 3] = 1e-3
    np.testing.assert_array_equal(eigen._negative_counts(Ml), [3])


def test_a_window_missing_an_eigenvalue_falls_back_to_eigh(solve_cached, monkeypatch):
    # a finder that drops the instilled state: the matcher still pairs
    # every guess, but the inertia count of the window is one more than
    # what was found, and the run takes the dense spectrum
    res = solve_cached(Z=118.0, kappa=-2, method="galerkin")
    assert res.eigen_path == "inertia"
    _drop_from_finder(monkeypatch, res.report.flags.index(FLAG_INSTILLED))
    bands = res.system.bands
    info = {}
    w = solve_generalized(bands["A"], bands["B"], symmetric_definite=True,
                          window=bound_window(res.config.physical_system(), 15), info=info)
    assert info["path"] == "eigh"
    rec = info["window"]
    assert rec["fallback"] == ("the inertia count of the window is 16, but 15 distinct "
                               "eigenvalues were found")
    assert rec["slice_edges"] is rec["slice_counts"] is rec["slice_nodes"] is None
    np.testing.assert_array_equal(
        w, solve_generalized(res.system.A, res.system.B, symmetric_definite=True))


def test_a_singular_schur_complement_falls_back_to_eigh(solve_cached, monkeypatch):
    # an inertia count with no answer (see
    # test_a_singular_schur_complement_gives_no_count) gives the flagship
    # galerkin window up, and the run takes the dense spectrum
    res = solve_cached(Z=118.0, kappa=-2, method="galerkin")
    assert res.eigen_path == "inertia"
    monkeypatch.setattr(eigen, "_negative_counts", lambda Ml: None)
    bands = res.system.bands
    info = {}
    w = solve_generalized(bands["A"], bands["B"], symmetric_definite=True,
                          window=bound_window(res.config.physical_system(), 15), info=info)
    assert info["path"] == "eigh"
    rec = info["window"]
    assert rec["fallback"] == ("a Schur complement of d(A - s B)d, s = 0 or hi, is "
                               "numerically singular")
    assert [rec[key] for key in ("slice_edges", "slice_counts", "slice_nodes",
                                 "contour_aspect")] == [None] * 4
    np.testing.assert_array_equal(
        w, solve_generalized(res.system.A, res.system.B, symmetric_definite=True))


def test_the_galerkin_window_factors_as_often_at_any_n(monkeypatch):
    # the flagship galerkin window: inverse iterations and parity
    # factorizations do not grow with n, and no dense reduction is bound
    calls, names = Counter(), set()
    factor, lapack = eigen._factor_band, eigen._lapack

    def counted(*args):
        calls[n] += 1
        return factor(*args)

    def bound(name):
        names.add(name)
        return lapack(name)

    monkeypatch.setattr(eigen, "_factor_band", counted)
    monkeypatch.setattr(eigen, "_lapack", bound)
    for n in (600, 2000):
        res = run_solve(RunConfig(Z=118.0, kappa=-2, method="galerkin", n_intervals=n))
        assert res.eigen_path == "inertia" and res.eigen_window["slice_counts"] == [16]
    assert calls[600] == calls[2000] > 0
    assert "dsbgvx" not in names and "dpbtrf" in names


@pytest.mark.parametrize("method,n,real_max", [
    ("cpg", 600, 17), ("cpg", 2000, 17), ("galerkin", 600, 21)])
def test_no_window_shift_is_factored_twice(method, n, real_max, monkeypatch):
    # the finder reads each guess's parity off its inverse iteration's LU
    # and factors only 0 and hi besides (and the galerkin window's
    # instilled state costs a few more); the contour takes one complex
    # LU per node
    shifts = {False: [], True: []}
    factor = eigen._factor_band

    def spy(Ab, Bb, z, ab):
        shifts[np.iscomplexobj(ab)].append(z)
        return factor(Ab, Bb, z, ab)

    monkeypatch.setattr(eigen, "_factor_band", spy)
    res = run_solve(RunConfig(Z=118.0, kappa=-2, method=method, n_intervals=n))
    assert res.eigen_path == ("window" if method == "cpg" else "inertia")
    real, cplx = shifts[False], shifts[True]
    assert len(set(real)) == len(real) <= real_max
    assert len(set(cplx)) == len(cplx) == sum(res.eigen_window["slice_nodes"] or [0])


@pytest.mark.parametrize("k", range(1, 10))
def test_band_matvec_matches_the_diagonal_loop(k):
    # the same products, added in the same order: equal bit for bit
    rng = np.random.default_rng(k)
    n = int(rng.integers(2 * k + 1, 200))
    Mb = np.zeros((3 * k + 1, n), order="F")  # the factor layout
    Mb[k:] = rng.standard_normal((2 * k + 1, n)) * 10.0 ** rng.uniform(-6, 6, (2 * k + 1, n))
    for x in (rng.standard_normal(n), rng.standard_normal((n, eigen.PROBES))):
        y = eigen._band_matvec(np.ascontiguousarray(Mb[k:]), x)
        assert y.shape == x.shape
        np.testing.assert_array_equal(y, band_matvec(Mb[k:], k, x))


def test_band_matvec_matches_the_diagonal_loop_on_the_flagship_band(solve_cached):
    res = solve_cached(Z=118.0, kappa=-2, method="cpg")
    bands = res.system.bands
    d = 1.0 / np.sqrt(bands["B"].diagonal())
    Ab, Bb, k = eigen._interleaved_bands(bands["A"], bands["B"], d)
    rng = np.random.default_rng(41)
    for Mb in (Ab, Bb):
        for x in (rng.standard_normal(Mb.shape[1]),
                  rng.standard_normal((Mb.shape[1], eigen.PROBES))):
            np.testing.assert_array_equal(
                eigen._band_matvec(np.ascontiguousarray(Mb[k:]), x), band_matvec(Mb[k:], k, x))


def test_contour_nodes_grow_with_the_ratio_up_to_the_cap():
    ratios = np.linspace(0.0, 1.5, 301)
    nodes = [eigen._contour_nodes(q) for q in ratios]
    assert np.all(np.diff(nodes) >= 0)
    assert nodes[0] == 2 and max(nodes) == eigen.CONTOUR_NODES_MAX
    assert eigen._contour_nodes(1.0) == eigen.CONTOUR_NODES_MAX
    # the quadrature the count stands for: the trapezoid filter on the
    # ellipse over [-1, 1], summed directly at the nearest outside level,
    # 1 / ratio from the centre on either side.  N nodes bring its weight
    # to LEAKAGE and N - 1 do not
    beta = eigen.CONTOUR_ASPECT

    def weight(ratio, m):
        return max(abs(ellipse_filter(side / ratio, 0.0, 1.0, beta, m)) for side in (-1, 1))

    for q, m in zip(ratios[1:], nodes[1:]):
        if m < eigen.CONTOUR_NODES_MAX:
            assert weight(q, m) <= eigen.LEAKAGE
            assert m == 2 or weight(q, m - 1) > eigen.LEAKAGE
    assert eigen._contour_nodes(0.5) == 5
    assert weight(0.5, 5) == pytest.approx(9.1e-5, rel=1e-2)
    assert weight(0.5, 4) == pytest.approx(5.9e-4, rel=1e-2)


def test_slice_moments_sum_the_trapezoid_filter_on_the_ellipse(monkeypatch):
    # a diagonal pencil (half-bandwidth 0, B = I) probed by V = I: the
    # moment over a slice is diag(filter(lam)), so its singular values are
    # the filter weights that the directly summed filter gives
    lam = np.array([0.05, 0.5, 0.97, 1.1, 1.6, 3.0, -0.4])
    a, b, m, beta = 0.0, 1.0, 5, eigen.CONTOUR_ASPECT
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    nodes = []
    factor = eigen._factor_band

    def spy(Ab, Bb, z, ab):
        nodes.append(z)
        return factor(Ab, Bb, z, ab)

    monkeypatch.setattr(eigen, "_factor_band", spy)
    s = eigen._moment_singular_values(np.asfortranarray(lam[None, :]),
                                      np.ones((1, len(lam)), order="F"),
                                      np.eye(len(lam), dtype=complex, order="F"), a, b, m)
    ref = sorted((abs(ellipse_filter(x, c, r, beta, m)) for x in lam), reverse=True)
    np.testing.assert_allclose(s, ref, rtol=1e-12, atol=1e-15)
    assert s[2] > 0.5 > s[3]  # the three inside and the four outside
    # the nodes lie on the upper half of the ellipse with semi-axes r along
    # the real axis and beta r across it, centred on the slice: it meets
    # the real axis at both slice edges, so every real point of the slice
    # lies inside the contour
    z = np.array(nodes)
    assert len(z) == m and np.all(z.imag > 0.0)
    np.testing.assert_allclose(((z.real - c) / r) ** 2 + (z.imag / (beta * r)) ** 2, 1.0,
                               rtol=1e-14)
    assert c - r == a and c + r == b


def test_slice_nodes_follow_the_nearest_outside_level():
    found = np.array([4.0, 6.0, 7.0])
    hi = 7.2
    edges = eigen._slice_edges(found, hi)
    np.testing.assert_allclose(edges, [0.0, 1.0, 3.0, 5.0, 6.5, 7.2], rtol=0, atol=1e-15)
    # radius over the distance from the centre to the nearest found level
    # outside: 0.5/3.5, 1/2, 1/2, 0.75/1.25, and for the top slice 0.35/0.55,
    # from 2 hi - 7 = 7.4 above it (6 below it would give 0.35/0.85, 5 nodes)
    assert eigen._slice_nodes(edges, found, BoundWindow(hi, ()), 1000) == [3, 5, 5, 7, 8]
    # 1000 eigenvalues at or below -3 together: the bottom slice, its
    # centre 7 half-widths above -3, needs 4 nodes to weigh them down to
    # LEAKAGE; the others ask no more than their nearest level does
    win = BoundWindow(hi, (), continuum=-3.0)
    assert eigen._slice_nodes(edges, found, win, 1000) == [4, 5, 5, 7, 8]


def test_contour_nodes_factor_in_one_shared_buffer(uuo_wfm_200, uuo_system,
                                                   uuo_grid_200):
    # the ctypes gbtrf and gbtrs agree bit for bit with scipy.linalg.lapack's
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    d = 1.0 / np.sqrt(np.diag(out.B))
    Ab, Bb, k = eigen._interleaved_bands(out.bands["A"], out.bands["B"], d)
    assert Ab.flags.f_contiguous and Bb.flags.f_contiguous
    n = Ab.shape[1]
    # entries of the band array outside the matrix are never read
    i = np.arange(n)[None, :] + np.arange(3 * k + 1)[:, None] - 2 * k
    inside = (i >= 0) & (i < n)
    rhs = np.random.default_rng(37).normal(size=(n, eigen.PROBES))
    g = bound_window(uuo_system, 15).guesses
    for dtype, name in ((complex, "zgb"), (float, "dgb")):
        # a buffer full of NaN: the fill-in rows must be cleared by gbtrf
        nan = complex(np.nan, np.nan) if dtype is complex else np.nan
        ab = np.full((3 * k + 1, n), nan, dtype=dtype, order="F")
        B = np.asfortranarray(rhs, dtype=dtype)
        for z in (complex(g[0], 50.0), complex(g[3], -2.0), complex(g[9], 1e-3)):
            z = z if dtype is complex else z.real
            piv, info = eigen._factor_band(Ab, Bb, z, ab)
            assert info == 0
            fresh = np.zeros(ab.shape, dtype=dtype, order="F")
            fresh.real[k:] = z.real * Bb[k:] - Ab[k:]
            if dtype is complex:
                fresh.imag[k:] = z.imag * Bb[k:]
            ref_lu, ref_piv, ref_info = getattr(sla.lapack, name + "trf")(fresh, k, k)
            assert ref_info == 0
            np.testing.assert_array_equal(ab[inside], ref_lu[inside])
            np.testing.assert_array_equal(piv, ref_piv + 1)  # f2py counts from 0
            X = B.copy(order="F")
            assert eigen._call(name + "trs", b"N", n, k, k, X.shape[1], ab, 3 * k + 1,
                               piv, X, n) == 0
            ref_X, _ = getattr(sla.lapack, name + "trs")(ref_lu, k, k, B, ref_piv)
            np.testing.assert_array_equal(X, ref_X)


def test_slice_nodes_count_the_complex_lus_in_one_buffer(uuo_wfm_200, uuo_system,
                                                          uuo_grid_200, monkeypatch):
    # one complex LU per contour node, in one buffer per slice
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    buffers = []
    factor = eigen._factor_band

    def spy(Ab, Bb, z, ab):
        if np.iscomplexobj(ab):
            buffers.append(ab)
        return factor(Ab, Bb, z, ab)

    monkeypatch.setattr(eigen, "_factor_band", spy)
    info = {}
    solve_generalized(out.bands["A"], out.bands["B"], window=bound_window(uuo_system, 15),
                      info=info)
    assert info["path"] == "window"
    nodes = info["window"]["slice_nodes"]
    assert len(buffers) == sum(nodes)
    # the list keeps every buffer alive, so no id is reused
    uses = Counter(id(b) for b in buffers)
    assert sorted(uses.values()) == sorted(nodes)


@pytest.mark.parametrize("kwargs", [
    dict(Z=118.0, kappa=-2, method="cpg"),
    dict(Z=118.0, kappa=-2, method="cpg_fem_tau", nu=1.1),
    dict(Z=118.0, kappa=2, method="cpg"),
    dict(_SPURIOUS_GRID, method="cpg_fem_tau"),
    dict(Z=118.0, kappa=-2, method="cpg", n_intervals=60),
], ids=["flagship", "fem_tau", "kappa+2", "Z109-spurious", "n60"])
def test_pooled_window_matches_the_serial_oracle(kwargs, solve_cached):
    # eigenvalues and record bit-identical to the serial f2py slices; the
    # Z109 window keeps its instilled state (see
    # test_certificate_refuses_a_stabilized_window_that_holds_a_spurious_state),
    # and n60 gives the window up at the matcher
    res = solve_cached(**kwargs)
    A, B = res.system.bands["A"], res.system.bands["B"]
    win = bound_window(res.config.physical_system(), res.config.levels)
    w, rec = serial_window(A, B, win)
    if w is None:
        # run_solve's record is shifted by -mc^2; the reason is not
        assert res.eigen_path == "lu_dgeev"
        assert res.eigen_window["fallback"] == rec["fallback"] and rec["fallback"]
    else:
        info = {}
        got = solve_generalized(A, B, window=win, info=info)
        assert info == {"path": "window", "window": rec}
        assert got.tobytes() == w.tobytes()


def test_the_first_failing_slice_is_named(uuo_wfm_200, uuo_system, uuo_grid_200,
                                          monkeypatch):
    # singular nodes in slices 3 and 6, slice 3 the slower to fail: the
    # fallback names slice 3, as the serial loop did
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    win = bound_window(uuo_system, 15)
    info = {}
    solve_generalized(out.bands["A"], out.bands["B"], window=win, info=info)
    edges = info["window"]["slice_edges"]
    factor = eigen._factor_band

    def singular_in_3_and_6(Ab, Bb, z, ab):
        piece = int(np.searchsorted(edges, z.real)) if np.iscomplexobj(ab) else 0
        if piece == 3:
            time.sleep(0.05)
        return (np.zeros(Ab.shape[1], np.intc), 1) if piece in (3, 6) else \
            factor(Ab, Bb, z, ab)

    monkeypatch.setattr(eigen, "_factor_band", singular_in_3_and_6)
    info = {}
    solve_generalized(out.bands["A"], out.bands["B"], window=win, info=info)
    assert info["path"] == "lu_dgeev"
    assert info["window"]["fallback"] == "a contour node of slice 3 is singular"


def test_an_exception_in_a_worker_propagates(uuo_wfm_200, uuo_system, uuo_grid_200,
                                             monkeypatch):
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    threads = []

    class Broken(RuntimeError):
        pass

    def broken(*args):
        threads.append(threading.current_thread())
        raise Broken("slice moment failed")

    monkeypatch.setattr(eigen, "_moment_singular_values", broken)
    info = {}
    with pytest.raises(Broken, match="slice moment failed"):
        solve_generalized(out.bands["A"], out.bands["B"],
                          window=bound_window(uuo_system, 15), info=info)
    assert threads and threading.main_thread() not in threads
    assert "path" not in info


def test_more_workers_than_cores_keep_the_serial_result(uuo_wfm_200, uuo_system,
                                                        uuo_grid_200, monkeypatch):
    # eight workers on a short switch interval: the shared bands and probe
    # columns are read only, so every result stays bit-identical
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    A, B = out.bands["A"], out.bands["B"]
    win = bound_window(uuo_system, 15)
    ref, ref_rec = serial_window(A, B, win)
    threads = set()
    factor = eigen._factor_band

    def spy(*args):
        threads.add(threading.current_thread())
        return factor(*args)

    monkeypatch.setattr(eigen, "_factor_band", spy)
    monkeypatch.setattr(eigen.os, "sched_getaffinity", lambda pid: set(range(8)))
    got = []
    interval = sys.getswitchinterval()
    runner = ThreadPoolExecutor(1)
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            info = {}
            w = runner.submit(solve_generalized, A, B, window=win, info=info)
            got.append((w.result(timeout=60), info))
    finally:
        sys.setswitchinterval(interval)
        runner.shutdown(wait=False)
    for w, info in got:
        assert info["path"] == "window" and info["window"] == ref_rec
        assert w.tobytes() == ref.tobytes()
    assert len(threads) > 1 and threading.main_thread() not in threads


def test_window_with_a_nonpositive_mass_diagonal_takes_qz():
    A, B = random_pencil(np.random.default_rng(29), 6)
    B[3, 3] = 0.0
    win = BoundWindow(hi=10.0, guesses=(0.0,))
    info = {}
    with np.errstate(divide="raise", invalid="raise"):
        w = solve_generalized(*band_from_dense(A, B, interleaved=True), window=win,
                              info=info)
    np.testing.assert_array_equal(w, sla.eig(A, B)[0])
    assert info["path"] == "qz"
    assert info["window"]["fallback"] == "a diagonal entry of B is not positive"


def test_interleaved_bands_hold_the_whole_pencil(uuo_wfm_200, uuo_system, uuo_grid_200):
    out = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    n = out.A.shape[0]
    d = 1.0 / np.sqrt(np.diag(out.B))
    Ab, Bb, k = eigen._interleaved_bands(out.bands["A"], out.bands["B"], d)
    assert k == 9  # blocks of half-bandwidth 4, interleaved
    perm = np.concatenate([np.arange(n // 2)[:, None],
                           np.arange(n // 2, n)[:, None]], axis=1).ravel()
    x = np.random.default_rng(23).normal(size=(n, 3))
    for M, Mb in ((out.A, Ab), (out.B, Bb)):
        dense = (d[:, None] * M * d[None, :])[np.ix_(perm, perm)]
        np.testing.assert_allclose(eigen._band_matvec(np.ascontiguousarray(Mb[k:]), x),
                                   dense @ x, rtol=0, atol=1e-12 * np.abs(dense).max())
        # the factor layout: entry (i, j) in row 2k + i - j, k zero rows on top
        assert Mb.shape == (3 * k + 1, n) and Mb.flags.f_contiguous and not Mb[:k].any()
        i, j = np.nonzero(dense)
        np.testing.assert_allclose(Mb[2 * k + i - j, j], dense[i, j], rtol=1e-15, atol=0)


def _cpg_200(wfm, system, grid):
    out = assemble_system(wfm, system, "cpg", grid=grid)
    win = bound_window(system, 15)
    return out, win, solve_generalized(out.bands["A"], out.bands["B"], window=win).real


def test_a_level_matched_beyond_the_window_edge_falls_back(
        uuo_wfm_200, uuo_system, uuo_grid_200):
    # the last guess just above its level and the edge closer still: a
    # value above the window could win that match in the dense spectrum
    out, win, w = _cpg_200(uuo_wfm_200, uuo_system, uuo_grid_200)
    g = w[-1] + 0.1
    edgy = BoundWindow(hi=g + 0.025, guesses=win.guesses[:-1] + (g,))
    info = {}
    got = solve_generalized(out.bands["A"], out.bands["B"], window=edgy, info=info)
    assert info["path"] == "lu_dgeev"
    assert "window edge" in info["window"]["fallback"]
    np.testing.assert_array_equal(got, solve_generalized(out.A, out.B))


def test_two_guesses_on_one_eigenvalue_fall_back(uuo_wfm_200, uuo_system, uuo_grid_200):
    # a 16th guess beside the 15th: both settle on level 15, which is
    # found once, so 16 guesses meet 15 values and the matcher refuses
    out, win, w = _cpg_200(uuo_wfm_200, uuo_system, uuo_grid_200)
    twice = BoundWindow(hi=win.hi,
                        guesses=win.guesses + (win.guesses[-1] + 1e-3,))
    info = {}
    got = solve_generalized(out.bands["A"], out.bands["B"], window=twice, info=info)
    assert info["path"] == "lu_dgeev"
    assert "a guess has no match" in info["window"]["fallback"]
    np.testing.assert_array_equal(got, solve_generalized(out.A, out.B))


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
    assert len(rep.raw) - rep.n_complex == 3  # the 1e-9 ripple at zero survives
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


def test_fewer_values_than_levels_match_the_lowest_levels():
    ex = exact_levels(HYDROGEN, 3)
    rep = classify_spectrum(unshift(HYDROGEN, ex[:2]), HYDROGEN, levels=3)
    assert [m.level for m in rep.matches] == [1, 2]
    assert rep.flags == [FLAG_GENUINE] * 2


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
