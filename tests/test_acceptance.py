"""End-to-end acceptance suite.

Each test pins one production-level guarantee against frozen reference
values: the closed-form ladder, the stabilized flagship solve, spuriosity
flagging and removal, the stability-parameter oracle, the shape-function
invariants, the eigensolver contracts, and the resolution study.
"""
import time
from types import SimpleNamespace

import numpy as np
import pytest

from diracloud.assembly import assemble_system, stability_tau, stability_tau_fem
from diracloud.cloud import evaluate_shapes
from diracloud.eigen import (FLAG_COINCIDENCE, FLAG_INSTILLED, convergence_rate,
                             solve_generalized)
from diracloud.enrichment import BASES
from diracloud.physics import PhysicalSystem, exact_eigenvalue

from _oracles import (banded_weak_form, charpoly_eigenvalues, max_pairing_distance,
                      random_pencil)


# ------------------------------------------------------------ 1: closed form

# reference: point-nucleus hydrogen ladder, kappa = -1, shifted frame
REF_POINT_LEVELS = (-0.50000665659, -0.12500208018, -0.05555629517,
                    -0.03125033803, -0.02000018105)


def test_exact_formula_fidelity():
    sys = PhysicalSystem(Z=1.0, kappa=-1)
    for nr, ref in enumerate(REF_POINT_LEVELS, start=1):
        assert exact_eigenvalue(sys, nr) == pytest.approx(ref, abs=1e-8)
    timings = []
    for _ in range(7):
        t0 = time.perf_counter()
        for nr in range(1, 6):
            exact_eigenvalue(sys, nr)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 1e-3


# ------------------------------------------------- 2: stabilized level table

# reference: Z=118, kappa=-2, point nucleus, n=600, nu=2.2, eps=1e-5,
# stabilized rows; first fifteen shifted levels
REF_STABILIZED_LEVELS = (
    -1829.6283, -826.77147, -463.12471, -294.45915, -203.25115,
    -148.56324, -113.25808, -89.168323, -72.008947, -59.359134,
    -49.768490, -42.325523, -36.434277, -31.691878, -27.818109,
)


def test_stabilized_flagship_levels(solve_cached):
    res = solve_cached(Z=118.0, kappa=-2, method="cpg")
    got = {m.level: m.computed for m in res.report.matches}
    bad = []
    for lv, ref in enumerate(REF_STABILIZED_LEVELS, start=1):
        rel = abs(got[lv] - ref) / abs(ref)
        if rel > 1e-4:
            bad.append(f"level {lv:2d}: computed {got[lv]:.8f} "
                       f"reference {ref}  rel {rel:.3e}")
    assert not bad, ("levels beyond 1e-4 of the reference column:\n"
                     + "\n".join(bad))


# --------------------------------------- 3: spuriosity flags and their removal

def test_spuriosity_flags_and_removal(solve_cached):
    gal_neg = solve_cached(Z=118.0, kappa=-2, method="galerkin")
    gal_pos = solve_cached(Z=118.0, kappa=2, method="galerkin")
    cpg_neg = solve_cached(Z=118.0, kappa=-2, method="cpg")
    cpg_pos = solve_cached(Z=118.0, kappa=2, method="cpg")

    # (b) the plain rows instill a state strictly between genuine levels
    # 13 and 14 for kappa = -2 (placement asserted, never the magnitude:
    # spurious positions move with the discretization)
    rep = gal_neg.report
    lv = {m.level: m.computed for m in rep.matches}
    instilled = [v for v, f in zip(rep.positive_shifted, rep.flags)
                 if f == FLAG_INSTILLED]
    in_gap = [v for v in instilled if lv[13] < v < lv[14]]
    assert len(in_gap) == 1, (
        f"expected one instilled state between level 13 ({lv[13]:.4f}) and "
        f"level 14 ({lv[14]:.4f}); instilled set: {instilled}")

    # the mirror-image bottom state exists for kappa = +2: the plain method
    # puts its lowest shifted value well below the genuine ground level
    rep = gal_pos.report
    assert rep.positive_shifted[0] < rep.matches[0].computed

    # switching only the method clears every spuriosity flag
    for res in (cpg_neg, cpg_pos):
        assert FLAG_INSTILLED not in res.report.flags
        assert FLAG_COINCIDENCE not in res.report.flags

    # (a) the bottom state must agree with the mirror ground level closely
    # enough to raise the coincidence flag
    sys_pos = PhysicalSystem(Z=118.0, kappa=2)
    mirror = exact_eigenvalue(sys_pos, 1)
    pos0 = float(rep.positive_shifted[0])
    rel = abs(pos0 - mirror) / abs(mirror)
    assert rep.flags[0] == FLAG_COINCIDENCE, (
        f"plain-method bottom state {pos0:.10f} sits {rel:.3e} relative from "
        f"the mirror ground level {mirror:.10f}; the coincidence flag needs "
        f"agreement within 1e-6, which this discretization does not reach")


# --------------------------------------------- 4: stability-parameter oracle

def test_tau_consistency_oracle():
    rng = np.random.default_rng(12345)
    eta = np.array([17.0, 0.0, -17.0]) / 70.0
    for hj, hj1 in rng.uniform(0.05, 3.0, size=(100, 2)):
        sigma = np.array([3.0 * hj1, 20.0 * (hj + hj1), 3.0 * hj1]) / 70.0
        wfm = SimpleNamespace(M_000=np.tile(sigma, (3, 1)),
                              M_100=np.tile(eta, (3, 1)))
        coords = np.array([0.0, hj, hj + hj1])
        tau = stability_tau(banded_weak_form(wfm), coords)[1]
        ref = stability_tau_fem(SimpleNamespace(spacings=np.array([hj, hj1])))[0]
        assert tau == pytest.approx(abs(ref), rel=1e-12)

    h = 1.3
    sigma = np.array([3.0 * h, 40.0 * h, 3.0 * h]) / 70.0
    wfm = SimpleNamespace(M_000=np.tile(sigma, (3, 1)),
                          M_100=np.tile(eta, (3, 1)))
    assert stability_tau(banded_weak_form(wfm), np.array([0.0, h, 2 * h]))[1] == \
        pytest.approx(0.0, abs=1e-15)
    assert stability_tau_fem(SimpleNamespace(spacings=np.array([h, h])))[0] == 0.0


# ------------------------------------------------ 5: shape-function invariants

def test_shape_function_invariants(uuo_cloud_200, uuo_grid_200, uuo_quad_200):
    basis = BASES["sto"]
    p0 = basis.pair(np.zeros(1))[0][:, 0]
    worst = {"pu": 0.0, "pn": 0.0, "rep": 0.0, "fd": 0.0}
    t0 = time.perf_counter()
    for x in uuo_quad_200.points:
        st = evaluate_shapes(uuo_cloud_200, [x])
        on = st.active[0]
        act, vals, ders = st.indices[0, on], st.values[0, on], st.derivs[0, on]
        worst["pu"] = max(worst["pu"], abs(vals.sum() - 1.0))
        dscale = max(np.abs(ders).max(), 1.0)
        worst["pn"] = max(worst["pn"], abs(ders.sum()) / dscale)
        # moving-fit consistency: the evaluation-point-centered frame
        # reproduces every basis member
        shifts = uuo_grid_200.nodes[act] - x
        P = basis.pair(shifts)[0]
        for k in range(basis.m):
            scale = max(1.0, np.abs(P[k]).max())
            worst["rep"] = max(worst["rep"],
                               abs(P[k] @ vals - p0[k]) / scale)
        d = 1e-6 * float(uuo_grid_200.dilations[act].min())
        a, b = ({i: v for i, v, o in zip(side.indices[0], side.values[0], side.active[0]) if o}
                for side in (evaluate_shapes(uuo_cloud_200, [x - d]),
                          evaluate_shapes(uuo_cloud_200, [x + d])))
        fd = np.array([(b.get(i, 0.0) - a.get(i, 0.0)) / (2.0 * d) for i in act])
        worst["fd"] = max(worst["fd"], np.max(np.abs(fd - ders))
                          / np.abs(ders).max())
    elapsed = time.perf_counter() - t0
    assert worst["pu"] <= 1e-10, worst
    assert worst["pn"] <= 1e-8, worst
    assert worst["rep"] <= 1e-8, worst
    assert worst["fd"] <= 1e-4, worst
    assert elapsed < 30.0


# ------------------------------------------------------ 6: eigensolver oracle

def test_eigensolver_oracle(uuo_wfm_200, uuo_system, uuo_grid_200):
    rng = np.random.default_rng(42)
    for k in range(50):
        dim = 2 + k % 7
        A, B = random_pencil(rng, dim)
        ref = charpoly_eigenvalues(A, B)
        scale = max(1.0, np.abs(ref).max())
        assert max_pairing_distance(solve_generalized(A, B), ref) <= 1e-8 * scale

    # backward-error contracts on the assembled systems themselves, in the
    # solver's default mode (LU + dgeev on the pencil equilibrated by
    # diag(B)^-1/2), measured in the original frame of a pencil whose
    # mass diagonal spans ten decades: sigma_min(A - w B) is the smallest
    # residual |(A - w B) x| that any unit vector x attains
    plain = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    stab = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    for out in (plain, stab):
        w = solve_generalized(out.A, out.B)
        nA = np.linalg.norm(out.A, 2)
        nB = np.linalg.norm(out.B, 2)
        for k in np.linspace(0, len(w) - 1, 20).astype(int):
            r = np.linalg.svd(out.A - w[k] * out.B, compute_uv=False)[-1]
            assert r <= 1e-8 * (nA + abs(w[k]) * nB)


# ------------------------------------------------------- 7: resolution study

# reference: stabilized ground level against the interval count
REF_GROUND_BY_RESOLUTION = {
    200: -1829.5628, 400: -1829.6224, 600: -1829.6283,
    800: -1829.6297, 1000: -1829.6302,
}

# reference: closed-form stability parameter variant at nu = 1.1, n = 600
REF_FEM_TAU_LEVELS = (
    -1829.6304, -826.76993, -463.12174, -294.45551, -203.24715,
    -148.55905, -113.25377, -89.163916, -72.004478, -59.354644,
    -49.764010, -42.321064, -36.429826, -31.687405, -27.813579,
)

# reference: finite-size uniform-charge nucleus, ground level
REF_EXTENDED_GROUND = -1829.630099296

# reference: least-squares error slopes for the first five levels
REF_RATES = (3.09, 2.66, 2.62, 2.59, 2.56)


def test_convergence_study(solve_cached):
    runs = {n: solve_cached(Z=118.0, kappa=-2, method="cpg", n_intervals=n)
            for n in (200, 400, 600, 800, 1000)}
    for n, ref in REF_GROUND_BY_RESOLUTION.items():
        got = runs[n].report.matches[0].computed
        rel = abs(got - ref) / abs(ref)
        assert rel <= 1e-4, f"n={n}: ground {got:.6f} vs {ref} (rel {rel:.2e})"

    fem = solve_cached(Z=118.0, kappa=-2, method="cpg_fem_tau", nu=1.1)
    got = {m.level: m.computed for m in fem.report.matches}
    for lv, ref in enumerate(REF_FEM_TAU_LEVELS, start=1):
        assert got[lv] == pytest.approx(ref, rel=1e-3), f"fem-tau level {lv}"
    # the spectrum is real throughout the matched window: any complex pairs
    # this variant produces sit far above the 15th level (the run itself
    # computes only the window, so the check takes the dense spectrum)
    raw = solve_generalized(fem.system.A, fem.system.B)
    mc2 = fem.config.physical_system().mc2
    cx = raw[np.abs(raw.imag) > 1e-8 * np.maximum(np.abs(raw.real), 1.0)]
    assert np.all(cx.real - mc2 > got[15])

    ext = solve_cached(Z=118.0, kappa=-2, method="cpg", A=294.0,
                       nucleus="extended_uniform", levels=3)
    assert ext.report.matches[0].computed == \
        pytest.approx(REF_EXTENDED_GROUND, rel=1e-3)

    # error slopes last: fit rel_error against the coarsest spacing
    samples = {lv: [] for lv in range(1, 6)}
    for res in runs.values():
        h = float(res.grid.spacings[-1])
        for m in res.report.matches:
            if m.level <= 5:
                samples[m.level].append((h, m.rel_error))
    bad = []
    for lv, ref in enumerate(REF_RATES, start=1):
        rate = convergence_rate(samples[lv])
        if abs(rate - ref) > 0.3:
            bad.append(f"level {lv}: rate {rate:.2f} vs reference {ref} +/- 0.3")
    assert not bad, ("error slopes outside the reference window "
                     "(the tabulated levels carry method bias that the slope "
                     "fit exposes):\n" + "\n".join(bad))
