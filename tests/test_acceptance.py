"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; stated runtime budgets are asserted alongside the numerics.
"""

import time

import numpy as np
import pytest

from scartypes import (boundary, canonical, dynamics, mps, nullspace, opspace,
                       scars, states)

SEED = 6          # pinned ensemble seed for the variance criteria


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_equivalence_class_counts():
    n = 8
    psis = [states.vacuum(n), states.w_state(n)]
    details = []
    ok = True
    for r_loc in (2, 3, 4):
        start = time.perf_counter()
        res = nullspace.count_type_classes(n, 2, r_loc, psis)
        elapsed = time.perf_counter() - start
        ok &= (res.n_ii, res.n_iii) == (1, 1) and elapsed < 60.0
        details.append(f"R'={r_loc}: ({res.n_ii},{res.n_iii}) in {elapsed:.1f}s")
    start = time.perf_counter()
    res0 = nullspace.count_type_classes(n, 2, 2, [states.vacuum(n)])
    elapsed = time.perf_counter() - start
    ok &= (res0.n_ii, res0.n_iii) == (0, 0) and elapsed < 60.0
    details.append(f"vacuum-only: ({res0.n_ii},{res0.n_iii})")
    # the two classes constructively: h_imhop keeps t = 1 among Hermitian
    # annihilators (type II) but is a sum of non-Hermitian ones (omega = 0);
    # n_tot keeps omega = 1 either way (type III)
    imhop, ntot = canonical.h_imhop(n), canonical.n_tot(n)
    herm, general = canonical.decompose(imhop), canonical.decompose_general(imhop)
    ok &= abs(herm.t_im - 1.0) < 1e-12 and herm.residual_norm < 1e-10
    ok &= abs(general.omega_n) < 1e-12 and general.residual_norm < 1e-10
    ok &= all(np.linalg.norm(opspace.apply(gx, psi)) < 1e-12
              for gx in general.annihilators for psi in psis)
    omegas = []
    for form in (canonical.decompose(ntot), canonical.decompose_general(ntot)):
        ok &= abs(form.omega_n - 1.0) < 1e-12 and form.residual_norm < 1e-10
        omegas.append(f"{abs(form.omega_n):g}")
    details.append(f"h_imhop: t={herm.t_im:g}, general omega={abs(general.omega_n):g} "
                   f"over {len(general.annihilators)} annihilators; "
                   f"n_tot: omega={'/'.join(omegas)}")
    _report(1, ok, "; ".join(details))


def test_criterion_2_decomposition_round_trip():
    rng = np.random.default_rng(2024)
    worst_coeff, worst_resid = 0.0, 0.0
    for n in (8, 10):
        for _ in range(100):
            gamma, alpha, beta = rng.uniform(-2.0, 2.0, size=3)
            h = (opspace.identity(n, gamma)
                 + alpha * canonical.n_tot(n)
                 + beta * canonical.h_imhop(n)
                 + canonical.random_type1(n, rng, translation_invariant=False))
            form = canonical.decompose(h)
            worst_coeff = max(worst_coeff,
                              abs(form.omega_id - gamma),
                              abs(form.omega_n - alpha),
                              abs(form.t_im - beta))
            worst_resid = max(worst_resid, form.residual_norm)
    ok = worst_coeff < 1e-9 and worst_resid < 1e-10
    _report(2, ok, f"200 Hamiltonians: max coefficient error {worst_coeff:.2e}, "
                   f"max residual {worst_resid:.2e}")


def test_criterion_3_boundary_case_studies():
    n = 10
    vac, w, w2 = states.vacuum(n), states.w_state(n), states.w_p(n, 2)
    lam = boundary.Region(0, 6, n)
    details = []

    sol = boundary.boundary_solve(canonical.h_imhop(n), [vac, w], lam, 2)
    expected = opspace.string_term(n, 0.5j, [(0, "n")]) \
        + opspace.string_term(n, -0.5j, [(6, "n")])
    ok = sol.residual < 1e-10 and boundary.action_equivalent(
        sol.left_op + sol.right_op, expected, [vac, w])
    details.append(f"ImHop general {sol.residual:.1e} with (i/2)(n_l - n_r)")

    herm = boundary.boundary_solve(canonical.h_imhop(n), [vac, w], lam, 2,
                                   hermitian=True)
    ok &= herm.residual > 1e-3
    details.append(f"ImHop hermitian {herm.residual:.1e}")

    ntot = boundary.boundary_solve(canonical.n_tot(n), [vac, w], lam, 2)
    ok &= ntot.residual > 1e-3
    details.append(f"N_tot general {ntot.residual:.1e}")

    label = boundary.classify(canonical.h_imhop2(n), [vac, w, w2])
    lam3 = boundary.Region(0, 7, n)
    sol3 = boundary.boundary_solve(canonical.h_imhop2(n), [vac, w, w2], lam3, 2)
    pair = opspace.string_term(n, 0.5j, [(0, "n"), (1, "n")]) \
        + opspace.string_term(n, -0.5j, [(6, "n"), (7, "n")])
    ok &= label.value == "II" and boundary.action_equivalent(
        sol3.left_op + sol3.right_op, pair, [vac, w, w2])
    details.append(f"ImHop2 -> {label.value} with pair boundary")

    eq = boundary.equivalence_test(canonical.h_imhop(n), canonical.h_imhop2(n),
                                   [vac, w, w2])
    ok &= eq.verdict == "different"
    details.append(f"equivalence(ImHop, ImHop2) -> {eq.verdict}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_variance_scalings():
    start = time.perf_counter()
    omega, t_hop = 0.8, 0.6

    def ham(n):
        rng = np.random.default_rng(SEED)
        return (omega * canonical.n_tot(n) + t_hop * canonical.h_imhop(n)
                + canonical.random_type1(n, rng))

    n_list = (8, 10, 12, 14)
    pts_q, pts_var2, pts_en2 = [], [], []
    for n in n_list:
        h = ham(n)
        pts_q.append((2 * np.pi / n, scars.variance(h, states.w_q(n, 1))))
        w2 = states.w_p(n, 2)
        pts_var2.append((n, scars.variance(h, w2)))
        pts_en2.append((n, abs(scars.expectation(h, w2) - 2 * omega)))

    fit_q = scars.loglog_fit([p[0] for p in sorted(pts_q)[:-1]],
                             [p[1] for p in sorted(pts_q)[:-1]])
    fit_v = scars.loglog_fit([p[0] for p in pts_var2[1:]],
                             [p[1] for p in pts_var2[1:]])
    fit_e = scars.loglog_fit([p[0] for p in pts_en2[1:]],
                             [p[1] for p in pts_en2[1:]])
    elapsed = time.perf_counter() - start
    ok = (abs(fit_q.exponent - 2.0) <= 0.1
          and abs(fit_v.exponent + 1.0) <= 0.2
          and abs(fit_e.exponent + 1.0) <= 0.3
          and elapsed < 300.0)
    _report(4, ok, f"W_q exponent {fit_q.exponent:+.3f} (2.0 +/- 0.1), "
                   f"W^2 variance {fit_v.exponent:+.3f} (-1.0 +/- 0.2), "
                   f"W^2 energy {fit_e.exponent:+.3f} (-1.0 +/- 0.3) "
                   f"in {elapsed:.0f}s")


def test_criterion_5_droplet_scalings():
    start = time.perf_counter()
    n, m_sizes = 200, (20, 50, 80)

    def pooled(disp, rate, windows, z_theory):
        series = []
        for m, (lo, hi) in zip(m_sizes, windows):
            run = dynamics.DropletRun(n, m, disp)
            ts = dynamics.integer_g_times(rate, lo, hi, 24)
            series += [(t, m * dynamics.upsilon_finite(run, t, rate * t))
                       for t in ts]
        lo = min(w[0] for w in windows)
        hi = max(w[1] for w in windows)
        return dynamics.scaling_fit(series, (lo, hi), theory_exponent=z_theory)

    details, ok = [], True

    hi = min(m ** 2 for m in m_sizes) / 3
    fit = pooled(dynamics.rehop(), 0.0, [(5, hi)] * 3, 0.5)
    target = np.sqrt(1 / np.pi) * (1 + 1j)
    rel = abs(fit.prefactor_complex - target) / abs(target)
    ok &= abs(fit.exponent - 0.5) <= 0.05 and rel <= 0.10
    details.append(f"ReHop G=0: {fit.exponent:.3f}, prefactor off {rel:.1%}")

    fit = pooled(dynamics.imhop(), 0.0, [(5, m / 3) for m in m_sizes], 1.0)
    ok &= abs(fit.exponent - 1.0) <= 0.05
    details.append(f"ImHop G=0: {fit.exponent:.3f}")

    hi = min(m ** 3 for m in m_sizes) / 3
    fit = pooled(dynamics.imhop(), 1.0, [(5, hi)] * 3, 1 / 3)
    rel = abs(fit.prefactor_complex.real - 0.411) / 0.411
    ok &= abs(fit.exponent - 1 / 3) <= 0.05 and rel <= 0.10
    details.append(f"ImHop G=wt: {fit.exponent:.3f}, A off {rel:.1%}")

    hi = min(m ** 2 for m in m_sizes) / 3
    fit = pooled(dynamics.chop(0.5, 0.5), 0.5, [(5, hi)] * 3, 0.5)
    ok &= abs(fit.exponent - 0.5) <= 0.05
    details.append(f"CHop G=bwt: {fit.exponent:.3f}")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(5, ok, "; ".join(details) + f" in {elapsed:.0f}s")


def test_criterion_6_thermodynamic_quadrature():
    rng = np.random.default_rng(11)
    m = 40
    worst = 0.0
    for disp in (dynamics.rehop(), dynamics.imhop(), dynamics.chop(0.5, 0.5)):
        run = dynamics.DropletRun(800, m, disp)
        for _ in range(20):
            t = float(rng.uniform(0.5, 40.0))
            g = int(rng.integers(0, 20))
            finite = dynamics.upsilon_finite(run, t, g)
            thermo = dynamics.upsilon_thermo(disp, m, t, g)
            worst = max(worst, abs(finite - thermo))
    ok = worst < 1e-6
    _report(6, ok, f"max |finite(N=800) - thermo| = {worst:.2e} over 60 samples")


def test_criterion_7_mps():
    details, ok = [], True
    aklt, ssh = mps.builtin_aklt(), mps.builtin_ssh()

    vals = np.sort(mps.transfer_spectrum(aklt).real)
    ok &= np.abs(vals - np.array([-1 / 3, -1 / 3, -1 / 3, 1.0])).max() < 1e-12
    svals = mps.transfer_spectrum(ssh)
    ok &= abs(svals[0] - 1.0) < 1e-12 and np.abs(svals[1:]).max() < 1e-12
    details.append("transfer spectra exact")

    ok &= mps.injectivity_length(aklt) == 2
    details.append("AKLT R_inj = 2")

    t_z = mps.classify_symmetry_generator(aklt, mps.spin1_matrix("z")).value
    t_x = mps.classify_symmetry_generator(aklt, mps.spin1_matrix("x")).value
    t_ssh = mps.classify_symmetry_generator(ssh, mps.ssh_sz_matrix(),
                                            dense_sizes=(6,)).value
    ok &= (t_z, t_x, t_ssh) == ("II", "II", "I")
    details.append(f"types: AKLT Sz {t_z}, AKLT Sx {t_x}, SSH Sz {t_ssh}")

    worst = max(mps.verify_boundary_action(aklt, mps.spin1_matrix("z"), 0.3,
                                           n_sites, 2)
                for n_sites in (6, 8))
    ok &= worst < 1e-9
    details.append(f"boundary action on dense chains {worst:.1e}")
    _report(7, ok, "; ".join(details))


def test_criterion_8_property_suites():
    details, ok = [], True

    run = dynamics.DropletRun(201, 51, dynamics.chop(0.5, 0.5))
    worst = max(abs(dynamics.occupations(run, t).sum() - 1.0)
                for t in (0.0, 7.0, 40.0, 150.0))
    ok &= worst < 1e-12
    details.append(f"unitarity {worst:.1e}")

    rng = np.random.default_rng(8)
    n = 8
    lam = opspace.Region(1, 7, n)
    a = canonical.random_type1(n, rng)
    b = canonical.h_imhop(n)
    for basis in ("pauli", "boson"):
        once = opspace.truncate(a, lam, basis)
        ok &= (opspace.truncate(once, lam, basis) - once).coeff_norm() < 1e-12
        lin = opspace.truncate(0.7 * a + 1.3 * b, lam, basis)
        comb = 0.7 * opspace.truncate(a, lam, basis) \
            + 1.3 * opspace.truncate(b, lam, basis)
        ok &= (lin - comb).coeff_norm() < 1e-10
    details.append("truncation linear and idempotent")

    psis = [states.vacuum(n), states.w_state(n)]
    win = nullspace.window_basis(n, 0, 3)
    worst = 0.0
    for kind in ("H", "G"):
        rep = nullspace.null_space(nullspace.build_correlation(win, psis, kind))
        for row in rep.basis:
            worst = max(worst, nullspace.verify_null_vector(win, row, psis))
    ok &= worst < 1e-8
    details.append(f"null vectors re-verified {worst:.1e}")

    worst = 0.0
    for (n_s, p, left, right) in ((8, 1, 0, 2), (8, 2, 1, 4), (10, 3, 0, 4)):
        region = opspace.Region(left, right, n_s)
        split = states.schmidt_w_family(n_s, p, region)
        svals = states.dense_schmidt_values(states.w_p(n_s, p), region)
        expected = np.sort(split.weights())[::-1]
        got = np.sort(svals)[::-1][: expected.size]
        worst = max(worst, float(np.abs(got - expected).max()))
    ok &= worst < 1e-10
    details.append(f"Schmidt weights vs SVD {worst:.1e}")

    worst = 0.0
    for _ in range(5):
        op = canonical.random_type1(8, rng) + 0.3 * canonical.h_imhop(8)
        back = opspace.to_boson_basis(opspace.to_pauli_basis(op))
        diff = back - op
        if diff.terms:
            worst = max(worst, max(abs(c) for c in diff.terms.values()))
    ok &= worst < 1e-12
    details.append(f"basis round trip {worst:.1e}")
    _report(8, ok, "; ".join(details))
