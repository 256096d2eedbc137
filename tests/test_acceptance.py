"""Acceptance gate: one test per release criterion.

Each test prints a single `ACk PASS/FAIL` line with the observed numbers
before asserting, so a full run always shows the status of all nine
criteria.  Two criteria fail by design of the quantities they bound, not
by defect; their failure messages carry the measured values and the
structural reason:

* AC5: two of its sixteen clauses bound the dissipated power of
  non-resonant sources by a constant spread, but dissipated power scales
  like the loss itself for such sources; two more demand a 100x
  visibility drop that equals sqrt(energy growth) and is therefore
  capped by the measured growth of these configurations.
* AC9: the rate-scaled mode norms carry a first-order correction
  exp(-n (rho_e - rho_i)), which is 2.5e-3 at n = 20 for the thin shell,
  above the 1e-3 drift budget that window start demands.
"""

from __future__ import annotations

import math
import time

import numpy as np

from calr_lab import (
    ConfocalGeometry,
    Dipole,
    EllipticPoint,
    GapVerdict,
    adaptive_n_max,
    asymptotic_rates,
    block_matrices,
    calr_classify,
    convergence_exponent,
    critical_radius,
    gap_condition_report,
    metric_factor,
    mode_table,
    newtonian_coefficients,
    s_gram,
    solve_densities,
    sweep,
)
from calr_lab.oracle import block_np_for, numeric_spectrum
from calr_lab.geometry import sample_ellipse
from reference import (
    assemble_np,
    coefficient_projection_oracle,
    dissipated_power_direct,
    eval_gradient_shell,
    eval_potential,
    mode_column,
    mode_data,
    single_ellipse_np,
)

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
THICK = ConfocalGeometry(1.0, 0.2, 1.0)
THIN_PROBES = [EllipticPoint(1.2, 0.6), EllipticPoint(1.2, 2.8)]
THICK_PROBES = [EllipticPoint(2.3, 0.6), EllipticPoint(2.3, 2.8)]
SWEEP_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


def _report(name: str, clauses: list[tuple[str, bool]]) -> None:
    failed = [text for text, ok in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "; ".join(text for text, _ in clauses)
    print(f"\n{name} {status}: {detail}")
    assert not failed, f"{name}: " + "; ".join(failed)


def test_ac1_spectrum_cross_validation():
    start = time.time()
    block = numeric_spectrum(block_np_for(THIN, 512), 18)
    curve = sample_ellipse(1.0, 0.5, 512)
    alphas = np.array([0.5 * math.exp(-n) for n in range(1, 7)])
    single = numeric_spectrum(
        assemble_np(curve), 13, analytic=np.concatenate([[0.5], alphas, -alphas])
    )
    elapsed = time.time() - start
    _report("AC1", [
        (f"block spectrum n<=4 worst rel err {block.worst:.2e} < 1e-6",
         block.worst < 1e-6),
        (f"single ellipse n<=6 worst rel err {single.worst:.2e} < 1e-6",
         single.worst < 1e-6),
        (f"runtime {elapsed:.2f}s < 30s", elapsed < 30.0),
    ])


def test_ac2_exact_identities():
    alpha0_err = abs(single_ellipse_np(0, 0.5).alpha - 0.5)

    worst_resid = 0.0
    worst_consist = 0.0
    for g in (THIN, THICK):
        for n in range(1, 51):
            m = mode_data(n, g)
            a_mat, b_mat = block_matrices(n, g)
            pairs = (
                (a_mat, m.pairs[0], m.eigenvalues[0]),
                (a_mat, m.pairs[2], m.eigenvalues[2]),
                (b_mat, m.pairs[1], m.eigenvalues[1]),
                (b_mat, m.pairs[3], m.eigenvalues[3]),
            )
            for mat, vec, lam in pairs:
                resid = np.abs(mat @ vec - lam * vec)
                scale = np.abs(mat) @ np.abs(vec) + abs(lam) * np.abs(vec)
                worst_resid = max(worst_resid, float(np.max(resid / scale)))
            s = abs(m.eigenvalues[0]) + abs(m.eigenvalues[2]) + 1e-300
            worst_consist = max(
                worst_consist,
                abs(np.trace(a_mat) - (m.eigenvalues[0] + m.eigenvalues[2])) / s,
                abs(np.trace(b_mat) + (m.eigenvalues[0] + m.eigenvalues[2])) / s,
                abs(np.linalg.det(a_mat) - m.eigenvalues[0] * m.eigenvalues[2]) / s**2,
                abs(np.linalg.det(b_mat) - m.eigenvalues[0] * m.eigenvalues[2]) / s**2,
            )

    thin_branch = (3.0 * 0.9 - 0.3) / 2.0
    thick_branch = 2.0 * (0.9 - 0.3)
    branch_gap = abs(thin_branch - thick_branch)
    boundary = abs(critical_radius(0.3, 0.9).rho_star - thin_branch)

    disk_err = 0.0
    for rho_i, rho_e in ((0.5, 0.8), (0.3, 0.7), (0.6, 1.2)):
        lhs = (3.0 * rho_e - rho_i) / 2.0
        rhs = math.log(math.sqrt(math.exp(rho_e) ** 3 / math.exp(rho_i)))
        disk_err = max(disk_err, abs(lhs - rhs) / lhs)

    _report("AC2", [
        (f"alpha_0 = 1/2 err {alpha0_err:.1e} <= 1e-15", alpha0_err <= 1e-15),
        (f"eigen-residuals n<=50 worst {worst_resid:.2e} <= 1e-12",
         worst_resid <= 1e-12),
        (f"trace/det consistency worst {worst_consist:.2e} <= 1e-13",
         worst_consist <= 1e-13),
        (f"boundary rho_e=3rho_i branch gap {branch_gap:.1e} and "
         f"rho_star offset {boundary:.1e} <= 1e-15",
         branch_gap <= 1e-15 and boundary <= 1e-15),
        (f"disk-limit identity err {disk_err:.2e} <= 1e-15", disk_err <= 1e-15),
    ])


def test_ac3_s_structure():
    worst_orth = 0.0
    worst_norm = 0.0
    pd_ok = True
    for g in (THIN, THICK):
        table = mode_table(g, 100)
        for n in range(1, 101):
            m = mode_column(table, n)
            for gram, pairs in zip(s_gram(n, g), (
                ((m.pairs[0], m.norms[0]), (m.pairs[2], m.norms[2])),
                ((m.pairs[1], m.norms[1]), (m.pairs[3], m.norms[3])),
            )):
                try:
                    np.linalg.cholesky(gram)
                except np.linalg.LinAlgError:
                    pd_ok = False
                (v1, n1), (v2, n2) = pairs
                worst_orth = max(
                    worst_orth, abs(v1 @ gram @ v2) / math.sqrt(n1 * n2)
                )
                worst_norm = max(
                    worst_norm,
                    abs(v1 @ gram @ v1 - n1) / n1,
                    abs(v2 @ gram @ v2 - n2) / n2,
                )
    _report("AC3", [
        (f"S-orthogonality n<=100 worst {worst_orth:.2e} <= 1e-12",
         worst_orth <= 1e-12),
        (f"norm agreement n<=100 worst {worst_norm:.2e} <= 1e-12",
         worst_norm <= 1e-12),
        ("Gram matrices positive definite", pd_ok),
    ])


def test_ac4_solution_correctness():
    src = Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4]))
    delta = 1e-3
    n_max = adaptive_n_max(delta, THIN)
    sc = newtonian_coefficients(src, n_max, 1.0, rho_e=THIN.rho_e)
    start = time.time()
    dc = solve_densities(sc, THIN, delta)
    solve_time = time.time() - start
    omegas = np.linspace(0.07, 6.2, 12)

    worst_c = 0.0
    for rho_t in (THIN.rho_i, THIN.rho_e):
        vals, scale = [], 0.0
        for om in omegas:
            v_in = eval_potential(src, dc, THIN, EllipticPoint(rho_t - 1e-6, om))
            v_out = eval_potential(src, dc, THIN, EllipticPoint(rho_t + 1e-6, om))
            vals.append(abs(v_in - v_out))
            scale = max(scale, abs(v_in))
        worst_c = max(worst_c, max(vals) / scale)

    stencil = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3,
                        -15.0 / 4, 6.0 / 5, -1.0 / 6])
    h = 1e-4
    eps_shell = complex(-1.0, delta)
    worst_f = 0.0
    for rho_t, eps_in, eps_out in (
        (THIN.rho_i, 1.0 + 0.0j, eps_shell),
        (THIN.rho_e, eps_shell, 1.0 + 0.0j),
    ):
        vals, scale = [], 0.0
        for om in omegas:
            d_in = -sum(
                c * eval_potential(src, dc, THIN, EllipticPoint(rho_t - k * h, om))
                for k, c in enumerate(stencil)) / h
            d_out = sum(
                c * eval_potential(src, dc, THIN, EllipticPoint(rho_t + k * h, om))
                for k, c in enumerate(stencil)) / h
            vals.append(abs(eps_in * d_in - eps_out * d_out))
            scale = max(scale, abs(eps_in * d_in))
        worst_f = max(worst_f, max(vals) / scale)

    c4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    hh = 5e-4
    worst_h = 0.0
    for rho in (0.2, 0.65, 1.0):
        vals, scale = [], 0.0
        for om in np.linspace(2.0, 5.5, 5):
            vr = [eval_potential(src, dc, THIN, EllipticPoint(rho + k * hh, om))
                  for k in offs]
            vo = [eval_potential(src, dc, THIN, EllipticPoint(rho, om + k * hh))
                  for k in offs]
            lap = (np.dot(c4, vr) + np.dot(c4, vo)) / (hh * hh)
            vals.append(abs(lap) / float(metric_factor(1.0, rho, om)) ** 2)
            scale = max(scale, abs(vr[2]))
        worst_h = max(worst_h, max(vals) / scale)

    hg = 1e-6
    worst_g = 0.0
    for rho in (0.55, 0.65, 0.75):
        for om in np.linspace(0.2, 6.0, 6):
            d_rho, d_om = eval_gradient_shell(src, dc, THIN, rho, om)
            fd_rho = (eval_potential(src, dc, THIN, EllipticPoint(rho + hg, om))
                      - eval_potential(src, dc, THIN, EllipticPoint(rho - hg, om))
                      ) / (2.0 * hg)
            fd_om = (eval_potential(src, dc, THIN, EllipticPoint(rho, om + hg))
                     - eval_potential(src, dc, THIN, EllipticPoint(rho, om - hg))
                     ) / (2.0 * hg)
            scale = abs(d_rho) + abs(d_om)
            worst_g = max(worst_g, abs(d_rho - fd_rho) / scale,
                          abs(d_om - fd_om) / scale)

    base = dissipated_power_direct(src, dc, THIN, delta)
    fine = dissipated_power_direct(
        src, dc, THIN, delta, n_omega=2 * max(4 * n_max + 2, 512), n_panels=8
    )
    energy_err = abs(base - fine) / abs(fine)

    _report("AC4", [
        (f"continuity worst {worst_c:.2e} < 1e-6 rel", worst_c < 1e-6),
        (f"flux continuity worst {worst_f:.2e} < 1e-8 rel", worst_f < 1e-8),
        (f"harmonicity residual worst {worst_h:.2e} < 1e-6", worst_h < 1e-6),
        (f"gradient vs finite differences worst {worst_g:.2e} < 1e-6 rel",
         worst_g < 1e-6),
        (f"energy self-convergence {energy_err:.2e} < 1e-8 rel",
         energy_err < 1e-8),
        (f"solve runtime {solve_time * 1e3:.0f}ms < 1s", solve_time < 1.0),
    ])


def _trichotomy_numbers(g, rho0, probes):
    src = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
    records, _ = sweep(src, g, SWEEP_DELTAS, probes)
    regime = critical_radius(g.rho_i, g.rho_e)
    diag = calr_classify(records, regime)
    energies = np.array([r.e_direct for r in records])
    far = np.array([np.max(r.far_samples) for r in records])
    nf = np.array([np.exp(np.mean(np.log(r.normalized_far))) for r in records])
    return {
        "verdict": diag.verdict.value,
        "e_increasing": bool(np.all(np.diff(energies) > 0.0)),
        "e_decreasing": bool(np.all(np.diff(energies) < 0.0)),
        "growth": float(energies[-1] / energies[0]),
        "spread": float(energies.max() / energies.min()),
        "probe_spread": float(far.max() / far.min()),
        "nf_monotone": bool(np.all(np.diff(nf) < 0.0)),
        "nf_drop": float(nf[0] / nf[-1]),
    }


def test_ac5_trichotomy():
    start = time.time()
    thin_in = _trichotomy_numbers(THIN, 0.88, THIN_PROBES)
    thin_out = _trichotomy_numbers(THIN, 1.10, THIN_PROBES)
    thick_in = _trichotomy_numbers(THICK, 1.5, THICK_PROBES)
    thick_out = _trichotomy_numbers(THICK, 1.8, THICK_PROBES)
    elapsed = time.time() - start

    clauses = [
        (f"thin inside: E strictly increasing", thin_in["e_increasing"]),
        (f"thin inside: growth {thin_in['growth']:.3g} > 1e3",
         thin_in["growth"] > 1e3),
        (f"thin inside: verdict {thin_in['verdict']} == CALR",
         thin_in["verdict"] == "CALR"),
        (f"thin inside: probe |V| spread {thin_in['probe_spread']:.3g} < 2",
         thin_in["probe_spread"] < 2.0),
        ("thin inside: |V|/sqrt(E) monotonically decreasing",
         thin_in["nf_monotone"]),
        (f"thin inside: |V|/sqrt(E) drop {thin_in['nf_drop']:.3g} > 1e2 "
         "[the drop equals sqrt(energy growth) because the far field is "
         "flat, so growth 1.93e3 caps it at 44]",
         thin_in["nf_drop"] > 1e2),
        (f"thin outside: E spread {thin_out['spread']:.3g} < 2 "
         "[dissipated power of a non-resonant source scales like the loss "
         "(fitted slope ~ delta^0.8), so a six-decade sweep spreads it by "
         "~1e5; only the loss-free gradient energy stays within a factor 2]",
         thin_out["spread"] < 2.0),
        (f"thin outside: verdict {thin_out['verdict']} == NoCALR",
         thin_out["verdict"] == "NoCALR"),
        (f"thick inside: E strictly increasing", thick_in["e_increasing"]),
        (f"thick inside: growth {thick_in['growth']:.3g} > 1e3 "
         "[the growth exponent for a source at rho_0 = 1.5 under rho_* = "
         "1.6 is ~0.25, giving 10^1.5 over six decades; >1e3 needs a "
         "deeper source]",
         thick_in["growth"] > 1e3),
        (f"thick inside: verdict {thick_in['verdict']} == CALR",
         thick_in["verdict"] == "CALR"),
        (f"thick inside: probe |V| spread {thick_in['probe_spread']:.3g} < 2",
         thick_in["probe_spread"] < 2.0),
        ("thick inside: |V|/sqrt(E) monotonically decreasing",
         thick_in["nf_monotone"]),
        (f"thick inside: |V|/sqrt(E) drop {thick_in['nf_drop']:.3g} > 1e2 "
         "[sqrt of the measured growth 34, same cap as the thin case]",
         thick_in["nf_drop"] > 1e2),
        (f"thick outside: E spread {thick_out['spread']:.3g} < 2 "
         "[same loss-scaling cause as the thin outside case]",
         thick_out["spread"] < 2.0),
        (f"thick outside: verdict {thick_out['verdict']} == NoCALR",
         thick_out["verdict"] == "NoCALR"),
        (f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0),
    ]
    _report("AC5", clauses)


def test_ac6_eccentricity_independence():
    verdicts = {}
    for R in (0.5, 1.0, 2.0):
        thin = ConfocalGeometry(R, 0.5, 0.8)
        thick = ConfocalGeometry(R, 0.2, 1.0)
        row = []
        for g, rho0, probes in (
            (thin, 0.88, THIN_PROBES), (thin, 1.10, THIN_PROBES),
            (thick, 1.5, THICK_PROBES), (thick, 1.8, THICK_PROBES),
        ):
            src = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
            records, _ = sweep(src, g, SWEEP_DELTAS, probes)
            regime = critical_radius(g.rho_i, g.rho_e)
            row.append(calr_classify(records, regime).verdict.value)
        verdicts[R] = row
    _report("AC6", [
        (f"verdicts {verdicts[1.0]} identical for R in {{0.5, 1, 2}}",
         verdicts[0.5] == verdicts[1.0] == verdicts[2.0]),
        (f"R=1 verdicts == [CALR, NoCALR, CALR, NoCALR]",
         verdicts[1.0] == ["CALR", "NoCALR", "CALR", "NoCALR"]),
    ])


def test_ac7_surrogate_equivalence():
    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    clauses = []
    for g, rho0, probes, label in (
        (THIN, 0.88, THIN_PROBES, "thin inside"),
        (THIN, 1.10, THIN_PROBES, "thin outside"),
        (THICK, 1.5, THICK_PROBES, "thick inside"),
        (THICK, 1.8, THICK_PROBES, "thick outside"),
    ):
        src = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
        records, _ = sweep(src, g, deltas, probes)
        ratios = [r.e_spectral / r.e_direct for r in records]
        spread = max(ratios) / min(ratios)
        clauses.append(
            (f"{label}: surrogate/direct spread {spread:.3g} <= 10",
             spread <= 10.0)
        )
    _report("AC7", clauses)


def test_ac8_source_machinery():
    src = Dipole(EllipticPoint(1.2, 0.7), np.array([1.0, 0.5]))
    sc = newtonian_coefficients(src, 20, 1.0, rho_e=THIN.rho_e)
    oracle = coefficient_projection_oracle(src, 0.6, 20, 1.0)
    worst = 0.0
    for got, want in (
        (sc.f_plus, oracle.f_plus), (sc.f_minus, oracle.f_minus),
    ):
        scale = np.maximum(np.abs(want), np.max(np.abs(want)) * 1e-6)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))

    exps = {}
    for rho0 in (0.88, 1.2):
        d = Dipole(EllipticPoint(rho0, 0.7), np.array([1.0, 0.5]))
        exps[rho0] = convergence_exponent(
            newtonian_coefficients(d, 120, 1.0, rho_e=THIN.rho_e)
        )
    exp_err = max(abs(exps[r] - r) for r in exps)

    regime = critical_radius(THIN.rho_i, THIN.rho_e)
    verdicts = {}
    for rho0 in (0.88, 1.10):
        d = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
        sc_gc = newtonian_coefficients(d, 120, 1.0, rho_e=THIN.rho_e)
        verdicts[rho0] = gap_condition_report(sc_gc, THIN, regime.rho_star).verdict

    _report("AC8", [
        (f"dipole coefficients vs projection oracle worst {worst:.2e} "
         "<= 1e-8 rel (n <= 20)", worst <= 1e-8),
        (f"convergence_exponent recovers rho_0 within {exp_err:.2e} <= 0.02",
         exp_err <= 0.02),
        (f"gap condition inside: {verdicts[0.88].value} == Satisfied",
         verdicts[0.88] is GapVerdict.SATISFIED),
        (f"gap condition outside: {verdicts[1.10].value} == Fails",
         verdicts[1.10] is GapVerdict.FAILS),
    ])


def _drift(seq, lo, hi):
    window = seq[lo - 1:hi]
    return float((window.max() - window.min()) / abs(window.mean()))


def test_ac9_asymptotic_rates():
    clauses = []
    for g, label in ((THIN, "thin"), (THICK, "thick")):
        table = mode_table(g, 60)
        rates = asymptotic_rates(g)
        n = np.arange(1, 61, dtype=float)
        seqs = {
            "lambda1": np.abs(table.eigenvalues[0]) * np.exp(rates.lambda1_rate * n),
            "lambda2": table.eigenvalues[2] * np.exp(rates.lambda2_rate * n),
            "norm_1p": table.norms[0] * n * np.exp(rates.norm_rates["1p"] * n),
            "norm_1m": table.norms[1] * n * np.exp(rates.norm_rates["1m"] * n),
            "norm_2p": table.norms[2] * n * np.exp(rates.norm_rates["2p"] * n),
            "norm_2m": table.norms[3] * n * np.exp(rates.norm_rates["2m"] * n),
        }
        for key, seq in seqs.items():
            drift = _drift(seq, 20, 60)
            note = ""
            if key.startswith("norm") and drift >= 1e-3:
                w = g.rho_e - g.rho_i
                note = (" [scaled norms approach their limit with a "
                        f"correction exp(-n w), w = {w:.2f}: that is "
                        f"{math.exp(-20.0 * w):.2e} at the window start "
                        "n = 20, so a 1e-3 drift budget needs n >= "
                        f"{math.ceil(math.log(1e3) / w)}]")
            clauses.append(
                (f"{label} {key} scaled-ratio drift {drift:.2e} < 1e-3 "
                 f"over n = 20..60{note}", drift < 1e-3)
            )
    _report("AC9", clauses)
