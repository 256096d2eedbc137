"""Tests for the spectral transmission solver.

The mode projections and norms are cross-checked against an independent
single-layer quadrature route: a periodic log-singular rule (trigonometric
weights for the ln(4 sin^2) factor plus trapezoid for the smooth remainder)
evaluates the S-pairing directly from curve samples, never touching the
closed-form Gram matrices.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calr_lab import (
    ChargePair,
    Coefficients,
    ConfocalGeometry,
    DensityCoefficients,
    Dipole,
    EllipticPoint,
    OverflowGuard,
    TruncationWarning,
    adaptive_n_max,
    boundary_forcing,
    calr_classify,
    critical_radius,
    dissipated_power_closed,
    dissipated_power_direct,
    dissipated_power_spectral,
    eval_gradient_shell,
    eval_potential,
    eval_potentials,
    metric_factor,
    mode_projections,
    mode_table,
    newtonian_coefficients,
    newtonian_gradient,
    solve_densities,
    sweep,
    z_param,
)
from calr_lab.cli import load_config, parse_geometry, parse_source
from calr_lab.solver import BoundaryForcing, ModeProjection, SweepRecord

TWO_PI = 2.0 * math.pi

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
THICK = ConfocalGeometry(1.0, 0.2, 1.0)
THIN_REGIME = critical_radius(THIN.rho_i, THIN.rho_e)
THICK_REGIME = critical_radius(THICK.rho_i, THICK.rho_e)
PROBES_THIN = [EllipticPoint(1.2, 0.6), EllipticPoint(1.2, 2.8)]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SOURCE_CONFIGS = ("dipole_inside", "dipole_outside", "thick_inside", "thick_outside")


# ---------------------------------------------------------------------------
# Independent S-pairing quadrature oracle.


def _log_rule(m):
    """Quadrature weights R[i, j] with sum_j R[i, j] f(s_j) approximating
    the periodic integral of ln(4 sin^2((t_i - s)/2)) f(s)."""
    half = m // 2
    d = TWO_PI * np.arange(m) / m
    k = np.arange(1, half)
    r = -(2.0 * TWO_PI / m) * (np.cos(np.outer(d, k)) @ (1.0 / k))
    r -= (TWO_PI / (half * m)) * np.cos(half * d)
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    return r[idx]


def _curve(g, rho0, m):
    om = TWO_PI * np.arange(m) / m
    ch, sh = math.cosh(rho0), math.sinh(rho0)
    x = np.column_stack([g.R * np.cos(om) * ch, g.R * np.sin(om) * sh])
    xi = np.asarray(metric_factor(g.R, rho0, om))
    return om, x, xi


def _single_layer_same(g, rho0, dens_vals, m):
    """S[phi] on the carrying curve, splitting off the log singularity."""
    om, x, xi = _curve(g, rho0, m)
    fw = dens_vals * xi
    d1 = x[:, 0:1] - x[None, :, 0]
    d2 = x[:, 1:2] - x[None, :, 1]
    r2 = d1 * d1 + d2 * d2
    sin2 = 4.0 * np.sin((om[:, None] - om[None, :]) / 2.0) ** 2
    np.fill_diagonal(r2, 1.0)
    np.fill_diagonal(sin2, 1.0)
    smooth = 0.5 * np.log(r2 / sin2)
    np.fill_diagonal(smooth, np.log(xi))
    return (_log_rule(m) @ fw / 2.0 + (TWO_PI / m) * (smooth @ fw)) / TWO_PI


def _single_layer_cross(g, rho_src, dens_vals, m, targets):
    _, x, xi = _curve(g, rho_src, m)
    fw = dens_vals * xi
    d1 = targets[:, 0:1] - x[None, :, 0]
    d2 = targets[:, 1:2] - x[None, :, 1]
    return (TWO_PI / m) * ((0.5 * np.log(d1 * d1 + d2 * d2)) @ fw) / TWO_PI


def _s_pairing(g, u_i, u_e, v_i, v_e, m):
    """-<u, S v> accumulated over both interfaces (density samples in omega)."""
    _, xi_pts, xii = _curve(g, g.rho_i, m)
    _, xe_pts, xie = _curve(g, g.rho_e, m)
    s_on_i = (_single_layer_same(g, g.rho_i, v_i, m)
              + _single_layer_cross(g, g.rho_e, v_e, m, xi_pts))
    s_on_e = (_single_layer_same(g, g.rho_e, v_e, m)
              + _single_layer_cross(g, g.rho_i, v_i, m, xe_pts))
    w_i = xii * (TWO_PI / m)
    w_e = xie * (TWO_PI / m)
    return -(np.sum(u_i * s_on_i * w_i) + np.sum(u_e * s_on_e * w_e))


def test_log_rule_against_harmonics():
    # Exact: integral of ln(4 sin^2((t-s)/2)) cos(ks) ds = -(2 pi / k) cos(kt).
    m = 128
    om = TWO_PI * np.arange(m) / m
    rule = _log_rule(m)
    for k in (1, 3, 10):
        got = rule @ np.cos(k * om)
        want = -(TWO_PI / k) * np.cos(k * om)
        assert np.max(np.abs(got - want)) < 1e-12


def test_mode_norms_against_quadrature():
    """The closed-form mode norms match the independent S-pairing
    quadrature to 1e-8 for n up to 10."""
    m = 256
    om = TWO_PI * np.arange(m) / m
    xii = np.asarray(metric_factor(1.0, THIN.rho_i, om))
    xie = np.asarray(metric_factor(1.0, THIN.rho_e, om))
    table = mode_table(THIN, 10)
    for n in range(1, 11):
        row = table.row(n)
        families = (
            ((row.a1, row.b), np.cos(n * om), row.norm_1p),
            ((row.b, row.a2), np.sin(n * om), row.norm_1m),
            ((row.a2, row.b), np.cos(n * om), row.norm_2p),
            ((row.b, row.a1), np.sin(n * om), row.norm_2m),
        )
        for (c_i, c_e), trig, want in families:
            u_i = c_i * trig / xii
            u_e = c_e * trig / xie
            got = _s_pairing(THIN, u_i, u_e, u_i, u_e, m)
            assert abs(got - want) < 1e-8 * want


def test_mode_projections_against_quadrature():
    """mode_projections equals the direct S-pairing of the boundary forcing
    with each eigenfunction, for every family and n up to 10."""
    m = 256
    om = TWO_PI * np.arange(m) / m
    xii = np.asarray(metric_factor(1.0, THIN.rho_i, om))
    xie = np.asarray(metric_factor(1.0, THIN.rho_e, om))
    src = Dipole(EllipticPoint(1.2, 0.7), np.array([1.0, 0.5]))
    sc = newtonian_coefficients(src, 10, 1.0, rho_e=THIN.rho_e)
    forcing = boundary_forcing(sc, THIN)
    proj = mode_projections(forcing, mode_table(THIN, 10))
    nn = np.arange(1, 11)
    g_i = (forcing.gc_i[:, None] * np.cos(np.outer(nn, om))
           + forcing.gs_i[:, None] * np.sin(np.outer(nn, om))).sum(axis=0) / xii
    g_e = (forcing.gc_e[:, None] * np.cos(np.outer(nn, om))
           + forcing.gs_e[:, None] * np.sin(np.outer(nn, om))).sum(axis=0) / xie
    table = mode_table(THIN, 10)
    for n in range(1, 11):
        row = table.row(n)
        families = (
            ((row.a1, row.b), np.cos(n * om), proj.proj_1p[n - 1]),
            ((row.b, row.a2), np.sin(n * om), proj.proj_1m[n - 1]),
            ((row.a2, row.b), np.cos(n * om), proj.proj_2p[n - 1]),
            ((row.b, row.a1), np.sin(n * om), proj.proj_2m[n - 1]),
        )
        for (c_i, c_e), trig, want in families:
            v_i = c_i * trig / xii
            v_e = c_e * trig / xie
            got = _s_pairing(THIN, g_i, g_e, v_i, v_e, m)
            assert abs(got - want) < 1e-8 * max(abs(want), 1e-12)


# ---------------------------------------------------------------------------
# Spectral parameter and configuration.


def test_z_param_values():
    assert z_param(0.0) == 0.0
    for delta in (1e-2, 1e-3, 1e-6, 1e-8):
        z = z_param(delta)
        denom = 4.0 + delta * delta
        want = complex(-delta * delta / (2.0 * denom), delta / denom)
        assert abs(z - want) <= 1e-16
        assert 0.24 <= abs(z) / delta <= 0.26
        assert z_param(-delta) == z.conjugate()
    with pytest.raises(ValueError):
        z_param(math.inf)
    with pytest.raises(ValueError):
        z_param(math.nan)


def test_adaptive_n_max():
    width = THIN.rho_e - THIN.rho_i
    for delta in (1e-2, 1e-4, 1e-6):
        want = math.ceil(2.0 * math.log(1.0 / delta) / width) + 40
        assert adaptive_n_max(delta, THIN) == want
    assert adaptive_n_max(1e-3, THIN, margin=100) == adaptive_n_max(1e-3, THIN) + 60
    with pytest.raises(ValueError):
        adaptive_n_max(0.0, THIN)
    with pytest.raises(ValueError):
        adaptive_n_max(1.5, THIN)
    with pytest.raises(OverflowGuard):
        adaptive_n_max(1e-60, THIN)


def test_solve_densities_validation():
    sc = Coefficients(0.0, np.zeros(40), np.zeros(40))
    solve_densities(sc, THIN, -1e-3)  # negative loss is allowed (conjugate branch)
    with pytest.raises(ValueError):
        solve_densities(sc, THIN, 0.0)
    with pytest.raises(ValueError):
        solve_densities(sc, THIN, math.nan)
    with pytest.raises(ValueError):
        solve_densities(Coefficients(0.0, np.zeros(0), np.zeros(0)), THIN, 1e-3)
    with pytest.raises(OverflowGuard):
        solve_densities(Coefficients(0.0, np.zeros(400), np.zeros(400)), THIN, 1e-3)


# ---------------------------------------------------------------------------
# Boundary forcing.


def test_boundary_forcing_constant_source():
    sc = newtonian_coefficients(
        Coefficients(c=3.0, f_plus=np.zeros(6), f_minus=np.zeros(6)), 6, 1.0
    )
    forcing = boundary_forcing(sc, THIN)
    for arr in (forcing.gc_i, forcing.gs_i, forcing.gc_e, forcing.gs_e):
        assert np.all(arr == 0.0)


def test_boundary_forcing_single_mode():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.array([1.0]), f_minus=np.array([0.0])),
        1, 1.0,
    )
    forcing = boundary_forcing(sc, THIN)
    assert math.isclose(forcing.gc_i[0], math.sinh(0.5), rel_tol=1e-15)
    assert math.isclose(forcing.gc_e[0], -math.sinh(0.8), rel_tol=1e-15)
    assert forcing.gs_i[0] == 0.0
    assert forcing.gs_e[0] == 0.0


def test_boundary_forcing_against_fourier_oracle():
    """The forcing equals (+/-) the normal-derivative Fourier data of the
    source potential on each interface: inner interface keeps the sign of
    d/d rho, the outer one flips it."""
    src = Dipole(EllipticPoint(1.2, 0.7), np.array([1.0, 0.5]))
    n_max = 20
    sc = newtonian_coefficients(src, n_max, 1.0, rho_e=THIN.rho_e)
    forcing = boundary_forcing(sc, THIN)
    m = 1024
    om = TWO_PI * np.arange(m) / m
    for rho_t, g_cos, g_sin, sign in (
        (THIN.rho_i, forcing.gc_i, forcing.gs_i, 1.0),
        (THIN.rho_e, forcing.gc_e, forcing.gs_e, -1.0),
    ):
        ch, sh = math.cosh(rho_t), math.sinh(rho_t)
        pts = np.column_stack([np.cos(om) * ch, np.sin(om) * sh])
        grads = np.array([newtonian_gradient(src, p, 1.0) for p in pts])
        t_rho = np.column_stack([np.cos(om) * sh, np.sin(om) * ch])
        d_rho = np.sum(grads * t_rho, axis=1)
        spec = np.fft.rfft(d_rho)
        a_n = 2.0 * spec[1:n_max + 1].real / m
        b_n = -2.0 * spec[1:n_max + 1].imag / m
        scale = max(np.max(np.abs(g_cos)), np.max(np.abs(g_sin)))
        assert np.max(np.abs(sign * g_cos - a_n)) < 1e-9 * scale
        assert np.max(np.abs(sign * g_sin - b_n)) < 1e-9 * scale


def test_projection_of_missing_mode_is_zero():
    f_plus = np.zeros(6)
    f_plus[0] = 1.0
    f_plus[4] = 0.3
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=f_plus, f_minus=np.zeros(6)), 6, 1.0
    )
    proj = mode_projections(boundary_forcing(sc, THIN), mode_table(THIN, 6))
    for k in (1, 2, 3, 5):  # modes 2, 3, 4, 6 carry no forcing
        assert proj.proj_1p[k] == 0.0
        assert proj.proj_2p[k] == 0.0
        assert proj.proj_1m[k] == 0.0
        assert proj.proj_2m[k] == 0.0


def test_projection_thin_ratio_approaches_half_pi():
    """For a cosine forcing with coefficients F e^{n rho_i}, the first-family
    projection divided by F e^{n rho_i} settles at pi/2 in the thin regime."""
    n_max = 60
    n = np.arange(1, n_max + 1)
    f_plus = np.exp(-1.2 * n)
    forcing = BoundaryForcing(
        THIN,
        gc_i=n * f_plus * np.sinh(n * THIN.rho_i),
        gs_i=np.zeros(n_max),
        gc_e=-n * f_plus * np.sinh(n * THIN.rho_e),
        gs_e=np.zeros(n_max),
    )
    proj = mode_projections(forcing, mode_table(THIN, n_max))
    ratio = proj.proj_1p / (f_plus * np.exp(n * THIN.rho_i))
    window = ratio[19:60]
    assert np.max(np.abs(window - math.pi / 2)) < 1e-3 * (math.pi / 2)


# ---------------------------------------------------------------------------
# Density solve.


def test_solve_densities_zero_source():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.zeros(8), f_minus=np.zeros(8)), 8, 1.0
    )
    dc = solve_densities(sc, THIN, 1e-3)
    for arr in (dc.p_cos, dc.p_sin, dc.q_cos, dc.q_sin):
        assert np.all(arr == 0.0)


def test_resolvent_magnitude_closed_form():
    table = mode_table(THIN, 40)
    for delta in (1e-2, 1e-3, 1e-5):
        z = z_param(delta)
        denom = 4.0 + delta * delta
        re_z = -delta * delta / (2.0 * denom)
        im_z = delta / denom
        for lam in np.concatenate([table.lambda1, table.lambda2]):
            for sign in (1.0, -1.0):
                got = abs(sign * lam + z)
                want = math.hypot(sign * lam + re_z, im_z)
                assert abs(got - want) <= 1e-14 * want


def test_dominant_mode_at_expected_resonance():
    """At delta = 1e-3 the resonant inner-density coefficients peak near
    n = ln(1/delta)/(rho_e - rho_i), about 23."""
    src = Dipole(EllipticPoint(0.9, 0.9), np.array([1.0, 0.4]))
    n_max = 270
    sc = newtonian_coefficients(src, n_max, 1.0, rho_e=THIN.rho_e)
    dc = solve_densities(sc, THIN, 1e-3)
    target = math.log(1e3) / (THIN.rho_e - THIN.rho_i)
    for arr in (dc.p_cos, dc.p_sin):
        n_star = int(np.argmax(np.abs(arr))) + 1
        assert abs(n_star - target) <= 2.0


def test_truncation_warning_for_tight_budget():
    src = Dipole(EllipticPoint(0.85, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(src, 60, 1.0, rho_e=THIN.rho_e)
    with pytest.warns(TruncationWarning):
        solve_densities(sc, THIN, 1e-3)


def _solved_case(g, rho0, delta, margin=40):
    src = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
    n_max = adaptive_n_max(delta, g, margin=margin)
    sc = newtonian_coefficients(src, n_max, g.R, rho_e=g.rho_e)
    return src, sc, solve_densities(sc, g, delta)


# ---------------------------------------------------------------------------
# Potential evaluation.


@pytest.mark.parametrize("kind", ["dipole", "pair", "coefficients"])
def test_blocked_potentials_match_pointwise(kind):
    """Points spread over several evaluator blocks, in the core, the shell
    and the exterior and exactly on both interfaces, give bit for bit the
    value of a one-point evaluation, in any order."""
    _, sc, dc = _solved_case(THIN, 1.3, 1e-3)
    src = {
        "dipole": Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4])),
        "pair": ChargePair(EllipticPoint(1.4, 0.5), EllipticPoint(1.6, 2.5), 0.7),
        "coefficients": sc,
    }[kind]
    rng = np.random.default_rng(7)
    m = 3 * 8192 // sc.n_max + 5
    rho = rng.uniform(0.05, 1.25, m)
    rho[:6] = [THIN.rho_i, THIN.rho_e, 0.3, 0.65, 1.1, THIN.rho_i]
    omega = rng.uniform(0.0, TWO_PI, m)
    values = eval_potentials(src, dc, THIN, rho, omega)
    assert values.shape == (m,)
    for j in range(m):
        v = eval_potential(src, dc, THIN, EllipticPoint(rho[j], omega[j]))
        assert values[j] == v
    order = rng.permutation(m)
    shuffled = eval_potentials(src, dc, THIN, rho[order], omega[order])
    assert np.array_equal(shuffled, values[order])


# A source with F = 0 exactly, so that eval_potentials returns the layer sums.
_NO_SOURCE = Coefficients(0.0, np.zeros(1), np.zeros(1))


def _arrays(dc):
    return [dc.p_cos, dc.p_sin, dc.q_cos, dc.q_sin]


def _exp_cos_sin_layers(dc, g, rho, omega):
    """The layer sums in their per-(point, mode) exp/cos/sin form, and the
    sum over the modes of |term_n| (test reference for the Horner sums)."""
    n = np.arange(1, len(dc.p_cos) + 1, dtype=float)
    r, nw = np.asarray(rho)[..., None], np.asarray(omega)[..., None] * n
    total, scale = 0.0, 0.0
    for rk, c, s in ((g.rho_i, dc.p_cos, dc.p_sin), (g.rho_e, dc.q_cos, dc.q_sin)):
        near, far = np.exp(-n * np.abs(r - rk)), np.exp(-n * (r + rk))
        term = -(c * (near + far) * np.cos(nw) + s * (near - far) * np.sin(nw))
        term /= 2 * n
        total, scale = total + term.sum(axis=-1), scale + np.abs(term).sum(axis=-1)
    return total, scale


def _mp_layers(dc, g, rho, omega):
    """30-digit layer sums and sum_n |term_n| from the exp/cos/sin form."""
    with mpmath.workdps(30):
        r, w = mpmath.mpf(rho), mpmath.mpf(omega)
        total, scale = mpmath.mpc(0), mpmath.mpf(0)
        for rk, c, s in ((g.rho_i, dc.p_cos, dc.p_sin), (g.rho_e, dc.q_cos, dc.q_sin)):
            rk = mpmath.mpf(rk)
            for n in range(1, len(c) + 1):
                near, far = mpmath.exp(-n * abs(r - rk)), mpmath.exp(-n * (r + rk))
                term = -(
                    mpmath.mpc(c[n - 1]) * (near + far) * mpmath.cos(n * w)
                    + mpmath.mpc(s[n - 1]) * (near - far) * mpmath.sin(n * w)
                ) / (2 * n)
                total += term
                scale += abs(term)
        return complex(total), float(scale)


@pytest.mark.parametrize(
    "g, rho0, n_max", [(THIN, 0.88, 374), (THICK, 1.5, 299)], ids=["thin", "thick"]
)
def test_horner_layer_sums_match_mpmath(g, rho0, n_max):
    """At the largest n_max each geometry supports, the layer sums agree
    with a 30-digit evaluation to 1e-13 of sum_n |term_n| in the core, the
    shell and the exterior, exactly on both interfaces, next to the focal
    segment and at angles next to 0 and 2 pi."""
    src = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
    _, dc = _truncated_solve(src, g, 1e-5, n_max)
    points = [
        (0.5 * g.rho_i, 1.0), (0.5 * (g.rho_i + g.rho_e), 2.0), (g.rho_e + 0.4, 4.0),
        (g.rho_i, 0.7), (g.rho_e, 5.5), (1e-8, 0.4), (0.0, 2.5), (1e-12, 3.3),
        (0.3 * g.rho_i, 1e-13), (g.rho_e + 0.1, TWO_PI - 1e-13),
        (0.7 * g.rho_e, math.nextafter(TWO_PI, 0.0)), (g.rho_e + 2.0, 0.0),
    ]
    got = eval_potentials(_NO_SOURCE, dc, g, *np.array(points).T)
    for (rho, omega), v in zip(points, got):
        want, scale = _mp_layers(dc, g, rho, omega)
        assert abs(v - want) <= 1e-13 * scale, (rho, omega)


def test_zero_padded_densities_change_no_bit():
    """Densities zero-padded to a larger n_max give the unpadded values
    bit for bit, in every region (the batched sweep relies on this)."""
    _, sc, dc = _solved_case(THIN, 1.3, 1e-3)
    pad = np.zeros(53, dtype=complex)
    padded = DensityCoefficients(*(np.concatenate([a, pad]) for a in _arrays(dc)))
    rng = np.random.default_rng(11)
    rho = np.concatenate([[0.0, THIN.rho_i, THIN.rho_e], rng.uniform(0.0, 2.0, 300)])
    omega = rng.uniform(0.0, TWO_PI, rho.size)
    for src in (_NO_SOURCE, sc):
        want = eval_potentials(src, dc, THIN, rho, omega)
        got = eval_potentials(src, padded, THIN, rho, omega)
        assert got.tobytes() == want.tobytes()


def test_density_columns_per_point():
    """Densities with one column per point give each point the value of its
    own column; a column count that is neither 1 nor the point count is
    refused."""
    _, sc, dc = _solved_case(THIN, 1.3, 1e-3)
    _, _, dc2 = _solved_case(THIN, 1.3, 1e-5)
    n = len(dc2.p_cos)
    rho, omega = np.array([0.3, 0.65, 1.2, 1.2]), np.array([1.0, 2.0, 0.6, 2.8])
    per_point = [[np.pad(a, (0, n - len(a))) for a in _arrays(d)] for d in (dc, dc2) * 2]
    columns = DensityCoefficients(*np.stack(per_point, axis=-1))
    got = eval_potentials(sc, columns, THIN, rho, omega)
    for j, d in enumerate((dc, dc2) * 2):
        assert got[j] == eval_potentials(sc, d, THIN, rho[j], omega[j])
    with pytest.raises(ValueError):
        eval_potentials(sc, columns, THIN, rho[:3], omega[:3])


def test_potentials_do_not_depend_on_blocks():
    """Points filling several evaluator blocks in each region give the
    same bits whole, in chunks that cut the blocks elsewhere, and alone."""
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    rng = np.random.default_rng(5)
    m = 8192 + 7
    rho = np.concatenate([
        rng.uniform(0.0, THIN.rho_i, m),
        rng.uniform(THIN.rho_i, THIN.rho_e, m),
        rng.uniform(THIN.rho_e, 2.0, m),
    ])
    omega = rng.uniform(0.0, TWO_PI, rho.size)
    order = rng.permutation(rho.size)
    rho, omega = rho[order], omega[order]
    whole = eval_potentials(src, dc, THIN, rho, omega)
    chunks = [eval_potentials(src, dc, THIN, rho[k : k + 999], omega[k : k + 999])
              for k in range(0, rho.size, 999)]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    for j in rng.choice(rho.size, 30, replace=False):
        assert eval_potentials(src, dc, THIN, rho[j], omega[j]) == whole[j]


@functools.lru_cache(maxsize=None)
def _property_case(thick):
    g, rho0, n_max = (THICK, 1.5, 120) if thick else (THIN, 0.88, 337)
    src = Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4]))
    return g, _truncated_solve(src, g, 1e-5, n_max)[1]


@st.composite
def _region_points(draw):
    thick = draw(st.booleans())
    g, _ = _property_case(thick)
    regions = [(0.0, g.rho_i), (g.rho_i, g.rho_e), (g.rho_e, 3.0)]
    lo, hi = draw(st.sampled_from(regions))
    pts = draw(st.lists(st.tuples(st.floats(lo, hi), st.floats(0.0, TWO_PI)),
                        min_size=1, max_size=12))
    return thick, pts


@settings(max_examples=150, deadline=None)
@given(_region_points())
def test_horner_layer_sums_match_exp_cos_sin_form(case):
    """Random points in the core, the shell and the exterior: the Horner
    sums agree with the exp/cos/sin form to 1e-13 of sum_n |term_n|."""
    thick, pts = case
    g, dc = _property_case(thick)
    rho, omega = np.array(pts).T
    got = eval_potentials(_NO_SOURCE, dc, g, rho, omega)
    want, scale = _exp_cos_sin_layers(dc, g, rho, omega)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_eval_potential_zero_source():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.zeros(8), f_minus=np.zeros(8)), 8, 1.0
    )
    dc = solve_densities(sc, THIN, 1e-3)
    for p in (EllipticPoint(0.2, 1.0), EllipticPoint(0.65, 2.0),
              EllipticPoint(1.5, 4.0)):
        assert eval_potential(sc, dc, THIN, p) == 0.0


def test_potential_continuity_across_interfaces():
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    omegas = np.linspace(0.07, 6.2, 12)
    for rho_t in (THIN.rho_i, THIN.rho_e):
        worst, scale = 0.0, 0.0
        for om in omegas:
            v_in = eval_potential(src, dc, THIN, EllipticPoint(rho_t - 1e-6, om))
            v_out = eval_potential(src, dc, THIN, EllipticPoint(rho_t + 1e-6, om))
            worst = max(worst, abs(v_in - v_out))
            scale = max(scale, abs(v_in))
        assert worst < 1e-6 * scale


def test_flux_continuity_across_interfaces():
    """epsilon-weighted normal flux is continuous: checked with one-sided
    sixth-order difference stencils on both sides of each interface."""
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    delta = 1e-3
    stencil = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3,
                        -15.0 / 4, 6.0 / 5, -1.0 / 6])
    h = 1e-4
    eps_shell = complex(-1.0, delta)
    for rho_t, eps_in, eps_out in (
        (THIN.rho_i, 1.0 + 0.0j, eps_shell),
        (THIN.rho_e, eps_shell, 1.0 + 0.0j),
    ):
        worst, scale = 0.0, 0.0
        for om in np.linspace(0.07, 6.2, 12):
            d_in = -sum(
                c * eval_potential(src, dc, THIN, EllipticPoint(rho_t - k * h, om))
                for k, c in enumerate(stencil)
            ) / h
            d_out = sum(
                c * eval_potential(src, dc, THIN, EllipticPoint(rho_t + k * h, om))
                for k, c in enumerate(stencil)
            ) / h
            f_in = eps_in * d_in
            f_out = eps_out * d_out
            worst = max(worst, abs(f_in - f_out))
            scale = max(scale, abs(f_in), abs(f_out))
        assert worst < 1e-8 * scale


def test_reality_symmetry_in_delta():
    src, sc, dc = _solved_case(THIN, 1.3, 1e-3)
    dc_conj = solve_densities(sc, THIN, -1e-3)
    for p in (EllipticPoint(0.3, 1.0), EllipticPoint(0.65, 2.0),
              EllipticPoint(1.0, 4.0)):
        v = eval_potential(src, dc, THIN, p)
        v_conj = eval_potential(src, dc_conj, THIN, p)
        assert abs(v_conj - v.conjugate()) <= 1e-13 * abs(v)


def test_potential_decays_far_from_shell():
    for src_spec in (
        Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4])),
        ChargePair(EllipticPoint(1.4, 0.3), EllipticPoint(1.6, 2.0), 2.0),
    ):
        n_max = adaptive_n_max(1e-3, THIN)
        sc = newtonian_coefficients(src_spec, n_max, 1.0, rho_e=THIN.rho_e)
        dc = solve_densities(sc, THIN, 1e-3)
        omegas = np.linspace(0.0, 6.0, 9)
        far = max(abs(eval_potential(src_spec, dc, THIN, EllipticPoint(8.0, om)))
                  for om in omegas)
        near = max(abs(eval_potential(src_spec, dc, THIN, EllipticPoint(1.3, om)))
                   for om in omegas)
        assert far < 1e-2 * near


# ---------------------------------------------------------------------------
# Shell gradient.


def test_gradient_zero_source():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.zeros(8), f_minus=np.zeros(8)), 8, 1.0
    )
    dc = solve_densities(sc, THIN, 1e-3)
    d_rho, d_om = eval_gradient_shell(sc, dc, THIN, 0.65, 1.0)
    assert d_rho == 0.0 and d_om == 0.0


def test_gradient_matches_finite_differences():
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    h = 1e-6
    for rho in (0.55, 0.65, 0.75):
        for om in np.linspace(0.2, 6.0, 6):
            d_rho, d_om = eval_gradient_shell(src, dc, THIN, rho, om)
            fd_rho = (eval_potential(src, dc, THIN, EllipticPoint(rho + h, om))
                      - eval_potential(src, dc, THIN, EllipticPoint(rho - h, om))
                      ) / (2.0 * h)
            fd_om = (eval_potential(src, dc, THIN, EllipticPoint(rho, om + h))
                     - eval_potential(src, dc, THIN, EllipticPoint(rho, om - h))
                     ) / (2.0 * h)
            scale = abs(d_rho) + abs(d_om)
            assert abs(d_rho - fd_rho) < 1e-6 * scale
            assert abs(d_om - fd_om) < 1e-6 * scale


def test_shell_field_is_harmonic():
    """Xi^-2 times the 5-point (rho, omega) Laplacian stencil of V must
    vanish relative to the field scale inside the shell.

    A second-order stencil cannot certify 1e-6 on a strongly resonant
    field (the h^2 n^4 truncation floor sits near 8e-7 for the delta = 1e-3
    resonance), so this test drives a smooth off-resonance configuration;
    the resonant case is certified by the fourth-order stencil below.
    """
    src, _, dc = _solved_case(THIN, 2.0, 1e-3)
    h = 2e-4
    residuals, scale = [], 0.0
    for rho in (0.58, 0.68):
        for om in np.linspace(0.1, 6.1, 7):
            v0 = eval_potential(src, dc, THIN, EllipticPoint(rho, om))
            lap = (
                eval_potential(src, dc, THIN, EllipticPoint(rho + h, om))
                + eval_potential(src, dc, THIN, EllipticPoint(rho - h, om))
                + eval_potential(src, dc, THIN, EllipticPoint(rho, om + h))
                + eval_potential(src, dc, THIN, EllipticPoint(rho, om - h))
                - 4.0 * v0
            ) / (h * h)
            xi2 = float(metric_factor(1.0, rho, om)) ** 2
            residuals.append(abs(lap) / xi2)
            scale = max(scale, abs(v0))
    assert max(residuals) < 1e-6 * scale


def _laplacian_residual_4th(src, dc, g, points, h=5e-4):
    """Worst Xi^-2 stencil-Laplacian residual over a batch, relative to
    the batch field scale, with fourth-order 9-point differences."""
    c4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    worst, scale = 0.0, 0.0
    for rho, om in points:
        vr = [eval_potential(src, dc, g, EllipticPoint(rho + k * h, om))
              for k in offs]
        vo = [eval_potential(src, dc, g, EllipticPoint(rho, om + k * h))
              for k in offs]
        lap = (np.dot(c4, vr) + np.dot(c4, vo)) / (h * h)
        xi2 = float(metric_factor(1.0, rho, om)) ** 2
        worst = max(worst, abs(lap) / xi2)
        scale = max(scale, abs(vr[2]))
    return worst, scale


def test_resonant_field_is_harmonic_everywhere():
    """The resonant delta = 1e-3 field satisfies the PDE in the core, the
    shell, and the exterior (away from the source)."""
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    regions = {
        "core": [(0.2, om) for om in np.linspace(0.3, 5.9, 5)],
        "shell": [(0.65, om) for om in np.linspace(0.3, 5.9, 5)],
        "exterior": [(1.0, om) for om in np.linspace(2.0, 5.5, 5)],
    }
    for points in regions.values():
        worst, scale = _laplacian_residual_4th(src, dc, THIN, points)
        assert worst < 1e-6 * scale


def test_gradient_requires_shell_point():
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    with pytest.raises(ValueError):
        eval_gradient_shell(src, dc, THIN, 0.3, 1.0)
    with pytest.raises(ValueError):
        eval_gradient_shell(src, dc, THIN, 0.9, 1.0)


# ---------------------------------------------------------------------------
# Dissipated power.


def test_dissipated_power_zero_source():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.zeros(8), f_minus=np.zeros(8)), 8, 1.0
    )
    dc = solve_densities(sc, THIN, 1e-3)
    assert dissipated_power_direct(sc, dc, THIN, 1e-3) == 0.0
    assert dissipated_power_closed(sc, dc, THIN, 1e-3) == 0.0
    proj = mode_projections(boundary_forcing(sc, THIN), mode_table(THIN, 8))
    assert dissipated_power_spectral(proj, mode_table(THIN, 8), 1e-3) == 0.0


def test_dissipated_power_quadrature_doubling():
    src, sc, dc = _solved_case(THIN, 1.3, 1e-3)
    base = dissipated_power_direct(src, dc, THIN, 1e-3)
    fine = dissipated_power_direct(
        src, dc, THIN, 1e-3,
        n_omega=2 * max(4 * sc.n_max + 2, 512), n_panels=8,
    )
    assert abs(base - fine) <= 1e-8 * abs(fine)


def _bundled_sweep(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    block = cfg["sweep"]
    probes = [EllipticPoint(p["rho"], p["omega"]) for p in block["probes"]]
    return parse_geometry(cfg), parse_source(cfg), block["deltas"], probes, block["margin"]


def _truncated_solve(src, g, delta, n_max):
    sc = newtonian_coefficients(src, n_max, g.R, rho_e=g.rho_e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        dc = solve_densities(sc, g, delta)
    return sc, dc


@pytest.mark.parametrize("name", SOURCE_CONFIGS)
def test_closed_energy_matches_quadrature_oracle(name):
    """The closed-form energy equals the tensor quadrature run on the same
    truncated source and densities, at every sweep delta of the bundled
    config and at the largest n_max the geometry supports."""
    g, src, deltas, _, margin = _bundled_sweep(name)
    n_top = math.ceil(300.0 / g.rho_e) - 1  # largest n with 2 n rho_e < 600
    sc = newtonian_coefficients(src, n_top + 1, g.R, rho_e=g.rho_e)
    with pytest.raises(OverflowGuard):
        solve_densities(sc, g, 1e-8)
    cases = [(d, adaptive_n_max(d, g, margin)) for d in deltas] + [(1e-8, n_top)]
    for delta, n_max in cases:
        sc, dc = _truncated_solve(src, g, delta, n_max)
        closed = dissipated_power_closed(sc, dc, g, delta)
        oracle = dissipated_power_direct(sc, dc, g, delta)
        assert math.isfinite(closed) and closed > 0.0
        assert abs(closed - oracle) <= 1e-13 * oracle, (delta, n_max)


def test_closed_energy_validation():
    sc, dc = _truncated_solve(
        Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4])), THIN, 1e-3, 20
    )
    with pytest.raises(ValueError):
        dissipated_power_closed(sc.truncated(10), dc, THIN, 1e-3)
    with pytest.raises(ValueError):
        dissipated_power_closed(sc, dc, THIN, math.nan)


def test_dissipated_power_spectral_single_mode():
    table = mode_table(THIN, 12)
    n_star = 5
    proj_val = 0.7
    arr = np.zeros(12)
    arr[n_star - 1] = proj_val
    proj = ModeProjection(
        proj_1p=arr, proj_1m=np.zeros(12), proj_2p=np.zeros(12), proj_2m=np.zeros(12)
    )
    row = table.row(n_star)
    for delta in (1e-2, 1e-3, 1e-4):
        want = delta * proj_val**2 / ((row.lambda1**2 + delta**2) * row.norm_1p)
        got = dissipated_power_spectral(proj, table, delta)
        assert abs(got - want) <= 1e-14 * want


def test_dissipated_power_peaks_at_eigenvalue():
    """Sweeping delta across |lambda_1| of an isolated forced mode, the
    spectral power is maximal where delta matches the eigenvalue."""
    table = mode_table(THIN, 12)
    n_star = 5
    arr = np.zeros(12)
    arr[n_star - 1] = 1.0
    proj = ModeProjection(
        proj_1p=arr, proj_1m=np.zeros(12), proj_2p=np.zeros(12), proj_2m=np.zeros(12)
    )
    lam = abs(table.row(n_star).lambda1)
    grid = lam * np.logspace(-1.0, 1.0, 17)
    powers = [dissipated_power_spectral(proj, table, float(d)) for d in grid]
    k_peak = int(np.argmax(powers))
    k_near = int(np.argmin(np.abs(np.log(grid) - math.log(lam))))
    assert abs(k_peak - k_near) <= 1


def test_dissipated_power_validation():
    table = mode_table(THIN, 4)
    proj = ModeProjection(
        proj_1p=np.zeros(4), proj_1m=np.zeros(4),
        proj_2p=np.zeros(4), proj_2m=np.zeros(4),
    )
    with pytest.raises(ValueError):
        dissipated_power_spectral(proj, table, 0.0)


def test_surrogate_tracks_direct_energy():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    records = sweep(src, THIN, [1e-2, 1e-4, 1e-6], PROBES_THIN)
    ratios = [r.e_direct / r.e_spectral for r in records]
    assert max(ratios) / min(ratios) <= 10.0


def test_solve_runtime_budget():
    start = time.time()
    _solved_case(THIN, 1.3, 1e-3)
    assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# Sweeps and classification.


def test_sweep_inside_source_blows_up():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    records = sweep(src, THIN, deltas, PROBES_THIN)
    energies = np.array([r.e_direct for r in records])
    assert np.all(np.diff(energies) > 0.0)
    norm_far = np.array([np.exp(np.mean(np.log(r.normalized_far))) for r in records])
    assert np.all(np.diff(norm_far) < 0.0)
    far = np.array([np.max(np.abs(r.far_samples)) for r in records])
    assert far.max() / far.min() < 2.0
    diag = calr_classify(records, THIN_REGIME)
    assert diag.verdict.value == "CALR"
    assert diag.energy_increasing
    assert diag.visibility_decreasing
    assert diag.growth_exponent > 0.05


def test_sweep_outside_source_stays_bounded():
    src = Dipole(EllipticPoint(1.10, 0.9), np.array([1.0, 0.4]))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    records = sweep(src, THIN, deltas, PROBES_THIN)
    energies = np.array([r.e_direct for r in records])
    assert np.all(np.diff(energies) < 0.0)
    diag = calr_classify(records, THIN_REGIME)
    assert diag.verdict.value == "NoCALR"
    assert diag.growth_exponent < -0.05


def test_sweep_preserves_order():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    deltas = [1e-3, 1e-2, 1e-5, 1e-4]
    records = sweep(src, THIN, deltas, PROBES_THIN)
    assert [r.delta for r in records] == deltas


# Sweeps that are not bundled: the batch's edge cases.
_EDGE_SWEEPS = {
    # deltas out of order, with a repeat
    "unordered": lambda: _bundled_sweep("dipole_inside")[:2]
    + ([1e-3, 1e-6, 1e-3, 1e-2], PROBES_THIN, 40),
    # every row has top amplitude 0
    "zero-source": lambda: (THIN, Coefficients(0.0, np.zeros(6), np.zeros(6)),
                            [1e-2, 1e-5], PROBES_THIN, 40),
    "charge-pair": lambda: (THIN, ChargePair(EllipticPoint(1.0, 0.3), EllipticPoint(1.1, 2.0)),
                            [1e-2, 1e-4, 1e-6], PROBES_THIN, 40),
}


@pytest.mark.parametrize("name", SOURCE_CONFIGS + tuple(_EDGE_SWEEPS))
def test_sweep_slices_match_per_delta_solves(name):
    """Solving all deltas in one (delta, mode) batch changes no bit of what
    an independent solve at each delta's own n_max gives."""
    case = _EDGE_SWEEPS.get(name, functools.partial(_bundled_sweep, name))
    g, src, deltas, probes, margin = case()
    records = sweep(src, g, deltas, probes, margin=margin)
    assert [rec.delta for rec in records] == deltas
    for rec in records:
        n_max = adaptive_n_max(rec.delta, g, margin)
        sc, dc = _truncated_solve(src, g, rec.delta, n_max)
        modes = mode_table(g, n_max)
        proj = mode_projections(boundary_forcing(sc, g), modes)
        far = np.array([abs(eval_potential(src, dc, g, p)) for p in probes])
        assert rec.n_max == n_max
        assert rec.e_spectral == dissipated_power_spectral(proj, modes, rec.delta)
        assert np.array_equal(rec.far_samples, far)
        assert rec.e_direct == dissipated_power_closed(sc, dc, g, rec.delta)


def _truncation_messages(call):
    """call()'s result and the texts of its TruncationWarnings; any other
    warning fails the test, and each must be attributed to this file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    assert [w.category for w in caught] == [TruncationWarning] * len(caught)
    assert {w.filename for w in caught} <= {__file__}
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "name, count",
    [("dipole_inside", 7), ("dipole_outside", 3), ("thick_inside", 1), ("thick_outside", 0)],
)
def test_sweep_warns_as_per_delta_solves(name, count):
    """A sweep checks the tail of each delta's solve and says what
    solve_densities at that delta and n_max would, in record order."""
    g, src, deltas, probes, margin = _bundled_sweep(name)
    records, got = _truncation_messages(lambda: sweep(src, g, deltas, probes, margin=margin))
    want = []
    for rec in records:
        sc = newtonian_coefficients(src, rec.n_max, g.R, rho_e=g.rho_e)
        want += _truncation_messages(lambda: solve_densities(sc, g, rec.delta))[1]
    assert got == want
    assert len(got) == count


def test_truncation_tail_is_scale_free():
    """Scaling a source by 2**900 scales every weight exactly, so the tail
    warning reads the same, and forming it squares nothing out of range."""
    f = np.exp(-0.9 * np.arange(1.0, 31.0))
    small = Coefficients(0.0, f, 0.5 * f)
    big = Coefficients(0.0, 2.0**900 * f, 2.0**900 * (0.5 * f))
    _, want = _truncation_messages(lambda: solve_densities(small, THIN, 1e-3))
    _, got = _truncation_messages(lambda: solve_densities(big, THIN, 1e-3))
    assert len(want) == 1 and got == want


def _scaled_energies(k):
    """Closed and spectral energies on THIN at delta 1e-3 of the source
    F_n = e^{-0.9 n}, F_n^- = F_n / 2 (n = 1..30), scaled by 2**k."""
    f = np.exp(-0.9 * np.arange(1.0, 31.0))
    sc = Coefficients(0.0, 2.0**k * f, 2.0**k * (0.5 * f))
    dc = _truncated_solve(sc, THIN, 1e-3, 30)[1]
    modes = mode_table(THIN, 30)
    proj = mode_projections(boundary_forcing(sc, THIN), modes)
    return (
        lambda: dissipated_power_closed(sc, dc, THIN, 1e-3),
        lambda: dissipated_power_spectral(proj, modes, 1e-3),
    )


def test_energy_of_a_huge_source_is_exact():
    """Scaling a source by 2**505 scales both energies by exactly 2**1010:
    E ~ 3e307 is a double, although each mode's square alone is not."""
    small = [energy() for energy in _scaled_energies(0)]
    big = [energy() for energy in _scaled_energies(505)]
    assert big == [math.ldexp(e, 1010) for e in small]
    assert 1e307 < big[0] < math.inf


def test_energy_out_of_double_range_is_refused():
    """At 2**515 the energy itself exceeds the double range: OverflowGuard
    names the delta, and no numpy overflow is warned on the way."""
    for energy in _scaled_energies(515):
        with pytest.raises(OverflowGuard, match="delta = 0.001"):
            energy()


_PARTS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=40))
@example([(1e300, 1e300), (-1.7e308, 3e-310), (5e-324, -5e-324), (2.5e-308, 1e-320),
          (1e-300, 1e300), (0.0, -0.0), (1.3e308, 1.3e308)])
def test_hypot_of_parts_is_python_complex_abs(parts):
    """np.hypot of the real and imaginary parts, as solver.sweep takes |v|
    of its probe values and the field writer (cli.field_command) its
    abs_v column, equals Python's complex abs bit for bit, huge and
    subnormal parts included; where abs overflows (and raises), hypot is
    inf."""
    z = np.array([complex(re, im) for re, im in parts])
    want = []
    for v in z.tolist():
        try:
            want.append(abs(v))
        except OverflowError:
            want.append(math.inf)
    with np.errstate(over="ignore"):
        got = np.hypot(z.real, z.imag)
    assert got.tobytes() == np.array(want).tobytes()


def test_sweep_validation():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    with pytest.raises(ValueError):
        sweep(src, THIN, [], PROBES_THIN)
    with pytest.raises(ValueError):
        sweep(src, THIN, [1e-3], [EllipticPoint(0.7, 0.0)])


def _record(delta, energy, norm_far):
    samples = np.array([norm_far, norm_far])
    return SweepRecord(
        delta=delta, n_max=10, e_direct=energy, e_spectral=energy,
        far_samples=samples, normalized_far=samples,
    )


def test_classify_synthetic_sweeps():
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    growing = [_record(d, 10.0 ** (2 * k), 8.0 / 2**k)
               for k, d in enumerate(deltas)]
    assert calr_classify(growing, THIN_REGIME).verdict.value == "CALR"

    flat = [_record(d, e, 1.0)
            for d, e in zip(deltas, [1.0, 1.1, 1.05, 1.08])]
    assert calr_classify(flat, THIN_REGIME).verdict.value == "NoCALR"

    short = [_record(1e-2, 1.0, 1.0), _record(1e-3, 2.0, 1.0)]
    assert calr_classify(short, THIN_REGIME).verdict.value == "Indeterminate"

    broken = [_record(1e-2, 1.0, 1.0), _record(1e-3, math.inf, 1.0),
              _record(1e-4, 2.0, 1.0)]
    assert calr_classify(broken, THIN_REGIME).verdict.value == "Indeterminate"

    # Energy spikes without any visibility drop: neither CALR nor NoCALR.
    spiky = [_record(1e-2, 1.0, 1.0), _record(1e-3, 100.0, 1.0),
             _record(1e-4, 3.0, 1.0)]
    assert calr_classify(spiky, THIN_REGIME).verdict.value == "Indeterminate"
