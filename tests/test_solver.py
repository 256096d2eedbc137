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
import re
import time
import tracemalloc
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
    Dipole,
    EllipticPoint,
    OverflowGuard,
    TruncationWarning,
    adaptive_n_max,
    boundary_forcing,
    calr_classify,
    critical_radius,
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
from calr_lab.errors import InputError
from calr_lab.solver import SweepRecord, _solve
from calr_lab.source import _PANEL_ADD_ELEMENTS, _horner, elliptic_potential
from calr_lab.spectrum import _mode_limit, mode_factors
from reference import (
    closed_energy,
    dissipated_power_direct,
    eval_gradient_shell,
    eval_potential,
    mode_column,
    spectral_energy,
    transmission_energy,
)

TWO_PI = 2.0 * math.pi

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
THICK = ConfocalGeometry(1.0, 0.2, 1.0)
NEAR_DEGENERATE = ConfocalGeometry(1.0, 0.5, 0.55)
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
        row = mode_column(table, n)
        families = (
            (row.pairs[0], np.cos(n * om), row.norms[0]),
            (row.pairs[1], np.sin(n * om), row.norms[1]),
            (row.pairs[2], np.cos(n * om), row.norms[2]),
            (row.pairs[3], np.sin(n * om), row.norms[3]),
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
    proj_1p, proj_1m, proj_2p, proj_2m = mode_projections(forcing, mode_table(THIN, 10), THIN)
    (gc_i, gs_i), (gc_e, gs_e) = forcing
    nn = np.arange(1, 11)
    g_i = (gc_i[:, None] * np.cos(np.outer(nn, om))
           + gs_i[:, None] * np.sin(np.outer(nn, om))).sum(axis=0) / xii
    g_e = (gc_e[:, None] * np.cos(np.outer(nn, om))
           + gs_e[:, None] * np.sin(np.outer(nn, om))).sum(axis=0) / xie
    table = mode_table(THIN, 10)
    for n in range(1, 11):
        row = mode_column(table, n)
        families = (
            (row.pairs[0], np.cos(n * om), proj_1p[n - 1]),
            (row.pairs[1], np.sin(n * om), proj_1m[n - 1]),
            (row.pairs[2], np.cos(n * om), proj_2p[n - 1]),
            (row.pairs[3], np.sin(n * om), proj_2m[n - 1]),
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


def test_adaptive_n_max_refuses_a_subnormal_loss():
    """ln(1/delta) is formed as -ln(delta): at delta = 5e-324, 1/delta is
    inf and math.ceil raised a bare OverflowError.  A shell width so small
    that 2 ln(1/delta) / width is inf is refused the same way."""
    thick = ConfocalGeometry(1.0, 0.2, 1.0)
    want = "delta = 5e-324 needs n_max = 1902; the largest n_max that fits rho_e = 1.0 is 350"
    with pytest.raises(OverflowGuard, match=f"^{re.escape(want)}$"):
        adaptive_n_max(5e-324, thick)
    with pytest.raises(OverflowGuard, match="needs an n_max past double range"):
        adaptive_n_max(0.5, ConfocalGeometry(1.0, 1e-310, 2e-310))


def test_adaptive_n_max_takes_integer_margins_only():
    """A fractional margin made a fractional n_max (48.5), on which sweep
    failed with a raw IndexError deep in the solve; a margin past the
    double range raised a bare OverflowError."""
    src = Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4]))
    for margin in (1.5, 40.0, -1.5, "40", None):
        want = f"^{re.escape(f'margin: must be an integer >= 0, got {margin}')}$"
        with pytest.raises(InputError, match=want):
            adaptive_n_max(1e-3, THIN, margin)
        with pytest.raises(InputError, match=want):
            sweep(src, THIN, [1e-3], PROBES_THIN, margin=margin)
    assert adaptive_n_max(1e-3, THIN, np.int64(7)) == adaptive_n_max(1e-3, THIN, 7)
    n = adaptive_n_max(1e-3, THIN, 0) + 10**400
    want = f"delta = 0.001 needs n_max = {n}; the largest n_max that fits rho_e = 0.8 is 437"
    with pytest.raises(OverflowGuard, match=f"^{re.escape(want)}$"):
        adaptive_n_max(1e-3, THIN, 10**400)


def test_adaptive_n_max_refuses_every_integer_margin():
    """A margin whose n_max has more digits than Python converts to text
    (4300 by default) raised a bare ValueError while the OverflowGuard
    message was formatted; the message now leaves such an n out."""
    want = ("delta = 0.001 needs an n_max too long to print; the largest n_max"
            " that fits rho_e = 0.8 is 437")
    with pytest.raises(OverflowGuard, match=f"^{re.escape(want)}$"):
        adaptive_n_max(1e-3, THIN, 10**5000)


@pytest.mark.parametrize("g, top", [(THIN, 437), (THICK, 350)], ids=["thin", "thick"])
def test_one_truncation_bound(g, top):
    """mode_table, adaptive_n_max and boundary_forcing accept n_max up to
    the one bound float(n) 2 rho_e <= 700 and refuse one more mode with
    OverflowGuard, each from n_max alone, before any array is formed."""
    assert _mode_limit(g) == top
    assert float(top) * 2.0 * g.rho_e <= 700.0 < float(top + 1) * 2.0 * g.rho_e
    floor = adaptive_n_max(1e-3, g, 0)
    assert adaptive_n_max(1e-3, g, top - floor) == top == len(mode_table(g, top).n)
    src = Dipole(EllipticPoint(g.rho_e + 0.3, 0.9), np.array([1.0, 0.4]))
    assert np.all(np.isfinite(boundary_forcing(newtonian_coefficients(src, top, g.R), g)))
    with pytest.raises(OverflowGuard, match=f"is {top}$"):
        adaptive_n_max(1e-3, g, top + 1 - floor)
    with pytest.raises(OverflowGuard, match=f"at n = {top + 1}$"):
        mode_table(g, top + 1)
    # Two million modes: a forcing array would take 64 MB.
    sc = Coefficients(0.0, np.zeros(2_000_000), np.zeros(2_000_000))
    tracemalloc.start()
    try:
        with pytest.raises(OverflowGuard, match="at n = 2000000$"):
            boundary_forcing(sc, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_solve_densities_validation():
    sc = Coefficients(0.0, np.zeros(40), np.zeros(40))
    solve_densities(sc, THIN, -1e-3)  # negative loss is allowed (conjugate branch)
    with pytest.raises(ValueError):
        solve_densities(sc, THIN, 0.0)
    with pytest.raises(ValueError):
        solve_densities(sc, THIN, math.nan)
    # One loss only: K losses are _solve's.
    with pytest.raises(ValueError, match="one finite, nonzero loss"):
        solve_densities(sc, THIN, [1e-3])
    with pytest.raises(ValueError):
        solve_densities(Coefficients(0.0, np.zeros(0), np.zeros(0)), THIN, 1e-3)
    with pytest.raises(OverflowGuard):
        solve_densities(Coefficients(0.0, np.zeros(438), np.zeros(438)), THIN, 1e-3)


@pytest.mark.parametrize("span", [0, 1], ids=["cosine", "sine"])
def test_densities_take_the_forcing_layout(span):
    """Densities are (Gamma_i, Gamma_e) x (cosine span, sine span) x mode,
    as the forcing is: a source with only F_n^+ gives a sine span dc[:, 1]
    of exact zeros on both interfaces and a nonzero cosine span, and one
    with only F_n^- the mirror result.  One loss gives (2, 2, n) and
    _solve over K losses (2, 2, K, n), row k bit for bit the solve at
    that loss."""
    n = 40
    f, zero = np.exp(-2.0 * np.arange(1, n + 1)), np.zeros(n)
    sc = Coefficients(0.2, *((f, zero) if span == 0 else (zero, f)))
    deltas = [1e-1, 1e-2, -1e-2]
    rows = _solve(sc, THIN, deltas, [sc.n_max] * len(deltas))[0]
    assert rows.shape == (2, 2, len(deltas), n)
    for k, delta in enumerate(deltas):
        dc = solve_densities(sc, THIN, delta)
        assert dc.shape == (2, 2, n)
        assert rows[:, :, k].tobytes() == dc.tobytes()
        assert np.all(dc[:, 1 - span] == 0.0)
        assert np.all(dc[:, span] != 0.0)


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_solve_densities_rows_equal_per_loss_solves(geometry):
    """_solve over K losses, as sweep and validate call it, gives (2, 2, K,
    n_max) densities, row k equal bit for bit to solve_densities at that
    loss alone, +-delta pairs included."""
    src = Dipole(EllipticPoint(geometry.rho_e + 0.5, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(src, 90, geometry.R, rho_e=geometry.rho_e)
    deltas = [1e-3, -1e-3, 0.2, 1e-7, -1e-7, -0.5]
    rows = _solve(sc, geometry, deltas, [sc.n_max] * len(deltas))[0]
    assert rows.shape == (2, 2, len(deltas), sc.n_max)
    for k, delta in enumerate(deltas):
        assert np.array_equal(rows[:, :, k], solve_densities(sc, geometry, delta))
    one = _solve(sc, geometry, np.array([2e-2]), [sc.n_max])[0]
    assert np.array_equal(one[1, 0], solve_densities(sc, geometry, 2e-2)[1, 0][None])


# ---------------------------------------------------------------------------
# Boundary forcing.


def test_boundary_forcing_constant_source():
    sc = newtonian_coefficients(
        Coefficients(c=3.0, f_plus=np.zeros(6), f_minus=np.zeros(6)), 6, 1.0
    )
    forcing = boundary_forcing(sc, THIN)
    assert forcing.shape == (2, 2, 6)
    for arr in forcing.reshape(4, -1):
        assert np.all(arr == 0.0)


def test_boundary_forcing_single_mode():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.array([1.0]), f_minus=np.array([0.0])),
        1, 1.0,
    )
    (gc_i, gs_i), (gc_e, gs_e) = boundary_forcing(sc, THIN)
    assert math.isclose(gc_i[0], math.sinh(0.5), rel_tol=1e-15)
    assert math.isclose(gc_e[0], -math.sinh(0.8), rel_tol=1e-15)
    assert gs_i[0] == 0.0
    assert gs_e[0] == 0.0


def test_boundary_forcing_out_of_double_range_warns_nothing():
    """2 F_2 sinh(2 rho_i) with F_2 = 1e308 is not a double: OverflowGuard,
    with no numpy overflow warning on the way."""
    sc = Coefficients(0.0, np.array([0.0, 1e308]), np.array([0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuard, match="^forcing coefficients leave double range$"):
            boundary_forcing(sc, THIN)


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
    for rho_t, (g_cos, g_sin), sign in (
        (THIN.rho_i, forcing[0], 1.0),
        (THIN.rho_e, forcing[1], -1.0),
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
    proj_1p, proj_1m, proj_2p, proj_2m = mode_projections(
        boundary_forcing(sc, THIN), mode_table(THIN, 6), THIN)
    for k in (1, 2, 3, 5):  # modes 2, 3, 4, 6 carry no forcing
        assert proj_1p[k] == 0.0
        assert proj_2p[k] == 0.0
        assert proj_1m[k] == 0.0
        assert proj_2m[k] == 0.0



@pytest.mark.parametrize(
    "g", [THIN, THICK, NEAR_DEGENERATE], ids=["thin", "thick", "near_degenerate"]
)
def test_mode_projections_equal_the_per_family_gram_forms_bit_for_bit(g):
    """The contraction over the family table gives, bit for bit at n_max =
    200, the four per-family Gram forms written out by hand: the forcing
    pair of the family's span times the unscaled Gram entries of
    mode_factors times the family's density pair, then times pi/n."""
    n_max = 200
    n = np.arange(1, n_max + 1, dtype=float)
    rng = np.random.default_rng(29)
    decay = np.exp(-(g.rho_e + 0.2) * n)
    sc = Coefficients(0.0, rng.normal(size=n_max) * decay, rng.normal(size=n_max) * decay)
    forcing, modes = boundary_forcing(sc, g), mode_table(g, n_max)
    f = mode_factors(n, g)
    ci, si, ce, se, cx, sx, pref = f.ci, f.si, f.ce, f.se, f.cx, f.sx, f.pref

    def pair_cos(u1, u2, v1, v2):
        return pref * (u1 * (ci * v1 + cx * v2) + u2 * (cx * v1 + ce * v2))

    def pair_sin(u1, u2, v1, v2):
        return pref * (u1 * (si * v1 + sx * v2) + u2 * (sx * v1 + se * v2))

    (gc_i, gs_i), (gc_e, gs_e) = forcing
    want = np.array([
        pair_cos(gc_i, gc_e, *modes.pairs[0]),
        pair_sin(gs_i, gs_e, *modes.pairs[1]),
        pair_cos(gc_i, gc_e, *modes.pairs[2]),
        pair_sin(gs_i, gs_e, *modes.pairs[3]),
    ])
    got = mode_projections(forcing, modes, g)
    assert np.all(np.isfinite(want)) and np.all(np.abs(want) > 0.0)
    for name, a, b in zip(("1+", "1-", "2+", "2-"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

def test_projection_thin_ratio_approaches_half_pi():
    """For a cosine forcing with coefficients F e^{n rho_i}, the first-family
    projection divided by F e^{n rho_i} settles at pi/2 in the thin regime."""
    n_max = 60
    n = np.arange(1, n_max + 1)
    f_plus = np.exp(-1.2 * n)
    forcing = np.array([
        [n * f_plus * np.sinh(n * THIN.rho_i), np.zeros(n_max)],
        [-n * f_plus * np.sinh(n * THIN.rho_e), np.zeros(n_max)],
    ])
    proj = mode_projections(forcing, mode_table(THIN, n_max), THIN)
    ratio = proj[0] / (f_plus * np.exp(n * THIN.rho_i))
    window = ratio[19:60]
    assert np.max(np.abs(window - math.pi / 2)) < 1e-3 * (math.pi / 2)


# ---------------------------------------------------------------------------
# Density solve.


def test_solve_densities_zero_source():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.zeros(8), f_minus=np.zeros(8)), 8, 1.0
    )
    dc = solve_densities(sc, THIN, 1e-3)
    assert dc.shape == (2, 2, 8) and np.all(dc == 0.0)


def test_resolvent_magnitude_closed_form():
    table = mode_table(THIN, 40)
    for delta in (1e-2, 1e-3, 1e-5):
        z = z_param(delta)
        denom = 4.0 + delta * delta
        re_z = -delta * delta / (2.0 * denom)
        im_z = delta / denom
        for lam in np.concatenate([table.eigenvalues[0], table.eigenvalues[2]]):
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
    for arr in dc[0]:
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
    """Points in the core, the shell and the exterior and exactly on both
    interfaces, hundreds of them in one call, give bit for bit the
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


def _padded(dc, n_max):
    """One density row zero-padded to n_max modes."""
    return np.pad(dc, ((0, 0), (0, 0), (0, n_max - dc.shape[-1])))


def _exp_cos_sin_layers(dc, g, rho, omega):
    """The layer sums in their per-(point, mode) exp/cos/sin form, and the
    sum over the modes of |term_n| (test reference for the Horner sums)."""
    n = np.arange(1, dc.shape[-1] + 1, dtype=float)
    r, nw = np.asarray(rho)[..., None], np.asarray(omega)[..., None] * n
    total, scale = 0.0, 0.0
    for rk, (c, s) in zip((g.rho_i, g.rho_e), dc):
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
        for rk, (c, s) in zip((g.rho_i, g.rho_e), dc):
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
    pad = np.zeros((2, 2, 53), dtype=complex)
    padded = np.concatenate([dc, pad], axis=-1)
    rng = np.random.default_rng(11)
    rho = np.concatenate([[0.0, THIN.rho_i, THIN.rho_e], rng.uniform(0.0, 2.0, 300)])
    omega = rng.uniform(0.0, TWO_PI, rho.size)
    for src in (_NO_SOURCE, sc):
        want = eval_potentials(src, dc, THIN, rho, omega)
        got = eval_potentials(src, padded, THIN, rho, omega)
        assert got.tobytes() == want.tobytes()


def test_density_rows_are_evaluated_at_every_point():
    """Row k of (2, 2, K, n_max) densities gives, at every point, bit for
    bit the value of that row alone, in the core, the shell and the
    exterior and on both interfaces; the result has shape (K,) + points,
    and a (2, 2, 1, n_max) row gives the one-row value."""
    _, sc, dc = _solved_case(THIN, 1.3, 1e-3)
    _, _, dc2 = _solved_case(THIN, 1.3, 1e-5)
    alone = [_padded(d, dc2.shape[-1]) for d in (dc, dc2, dc)]
    rows = np.stack(alone, axis=2)
    rho = np.array([[0.3, 0.65, 1.2], [THIN.rho_i, THIN.rho_e, 0.0]])
    omega = np.array([1.0, 2.0, 0.6])
    for src in (_NO_SOURCE, sc):
        got = eval_potentials(src, rows, THIN, rho, omega)
        assert got.shape == (3, 2, 3)
        for k, d in enumerate(alone):
            want = eval_potentials(src, d, THIN, rho, omega)
            assert got[k].tobytes() == want.tobytes()
            one = eval_potentials(src, d[:, :, None], THIN, rho, omega)
            assert one.shape == (1, 2, 3) and one[0].tobytes() == want.tobytes()
        assert eval_potentials(src, rows, THIN, [], []).shape == (3, 0)


def test_sweep_evaluates_the_source_once_per_probe(monkeypatch):
    """A sweep evaluates F once at each of its P probes and adds it to the
    rows of all K deltas: P points reach elliptic_potential, not K P."""
    seen = []

    def counting(source, R, rho, omega):
        seen.append(np.size(rho))
        return elliptic_potential(source, R, rho, omega)

    monkeypatch.setattr("calr_lab.solver.elliptic_potential", counting)
    src = Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4]))
    records, _ = sweep(src, THIN, [1e-2, 1e-3, 1e-4], PROBES_THIN)
    assert seen == [len(PROBES_THIN)]
    assert [len(rec.far_samples) for rec in records] == [len(PROBES_THIN)] * 3


def test_potentials_do_not_depend_on_blocks(monkeypatch):
    """Thousands of points in each region and exactly on both interfaces
    give the same bits whole, in chunks, and alone: a value does not
    depend on the call its point falls in.  Each call makes one _horner
    call (a spy records its elements): the whole call's is past
    _PANEL_ADD_ELEMENTS, so it adds by broadcast, and each chunk's within
    it, so it adds from a panel, for one row in chunks of 999 points and
    for three rows, two of them zero-padded, in chunks of 333."""
    src, _, dc1 = _solved_case(THIN, 1.3, 1e-3)
    _, _, dc2 = _solved_case(THIN, 1.3, 1e-5)
    padded = _padded(dc1, dc2.shape[-1])
    dc3 = np.stack([padded, dc2, padded], axis=2)
    sizes = []

    def spy(pairs):
        blocks = _horner(pairs)
        sizes.append(sum(b.size for b in blocks))
        return blocks

    monkeypatch.setattr("calr_lab.solver._horner", spy)
    rng = np.random.default_rng(5)
    m = 8192 + 7
    rho = np.concatenate([
        rng.uniform(0.0, THIN.rho_i, m),
        rng.uniform(THIN.rho_i, THIN.rho_e, m),
        rng.uniform(THIN.rho_e, 2.0, m),
    ])
    rho[:64] = [THIN.rho_i, THIN.rho_e] * 32
    omega = rng.uniform(0.0, TWO_PI, rho.size)
    order = rng.permutation(rho.size)
    rho, omega = rho[order], omega[order]
    for dc, chunk in ((dc1, 999), (dc3, 333)):
        sizes.clear()
        whole = eval_potentials(src, dc, THIN, rho, omega)
        assert len(sizes) == 1 and sizes[0] > _PANEL_ADD_ELEMENTS
        sizes.clear()
        chunks = [eval_potentials(src, dc, THIN, rho[k : k + chunk], omega[k : k + chunk])
                  for k in range(0, rho.size, chunk)]
        assert len(sizes) == len(chunks) and max(sizes) <= _PANEL_ADD_ELEMENTS
        assert np.concatenate(chunks, axis=-1).tobytes() == whole.tobytes()
        for j in rng.choice(rho.size, 30, replace=False):
            assert np.array_equal(eval_potentials(src, dc, THIN, rho[j], omega[j]),
                                  whole[..., j])


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


def test_values_out_of_double_range_are_refused():
    """A density, potential or normalized far value that is not a double
    raises OverflowGuard where it is formed, with no numpy warning: a
    dipole of moment 1e300 near the shell (field wrote nan), finite
    densities whose layer sum overflows, and c = 1e308, whose |V| /
    sqrt(E) is past the doubles (sweep.csv held inf)."""
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1e300, 0.0]))
    sc = newtonian_coefficients(src, 60, THIN.R, rho_e=THIN.rho_e)
    with pytest.raises(OverflowGuard, match="^densities leave double range$"):
        solve_densities(sc, THIN, 1e-3)
    dc = np.full((2, 2, 1), 1e308 + 0j)
    with pytest.raises(OverflowGuard, match="^potential leaves double range$"):
        eval_potentials(_NO_SOURCE, dc, THIN, [0.5, 0.65, 1.0], [0.0, 0.0, 0.0])
    src = Coefficients(1e308, [0.2, 0.01], [0.1, 0.0])
    with pytest.raises(OverflowGuard, match="^normalized far field leaves double range$"):
        sweep(src, THIN, [1e-2, 1e-3, 1e-4], PROBES_THIN)


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
    """eval_gradient_shell refuses a point off the shell, and
    eval_potentials a point with rho < 0 or a non-finite rho or omega,
    as EllipticPoint does, even among valid points."""
    src, _, dc = _solved_case(THIN, 1.3, 1e-3)
    with pytest.raises(ValueError):
        eval_gradient_shell(src, dc, THIN, 0.3, 1.0)
    with pytest.raises(ValueError):
        eval_gradient_shell(src, dc, THIN, 0.9, 1.0)
    for rho, omega in ((-1e-3, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                       (0.65, math.nan), (0.65, math.inf), (1.2, -math.inf)):
        with pytest.raises(ValueError, match="need finite"):
            eval_potentials(src, dc, THIN, [0.3, rho], [2.0, omega])


@pytest.mark.filterwarnings("ignore::calr_lab.errors.TruncationWarning")
@pytest.mark.parametrize("n_max, k", [(2, 2), (3, 3), (30, 2), (3, 1)])
def test_one_row_functions_refuse_k_rows(n_max, k):
    """The two reference functions that read one density row refuse K
    rows (also K == n_max) with one ValueError naming the shape; a
    (2, 2, 1, n_max) array is K rows too."""
    src = Dipole(EllipticPoint(1.3, 0.4), np.array([1.0, 0.3]))
    sc = newtonian_coefficients(src, n_max, THIN.R, rho_e=THIN.rho_e)
    rows = _solve(sc, THIN, [1e-3, 1e-2, 1e-1][:k], [n_max] * k)[0]
    shape = re.escape(f"got shape (2, 2, {k}, {n_max})")
    for call in (
        lambda: eval_gradient_shell(src, rows, THIN, 0.6, 1.0),
        lambda: dissipated_power_direct(src, rows, THIN, 1e-3),
    ):
        with pytest.raises(ValueError, match=shape):
            call()


# ---------------------------------------------------------------------------
# Dissipated power.


def test_dissipated_power_zero_source():
    sc = newtonian_coefficients(
        Coefficients(c=0.0, f_plus=np.zeros(8), f_minus=np.zeros(8)), 8, 1.0
    )
    dc = solve_densities(sc, THIN, 1e-3)
    assert dissipated_power_direct(sc, dc, THIN, 1e-3) == 0.0
    assert closed_energy(sc, dc, THIN, 1e-3) == 0.0
    proj = mode_projections(boundary_forcing(sc, THIN), mode_table(THIN, 8), THIN)
    assert spectral_energy(proj, mode_table(THIN, 8), 1e-3) == 0.0


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
    n_top = _mode_limit(g)  # largest n with 2 n rho_e <= 700
    sc = newtonian_coefficients(src, n_top + 1, g.R, rho_e=g.rho_e)
    with pytest.raises(OverflowGuard):
        solve_densities(sc, g, 1e-8)
    cases = [(d, adaptive_n_max(d, g, margin)) for d in deltas] + [(1e-8, n_top)]
    for delta, n_max in cases:
        sc, dc = _truncated_solve(src, g, delta, n_max)
        closed = closed_energy(sc, dc, g, delta)
        oracle = dissipated_power_direct(sc, dc, g, delta)
        assert math.isfinite(closed) and closed > 0.0
        assert abs(closed - oracle) <= 1e-13 * oracle, (delta, n_max)


@pytest.mark.parametrize("delta", [1e-3, 1e-8])
@pytest.mark.parametrize("name", ["dipole_inside", "thick_inside"])
def test_closed_energy_matches_the_transmission_reference(name, delta):
    """At the largest truncation the bound allows (437 modes on the thin
    shell, 350 on the thick one), the densities are finite and the
    closed-form energy equals a 50-digit per-mode 4 x 4 transmission solve
    of the same float F_n (tests/reference.py), which uses no spectral
    data, to 1e-13."""
    g, src = _bundled_sweep(name)[:2]
    sc, dc = _truncated_solve(src, g, delta, _mode_limit(g))
    assert np.all(np.isfinite(dc))
    closed = closed_energy(sc, dc, g, delta)
    reference = float(transmission_energy(sc, g, delta))
    assert abs(closed - reference) <= 1e-13 * reference


def test_dissipated_power_spectral_single_mode():
    table = mode_table(THIN, 12)
    n_star = 5
    proj_val = 0.7
    proj = np.zeros((4, 12))  # rows 1+, 1-, 2+, 2-
    proj[0, n_star - 1] = proj_val
    row = mode_column(table, n_star)
    for delta in (1e-2, 1e-3, 1e-4):
        want = delta * proj_val**2 / ((row.eigenvalues[0]**2 + delta**2) * row.norms[0])
        got = spectral_energy(proj, table, delta)
        assert abs(got - want) <= 1e-14 * want


def test_dissipated_power_peaks_at_eigenvalue():
    """Sweeping delta across |lambda_1| of an isolated forced mode, the
    spectral power is maximal where delta matches the eigenvalue."""
    table = mode_table(THIN, 12)
    n_star = 5
    proj = np.zeros((4, 12))  # rows 1+, 1-, 2+, 2-
    proj[0, n_star - 1] = 1.0
    lam = abs(mode_column(table, n_star).eigenvalues[0])
    grid = lam * np.logspace(-1.0, 1.0, 17)
    powers = [spectral_energy(proj, table, float(d)) for d in grid]
    k_peak = int(np.argmax(powers))
    k_near = int(np.argmin(np.abs(np.log(grid) - math.log(lam))))
    assert abs(k_peak - k_near) <= 1


def test_surrogate_tracks_direct_energy():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    records, _ = sweep(src, THIN, [1e-2, 1e-4, 1e-6], PROBES_THIN)
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
    records, _ = sweep(src, THIN, deltas, PROBES_THIN)
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
    records, _ = sweep(src, THIN, deltas, PROBES_THIN)
    energies = np.array([r.e_direct for r in records])
    assert np.all(np.diff(energies) < 0.0)
    diag = calr_classify(records, THIN_REGIME)
    assert diag.verdict.value == "NoCALR"
    assert diag.growth_exponent < -0.05


def test_sweep_preserves_order():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    deltas = [1e-3, 1e-2, 1e-5, 1e-4]
    records, _ = sweep(src, THIN, deltas, PROBES_THIN)
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
    records, _ = sweep(src, g, deltas, probes, margin=margin)
    assert [rec.delta for rec in records] == deltas
    for rec in records:
        n_max = adaptive_n_max(rec.delta, g, margin)
        sc, dc = _truncated_solve(src, g, rec.delta, n_max)
        modes = mode_table(g, n_max)
        proj = mode_projections(boundary_forcing(sc, g), modes, g)
        far = np.array([abs(eval_potential(src, dc, g, p)) for p in probes])
        assert rec.n_max == n_max
        assert rec.e_spectral == spectral_energy(proj, modes, rec.delta)
        assert np.array_equal(rec.far_samples, far)
        assert rec.e_direct == closed_energy(sc, dc, g, rec.delta)


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
    (records, _), got = _truncation_messages(lambda: sweep(src, g, deltas, probes, margin=margin))
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
    proj = mode_projections(boundary_forcing(sc, THIN), modes, THIN)
    return (
        lambda: closed_energy(sc, dc, THIN, 1e-3),
        lambda: spectral_energy(proj, modes, 1e-3),
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


def test_classify_fewer_than_three_distinct_deltas():
    """Records at fewer than 3 distinct deltas fit no slope: Indeterminate,
    with NaN numbers and no polyfit RankWarning, however many records."""
    for deltas in ([1e-3] * 3, [1e-2, 1e-2, 1e-3, 1e-3]):
        records = [_record(d, 10.0 ** k, 8.0 / 2**k) for k, d in enumerate(deltas)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diagnosis = calr_classify(records, THIN_REGIME)
        assert diagnosis.verdict.value == "Indeterminate"
        assert math.isnan(diagnosis.growth_exponent)
    three = [_record(d, 10.0 ** k, 8.0 / 2**k) for k, d in enumerate([1e-2, 1e-3, 1e-3, 1e-4])]
    assert calr_classify(three, THIN_REGIME).verdict.value == "CALR"


def test_classify_records_without_probes():
    """Without probes there is no visibility to grade: the drop is nan, the
    visibility is not decreasing, and growth alone does not make CALR."""
    empty = np.zeros(0)
    records = [SweepRecord(d, 10, e, e, empty, empty)
               for d, e in zip([1e-2, 1e-3, 1e-4], [1.0, 10.0, 100.0])]
    diagnosis = calr_classify(records, THIN_REGIME)
    assert diagnosis.verdict.value == "Indeterminate"
    assert math.isnan(diagnosis.visibility_drop)
    assert not diagnosis.visibility_decreasing and diagnosis.energy_increasing
    assert diagnosis.growth_exponent == pytest.approx(1.0)


def test_forcing_and_projection_refusals():
    """boundary_forcing refuses a forcing past the double range (numpy
    warns of the overflow on the way), and mode_projections a forcing of
    another truncation than its table."""
    sc = Coefficients(0.0, [0.0, 1e308], [0.0, 0.0])
    with np.errstate(over="ignore"), \
            pytest.raises(OverflowGuard, match="^forcing coefficients leave double range$"):
        boundary_forcing(sc, THIN)
    forcing = boundary_forcing(Coefficients(0.0, np.ones(5), np.ones(5)), THIN)
    with pytest.raises(ValueError, match="^forcing and mode table have different truncation"):
        mode_projections(forcing, mode_table(THIN, 6), THIN)


def test_readme_library_example_runs():
    """The README's one Python block runs as written, in a fresh namespace,
    and grades its sweep CALR."""
    text = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace: dict = {}
    with warnings.catch_warnings():
        # Its dipole sits close to the shell, so the sweep truncates short.
        warnings.simplefilter("ignore", TruncationWarning)
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["verdict"].value == "CALR"
