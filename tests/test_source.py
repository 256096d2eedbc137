"""Tests for source expansions: closed forms against quadrature oracles."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from calr_lab import source
from calr_lab import (
    ChargePair,
    Coefficients,
    ConfocalGeometry,
    Dipole,
    EllipticPoint,
    GapVerdict,
    SingularPoint,
    SourceInsideShell,
    TooFewCoefficients,
    coefficient_projection_oracle,
    convergence_exponent,
    critical_radius,
    gap_condition_report,
    green_expansion_coefficients,
    newtonian_coefficients,
    newtonian_eval,
    newtonian_gradient,
    to_cartesian,
)
from calr_lab.geometry import cartesian

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
RHO_STAR = critical_radius(THIN.rho_i, THIN.rho_e).rho_star


def _series_value(sc, p):
    """Evaluate c + sum f+ cos(n w) cosh(n rho) + f- sin(n w) sinh(n rho)."""
    n = np.arange(1, sc.n_max + 1)
    return sc.c + float(
        np.sum(sc.f_plus * np.cos(n * p.omega) * np.cosh(n * p.rho))
        + np.sum(sc.f_minus * np.sin(n * p.omega) * np.sinh(n * p.rho))
    )


def test_green_weights_on_axis():
    cos_w, sin_w = green_expansion_coefficients(EllipticPoint(1.2, 0.0), 8)
    assert np.all(sin_w == 0.0)
    mpmath.mp.dps = 40
    want = float(-mpmath.e ** mpmath.mpf("-1.2") / mpmath.pi)
    assert math.isclose(cos_w[0], want, rel_tol=1e-15)


def test_green_series_matches_log_kernel():
    """Partial sums reproduce ln|x - x0| / (2 pi) up to the additive
    constant, so differences of values must match to 1e-10."""
    x0 = EllipticPoint(1.2, 0.7)
    cos_w, sin_w = green_expansion_coefficients(x0, 80)
    n = np.arange(1, 81)

    def series(p):
        return float(
            np.sum(cos_w * np.cos(n * p.omega) * np.cosh(n * p.rho))
            + np.sum(sin_w * np.sin(n * p.omega) * np.sinh(n * p.rho))
        )

    def log_kernel(p):
        d = to_cartesian(1.0, p) - to_cartesian(1.0, x0)
        return math.log(float(np.hypot(d[0], d[1]))) / (2.0 * math.pi)

    p1, p2 = EllipticPoint(0.6, 1.0), EllipticPoint(0.4, 2.2)
    got = series(p1) - series(p2)
    want = log_kernel(p1) - log_kernel(p2)
    assert abs(got - want) < 1e-10


def test_green_weights_validation():
    with pytest.raises(ValueError):
        green_expansion_coefficients(EllipticPoint(1.2, 0.0), 0)
    with pytest.raises(ValueError):
        green_expansion_coefficients(EllipticPoint(0.0, 0.0), 8)


def test_zero_moment_dipole_expands_to_zero():
    sc = newtonian_coefficients(
        Dipole(EllipticPoint(1.2, 0.7), np.array([0.0, 0.0])), 20, 1.0
    )
    assert sc.c == 0.0
    assert np.all(sc.f_plus == 0.0)
    assert np.all(sc.f_minus == 0.0)


def test_dipole_coefficients_match_projection_oracle():
    """Closed-form dipole expansion against the Fourier projection route,
    per coefficient, n up to 20."""
    src = Dipole(EllipticPoint(1.2, 0.7), np.array([1.0, 0.5]))
    sc = newtonian_coefficients(src, 20, 1.0)
    oracle = coefficient_projection_oracle(src, 0.6, 20, 1.0)
    assert np.max(np.abs(sc.f_plus - oracle.f_plus) / np.abs(oracle.f_plus)) < 1e-8
    assert np.max(np.abs(sc.f_minus - oracle.f_minus) / np.abs(oracle.f_minus)) < 1e-8
    assert abs(sc.c - oracle.c) < 1e-8


def test_projection_oracle_radius_independence():
    src = Dipole(EllipticPoint(1.2, 0.7), np.array([1.0, 0.5]))
    lo = coefficient_projection_oracle(src, 0.6, 20, 1.0)
    hi = coefficient_projection_oracle(src, 0.96, 20, 1.0)
    assert np.max(np.abs(lo.f_plus - hi.f_plus) / np.abs(lo.f_plus)) < 1e-8
    assert np.max(np.abs(lo.f_minus - hi.f_minus) / np.abs(lo.f_minus)) < 1e-8


def test_major_axis_dipole_has_no_sine_part():
    src = Dipole(EllipticPoint(1.2, 0.0), np.array([1.0, 0.0]))
    sc = newtonian_coefficients(src, 20, 1.0)
    assert np.all(sc.f_minus == 0.0)
    oracle = coefficient_projection_oracle(src, 0.7, 20, 1.0)
    assert np.max(np.abs(oracle.f_minus)) <= 1e-12 * np.max(np.abs(oracle.f_plus))


def test_projection_oracle_zero_source():
    sc = coefficient_projection_oracle(
        Coefficients(c=0.5, f_plus=np.zeros(12), f_minus=np.zeros(12)),
        0.8, 12, 1.0,
    )
    assert np.all(sc.f_plus == 0.0)
    assert np.all(sc.f_minus == 0.0)
    assert math.isclose(sc.c, 0.5, rel_tol=1e-14)


def test_projection_oracle_validation():
    src = Dipole(EllipticPoint(1.2, 0.7), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        coefficient_projection_oracle(src, 1.2, 20, 1.0)
    with pytest.raises(ValueError):
        coefficient_projection_oracle(src, 0.0, 20, 1.0)


def test_newtonian_eval_dipole_on_axis():
    # Moment aligned with the separation vector: F = <a, x-x0> / (2 pi r^2).
    src = Dipole(EllipticPoint(1.0, 0.0), np.array([1.0, 0.0]))
    x0 = to_cartesian(1.0, EllipticPoint(1.0, 0.0))
    x = x0 + np.array([0.25, 0.0])
    assert math.isclose(
        newtonian_eval(src, x, 1.0), 1.0 / (2.0 * math.pi * 0.25), rel_tol=1e-13
    )


def test_newtonian_eval_pair_midline_vanishes():
    pair = ChargePair(
        EllipticPoint(1.0, 0.5), EllipticPoint(1.0, 2.0 * math.pi - 0.5), 2.0
    )
    # Points on the x1 axis are equidistant from the two charges.
    assert abs(newtonian_eval(pair, np.array([5.0, 0.0]), 1.0)) < 1e-15


def test_newtonian_eval_singular_points():
    src = Dipole(EllipticPoint(1.0, 0.3), np.array([1.0, 0.0]))
    with pytest.raises(SingularPoint):
        newtonian_eval(src, to_cartesian(1.0, src.location), 1.0)
    pair = ChargePair(EllipticPoint(1.0, 0.5), EllipticPoint(1.2, 2.0), 1.0)
    with pytest.raises(SingularPoint):
        newtonian_eval(pair, to_cartesian(1.0, pair.minus), 1.0)


@pytest.mark.parametrize("kind", ["dipole", "pair", "coefficients"])
def test_array_source_evaluation_matches_pointwise(kind):
    """newtonian_eval and newtonian_gradient on an (m, 2) array equal the
    one-point calls bit for bit."""
    src = {
        "dipole": Dipole(EllipticPoint(1.3, 0.9), np.array([1.0, 0.4])),
        "pair": ChargePair(EllipticPoint(1.4, 0.5), EllipticPoint(1.6, 2.5), 0.7),
        "coefficients": Coefficients(0.2, np.array([0.3, -0.1, 0.02, 0.0]),
                                     np.array([-0.2, 0.05, 0.0, 0.01])),
    }[kind]
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.8, 1.8, (50, 2))
    values = newtonian_eval(src, x, 1.0)
    grads = newtonian_gradient(src, x, 1.0)
    assert values.shape == (50,) and grads.shape == (50, 2)
    for j in range(len(x)):
        assert values[j] == newtonian_eval(src, x[j], 1.0)
        assert np.array_equal(grads[j], newtonian_gradient(src, x[j], 1.0))


def test_array_source_evaluation_rejects_any_singular_point():
    dip = Dipole(EllipticPoint(1.0, 0.3), np.array([1.0, 0.0]))
    pair = ChargePair(EllipticPoint(1.0, 0.5), EllipticPoint(1.2, 2.0), 1.0)
    for src, charge in ((dip, dip.location), (pair, pair.plus), (pair, pair.minus)):
        x = np.array([[0.1, 2.0], to_cartesian(1.0, charge), [-1.5, 0.4]])
        with pytest.raises(SingularPoint):
            newtonian_eval(src, x, 1.0)
        with pytest.raises(SingularPoint):
            newtonian_gradient(src, x, 1.0)


def _axis_sum_offsets(x, R, *charges):
    """The offsets and squared lengths as .sum(axis=-1) over the length-2 axis."""
    return [(r, (r * r).sum(axis=-1)) for r in (x - to_cartesian(R, loc) for loc in charges)]


def _axis_sum_eval(s, x, R):
    if isinstance(s, Dipole):
        ((r, r2),) = _axis_sum_offsets(x, R, s.location)
        value = (r * s.moment).sum(axis=-1) / (2.0 * math.pi * r2)
    else:
        (_, dp2), (_, dm2) = _axis_sum_offsets(x, R, s.plus, s.minus)
        value = s.charge * 0.25 * np.log(dp2 / dm2) / math.pi
    return float(value) if x.ndim == 1 else value


def _axis_sum_gradient(s, x, R):
    if isinstance(s, Dipole):
        ((r, r2),) = _axis_sum_offsets(x, R, s.location)
        a_dot = (r * s.moment).sum(axis=-1)
        return (s.moment - (2.0 * a_dot / r2)[..., None] * r) / (2.0 * math.pi * r2)[..., None]
    (rp, dp2), (rm, dm2) = _axis_sum_offsets(x, R, s.plus, s.minus)
    return s.charge * (rp / dp2[..., None] - rm / dm2[..., None]) / (2.0 * math.pi)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("kind", ["dipole", "signed_zero_dipole", "pair"])
def test_closed_form_sources_equal_the_axis_sums_bit_for_bit(kind):
    """newtonian_eval and newtonian_gradient form r . r and r . a from the
    two components; they equal the .sum(axis=-1) forms bit for bit, sign
    of zero included, on (2,), (m, 2), (a, b, 2) and strided points.  The
    signed-zero dipole, moment (-1, -0), seen from points straight above
    it (x1 equal to the source's x1), has r . a = -0.0 + -0.0, which the
    reduction gives as +0.0."""
    loc = EllipticPoint(1.3, 0.9)
    src = {
        "dipole": Dipole(loc, np.array([1.0, 0.4])),
        "signed_zero_dipole": Dipole(loc, np.array([-1.0, -0.0])),
        "pair": ChargePair(EllipticPoint(1.4, 0.5), EllipticPoint(1.6, 2.5), 0.7),
    }[kind]
    x0 = to_cartesian(1.0, loc)
    rng = np.random.default_rng(32)
    x = rng.uniform(-1.8, 1.8, (6, 5, 2))
    x[0, :, 0] = x0[0]
    x[0, :, 1] = x0[1] + np.linspace(0.1, 0.9, 5)
    cases = [x, x.reshape(-1, 2), x[0, 2], x[:, ::2], np.asfortranarray(x)]
    for pts in cases:
        assert np.array_equal(_bits(newtonian_eval(src, pts, 1.0)),
                              _bits(_axis_sum_eval(src, pts, 1.0)))
        assert np.array_equal(_bits(newtonian_gradient(src, pts, 1.0)),
                              _bits(_axis_sum_gradient(src, pts, 1.0)))
    if kind == "signed_zero_dipole":
        above = newtonian_eval(src, x[0], 1.0)
        assert np.all(above == 0.0) and not np.signbit(above).any()


def test_series_matches_closed_form_inside():
    """Summing the expansion at rho = 0.9 rho0 reproduces the closed-form
    Newtonian potential to 1e-9 with 100 modes."""
    p = EllipticPoint(2.25, 0.4)
    dip = Dipole(EllipticPoint(2.5, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(dip, 100, 1.0)
    want = newtonian_eval(dip, to_cartesian(1.0, p), 1.0)
    assert abs(_series_value(sc, p) - want) < 1e-9 * max(1.0, abs(want))

    pair = ChargePair(EllipticPoint(2.5, 0.3), EllipticPoint(2.8, 3.5), 1.5)
    sc = newtonian_coefficients(pair, 100, 1.0)
    want = newtonian_eval(pair, to_cartesian(1.0, p), 1.0)
    assert abs(_series_value(sc, p) - want) < 1e-9 * max(1.0, abs(want))


def _series_reference(sc, rho, omega):
    """(F, dF/drho, dF/domega) of the series in 30-digit arithmetic, each
    with its sum of |term_n| (the scale of double-precision rounding)."""
    mpmath.mp.dps = 30
    r, w = mpmath.mpf(rho), mpmath.mpf(omega)
    sums = [[mpmath.mpf(sc.c), abs(mpmath.mpf(sc.c))], [0, 0], [0, 0]]
    for k, (fp, fm) in enumerate(zip(sc.f_plus, sc.f_minus), start=1):
        fp, fm = mpmath.mpf(fp), mpmath.mpf(fm)
        ch, sh = mpmath.cosh(k * r), mpmath.sinh(k * r)
        cw, sw = mpmath.cos(k * w), mpmath.sin(k * w)
        for acc, terms in zip(sums, (
            (fp * cw * ch, fm * sw * sh),
            (k * fp * cw * sh, k * fm * sw * ch),
            (k * fm * cw * sh, -k * fp * sw * ch),
        )):
            acc[0] += sum(terms)
            acc[1] += sum(abs(t) for t in terms)
    return [(float(v), float(a)) for v, a in sums]


@pytest.mark.parametrize(
    "rho, omega",
    [(0.0, 1.1), (0.0, 5.9), (0.7, 1e-12), (0.7, 2.0 * math.pi - 1e-12), (1.1, 2.6)],
)
def test_horner_series_matches_mpmath(rho, omega):
    """Value and both derivatives of the Horner series agree with a
    30-digit sum to 1e-13 of the sum of |term_n|, on the focal segment
    (rho = 0) and next to omega = 0 and 2 pi."""
    sc = newtonian_coefficients(Dipole(EllipticPoint(1.2, 0.9), np.array([1.0, 0.4])), 80, 1.0)
    got = source._series(sc, rho, omega)
    for g, (want, scale) in zip(got, _series_reference(sc, rho, omega)):
        assert abs(float(g) - want) <= 1e-13 * scale


def test_horner_series_past_the_cosh_overflow():
    """At rho = 3 cosh(n rho) overflows from n = 237 on, but with
    F_n = e^{-3.2 n} every term stays small; no factor leaves range."""
    n = np.arange(1, 301, dtype=float)
    sc = Coefficients(0.1, np.exp(-3.2 * n), -0.5 * np.exp(-3.2 * n))
    assert 237 * 3.0 > math.log(np.finfo(float).max) > 236 * 3.0
    got = source._series(sc, 3.0, 0.8)
    for g, (want, scale) in zip(got, _series_reference(sc, 3.0, 0.8)):
        assert np.isfinite(g)
        assert abs(float(g) - want) <= 1e-13 * scale


def test_empty_series_is_its_constant():
    """A coefficient source without modes is F = c with zero gradient."""
    src = Coefficients(0.7, np.zeros(0), np.zeros(0))
    x = np.array([[0.3, 0.4], [2.0, -1.0]])
    assert np.array_equal(newtonian_eval(src, x, 1.0), [0.7, 0.7])
    assert np.array_equal(newtonian_gradient(src, x, 1.0), np.zeros((2, 2)))


def test_series_truncation_decay_rate():
    """The truncation error at elliptic radius rho shrinks like
    e^{-n_max (rho0 - rho)}; the measured rate must sit within 10%."""
    dip = Dipole(EllipticPoint(2.5, 0.9), np.array([1.0, 0.4]))
    p = EllipticPoint(2.2, 1.3)
    want = newtonian_eval(dip, to_cartesian(1.0, p), 1.0)
    e20 = abs(_series_value(newtonian_coefficients(dip, 20, 1.0), p) - want)
    e60 = abs(_series_value(newtonian_coefficients(dip, 60, 1.0), p) - want)
    rate = math.log(e20 / e60) / 40.0
    assert abs(rate - 0.3) < 0.1 * 0.3


def test_coefficient_magnitude_decay():
    # |F_n| envelope decays like e^{-n rho0}.
    src = Dipole(EllipticPoint(1.5, 1.1), np.array([1.0, -0.3]))
    sc = newtonian_coefficients(src, 50, 1.0)
    mags = np.hypot(sc.f_plus, sc.f_minus)
    slope = np.polyfit(np.arange(1, 51), np.log(mags), 1)[0]
    assert abs(-slope - 1.5) < 0.1 * 1.5


def test_convergence_exponent_recovers_source_radius():
    src = Dipole(EllipticPoint(1.2, 0.8), np.array([0.3, 1.0]))
    got = convergence_exponent(newtonian_coefficients(src, 60, 1.0))
    assert abs(got - 1.2) < 0.02


def test_convergence_exponent_geometric():
    n = np.arange(1, 41, dtype=float)
    sc = Coefficients(0.0, np.exp(-2.0 * n), 0.5 * np.exp(-2.0 * n))
    assert abs(convergence_exponent(sc) - 2.0) < 0.01


def test_convergence_exponent_past_squared_underflow():
    """Pairs whose squares underflow (|F_n| < ~1e-154) still count at
    their own magnitude: the fit recovers an exact rate to 1e-12."""
    n = np.arange(1, 401)
    mag = np.exp(-1.5 * n)
    sc = Coefficients(0.0, mag * np.cos(0.9 * n), mag * np.sin(0.9 * n))
    assert abs(convergence_exponent(sc) - 1.5) < 1e-12


def test_convergence_exponent_sparse_indices():
    """Only the nonzero coefficients count: a lacunary sequence supported
    on powers of two still recovers its decay rate."""
    idx = 2 ** np.arange(10)
    f_plus = np.zeros(512)
    f_plus[idx - 1] = np.exp(-0.1 * idx)
    sc = Coefficients(0.0, f_plus, np.zeros(512))
    assert abs(convergence_exponent(sc) - 0.1) < 1e-6


def test_convergence_exponent_needs_ten_points():
    n = np.arange(1, 10, dtype=float)
    sc = Coefficients(0.0, np.exp(-n), np.zeros(9))
    with pytest.raises(TooFewCoefficients):
        convergence_exponent(sc)


def test_gap_condition_inside_satisfied():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(src, 120, 1.0)
    report = gap_condition_report(sc, THIN, RHO_STAR)
    assert report.verdict is GapVerdict.SATISFIED
    assert report.rho_star == RHO_STAR
    assert np.all(np.isfinite(report.log10_terms))
    tail = report.log10_terms[-5:]
    assert np.all(np.diff(tail) > 0.0)
    assert tail[-1] > 3.0


def test_gap_condition_outside_fails():
    src = Dipole(EllipticPoint(1.10, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(src, 120, 1.0)
    report = gap_condition_report(sc, THIN, RHO_STAR)
    assert report.verdict is GapVerdict.FAILS
    assert report.log10_terms[-1] < -3.0


def test_gap_condition_dipole_indices_consecutive():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(src, 40, 1.0)
    report = gap_condition_report(sc, THIN, RHO_STAR)
    # A dipole populates every mode, so the coupled indices are 1..n_max-1.
    assert np.array_equal(report.indices[:-1], np.arange(1, len(report.indices)))


def test_gap_condition_inconclusive_cases():
    zeros = Coefficients(1.0, np.zeros(40), np.zeros(40))
    assert gap_condition_report(zeros, THIN, RHO_STAR).verdict is GapVerdict.INCONCLUSIVE

    # Seven nonzero indices are one short of the evidence floor.
    f_plus = np.zeros(40)
    f_plus[:7] = np.exp(0.5 * np.arange(1, 8))
    seven = Coefficients(0.0, f_plus, np.zeros(40))
    assert gap_condition_report(seven, THIN, RHO_STAR).verdict is GapVerdict.INCONCLUSIVE


def test_gap_condition_of_a_huge_source():
    """Scaling the coefficients by 2**600 moves every log10 term by
    1200 log10(2) and changes nothing else; no square leaves the double
    range on the way."""
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    sc = newtonian_coefficients(src, 120, 1.0)
    big = Coefficients(sc.c, 2.0**600 * sc.f_plus, 2.0**600 * sc.f_minus)
    want = gap_condition_report(sc, THIN, RHO_STAR)
    got = gap_condition_report(big, THIN, RHO_STAR)
    assert got.verdict is want.verdict
    assert np.array_equal(got.indices, want.indices)
    shift = got.log10_terms - want.log10_terms
    assert np.allclose(shift, 1200.0 * math.log10(2.0), rtol=0.0, atol=1e-10)


def test_dipole_linearity_in_moment():
    a1 = np.array([1.0, 0.4])
    a2 = np.array([-0.7, 2.0])
    loc = EllipticPoint(1.3, 0.6)
    s1 = newtonian_coefficients(Dipole(loc, a1), 30, 1.0)
    s2 = newtonian_coefficients(Dipole(loc, a2), 30, 1.0)
    s12 = newtonian_coefficients(Dipole(loc, a1 + a2), 30, 1.0)
    scale = np.max(np.abs(s12.f_plus))
    assert np.max(np.abs(s1.f_plus + s2.f_plus - s12.f_plus)) <= 1e-14 * scale
    assert np.max(np.abs(s1.f_minus + s2.f_minus - s12.f_minus)) <= 1e-14 * scale
    assert abs(s1.c + s2.c - s12.c) <= 1e-14


def test_charge_pair_chain_and_scaling():
    """A pair is a difference of point potentials, so chained pairs
    telescope and the charge enters linearly."""
    a = EllipticPoint(1.4, 0.3)
    b = EllipticPoint(1.7, 2.2)
    c = EllipticPoint(2.0, 4.4)
    q = 1.3
    p_ab = newtonian_coefficients(ChargePair(a, b, q), 30, 1.0)
    p_bc = newtonian_coefficients(ChargePair(b, c, q), 30, 1.0)
    p_ac = newtonian_coefficients(ChargePair(a, c, q), 30, 1.0)
    scale = np.max(np.abs(p_ac.f_plus))
    assert np.max(np.abs(p_ab.f_plus + p_bc.f_plus - p_ac.f_plus)) <= 1e-14 * scale
    assert np.max(np.abs(p_ab.f_minus + p_bc.f_minus - p_ac.f_minus)) <= 1e-14 * scale
    assert abs(p_ab.c + p_bc.c - p_ac.c) <= 1e-14

    doubled = newtonian_coefficients(ChargePair(a, b, 2.0 * q), 30, 1.0)
    assert np.max(np.abs(doubled.f_plus - 2.0 * p_ab.f_plus)) <= 1e-14 * scale


def test_charge_pair_swap_invariance():
    a = EllipticPoint(1.4, 0.3)
    b = EllipticPoint(1.7, 2.2)
    fwd = newtonian_coefficients(ChargePair(a, b, 1.3), 30, 1.0)
    rev = newtonian_coefficients(ChargePair(b, a, -1.3), 30, 1.0)
    assert np.array_equal(fwd.f_plus, rev.f_plus)
    assert np.array_equal(fwd.f_minus, rev.f_minus)
    assert fwd.c == rev.c
    x = np.array([3.0, 1.0])
    v1 = newtonian_eval(ChargePair(a, b, 1.3), x, 1.0)
    v2 = newtonian_eval(ChargePair(b, a, -1.3), x, 1.0)
    assert abs(v1 - v2) <= 1e-14 * abs(v1)


def test_coefficients_source_pad_and_truncate():
    base = Coefficients(c=0.25, f_plus=np.array([1.0, 0.5]), f_minus=np.array([0.0, 2.0]))
    wide = newtonian_coefficients(base, 5, 1.0)
    assert wide.n_max == 5
    assert np.array_equal(wide.f_plus, [1.0, 0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(wide.f_minus, [0.0, 2.0, 0.0, 0.0, 0.0])
    assert wide.c == 0.25
    narrow = newtonian_coefficients(base, 1, 1.0)
    assert narrow.n_max == 1
    assert narrow.f_plus[0] == 1.0


def test_source_coefficients_truncation_is_bit_identical():
    src = Dipole(EllipticPoint(0.88, 0.9), np.array([1.0, 0.4]))
    head = newtonian_coefficients(src, 150, 1.0, rho_e=THIN.rho_e).truncated(71)
    fresh = newtonian_coefficients(src, 71, 1.0, rho_e=THIN.rho_e)
    assert head.n_max == 71
    assert head.c == fresh.c
    assert np.array_equal(head.f_plus, fresh.f_plus)
    assert np.array_equal(head.f_minus, fresh.f_minus)
    with pytest.raises(ValueError):
        fresh.truncated(72)


def test_source_inside_shell_rejected():
    with pytest.raises(SourceInsideShell):
        newtonian_coefficients(
            Dipole(EllipticPoint(0.7, 0.9), np.array([1.0, 0.0])), 20, 1.0,
            rho_e=0.8,
        )
    with pytest.raises(SourceInsideShell):
        newtonian_coefficients(
            ChargePair(EllipticPoint(0.75, 0.0), EllipticPoint(1.5, 1.0), 1.0),
            20, 1.0, rho_e=0.8,
        )


def test_source_validation():
    with pytest.raises(ValueError):
        Dipole(EllipticPoint(0.0, 0.0), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Dipole(EllipticPoint(1.0, 0.0), np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        Dipole(EllipticPoint(1.0, 0.0), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ChargePair(EllipticPoint(1.0, 0.5), EllipticPoint(1.0, 0.5), 1.0)
    with pytest.raises(ValueError):
        ChargePair(EllipticPoint(1.0, 0.5), EllipticPoint(1.2, 0.5), 0.0)
    with pytest.raises(ValueError):
        Coefficients(c=0.0, f_plus=np.ones(3), f_minus=np.ones(4))
    with pytest.raises(ValueError):
        Coefficients(c=0.0, f_plus=np.array([math.inf]), f_minus=np.array([1.0]))



def _closed_form_sources(rho0):
    """A dipole and a charge pair whose source radius is rho0."""
    return (
        Dipole(EllipticPoint(rho0, 0.9), np.array([1.0, 0.4])),
        ChargePair(EllipticPoint(rho0, 0.4), EllipticPoint(rho0 + 0.3, 2.5), 1.3),
    )


@pytest.mark.parametrize("kind", [0, 1], ids=["dipole", "pair"])
def test_expansion_data_is_a_source(kind):
    """What newtonian_coefficients returns is accepted wherever a source
    is: below rho0 its value, gradient and Fourier projection agree with
    those of the closed form to 1e-13 of |F|."""
    src = _closed_form_sources(1.2)[kind]
    sc = newtonian_coefficients(src, 200, 1.0)
    rng = np.random.default_rng(5)
    rho, omega = rng.uniform(0.05, 0.6, 40), rng.uniform(0.0, 2.0 * math.pi, 40)
    x = cartesian(1.0, rho, omega)
    want = newtonian_eval(src, x, 1.0)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(newtonian_eval(sc, x, 1.0) - want)) <= 1e-13 * scale
    grad = newtonian_gradient(src, x, 1.0)
    grad_scale = np.max(np.abs(grad))
    assert np.max(np.abs(newtonian_gradient(sc, x, 1.0) - grad)) <= 1e-13 * grad_scale
    got, ref = (coefficient_projection_oracle(s, 0.6, 60, 1.0) for s in (sc, src))
    assert abs(got.c - ref.c) <= 1e-13 * scale
    for a, b in ((got.f_plus, ref.f_plus), (got.f_minus, ref.f_minus)):
        assert np.max(np.abs(a - b)) <= 1e-13 * scale


def _mp_constant(src, R, p):
    """F(x) minus the expansion sum at the elliptic point p, in 30 digits.

    The expansion weights are the documented closed forms (Green weights
    for a pair, their source-position derivatives for a dipole), summed
    until the terms fall below 1e-34, so the difference is the constant c
    up to that tail."""
    mp = mpmath.mp
    mp.dps = 30
    R, r, w = mp.mpf(R), mp.mpf(p.rho), mp.mpf(p.omega)

    def cart(rho, omega):
        return R * mp.cosh(rho) * mp.cos(omega), R * mp.sinh(rho) * mp.sin(omega)

    x1, x2 = cart(r, w)
    if isinstance(src, Dipole):
        r0, w0 = mp.mpf(src.location.rho), mp.mpf(src.location.omega)
        y1, y2 = cart(r0, w0)
        a1, a2 = (mp.mpf(v) for v in src.moment)
        value = (a1 * (x1 - y1) + a2 * (x2 - y2)) / (
            2 * mp.pi * ((x1 - y1) ** 2 + (x2 - y2) ** 2)
        )
        xi0 = R * mp.sqrt(mp.sinh(r0) ** 2 + mp.sin(w0) ** 2)
        t_rho = (R * mp.cos(w0) * mp.sinh(r0), R * mp.sin(w0) * mp.cosh(r0))
        t_omega = (-R * mp.sin(w0) * mp.cosh(r0), R * mp.cos(w0) * mp.sinh(r0))
        pm = (a1 * t_rho[0] + a2 * t_rho[1]) / xi0
        qm = (a1 * t_omega[0] + a2 * t_omega[1]) / xi0
        charges = [(r0, w0, None)]
    else:
        value = 0
        charges = []
        for loc, q in ((src.plus, src.charge), (src.minus, -src.charge)):
            r0, w0 = mp.mpf(loc.rho), mp.mpf(loc.omega)
            y1, y2 = cart(r0, w0)
            value += q * mp.log((x1 - y1) ** 2 + (x2 - y2) ** 2) / (4 * mp.pi)
            charges.append((r0, w0, mp.mpf(q)))
    series = 0
    for r0, w0, q in charges:
        for n in range(1, int(mp.ceil(34 * mp.log(10) / (r0 - r))) + 1):
            damp = mp.exp(-n * r0)
            cw0, sw0 = mp.cos(n * w0), mp.sin(n * w0)
            if q is None:
                fp = -damp * (pm * cw0 + qm * sw0) / (mp.pi * xi0)
                fm = -damp * (pm * sw0 - qm * cw0) / (mp.pi * xi0)
            else:
                fp, fm = -q * damp * cw0 / (n * mp.pi), -q * damp * sw0 / (n * mp.pi)
            series += fp * mp.cos(n * w) * mp.cosh(n * r) + fm * mp.sin(n * w) * mp.sinh(n * r)
    return float(value - series), float(abs(value))


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rho0", [0.05, 0.9, 2.5])
def test_closed_form_constant_matches_mpmath(R, rho0):
    """c of dipoles and pairs equals F(x) - sum of terms at rho = rho0 / 2,
    evaluated in 30 digits, to 1e-14 of |F(x)|."""
    p = EllipticPoint(0.5 * rho0, 1.0)
    for src in _closed_form_sources(rho0):
        want, scale = _mp_constant(src, R, p)
        assert abs(newtonian_coefficients(src, 8, R).c - want) <= 1e-14 * scale


def test_pair_constant_next_to_the_focal_segment():
    """At rho0 = 5e-4 the constant is still exactly q (rho_+ - rho_-) / (2 pi)."""
    pair = ChargePair(EllipticPoint(0.0005, 0.4), EllipticPoint(0.3, 2.5), 1.0)
    mpmath.mp.dps = 30
    want = float((mpmath.mpf(0.0005) - mpmath.mpf(0.3)) / (2 * mpmath.pi))
    assert abs(newtonian_coefficients(pair, 8, 1.0).c - want) <= 1e-15
