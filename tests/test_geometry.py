"""Tests for the elliptic coordinate map and boundary sampling."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calr_lab import (
    ConfocalGeometry,
    DegeneratePoint,
    EllipticPoint,
    ellipse_curvature,
    metric_factor,
    sample_ellipse,
    to_cartesian,
    to_elliptic,
)
from calr_lab.geometry import cartesian, elliptic_coords

TWO_PI = 2.0 * math.pi


def test_to_cartesian_axis_points():
    x = to_cartesian(1.0, EllipticPoint(0.0, 0.0))
    assert x[0] == 1.0 and x[1] == 0.0

    x = to_cartesian(1.0, EllipticPoint(1.0, 0.0))
    assert math.isclose(x[0], math.cosh(1.0), rel_tol=1e-15)
    assert x[1] == 0.0

    x = to_cartesian(2.0, EllipticPoint(0.5, math.pi / 2))
    assert abs(x[0]) < 1e-15
    assert math.isclose(x[1], 2.0 * math.sinh(0.5), rel_tol=1e-15)


def test_to_elliptic_axis_points():
    p = to_elliptic(1.0, np.array([math.cosh(1.0), 0.0]))
    assert math.isclose(p.rho, 1.0, rel_tol=1e-14)
    assert p.omega == 0.0

    p = to_elliptic(1.0, np.array([0.0, math.sinh(1.0)]))
    assert math.isclose(p.rho, 1.0, rel_tol=1e-14)
    assert math.isclose(p.omega, math.pi / 2, rel_tol=1e-14)


def test_to_elliptic_rejects_focal_segment():
    for x in ([0.5, 0.0], [0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]):
        with pytest.raises(DegeneratePoint):
            to_elliptic(1.0, np.array(x))


def test_round_trip_identity():
    """to_elliptic(to_cartesian(p)) == p to 1e-12 over a wide rho range."""
    for R in (0.5, 1.0, 2.0):
        for rho in np.linspace(0.05, 5.0, 23):
            for omega in np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False):
                p = EllipticPoint(float(rho), float(omega))
                q = to_elliptic(R, to_cartesian(R, p))
                assert abs(q.rho - p.rho) <= 1e-12 * max(1.0, p.rho)
                d_om = (q.omega - p.omega + math.pi) % (2.0 * math.pi) - math.pi
                assert abs(d_om) <= 1e-11


def test_round_trip_near_focal_segment():
    """Small rho is recovered to 1e-11 relative: the inverse map forms
    sinh(rho)^2 without subtracting nearly equal numbers."""
    for rho in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 3.0):
        for R in (0.5, 1.0, 2.0):
            for omega in np.linspace(0.1, 6.0, 40):
                p = EllipticPoint(rho, float(omega))
                q = to_elliptic(R, to_cartesian(R, p))
                assert abs(q.rho - rho) <= 1e-11 * rho
                d_om = (q.omega - p.omega + math.pi) % (2.0 * math.pi) - math.pi
                assert abs(d_om) <= 1e-12


_SCALES = st.floats(0.05, 20.0)
_ANGLES = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
_ELLIPTIC = st.tuples(st.floats(0.0, 12.0), _ANGLES)


@st.composite
def _points(draw):
    """Cartesian points in units of R: anywhere, near a focus, in and
    around the focal strip, and on both sides of the circle |x| = R."""
    kind = draw(st.sampled_from(["any", "focus", "segment", "circle"]))
    if kind == "any":
        return draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0))
    if kind == "focus":
        eps, theta = 10.0 ** draw(st.floats(-16.0, 0.0)), draw(_ANGLES)
        side = draw(st.sampled_from([-1.0, 1.0]))
        return side + eps * math.cos(theta), eps * math.sin(theta)
    if kind == "segment":
        x2 = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -10.0))
        return draw(st.floats(-1.5, 1.5)), draw(st.sampled_from([0.0, x2]))
    stretch = 1.0 + draw(st.floats(-1e-8, 1e-8))
    theta = draw(_ANGLES)
    return stretch * math.cos(theta), stretch * math.sin(theta)


@settings(max_examples=200, deadline=None)
@given(_SCALES, st.lists(_ELLIPTIC, min_size=1, max_size=20))
def test_forward_map_scalar_matches_array(R, pts):
    rho, omega = (np.array(v) for v in zip(*pts))
    x = cartesian(R, rho, omega)
    for j, (r, w) in enumerate(pts):
        assert np.array_equal(to_cartesian(R, EllipticPoint(r, w)), x[j])


@settings(max_examples=200, deadline=None)
@given(_SCALES, st.lists(_points(), min_size=1, max_size=20))
@example(R=7.419753302731996, pts=[(1.000000027923534, 0.0)])
def test_inverse_map_scalar_matches_array(R, pts):
    """Off the focal strip the one-point inverse equals the array inverse
    bit for bit; the array mask is set exactly where it raises."""
    x = R * np.array(pts)
    rho, omega, focal = elliptic_coords(R, x)
    for j in range(len(pts)):
        try:
            p = to_elliptic(R, x[j])
        except DegeneratePoint:
            assert focal[j]
            continue
        assert not focal[j]
        assert (p.rho, p.omega) == (rho[j], omega[j])


def test_metric_factor_values():
    assert math.isclose(
        metric_factor(1.0, 0.5, 0.0), math.sinh(0.5), rel_tol=1e-15
    )
    expected = math.sqrt(math.sinh(0.5) ** 2 + math.sin(1.0) ** 2)
    assert math.isclose(metric_factor(1.0, 0.5, 1.0), expected, rel_tol=1e-15)
    assert math.isclose(
        metric_factor(3.0, 0.5, 0.0), 3.0 * math.sinh(0.5), rel_tol=1e-15
    )


def test_metric_factor_broadcasts():
    om = np.linspace(0.0, 6.0, 13)
    xi = metric_factor(1.0, 0.7, om)
    assert xi.shape == om.shape
    assert np.all(xi >= math.sinh(0.7) - 1e-15)


def test_curvature_at_axes():
    # Standard ellipse results: kappa = a/b^2 at the major axis ends and
    # b/a^2 at the minor axis ends.
    a, b = math.cosh(0.5), math.sinh(0.5)
    assert math.isclose(
        float(ellipse_curvature(1.0, 0.5, 0.0)), a / b**2, rel_tol=1e-14
    )
    assert math.isclose(
        float(ellipse_curvature(1.0, 0.5, math.pi / 2)), b / a**2, rel_tol=1e-14
    )


def test_sample_weights_sum_to_perimeter():
    """Trapezoid weights of a periodic analytic integrand are spectrally
    exact, so the weight sum must hit the true perimeter to 1e-10."""
    mpmath.mp.dps = 40
    for rho0, N in ((0.5, 64), (0.8, 64), (1.0, 128)):
        a, b = math.cosh(rho0), math.sinh(rho0)
        m = 1.0 - (b / a) ** 2
        perimeter = float(4.0 * a * mpmath.ellipe(m))
        curve = sample_ellipse(1.0, rho0, N)
        total = sum(curve.weights[j] for j in range(N))
        assert math.isclose(total, perimeter, rel_tol=1e-10)


def test_sample_nodes_lie_on_ellipse():
    a, b = math.cosh(0.5), math.sinh(0.5)
    for node in sample_ellipse(1.0, 0.5, 64).nodes:
        r = (node[0] / a) ** 2 + (node[1] / b) ** 2
        assert abs(r - 1.0) < 1e-13


def test_sample_normals_unit_and_outward():
    curve = sample_ellipse(1.0, 0.8, 64)
    assert abs(float(np.hypot(*curve.normals[0])) - 1.0) < 1e-14
    assert curve.normals[0][0] == pytest.approx(1.0, abs=1e-14)
    assert abs(curve.normals[0][1]) < 1e-14
    for normal, node in zip(curve.normals, curve.nodes):
        assert abs(float(np.hypot(*normal)) - 1.0) < 1e-14
        assert float(normal @ node) > 0.0


@pytest.mark.parametrize("N", [64, 70])
def test_sample_nodes_are_exact_mirror_images(N):
    """The nodes sit within rounding of the map at omega_j = 2 pi j / N."""
    curve = sample_ellipse(1.0, 0.8, N)
    j = np.arange(N)
    exact = cartesian(1.0, 0.8, 2.0 * math.pi * j / N)
    assert np.max(np.abs(curve.nodes - exact)) < 2e-15


def test_large_rho_approaches_circle():
    """For rho0 >> 1 the ellipse tends to a circle of radius R e^rho0 / 2,
    so the sampled curvature flattens to the matching constant."""
    rho0 = 6.0
    curve = sample_ellipse(1.0, rho0, 256)
    radius = math.exp(rho0) / 2.0
    for curvature in curve.curvature:
        assert abs(curvature * radius - 1.0) < 1e-3


def test_confocal_interfaces_share_foci():
    g = ConfocalGeometry(1.3, 0.5, 0.8)
    for rho0 in (g.rho_i, g.rho_e):
        a = g.R * math.cosh(rho0)
        b = g.R * math.sinh(rho0)
        assert math.isclose(math.sqrt(a * a - b * b), g.R, rel_tol=1e-14)


def test_elliptic_point_normalizes_omega():
    assert math.isclose(
        EllipticPoint(1.0, 2.0 * math.pi + 0.5).omega, 0.5, abs_tol=1e-14
    )
    assert math.isclose(
        EllipticPoint(1.0, -0.5).omega, 2.0 * math.pi - 0.5, abs_tol=1e-14
    )


@pytest.mark.parametrize("omega", [-1e-17, -4e-16, -1e-300, -5e-324, -0.0])
def test_elliptic_point_folds_tiny_negative_omega(omega):
    """A tiny negative angle rounds up to exactly 2 pi under the modulo;
    it is folded to 0 so that omega stays in [0, 2 pi)."""
    assert EllipticPoint(1.0, omega).omega == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_elliptic_point_omega_next_to_minus_two_pi(k):
    """Angles one ulp either side of -2 pi k land in [0, 2 pi) at the
    modulo's own value."""
    for omega in (math.nextafter(-k * TWO_PI, 0.0), -k * TWO_PI,
                  math.nextafter(-k * TWO_PI, -math.inf)):
        w = EllipticPoint(1.0, omega).omega
        assert 0.0 <= w < TWO_PI
        assert w == omega % TWO_PI


def test_elliptic_point_validation():
    with pytest.raises(ValueError):
        EllipticPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        EllipticPoint(math.inf, 0.0)
    with pytest.raises(ValueError):
        EllipticPoint(1.0, math.nan)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ConfocalGeometry(0.0, 0.5, 0.8)
    with pytest.raises(ValueError):
        ConfocalGeometry(1.0, 0.8, 0.5)
    with pytest.raises(ValueError):
        ConfocalGeometry(1.0, 0.0, 0.8)
    with pytest.raises(ValueError):
        ConfocalGeometry(1.0, 0.5, math.inf)


def test_sample_ellipse_validation():
    with pytest.raises(ValueError):
        sample_ellipse(1.0, 0.5, 9)
    with pytest.raises(ValueError):
        sample_ellipse(1.0, 0.5, 4)
    with pytest.raises(ValueError):
        sample_ellipse(1.0, 0.0, 16)
