"""Elliptic coordinates and confocal-ellipse sampling, on arrays.

Elliptic coordinates (rho, omega) with focal half-distance R are defined by

    x1 = R * cos(omega) * cosh(rho),
    x2 = R * sin(omega) * sinh(rho),

with rho >= 0 and omega in [0, 2*pi).  Level curves rho = const are
ellipses with foci (+-R, 0); every curve of the family shares the same
foci, which is what "confocal" means here.  The coordinate map degenerates
on the focal segment {x2 = 0, |x1| <= R} (rho = 0), where omega is not
unique.

The scale factor of the map is the same in both directions,

    Xi(rho, omega) = R * sqrt(sinh(rho)^2 + sin(omega)^2),

so arclength on the ellipse rho = rho0 is d sigma = Xi d omega and the
outward normal derivative is d/dnu = Xi^{-1} d/drho.

This module is the one place that forms the map (cartesian), its inverse
(elliptic_coords) and its tangents, all on arrays of points;
to_cartesian and to_elliptic are their one-point forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePoint

__all__ = [
    "EllipticPoint",
    "ConfocalGeometry",
    "SampledCurve",
    "cartesian",
    "tangents",
    "elliptic_coords",
    "to_cartesian",
    "to_elliptic",
    "metric_factor",
    "ellipse_curvature",
    "sample_ellipse",
]

# Relative half-width of the strip around the focal segment inside which
# elliptic_coords masks points and to_elliptic refuses to assign an angle.
FOCAL_TOL = 1e-13

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EllipticPoint:
    """A point in elliptic coordinates; omega is normalized to [0, 2*pi)."""

    rho: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.rho >= 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        omega = self.omega % TWO_PI
        # A tiny negative angle rounds up to 2*pi; fold it to 0.
        object.__setattr__(self, "omega", 0.0 if omega == TWO_PI else omega)


@dataclass(frozen=True)
class ConfocalGeometry:
    """Focal half-distance R and the two interface parameters.

    The core boundary is Gamma_i = {rho = rho_i}, the shell boundary is
    Gamma_e = {rho = rho_e}, with 0 < rho_i < rho_e.
    """

    R: float
    rho_i: float
    rho_e: float

    def __post_init__(self) -> None:
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValueError(f"R must be finite and > 0, got {self.R}")
        if not (0.0 < self.rho_i < self.rho_e) or not math.isfinite(self.rho_e):
            raise ValueError(
                f"need 0 < rho_i < rho_e, got rho_i={self.rho_i}, rho_e={self.rho_e}"
            )


class SampledCurve(NamedTuple):
    """A closed curve sampled at N trapezoid nodes, as arrays.

    nodes and unit outward normals have shape (N, 2); curvature and the
    arclength weights have shape (N,).
    """

    nodes: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray


def cartesian(R: float, rho, omega) -> np.ndarray:
    """Cartesian points of elliptic coordinates; rho and omega broadcast.

    Returns shape broadcast(rho, omega).shape + (2,).
    """
    return np.stack(
        [R * np.cos(omega) * np.cosh(rho), R * np.sin(omega) * np.sinh(rho)], axis=-1
    )


def tangents(R: float, rho, omega) -> tuple[np.ndarray, np.ndarray]:
    """dx/drho and dx/domega, each of shape broadcast(rho, omega).shape + (2,).

    Both have squared length Xi^2; they carry the chain rule between
    Cartesian and elliptic gradients in both directions, and dx/drho / Xi
    is the unit outward normal of the ellipse through the point.
    """
    ch, sh = np.cosh(rho), np.sinh(rho)
    cw, sw = np.cos(omega), np.sin(omega)
    t_rho = np.stack([R * cw * sh, R * sw * ch], axis=-1)
    t_omega = np.stack([-R * sw * ch, R * cw * sh], axis=-1)
    return t_rho, t_omega


def elliptic_coords(R: float, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, omega, focal) of Cartesian points x of shape (..., 2).

    focal marks the points of the strip around the focal segment
    {x2 = 0, |x1| <= R} (half-width FOCAL_TOL relative to the point's
    scale), where omega is ill-defined; rho and omega are NaN there.
    Elsewhere omega lies in [0, 2*pi).

    With p = |x|^2 - R^2 = (x1 - R)(x1 + R) + x2^2 and disc =
    sqrt(((R - x1)^2 + x2^2)((R + x1)^2 + x2^2)), sinh(rho)^2 is (p + disc)
    / (2 R^2), taken for p < 0 in the equal form 2 x2^2 / (disc - p), so
    that no step subtracts nearly equal numbers.  Then rho =
    asinh(sinh(rho)) and omega = atan2(x2 cosh(rho), x1 sinh(rho)).
    """
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    scale = np.maximum(R, np.maximum(np.abs(x1), np.abs(x2)))
    focal = (np.abs(x2) <= FOCAL_TOL * scale) & (np.abs(x1) <= R * (1.0 + FOCAL_TOL))

    p = (x1 - R) * (x1 + R) + x2 * x2
    disc = np.sqrt(((R - x1) ** 2 + x2 * x2) * ((R + x1) ** 2 + x2 * x2))
    with np.errstate(divide="ignore", invalid="ignore"):
        sh2 = np.where(p >= 0.0, (p + disc) / (2.0 * R * R), 2.0 * x2 * x2 / (disc - p))
    sh = np.sqrt(np.where(focal, np.nan, sh2))
    omega = np.mod(np.arctan2(x2 * np.sqrt(1.0 + sh2), x1 * sh), TWO_PI)
    # A tiny negative angle rounds up to 2*pi; fold it to 0, as
    # EllipticPoint does, so that to_elliptic returns the same omega.
    return np.arcsinh(sh), np.where(omega == TWO_PI, 0.0, omega), focal


def to_cartesian(R: float, p: EllipticPoint) -> np.ndarray:
    """Map an elliptic point to Cartesian coordinates (one-point cartesian).

    The point goes through cartesian as (1,) arrays, as in to_elliptic, so
    the result equals the array form bit for bit.
    """
    return cartesian(R, np.array([p.rho]), np.array([p.omega]))[0]


def to_elliptic(R: float, x: np.ndarray) -> EllipticPoint:
    """Invert the coordinate map at one point (one-point elliptic_coords).

    Raises DegeneratePoint on the focal segment, where omega is
    ill-defined.  The point goes through elliptic_coords as a (1, 2)
    array: numpy's 0-d arithmetic can round differently from its array
    loops, and the result must equal the array form bit for bit.
    """
    rho, omega, focal = elliptic_coords(R, np.asarray(x)[None])
    if focal[0]:
        x1, x2 = float(x[0]), float(x[1])
        raise DegeneratePoint(f"point ({x1}, {x2}) lies on the focal segment")
    return EllipticPoint(float(rho[0]), float(omega[0]))


def metric_factor(R: float, rho, omega):
    """Scale factor Xi(rho, omega); broadcasts over array arguments."""
    return R * np.sqrt(np.sinh(rho) ** 2 + np.sin(omega) ** 2)


def ellipse_curvature(R: float, rho0: float, omega) -> np.ndarray:
    """Curvature of the ellipse rho = rho0 at angle omega.

    With semi-axes a = R cosh(rho0), b = R sinh(rho0) the curvature is
    a * b / Xi^3.
    """
    a = R * np.cosh(rho0)
    b = R * np.sinh(rho0)
    return a * b / metric_factor(R, rho0, omega) ** 3


def sample_ellipse(R: float, rho0: float, N: int) -> SampledCurve:
    """Discretize the ellipse rho = rho0 with N equispaced nodes in omega.

    Returns the trapezoid rule: nodes, unit outward normals, curvature and
    arclength weights Xi * (2*pi/N).  The weights sum to the perimeter.
    """
    if N < 8 or N % 2 != 0:
        raise ValueError(f"N must be even and >= 8, got {N}")
    if not rho0 > 0.0:
        raise ValueError(f"rho0 must be > 0, got {rho0}")
    omegas = TWO_PI * np.arange(N) / N
    xi = metric_factor(R, rho0, omegas)
    t_rho, _ = tangents(R, rho0, omegas)
    return SampledCurve(
        cartesian(R, rho0, omegas),
        t_rho / xi[:, None],
        ellipse_curvature(R, rho0, omegas),
        xi * (TWO_PI / N),
    )
