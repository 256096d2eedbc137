"""Test-side references and one-point helpers.

The package serves its method through array forms (mode_table,
eval_potentials, elliptic_coords, the Nystrom block route).  The tests
compare them against the single-curve references below, which keep their
own argument checks, against a high-precision per-mode transmission
solve, and read single points and single modes through the short helpers
at the end, each a direct call of an array form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

from calr_lab.errors import DegeneratePoint, OverflowGuard
from calr_lab.geometry import EllipticPoint, SampledCurve, elliptic_coords
from calr_lab.oracle import _kernel_block
from calr_lab.solver import eval_potentials
from calr_lab.spectrum import _EXP_GUARD, ModeTable, mode_table

# ---------------------------------------------------------------------------
# Single-curve references


class SingleEllipseMode(NamedTuple):
    """Eigendata of K* on a single ellipse for one mode index."""

    n: int
    alpha: float
    beta: float


def single_ellipse_np(n: int, rho0: float) -> SingleEllipseMode:
    """Eigendata of the single-ellipse NP operator for mode n >= 0.

    alpha_n = exp(-2 n rho0) / 2 is the eigenvalue on the cosine branch
    (the sine branch carries -alpha_n); n = 0 gives the constant-density
    eigenvalue 1/2.  beta_n = -sinh(2 n rho0) is the companion exterior
    expansion coefficient of the single-layer potential.
    """
    if n < 0:
        raise ValueError(f"mode index must be >= 0, got {n}")
    if not rho0 > 0.0:
        raise ValueError(f"rho0 must be > 0, got {rho0}")
    t = 2.0 * n * rho0
    if t > _EXP_GUARD:
        raise OverflowGuard(f"2*n*rho0 = {t:.1f} exceeds double range")
    return SingleEllipseMode(n, 0.5 * math.exp(-t), -math.sinh(t))


def sample_circle(radius: float, N: int) -> SampledCurve:
    """Equispaced trapezoid nodes on a circle (oracle diagnostic curve)."""
    if N < 8:
        raise ValueError(f"N must be >= 8, got {N}")
    theta = 2.0 * math.pi * np.arange(N) / N
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    w = np.full(N, 2.0 * math.pi * radius / N)
    return SampledCurve(radius * normals, normals, np.full(N, 1.0 / radius), w)


def np_kernel(curve: SampledCurve, i: int, j: int) -> float:
    """Kernel <x_i - y_j, nu(x_i)> / (2 pi |x_i - y_j|^2) on one curve.

    The i == j entry is the smooth limit kappa(x_i) / (4 pi).  This is the
    entry-by-entry reference for the vectorized assembly.
    """
    if i == j:
        return float(curve.curvature[i] / (4.0 * math.pi))
    d = curve.nodes[i] - curve.nodes[j]
    r_sq = float(d @ d)
    return float(d @ curve.normals[i]) / (2.0 * math.pi * r_sq)


def assemble_np(curve: SampledCurve) -> np.ndarray:
    """Single-curve Nystrom matrix for K* (diagnostic mode)."""
    return _kernel_block(curve, curve, same=True)


# ---------------------------------------------------------------------------
# Per-mode transmission solve


def _lu_solve(a: list, rhs: list) -> list:
    """x with a x = rhs by Gaussian elimination with partial pivoting, on
    lists of mpmath numbers (the hand loop costs a fraction of mpmath's)."""
    m = [row[:] + [r] for row, r in zip(a, rhs)]
    size = len(m)
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, size):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    x = [0] * size
    for r in reversed(range(size)):
        x[r] = (m[r][size] - sum(m[r][k] * x[k] for k in range(r + 1, size))) / m[r][r]
    return x


def transmission_energy(sc, g, delta: float, dps: int = 50):
    """E_delta of the truncated source sc on g, as an mpmath number, from a
    dps-digit solve of the transmission problem mode by mode, with no
    spectral data and no range guard.

    Mode n of parity p (cos(n omega) with F_n^+ and cosh, sin(n omega)
    with F_n^- and sinh; c is that hyperbolic function and c' the other)
    has the radial profile A c(n rho) / c(n rho_i) in the core,
    B e^{n rho} + C e^{-n rho} in the shell of permittivity
    eps = -1 + i delta, and F_n c(n rho) + D e^{-n rho} outside.
    Continuity of the profile and of the permittivity times its rho
    derivative at rho_i and rho_e give four equations, solved in the
    scaled unknowns A, B e^{n rho_e}, C e^{-n rho_i}, D e^{-n rho_e},
    whose matrix has entries of order 1.  Then

        E = delta pi sum_n n (|B|^2 (e^{2 n rho_e} - e^{2 n rho_i})
                              + |C|^2 (e^{-2 n rho_i} - e^{-2 n rho_e}))

    over both parities, the shell integral of delta |grad V|^2.
    """
    with mpmath.workdps(dps):
        ri, re_, d = mpmath.mpf(g.rho_i), mpmath.mpf(g.rho_e), mpmath.mpf(delta)
        eps = mpmath.mpc(-1, d)
        total = mpmath.mpf(0)
        for k in range(sc.n_max):
            n = k + 1
            xi, xe = mpmath.exp(n * ri), mpmath.exp(n * re_)
            gap = xi / xe  # e^{-n (rho_e - rho_i)}
            up, down = xe**2 - xi**2, xi**-2 - xe**-2
            for f, sign in ((sc.f_plus[k], 1), (sc.f_minus[k], -1)):
                # (c, c') at rho_i and rho_e: (cosh, sinh) for sign 1, (sinh, cosh) for -1.
                ci, dci = (xi + sign / xi) / 2, (xi - sign / xi) / 2
                ce, dce = (xe + sign / xe) / 2, (xe - sign / xe) / 2
                a = [[1, -gap, -1, 0],
                     [dci / ci, -eps * gap, eps, 0],
                     [0, 1, gap, -1],
                     [0, eps, -eps * gap, 1]]
                f = mpmath.mpf(f)
                _, b, c, _ = _lu_solve(a, [0, 0, f * ce, f * dce])
                b, c = b / xe, c * xi
                total += n * (abs(b) ** 2 * up + abs(c) ** 2 * down)
        return d * mpmath.pi * total


# ---------------------------------------------------------------------------
# One point, one mode


def to_elliptic(R: float, x) -> EllipticPoint:
    """One Cartesian point through elliptic_coords as a (1, 2) array;
    DegeneratePoint on the focal segment, where omega is ill-defined."""
    rho, omega, focal = elliptic_coords(R, np.asarray(x)[None])
    if focal[0]:
        raise DegeneratePoint(f"point ({float(x[0])}, {float(x[1])}) lies on the focal segment")
    return EllipticPoint(float(rho[0]), float(omega[0]))


def eval_potential(source, dc: np.ndarray, g, p: EllipticPoint) -> complex:
    """V at one elliptic point p from one density row dc (2, 2, n_max)."""
    return complex(eval_potentials(source, dc, g, p.rho, p.omega))


def mode_column(table: ModeTable, n: int) -> ModeTable:
    """Mode n of a table: its column n - 1, one Python number per field."""
    return ModeTable(*(column[n - 1].item() for column in table))


def mode_data(n: int, g) -> ModeTable:
    """Mode n alone: column n - 1 of mode_table(g, n)."""
    return mode_column(mode_table(g, n), n)
