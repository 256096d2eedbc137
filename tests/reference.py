"""Test-side references and one-point helpers.

The package serves its method through array forms (mode_table,
eval_potentials, elliptic_coords, the Nystrom block route, the batched
energies of solver._solve).  The tests compare them against the
single-curve references below, which keep their own argument checks,
against a high-precision per-mode transmission solve, against three
check-only routes, and read single points, single modes and one row's
energies through the short helpers at the end, each a direct call of an
array form.

The check-only routes recompute by another method what the package
computes in closed form:

- The energy quadrature (dissipated_power_direct: Gauss-Legendre in rho,
  trapezoid in omega) reuses the spectral densities and checks only the
  energy sum of the closed form (closed_energy).
- The shell gradient it integrates (eval_gradient_shell) is a separable
  mode sum, independent of the Horner evaluator behind eval_potentials.
  It keeps its (n_rho, n_max) @ (n_max, n_omega) form (_layer_radial):
  point by point the 128 x 512 grid would cost 65536 n_max entries.
- The projection oracle (coefficient_projection_oracle) samples the
  closed-form newtonian_eval and never reads newtonian_coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

from calr_lab.errors import DegeneratePoint, OverflowGuard
from calr_lab.geometry import (
    ConfocalGeometry, EllipticPoint, SampledCurve, cartesian, elliptic_coords, tangents
)
from calr_lab.oracle import _kernel_block
from calr_lab.solver import _closed_energies, _spectral_energies, eval_potentials
from calr_lab.source import (
    ChargePair,
    Coefficients,
    Dipole,
    SourceSpec,
    newtonian_eval,
    newtonian_gradient,
)
from calr_lab.spectrum import _EXP_GUARD, ModeTable, mode_table

_GL_ORDER = 32

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
# Check-only routes: the energy quadrature, the shell gradient it
# integrates and the projection oracle


def _layer_radial(
    n: np.ndarray, g: ConfocalGeometry, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Radial factors of the layers on rho_i and rho_e at each radius.

    With near = e^{-n |rho - rho_k|} and far = e^{-n (rho + rho_k)} (no
    exponent is positive), returns (near + far) / 2 and (near - far) / 2,
    each of shape (2,) + rho.shape + (n_max,) with index 0 for rho_i and
    1 for rho_e.  Mode n of the layer potential of phi_n_c (phi_n_s) on
    rho_k is that half over -n times cos (sin)(n omega) in every region;
    d/drho turns the halves into n (sigma_k near -+ far) / 2 with
    sigma_k = sign(rho_k - rho).
    """
    r = np.asarray(rho, dtype=float)[..., None]
    rk = np.reshape([g.rho_i, g.rho_e], (2,) + (1,) * r.ndim)
    near, far = np.exp(-n * np.abs(r - rk)), np.exp(-n * (r + rk))
    return 0.5 * (near + far), 0.5 * (near - far)


def _series_radial(sc: Coefficients, rho) -> tuple[np.ndarray, ...]:
    """Mode indices n and F^+- cosh(n rho), F^+- sinh(n rho) at each rho.

    The plain product F_n * cosh(n rho) can overflow long before the term
    itself leaves double range (tiny coefficient times huge hyperbolic),
    so the radial factors are folded into the coefficient logs first.
    Returns (n, fp_ch, fp_sh, fm_ch, fm_sh), the factors of shape
    rho.shape + (len(f_plus),).
    """
    n = np.arange(1, len(sc.f_plus) + 1, dtype=float)
    nr = np.asarray(rho, dtype=float)[..., None] * n
    with np.errstate(divide="ignore"):
        log_ch = nr + np.log1p(np.exp(-2.0 * nr)) - math.log(2.0)
        log_sh = nr + np.log1p(-np.exp(-2.0 * nr)) - math.log(2.0)
        log_p = np.log(np.abs(sc.f_plus))
        log_m = np.log(np.abs(sc.f_minus))
        sp, sm = np.sign(sc.f_plus), np.sign(sc.f_minus)
        fp_ch, fp_sh = sp * np.exp(log_p + log_ch), sp * np.exp(log_p + log_sh)
        fm_ch, fm_sh = sm * np.exp(log_m + log_ch), sm * np.exp(log_m + log_sh)
    return n, fp_ch, fp_sh, fm_ch, fm_sh


def _one_row(dc: np.ndarray) -> None:
    """ValueError, naming the shape, unless dc is one row (2, 2, n_max)."""
    if np.ndim(dc) != 3:
        raise ValueError(
            f"expected one density row of shape (2, 2, n_max), got shape {np.shape(dc)}")


def _shell_gradient_grid(
    source: SourceSpec,
    dc: np.ndarray,
    g: ConfocalGeometry,
    rhos: np.ndarray,
    omegas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dV/drho, dV/domega) on the tensor grid rhos x omegas in the shell.

    Separable matmuls over the modes keep the cost at (n_rho + n_omega)
    n_max entries rather than n_rho n_omega n_max.  dc is one row
    (2, 2, n_max).
    """
    _one_row(dc)
    (p_cos, p_sin), (q_cos, q_sin) = dc
    n = np.arange(1, np.shape(dc)[-1] + 1, dtype=float)
    (chi, che), (shi, she) = _layer_radial(n, g, rhos)

    cw = np.cos(np.outer(n, omegas))
    sw = np.sin(np.outer(n, omegas))

    # In the shell sigma_i = -1 and sigma_e = +1 (also on the interfaces).
    a_rho = p_cos * chi - q_cos * she
    b_rho = p_sin * shi - q_sin * che
    a_om = p_cos * chi + q_cos * che
    b_om = -p_sin * shi - q_sin * she

    d_rho = a_rho @ cw + b_rho @ sw
    d_omega = a_om @ sw + b_om @ cw
    if isinstance(source, Coefficients):
        # The same contraction for the series, at its own truncation.
        m, fp_ch, fp_sh, fm_ch, fm_sh = _series_radial(source, rhos)
        cw, sw = np.cos(np.outer(m, omegas)), np.sin(np.outer(m, omegas))
        f_rho = (m * fp_sh) @ cw + (m * fm_ch) @ sw
        f_omega = (m * fm_sh) @ cw - (m * fp_ch) @ sw
    else:
        grad = newtonian_gradient(source, cartesian(g.R, rhos[:, None], omegas), g.R)
        t_rho, t_omega = tangents(g.R, rhos[:, None], omegas)
        f_rho, f_omega = (grad * t_rho).sum(axis=-1), (grad * t_omega).sum(axis=-1)
    return d_rho + f_rho, d_omega + f_omega


def eval_gradient_shell(
    source: SourceSpec,
    dc: np.ndarray,
    g: ConfocalGeometry,
    rho: float,
    omega: float,
) -> tuple[complex, complex]:
    """(dV/drho, dV/domega) at a single shell point."""
    if not g.rho_i <= rho <= g.rho_e:
        raise ValueError(f"rho = {rho} is not inside the shell [{g.rho_i}, {g.rho_e}]")
    d_rho, d_omega = _shell_gradient_grid(
        source, dc, g, np.array([rho]), np.array([omega])
    )
    return complex(d_rho[0, 0]), complex(d_omega[0, 0])


def _gauss_panels(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid + half * x).ravel(), (half * w).ravel()


def dissipated_power_direct(
    source: SourceSpec,
    dc: np.ndarray,
    g: ConfocalGeometry,
    delta: float,
    n_omega: int | None = None,
    n_panels: int = 4,
) -> float:
    """E_delta by tensor quadrature of the shell gradient.

    Gauss-Legendre panels of _GL_ORDER nodes in rho, trapezoid in omega.
    The trapezoid rule is spectrally exact once n_omega exceeds twice the
    highest retained harmonic of |grad V|^2, so the default
    max(4 n_max + 2, 512) already sits deep in the converged regime.
    """
    if n_omega is None:
        n_omega = max(4 * np.shape(dc)[-1] + 2, 512)
    rhos, w_rho = _gauss_panels(g.rho_i, g.rho_e, n_panels, _GL_ORDER)
    omegas = 2.0 * math.pi * np.arange(n_omega) / n_omega
    d_rho, d_omega = _shell_gradient_grid(source, dc, g, rhos, omegas)
    density = np.abs(d_rho) ** 2 + np.abs(d_omega) ** 2
    return delta * float(w_rho @ density.sum(axis=1)) * (2.0 * math.pi / n_omega)


def coefficient_projection_oracle(
    s: SourceSpec, rho_t: float, n_max: int, R: float
) -> Coefficients:
    """Recover expansion data by Fourier projection on a test ellipse.

    Samples F on {rho = rho_t} (which must lie strictly below the source)
    at M = max(8 n_max, 512) equispaced angles and divides the Fourier
    coefficients by the known radial factors.  This route never touches
    the closed-form expansion coefficients, so it serves as an independent
    check of newtonian_coefficients.
    """
    if isinstance(s, Dipole):
        rho0 = s.location.rho
    elif isinstance(s, ChargePair):
        rho0 = min(s.plus.rho, s.minus.rho)
    elif isinstance(s, Coefficients):
        rho0 = math.inf
    else:
        raise TypeError(f"unsupported source type {type(s).__name__}")
    if not 0.0 < rho_t < rho0:
        raise ValueError(f"need 0 < rho_t < source radius, got rho_t = {rho_t}")

    m_nodes = max(8 * n_max, 512)
    omegas = 2.0 * math.pi * np.arange(m_nodes) / m_nodes
    values = newtonian_eval(s, cartesian(R, rho_t, omegas), R)

    spec = np.fft.rfft(values)
    n = np.arange(1, n_max + 1, dtype=float)
    cos_coeff = 2.0 * spec[1 : n_max + 1].real / m_nodes
    sin_coeff = -2.0 * spec[1 : n_max + 1].imag / m_nodes
    f_plus = cos_coeff / np.cosh(n * rho_t)
    f_minus = sin_coeff / np.sinh(n * rho_t)
    return Coefficients(float(spec[0].real) / m_nodes, f_plus, f_minus)


# ---------------------------------------------------------------------------
# One point, one mode, one energy row


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
    """Mode n of a table, the one-mode family record: n as an int, then
    pairs (4, 2), eigenvalues (4,) and norms (4,) of column n - 1."""
    return ModeTable(int(table.n[n - 1]), *(field[..., n - 1] for field in table[1:]))


def mode_data(n: int, g) -> ModeTable:
    """Mode n alone: column n - 1 of mode_table(g, n)."""
    return mode_column(mode_table(g, n), n)


def closed_energy(sc: Coefficients, dc: np.ndarray, g: ConfocalGeometry, delta: float) -> float:
    """The closed-form E_delta of one density row dc over sc's n_max modes."""
    return _closed_energies(sc, dc[:, :, None], g, [delta], [sc.n_max])[0]


def spectral_energy(proj: np.ndarray, modes: ModeTable, delta: float) -> float:
    """The spectral surrogate of E_delta from the (4, n) rows of
    mode_projections over all n modes of the table."""
    return _spectral_energies(proj, modes.eigenvalues, modes.norms, [delta], [proj.shape[1]])[0]
