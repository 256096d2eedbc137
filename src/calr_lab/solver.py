"""Transmission solve, dissipated power, loss sweeps and classification.

The physical setup is a dielectric core {rho < rho_i} (permittivity 1)
surrounded by a plasmonic shell {rho_i < rho < rho_e} with permittivity
-1 + i delta, embedded in vacuum, driven by a charge-balanced source
outside the shell.  Writing the quasistatic potential as

    V = F + S_i[phi_i] + S_e[phi_e]

with single-layer densities on the two interfaces, the transmission
conditions reduce to the resolvent equation

    (z I + K*) (phi_i, phi_e) = (dF/dnu_i, -dF/dnu_e),
    z = i delta / (2 (2 - i delta)),

where K* is the block NP-type operator of the geometry.  Because K* is
diagonalized mode-by-mode in closed form (see spectrum), the solve is a
pair of 2x2 spectral inversions per mode:

    weight = <g, Psi> / ((z + lambda_Psi) * |Psi|_S^2).

The forcing coefficients come from differentiating the source expansion
F = c - sum (F_n^+ cos cosh + F_n^- sin sinh):

    g_i projections:  -n F_n^+ sinh(n rho_i),  -n F_n^- cosh(n rho_i),
    g_e projections:  +n F_n^+ sinh(n rho_e),  +n F_n^- cosh(n rho_e).

Dissipated power is E_delta = delta * ||grad V||^2 over the shell.  In the
shell every mode of V is alpha e^{n rho} + beta e^{-n rho}; the omega
integral removes the cross terms and the metric Jacobian cancels, so the
energy is an exact sum of positive per-mode terms
(dissipated_power_closed).  That closed form is the production route.
Two independent routes cross-check it: tensor quadrature of the gradient
(dissipated_power_direct: Gauss-Legendre in rho, trapezoid in omega) and
the spectral surrogate

    E ~ delta * sum_n sum_branches proj^2 / (norm * (lambda^2 + delta^2)).

A sweep drives delta over several decades and the classifier grades the
outcome: resonant blow-up of E with decaying source visibility (CALR),
bounded/decaying E (no CALR), or neither.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import OverflowGuard, TruncationWarning
from .geometry import ConfocalGeometry, EllipticPoint, metric_factor, to_cartesian
from .source import (
    Coefficients,
    SourceCoefficients,
    SourceSpec,
    _expansion_value,
    newtonian_coefficients,
    newtonian_eval,
)
from .spectrum import ModeTable, Regime, mode_table

__all__ = [
    "ShellConfig",
    "BoundaryForcing",
    "ModeProjection",
    "DensityCoefficients",
    "SweepRecord",
    "CalrVerdict",
    "CalrDiagnosis",
    "z_param",
    "adaptive_n_max",
    "boundary_forcing",
    "mode_projections",
    "solve_densities",
    "eval_potential",
    "eval_gradient_shell",
    "dissipated_power_closed",
    "dissipated_power_direct",
    "dissipated_power_spectral",
    "sweep",
    "calr_classify",
]

# Hard bound on 2 * n_max * rho_e: beyond this the forcing and layer sums
# involve exponentials too close to the double-precision ceiling.
_NMAX_GUARD = 600.0

# Tail of the mode sum (in solution S-norm, relative) above which a
# truncation warning is emitted.
_TAIL_TOL = 1e-10

# Classification policy thresholds (see calr_classify).
_GROWTH_BIG = 1e3
_SPREAD_FLAT = 2.0
_EXPONENT_MARGIN = 0.05
_VISIBILITY_DROP = 3.0
_VISIBILITY_DROP_BIG = 10.0


@dataclass(frozen=True)
class ShellConfig:
    """Geometry, loss parameter and mode truncation for one solve."""

    geometry: ConfocalGeometry
    delta: float
    n_max: int

    def __post_init__(self) -> None:
        # Negative delta describes a gain shell; it is accepted because
        # conjugate symmetry V(-delta) = conj(V(delta)) is a library-level
        # invariant that tests exercise directly.
        if not (self.delta != 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be finite and nonzero, got {self.delta}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if 2.0 * self.n_max * self.geometry.rho_e >= _NMAX_GUARD:
            raise OverflowGuard(
                f"n_max = {self.n_max} exceeds the overflow-safe bound "
                f"{int(_NMAX_GUARD / (2.0 * self.geometry.rho_e))} for rho_e = "
                f"{self.geometry.rho_e}"
            )


@dataclass(frozen=True)
class BoundaryForcing:
    """Mode coefficients of the transmission forcing on both interfaces."""

    geometry: ConfocalGeometry
    gc_i: np.ndarray = field(repr=False)
    gs_i: np.ndarray = field(repr=False)
    gc_e: np.ndarray = field(repr=False)
    gs_e: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ModeProjection:
    """S-inner products of the forcing with the four eigenfunction families."""

    proj_1p: np.ndarray = field(repr=False)
    proj_1m: np.ndarray = field(repr=False)
    proj_2p: np.ndarray = field(repr=False)
    proj_2m: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DensityCoefficients:
    """Complex density coefficients; index [n-1] holds mode n.

    phi_i = sum p_cos[n] phi_n_c(i) + p_sin[n] phi_n_s(i), and q_* likewise
    for phi_e.
    """

    p_cos: np.ndarray = field(repr=False)
    p_sin: np.ndarray = field(repr=False)
    q_cos: np.ndarray = field(repr=False)
    q_sin: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SweepRecord:
    """Diagnostics of one loss value inside a sweep.

    e_direct holds the closed-form energy (dissipated_power_closed) of the
    truncated solve; the name is kept because it is the sweep.csv column.
    """

    delta: float
    n_max: int
    e_direct: float
    e_spectral: float
    far_samples: np.ndarray = field(repr=False)
    normalized_far: np.ndarray = field(repr=False)


class CalrVerdict(Enum):
    CALR = "CALR"
    NO_CALR = "NoCALR"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class CalrDiagnosis:
    """Classifier output over a sweep.

    growth_exponent is the fitted slope d ln E / d ln(1/delta); energy
    growth/spread compare the smallest-delta and largest-delta records;
    visibility_drop is the geometric-mean decay factor of
    |V| / sqrt(E_delta) at the far probes.
    """

    verdict: CalrVerdict
    regime: Regime
    growth_exponent: float
    energy_growth: float
    energy_spread: float
    visibility_drop: float
    energy_increasing: bool
    visibility_decreasing: bool


def z_param(delta: float) -> complex:
    """Spectral parameter of the shell permittivity -1 + i delta.

    Defined for any finite delta; z(0) = 0 and z(-delta) = conj(z(delta)).
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return 1j * delta / (2.0 * (2.0 - 1j * delta))


def adaptive_n_max(delta: float, g: ConfocalGeometry, margin: int = 40) -> int:
    """Truncation order that resolves all modes resonant at this delta.

    Resonant indices sit near ln(1/delta) / (rho_e - rho_i); twice that
    plus a safety margin keeps the neglected tail far below the resonance.
    Raises OverflowGuard when that many modes cannot be represented in
    double precision for this geometry.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = math.ceil(2.0 * math.log(1.0 / delta) / (g.rho_e - g.rho_i)) + margin
    if 2.0 * n * g.rho_e >= _NMAX_GUARD:
        raise OverflowGuard(
            f"delta = {delta} needs n_max = {n}, beyond the overflow-safe "
            f"bound {int(_NMAX_GUARD / (2.0 * g.rho_e))} for rho_e = {g.rho_e}"
        )
    return n


def boundary_forcing(sc: SourceCoefficients, g: ConfocalGeometry) -> BoundaryForcing:
    """Mode coefficients of (dF/dnu_i, -dF/dnu_e) on the two interfaces."""
    n = np.arange(1, sc.n_max + 1, dtype=float)
    if 2.0 * sc.n_max * g.rho_e >= _NMAX_GUARD:
        raise OverflowGuard(f"n_max = {sc.n_max} too large for rho_e = {g.rho_e}")
    gc_i = n * sc.f_plus * np.sinh(n * g.rho_i)
    gs_i = n * sc.f_minus * np.cosh(n * g.rho_i)
    gc_e = -n * sc.f_plus * np.sinh(n * g.rho_e)
    gs_e = -n * sc.f_minus * np.cosh(n * g.rho_e)
    out = BoundaryForcing(g, gc_i, gs_i, gc_e, gs_e)
    for arr in (gc_i, gs_i, gc_e, gs_e):
        if not np.all(np.isfinite(arr)):
            raise OverflowGuard("forcing coefficients leave double range")
    return out


def mode_projections(forcing: BoundaryForcing, modes: ModeTable) -> ModeProjection:
    """Pair the forcing with the eigenfunction families in the S-product.

    On each mode-n subspace the pairing is the 2x2 Gram form of the
    density pair, so e.g. proj_1p = (gc_i, gc_e) G_cos (a1, b)^T.
    """
    g = forcing.geometry
    n = modes.n.astype(float)
    if len(n) != len(forcing.gc_i):
        raise ValueError("forcing and mode table have different truncation orders")
    ei = np.exp(-2.0 * n * g.rho_i)
    ee = np.exp(-2.0 * n * g.rho_e)
    E = np.exp(-n * (g.rho_e - g.rho_i))
    pref = math.pi / n
    ci, si = 0.5 * (1.0 + ei), 0.5 * (1.0 - ei)
    ce, se = 0.5 * (1.0 + ee), 0.5 * (1.0 - ee)
    cx, sx = 0.5 * E * (1.0 + ei), 0.5 * E * (1.0 - ei)

    def pair_cos(u1, u2, v1, v2):
        return pref * (u1 * (ci * v1 + cx * v2) + u2 * (cx * v1 + ce * v2))

    def pair_sin(u1, u2, v1, v2):
        return pref * (u1 * (si * v1 + sx * v2) + u2 * (sx * v1 + se * v2))

    return ModeProjection(
        proj_1p=pair_cos(forcing.gc_i, forcing.gc_e, modes.a1, modes.b),
        proj_2p=pair_cos(forcing.gc_i, forcing.gc_e, modes.a2, modes.b),
        proj_1m=pair_sin(forcing.gs_i, forcing.gs_e, modes.b, modes.a2),
        proj_2m=pair_sin(forcing.gs_i, forcing.gs_e, modes.b, modes.a1),
    )


def _spectral_weights(
    proj: ModeProjection, modes: ModeTable, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    z = z_param(delta)
    w1 = proj.proj_1p / ((z + modes.lambda1) * modes.norm_1p)
    w2 = proj.proj_2p / ((z + modes.lambda2) * modes.norm_2p)
    w3 = proj.proj_1m / ((z - modes.lambda1) * modes.norm_1m)
    w4 = proj.proj_2m / ((z - modes.lambda2) * modes.norm_2m)
    return w1, w2, w3, w4


def _assemble_densities(
    proj: ModeProjection, modes: ModeTable, delta: float
) -> tuple[DensityCoefficients, np.ndarray]:
    """Densities plus the per-mode solution-norm contributions."""
    w1, w2, w3, w4 = _spectral_weights(proj, modes, delta)
    contrib = (
        np.abs(w1) ** 2 * modes.norm_1p
        + np.abs(w2) ** 2 * modes.norm_2p
        + np.abs(w3) ** 2 * modes.norm_1m
        + np.abs(w4) ** 2 * modes.norm_2m
    )
    dc = DensityCoefficients(
        p_cos=w1 * modes.a1 + w2 * modes.a2,
        p_sin=(w3 + w4) * modes.b,
        q_cos=(w1 + w2) * modes.b,
        q_sin=w3 * modes.a2 + w4 * modes.a1,
    )
    return dc, contrib


def solve_densities(sc: SourceCoefficients, config: ShellConfig) -> DensityCoefficients:
    """Solve the transmission problem; returns density mode coefficients.

    Emits TruncationWarning when the last retained mode still carries more
    than 1e-10 of the accumulated solution norm.
    """
    modes = mode_table(config.geometry, config.n_max)
    forcing = boundary_forcing(sc, config.geometry)
    proj = mode_projections(forcing, modes)
    dc, contrib = _assemble_densities(proj, modes, config.delta)

    total = float(np.sum(contrib))
    if total > 0.0 and math.sqrt(float(contrib[-1]) / total) > _TAIL_TOL:
        warnings.warn(
            f"mode sum truncated at n_max = {config.n_max} with relative tail "
            f"{math.sqrt(float(contrib[-1]) / total):.2e}",
            TruncationWarning,
            stacklevel=2,
        )
    return dc


def _layer_sums(
    dc: DensityCoefficients, g: ConfocalGeometry, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """Radial factors of the two layer potentials at one radius.

    Returns (cos_part[n], sin_part[n]) with V_layers = sum cos_part cos(n w)
    + sin_part sin(n w); everything is evaluated in factored exponentials
    so that no intermediate exceeds e^0.
    """
    n = np.arange(1, len(dc.p_cos) + 1, dtype=float)
    ri, re = g.rho_i, g.rho_e
    if rho <= ri:
        # Both layers seen from inside: cosh(n rho) e^{-n rho_k} terms.
        chr_i = 0.5 * (np.exp(-n * (ri - rho)) + np.exp(-n * (ri + rho)))
        shr_i = 0.5 * (np.exp(-n * (ri - rho)) - np.exp(-n * (ri + rho)))
        chr_e = 0.5 * (np.exp(-n * (re - rho)) + np.exp(-n * (re + rho)))
        shr_e = 0.5 * (np.exp(-n * (re - rho)) - np.exp(-n * (re + rho)))
        cos_part = -(dc.p_cos * chr_i + dc.q_cos * chr_e) / n
        sin_part = -(dc.p_sin * shr_i + dc.q_sin * shr_e) / n
    elif rho <= re:
        # Inner layer seen from outside, outer layer from inside.
        chi = 0.5 * (np.exp(-n * (rho - ri)) + np.exp(-n * (rho + ri)))
        shi = 0.5 * (np.exp(-n * (rho - ri)) - np.exp(-n * (rho + ri)))
        chr_e = 0.5 * (np.exp(-n * (re - rho)) + np.exp(-n * (re + rho)))
        shr_e = 0.5 * (np.exp(-n * (re - rho)) - np.exp(-n * (re + rho)))
        cos_part = -(dc.p_cos * chi + dc.q_cos * chr_e) / n
        sin_part = -(dc.p_sin * shi + dc.q_sin * shr_e) / n
    else:
        chi = 0.5 * (np.exp(-n * (rho - ri)) + np.exp(-n * (rho + ri)))
        shi = 0.5 * (np.exp(-n * (rho - ri)) - np.exp(-n * (rho + ri)))
        che = 0.5 * (np.exp(-n * (rho - re)) + np.exp(-n * (rho + re)))
        she = 0.5 * (np.exp(-n * (rho - re)) - np.exp(-n * (rho + re)))
        cos_part = -(dc.p_cos * chi + dc.q_cos * che) / n
        sin_part = -(dc.p_sin * shi + dc.q_sin * she) / n
    return cos_part, sin_part


def eval_potential(
    source: SourceSpec | SourceCoefficients,
    dc: DensityCoefficients,
    config: ShellConfig,
    x: EllipticPoint,
) -> complex:
    """Value of V_delta at an elliptic point (any region)."""
    g = config.geometry
    n = np.arange(1, len(dc.p_cos) + 1, dtype=float)
    cos_part, sin_part = _layer_sums(dc, g, x.rho)
    layers = complex(
        cos_part @ np.cos(n * x.omega) + sin_part @ np.sin(n * x.omega)
    )
    if isinstance(source, (SourceCoefficients, Coefficients)):
        f_val = _expansion_value(source.c, source.f_plus, source.f_minus, x.rho, x.omega)
    else:
        f_val = newtonian_eval(source, to_cartesian(g.R, x), g.R)
    return f_val + layers


def _f_gradient_elliptic(
    source: SourceSpec | SourceCoefficients,
    g: ConfocalGeometry,
    rho: np.ndarray,
    omega: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dF/drho, dF/domega) of the source potential on a (rho, omega) grid."""
    rho = np.asarray(rho, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if isinstance(source, (SourceCoefficients, Coefficients)):
        n = np.arange(1, len(source.f_plus) + 1, dtype=float)
        ch = np.cosh(np.outer(rho, n))
        sh = np.sinh(np.outer(rho, n))
        cw = np.cos(np.outer(n, omega))
        sw = np.sin(np.outer(n, omega))
        nfp, nfm = n * source.f_plus, n * source.f_minus
        d_rho = (sh * nfp) @ cw + (ch * nfm) @ sw
        d_omega = -(ch * nfp) @ sw + (sh * nfm) @ cw
        return d_rho, d_omega
    rr, ww = np.broadcast_arrays(rho[:, None], omega[None, :])
    x1 = g.R * np.cos(ww) * np.cosh(rr)
    x2 = g.R * np.sin(ww) * np.sinh(rr)
    t_rho_1 = g.R * np.cos(ww) * np.sinh(rr)
    t_rho_2 = g.R * np.sin(ww) * np.cosh(rr)
    grad = _f_gradient_cartesian(source, g.R, x1, x2)
    # t_omega = (-x2_of(rho,omega) swapped): (-R sin w cosh r, R cos w sinh r).
    d_rho = grad[0] * t_rho_1 + grad[1] * t_rho_2
    d_omega = grad[0] * (-g.R * np.sin(ww) * np.cosh(rr)) + grad[1] * (
        g.R * np.cos(ww) * np.sinh(rr)
    )
    return d_rho, d_omega


def _f_gradient_cartesian(source: SourceSpec, R: float, x1, x2):
    """Closed-form grad F on arrays of Cartesian points."""
    from .source import ChargePair, Dipole  # local import to avoid cycle noise

    if isinstance(source, Dipole):
        s0 = to_cartesian(R, source.location)
        r1, r2 = x1 - s0[0], x2 - s0[1]
        r_sq = r1 * r1 + r2 * r2
        a_dot = source.moment[0] * r1 + source.moment[1] * r2
        gx = (source.moment[0] - 2.0 * a_dot * r1 / r_sq) / (2.0 * math.pi * r_sq)
        gy = (source.moment[1] - 2.0 * a_dot * r2 / r_sq) / (2.0 * math.pi * r_sq)
        return gx, gy
    if isinstance(source, ChargePair):
        sp = to_cartesian(R, source.plus)
        sm = to_cartesian(R, source.minus)
        rp1, rp2 = x1 - sp[0], x2 - sp[1]
        rm1, rm2 = x1 - sm[0], x2 - sm[1]
        dp, dm = rp1 * rp1 + rp2 * rp2, rm1 * rm1 + rm2 * rm2
        k = source.charge / (2.0 * math.pi)
        return k * (rp1 / dp - rm1 / dm), k * (rp2 / dp - rm2 / dm)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def _shell_gradient_grid(
    source: SourceSpec | SourceCoefficients,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    rhos: np.ndarray,
    omegas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dV/drho, dV/domega) on the tensor grid rhos x omegas in the shell."""
    n = np.arange(1, len(dc.p_cos) + 1, dtype=float)
    ri, re = g.rho_i, g.rho_e
    # Radial factors, shape (n_rho, n_max); all factored exponentials.
    chi = 0.5 * (np.exp(-np.outer(rhos - ri, n)) + np.exp(-np.outer(rhos + ri, n)))
    shi = 0.5 * (np.exp(-np.outer(rhos - ri, n)) - np.exp(-np.outer(rhos + ri, n)))
    che = 0.5 * (np.exp(-np.outer(re - rhos, n)) + np.exp(-np.outer(re + rhos, n)))
    she = 0.5 * (np.exp(-np.outer(re - rhos, n)) - np.exp(-np.outer(re + rhos, n)))

    cw = np.cos(np.outer(n, omegas))
    sw = np.sin(np.outer(n, omegas))

    a_rho = dc.p_cos * chi - dc.q_cos * she
    b_rho = dc.p_sin * shi - dc.q_sin * che
    a_om = dc.p_cos * chi + dc.q_cos * che
    b_om = -dc.p_sin * shi - dc.q_sin * she

    d_rho = a_rho @ cw + b_rho @ sw
    d_omega = a_om @ sw + b_om @ cw
    f_rho, f_omega = _f_gradient_elliptic(source, g, rhos, omegas)
    return d_rho + f_rho, d_omega + f_omega


def eval_gradient_shell(
    source: SourceSpec | SourceCoefficients,
    dc: DensityCoefficients,
    config: ShellConfig,
    rho: float,
    omega: float,
) -> tuple[complex, complex]:
    """(dV/drho, dV/domega) at a single shell point."""
    g = config.geometry
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
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def dissipated_power_direct(
    source: SourceSpec | SourceCoefficients,
    dc: DensityCoefficients,
    config: ShellConfig,
    n_omega: int | None = None,
    n_panels: int = 4,
    gl_order: int = 32,
) -> float:
    """E_delta by tensor quadrature of the shell gradient.

    Gauss-Legendre panels in rho, trapezoid in omega.  The trapezoid rule
    is spectrally exact once n_omega exceeds twice the highest retained
    harmonic of |grad V|^2, so the default max(4 n_max + 2, 512) already
    sits deep in the converged regime.
    """
    g = config.geometry
    if n_omega is None:
        n_omega = max(4 * len(dc.p_cos) + 2, 512)
    rhos, w_rho = _gauss_panels(g.rho_i, g.rho_e, n_panels, gl_order)
    omegas = 2.0 * math.pi * np.arange(n_omega) / n_omega
    d_rho, d_omega = _shell_gradient_grid(source, dc, g, rhos, omegas)
    density = np.abs(d_rho) ** 2 + np.abs(d_omega) ** 2
    return config.delta * float(w_rho @ density.sum(axis=1)) * (2.0 * math.pi / n_omega)


def dissipated_power_closed(
    sc: SourceCoefficients,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    delta: float,
) -> float:
    """E_delta = delta * ||grad V||^2 over the shell, summed mode by mode.

    In the shell the cosine and sine parts of mode n of V are each
    alpha e^{n rho} + beta e^{-n rho}.  With the scaled coefficients
    alpha~ = alpha e^{n rho_e} and beta~ = beta e^{-n rho_i} the omega
    integral removes the cross terms and

        E = delta pi sum_n n (1 - e^{-2 n (rho_e - rho_i)})
              (|alpha~_c|^2 + |alpha~_s|^2 + |beta~_c|^2 + |beta~_s|^2).

    Every term is positive.  The only growing factor, e^{n rho_e}, stays
    below e^300 by the n_max guard, and it multiplies F_n, which decays
    like e^{-n rho_0} with rho_0 > rho_e for a source outside the shell.
    """
    if len(dc.p_cos) != sc.n_max:
        raise ValueError(
            "source and density coefficients have different truncation orders"
        )
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    n = np.arange(1, sc.n_max + 1, dtype=float)
    up_e = np.exp(n * g.rho_e)
    down_i = np.exp(-n * g.rho_i)
    ei = np.exp(-2.0 * n * g.rho_i)
    cross = np.exp(-n * (g.rho_e + g.rho_i))
    alpha_c = 0.5 * sc.f_plus * up_e - dc.q_cos / (2.0 * n)
    alpha_s = 0.5 * sc.f_minus * up_e - dc.q_sin / (2.0 * n)
    beta_c = 0.5 * sc.f_plus * down_i - (
        0.5 * dc.p_cos * (1.0 + ei) + 0.5 * dc.q_cos * cross
    ) / n
    beta_s = -0.5 * sc.f_minus * down_i - (
        0.5 * dc.p_sin * (1.0 - ei) - 0.5 * dc.q_sin * cross
    ) / n
    gap = -np.expm1(-2.0 * n * (g.rho_e - g.rho_i))
    mag2 = (
        np.abs(alpha_c) ** 2
        + np.abs(alpha_s) ** 2
        + np.abs(beta_c) ** 2
        + np.abs(beta_s) ** 2
    )
    return delta * math.pi * float(np.sum(n * gap * mag2))


def dissipated_power_spectral(
    proj: ModeProjection, modes: ModeTable, delta: float
) -> float:
    """Spectral surrogate of E_delta (resonant-mode sum)."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    den1 = modes.lambda1**2 + delta * delta
    den2 = modes.lambda2**2 + delta * delta
    total = np.sum(
        proj.proj_1p**2 / (modes.norm_1p * den1)
        + proj.proj_1m**2 / (modes.norm_1m * den1)
        + proj.proj_2p**2 / (modes.norm_2p * den2)
        + proj.proj_2m**2 / (modes.norm_2m * den2)
    )
    return delta * float(total)


def sweep(
    source: SourceSpec,
    g: ConfocalGeometry,
    deltas: Sequence[float],
    probes: Sequence[EllipticPoint],
    margin: int = 40,
) -> list[SweepRecord]:
    """Solve the transmission problem across a family of loss values.

    Each delta gets its own adaptive truncation.  The source coefficients
    and the mode table do not depend on delta, so both are built once at
    the largest truncation and sliced per delta; the slices equal per-delta
    builds bit for bit.  Probes must lie outside the shell.  Records are
    returned in the order the deltas were given.
    """
    if len(deltas) == 0:
        raise ValueError("need at least one delta")
    for p in probes:
        if p.rho <= g.rho_e:
            raise ValueError(f"probe at rho = {p.rho} is not outside the shell")
    n_maxes = [adaptive_n_max(d, g, margin) for d in deltas]
    n_top = max(n_maxes)
    sc_top = newtonian_coefficients(source, n_top, g.R, rho_e=g.rho_e)
    modes_top = mode_table(g, n_top)
    records = []
    for delta, n_max in zip(deltas, n_maxes):
        config = ShellConfig(g, delta, n_max)
        sc = sc_top.truncated(n_max)
        modes = modes_top.truncated(n_max)
        proj = mode_projections(boundary_forcing(sc, g), modes)
        dc, _ = _assemble_densities(proj, modes, delta)
        energy = dissipated_power_closed(sc, dc, g, delta)
        e_spectral = dissipated_power_spectral(proj, modes, delta)
        far = np.array(
            [abs(eval_potential(source, dc, config, p)) for p in probes]
        )
        scale = math.sqrt(energy) if energy > 0.0 else math.inf
        records.append(SweepRecord(delta, n_max, energy, e_spectral, far, far / scale))
    return records


def calr_classify(records: Sequence[SweepRecord], regime: Regime) -> CalrDiagnosis:
    """Grade a sweep: CALR, NoCALR or Indeterminate.

    Policy: a fitted growth exponent of E_delta above +0.05 with the
    normalized far-field dropping by at least 3x is resonant blow-up
    (CALR); so is total growth beyond 1e3 with a 10x visibility drop.
    A sweep whose energy stays within a 2x band, or decays (exponent
    below -0.05), is graded NoCALR.  Everything else, including sweeps
    with nonfinite data, is Indeterminate.
    """
    recs = sorted(records, key=lambda r: -r.delta)
    e = np.array([r.e_direct for r in recs])
    if len(recs) < 3 or not np.all(np.isfinite(e)) or np.any(e <= 0.0):
        return CalrDiagnosis(
            CalrVerdict.INDETERMINATE,
            regime,
            math.nan,
            math.nan,
            math.nan,
            math.nan,
            False,
            False,
        )
    log_inv_delta = np.log(1.0 / np.array([r.delta for r in recs]))
    slope = float(np.polyfit(log_inv_delta, np.log(e), 1)[0])
    growth = float(e[-1] / e[0])
    spread = float(np.max(e) / np.min(e))

    nf = np.array([r.normalized_far for r in recs])  # (n_delta, n_probes)
    if nf.ndim != 2 or nf.shape[1] == 0:
        drop = math.nan
        decreasing = False
    else:
        drops = nf[0] / nf[-1]
        drop = (
            float(np.exp(np.mean(np.log(drops))))
            if np.all(np.isfinite(drops)) and np.all(drops > 0.0)
            else math.nan
        )
        decreasing = bool(np.all(np.diff(nf[:, 0]) < 0.0))
    increasing = bool(np.all(np.diff(e) > 0.0))

    if math.isfinite(drop) and (
        (slope >= _EXPONENT_MARGIN and drop >= _VISIBILITY_DROP)
        or (growth > _GROWTH_BIG and drop > _VISIBILITY_DROP_BIG)
    ):
        verdict = CalrVerdict.CALR
    elif spread < _SPREAD_FLAT or slope <= -_EXPONENT_MARGIN:
        verdict = CalrVerdict.NO_CALR
    else:
        verdict = CalrVerdict.INDETERMINATE
    return CalrDiagnosis(
        verdict, regime, slope, growth, spread, drop, increasing, decreasing
    )
