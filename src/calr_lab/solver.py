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
F = c + sum (F_n^+ cos cosh + F_n^- sin sinh) (see source):

    g_i projections:  +n F_n^+ sinh(n rho_i),  +n F_n^- cosh(n rho_i),
    g_e projections:  -n F_n^+ sinh(n rho_e),  -n F_n^- cosh(n rho_e).

Dissipated power is E_delta = delta * ||grad V||^2 over the shell.  In the
shell every mode of V is alpha e^{n rho} + beta e^{-n rho}; the omega
integral removes the cross terms and the metric Jacobian cancels, so the
energy is an exact sum of positive per-mode terms
(dissipated_power_closed).  The spectral surrogate

    E ~ delta * sum_n sum_branches proj^2 / (norm * (lambda^2 + delta^2))

is reported beside it.

Evaluation.  Mode n of a layer potential on rho_k is a mix of
e^{-n |rho - rho_k|} and e^{-n (rho + rho_k)} times cos or sin (n omega).
With zeta = rho + i omega each product is the real or imaginary part of a
power of a complex ratio such as e^{-(zeta - rho_k)}, and inside one
region (core, shell or exterior) all of them are powers of
x = e^{-(rho - lo) + i omega} or y = e^{-(hi - rho) + i omega} and their
conjugates, scaled by constants e^{-n c} with c >= 0; the source series
is a power series in e^{zeta} and e^{-zeta}.  eval_potentials sums them
all with one Horner recurrence (source._horner), elementwise per point,
so a value depends neither on the other points nor on trailing zero
densities; sweep relies on both to evaluate the probes of all its deltas
in one call.

A sweep drives delta over several decades and the classifier grades the
outcome: resonant blow-up of E with decaying source visibility (CALR),
bounded/decaying E (no CALR), or neither.

Each rule is stated once.  adaptive_n_max refuses a delta outside (0, 1)
and a negative margin, and sweep a probe it cannot evaluate, all with
errors.InputError before any coefficient is built.  The solve (with its
tail check, TruncationWarning above 1e-10) and both energies run over
(delta, mode) arrays, one row per delta over its own leading modes, with
solve_densities and the dissipated_power functions as one-row cases; the
energies square over a power-of-two scale and refuse only an E out of range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InputError, OverflowGuard, TruncationWarning
from .geometry import ConfocalGeometry, EllipticPoint
from .source import (
    Coefficients,
    SourceSpec,
    _horner,
    _square_scale,
    elliptic_potential,
    newtonian_coefficients,
)
from .spectrum import ModeTable, Regime, mode_factors, mode_table

__all__ = [
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
    "eval_potentials",
    "dissipated_power_closed",
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
    for phi_e.  eval_potentials also takes (n_max, m) arrays holding one
    column of densities per evaluation point.
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
    Raises InputError for delta outside (0, 1) or a negative margin, and
    OverflowGuard when that many modes cannot be represented in double
    precision for this geometry.
    """
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta: must be in (0, 1), got {delta}")
    if margin < 0:
        raise InputError(f"margin: must be >= 0, got {margin}")
    n = math.ceil(2.0 * math.log(1.0 / delta) / (g.rho_e - g.rho_i)) + margin
    if 2.0 * n * g.rho_e >= _NMAX_GUARD:
        raise OverflowGuard(
            f"delta = {delta} needs n_max = {n}, beyond the overflow-safe "
            f"bound {int(_NMAX_GUARD / (2.0 * g.rho_e))} for rho_e = {g.rho_e}"
        )
    return n


def boundary_forcing(sc: Coefficients, g: ConfocalGeometry) -> BoundaryForcing:
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
    n = modes.n.astype(float)
    if len(n) != len(forcing.gc_i):
        raise ValueError("forcing and mode table have different truncation orders")
    f = mode_factors(n, forcing.geometry)
    ci, si, ce, se, cx, sx, pref = f.ci, f.si, f.ce, f.se, f.cx, f.sx, f.pref

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


def _assemble_densities(proj, modes, deltas, n_maxes) -> DensityCoefficients:
    """(K, n_top) densities: row k solved at deltas[k], zero past n_maxes[k].

    Warns (TruncationWarning, at the caller's caller) once per delta, in
    order, when the row's last mode carries over 1e-10 of its S-norm,
    formed as (|w| sqrt(norm) / top)^2 with top the row's largest |w| sqrt(norm).
    """
    z = np.array([[z_param(d)] for d in deltas])
    keep = np.arange(len(modes.n)) < np.asarray(n_maxes)[:, None]
    # The families 1+, 2+, 1-, 2- on a leading axis; z - lambda is z + (-lambda).
    p = np.array([proj.proj_1p, proj.proj_2p, proj.proj_1m, proj.proj_2m])[:, None]
    lam = np.array([modes.lambda1, modes.lambda2, -modes.lambda1, -modes.lambda2])[:, None]
    norm = np.array([modes.norm_1p, modes.norm_2p, modes.norm_1m, modes.norm_2m])[:, None]
    w1, w2, w3, w4 = w = np.where(keep, p / ((z + lam) * norm), 0.0)
    amp = np.abs(w) * np.sqrt(norm)
    top = np.max(amp, axis=(0, 2))
    contrib = np.sum((amp / np.where(top > 0.0, top, 1.0)[:, None]) ** 2, axis=0)
    for row, n_max, t in zip(contrib, n_maxes, top):
        tail = math.sqrt(float(row[n_max - 1]) / float(row[:n_max].sum())) if t > 0.0 else 0.0
        if tail > _TAIL_TOL:
            warnings.warn(f"mode sum truncated at n_max = {n_max} with relative tail "
                          f"{tail:.2e}", TruncationWarning, stacklevel=3)
    return DensityCoefficients(w1 * modes.a1 + w2 * modes.a2, (w3 + w4) * modes.b,
                               (w1 + w2) * modes.b, w3 * modes.a2 + w4 * modes.a1)


def solve_densities(sc: Coefficients, g: ConfocalGeometry, delta: float) -> DensityCoefficients:
    """Solve the transmission problem at loss delta over the sc.n_max modes.

    A negative delta (a gain shell) is accepted: conjugate symmetry
    V(-delta) = conj(V(delta)) is an invariant that tests exercise
    directly.  Raises ValueError for delta zero or nonfinite and for an
    empty expansion, OverflowGuard past the n_max bound of boundary_forcing.
    Emits TruncationWarning when the last retained mode still carries more
    than 1e-10 of the accumulated solution norm.
    """
    if not (delta != 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be finite and nonzero, got {delta}")
    forcing = boundary_forcing(sc, g)
    modes = mode_table(g, sc.n_max)
    dc = _assemble_densities(mode_projections(forcing, modes), modes, [delta], [sc.n_max])
    return DensityCoefficients(*(getattr(dc, f.name)[0] for f in fields(dc)))


def _region_chains(
    halves: list, n: np.ndarray, lo: float, hi: float | None
) -> np.ndarray:
    """Horner coefficients of the layer sums for points with lo <= rho <= hi.

    halves holds ((A - iB)/2, (A + iB)/2) per interface, A and B being
    the cos and sin coefficients p/n (q/n on rho_e).  Every near and far
    factor of the region is e^{-n (rho - lo)} or e^{-n (hi - rho)} times
    a constant e^{-n c} with c >= 0, so the chains run in
    x = e^{-(rho - lo) + i omega} and y = e^{-(hi - rho) + i omega} and
    their conjugates; above rho_e (hi None) there is no y.  Returns the
    coefficients of x, conj x, y, conj y stacked on axis 1.
    """
    up = up_conj = down = down_conj = 0.0
    for rk, (minus, plus) in halves:
        far = np.exp(-(lo + rk) * n)
        up, up_conj = up + plus * far, up_conj + minus * far
        if rk <= lo:
            near = np.exp(-(lo - rk) * n)
            up, up_conj = up + minus * near, up_conj + plus * near
        else:
            near = np.exp(-(rk - hi) * n)
            down, down_conj = down + minus * near, down_conj + plus * near
    chains = [up, up_conj] if hi is None else [up, up_conj, down, down_conj]
    return np.stack(chains, axis=1)


def _layer_sums(
    dens: Sequence[np.ndarray], g: ConfocalGeometry, rho: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Sum of both layer potentials at the points (rho[j], omega[j]).

    dens is (p_cos, p_sin, q_cos, q_sin), each of shape (n_max, 1) for
    densities shared by all points or (n_max, points) for a column per
    point.  Mode n of the layer of phi_n_c (phi_n_s) on rho_k is
    -(near^n +- far^n) cos (sin)(n omega) / (2n) with near = e^{-|rho -
    rho_k|} and far = e^{-(rho + rho_k)}; writing cos and sin through
    e^{+-i n omega} turns each layer sum into power series in a complex
    ratio of modulus <= 1 (see _region_chains), summed by _horner and
    added in a fixed order.
    """
    p_cos, p_sin, q_cos, q_sin = dens
    n = np.arange(1, len(p_cos) + 1, dtype=float)[:, None]
    halves = [
        (g.rho_i, ((p_cos - 1j * p_sin) / (2.0 * n), (p_cos + 1j * p_sin) / (2.0 * n))),
        (g.rho_e, ((q_cos - 1j * q_sin) / (2.0 * n), (q_cos + 1j * q_sin) / (2.0 * n))),
    ]
    out = np.empty(rho.shape, dtype=complex)
    region = (rho > g.rho_i).astype(int) + (rho > g.rho_e)
    bounds = ((0.0, g.rho_i), (g.rho_i, g.rho_e), (g.rho_e, None))
    for r, (lo, hi) in enumerate(bounds):
        idx = np.flatnonzero(region == r)
        if idx.size == 0:
            continue
        coef = _region_chains(halves, n, lo, hi)
        x = np.exp((lo - rho[idx]) + 1j * omega[idx])
        var = [x, x.conj()]
        if hi is not None:
            y = np.exp((rho[idx] - hi) + 1j * omega[idx])
            var += [y, y.conj()]
        acc = _horner(coef if coef.shape[2] == 1 else coef[:, :, idx], np.stack(var))
        out[idx] = -0.5 * sum(acc[1:], acc[0])
    return out


def eval_potentials(
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    rho,
    omega,
) -> np.ndarray:
    """V_delta at the elliptic points (rho[j], omega[j]), any region.

    rho and omega broadcast against each other; the complex result has
    their broadcast shape.  The density arrays of dc have shape (n_max,),
    or (n_max, m) with one column per point (in flattened order) when
    each point carries densities of its own, as in sweep.  The layer sums
    and the source series cost one complex exp per point and chain, then
    one complex multiply-add per mode (_horner), with no point x mode
    array; a value does not depend on which call its point falls in.
    """
    rho, omega = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(omega, dtype=float)
    )
    shape = rho.shape
    rho, omega = rho.ravel(), omega.ravel()
    if not (rho >= 0.0).all():
        raise ValueError("need rho >= 0 at every point")
    n_max = len(dc.p_cos)
    dens = [np.reshape(getattr(dc, f.name), (n_max, -1)) for f in fields(dc)]
    if dens[0].shape[1] not in (1, rho.size):
        raise ValueError(f"need 1 or {rho.size} density columns, got {dens[0].shape[1]}")
    out = _layer_sums(dens, g, rho, omega)
    out += elliptic_potential(source, g.R, rho, omega)
    return out.reshape(shape)


def eval_potential(
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    x: EllipticPoint,
) -> complex:
    """Value of V_delta at an elliptic point (any region)."""
    return complex(eval_potentials(source, dc, g, x.rho, x.omega))


def _energies(amp, terms, factor: float, deltas, n_maxes) -> list[float]:
    """delta_k factor s_k^2 sum(terms(w)[k, :n_maxes[k]]) for each row k.

    terms squares the (4, K, n_top) amplitudes amp times w: 1 / s_k on row
    k's leading modes, s_k = _square_scale(their max amp), and 0 past them.
    """
    keep = np.arange(amp.shape[-1]) < np.asarray(n_maxes)[:, None]
    scale = [_square_scale(t) for t in np.max(amp * keep, axis=(0, 2), initial=0.0).tolist()]
    rows = terms(np.where(keep, 1.0 / np.array(scale)[:, None], 0.0))
    out = []
    for row, s, delta, n_max in zip(rows, scale, deltas, n_maxes):
        out.append(float(delta) * factor * float(row[:n_max].sum()) * s * s)
        if not math.isfinite(out[-1]):
            raise OverflowGuard(f"dissipated power at delta = {delta} leaves double range")
    return out


def _closed_energies(sc, dc, g, deltas, n_maxes) -> list[float]:
    """dissipated_power_closed at each deltas[k], with row k of dc."""
    n = np.arange(1, sc.n_max + 1, dtype=float)
    f = mode_factors(n, g)
    # e^{n rho_e}, e^{-n rho_i} and e^{-n (rho_e + rho_i)} in one exp call.
    rates = [g.rho_e, -g.rho_i, -(g.rho_e + g.rho_i)]
    up_e, down_i, cross = np.exp(np.multiply.outer(rates, n))
    alpha_c = 0.5 * sc.f_plus * up_e - dc.q_cos / (2.0 * n)
    alpha_s = 0.5 * sc.f_minus * up_e - dc.q_sin / (2.0 * n)
    beta_c = 0.5 * sc.f_plus * down_i - (dc.p_cos * f.ci + 0.5 * dc.q_cos * cross) / n
    beta_s = -0.5 * sc.f_minus * down_i - (dc.p_sin * f.si - 0.5 * dc.q_sin * cross) / n
    gap = -np.expm1(-2.0 * n * (g.rho_e - g.rho_i))
    amp = np.abs(np.reshape([alpha_c, alpha_s, beta_c, beta_s], (4, len(deltas), -1)))
    return _energies(amp, lambda w: n * gap * np.sum((amp * w) ** 2, axis=0),
                     math.pi, deltas, n_maxes)


def _spectral_energies(proj, modes, deltas, n_maxes) -> list[float]:
    """dissipated_power_spectral at each deltas[k] over its leading n_maxes[k] modes."""
    lam = np.array([modes.lambda1, modes.lambda1, modes.lambda2, modes.lambda2])[:, None]
    norms = np.array([modes.norm_1p, modes.norm_1m, modes.norm_2p, modes.norm_2m])[:, None]
    den = norms * (lam**2 + np.square(np.asarray(deltas, dtype=float))[:, None])
    p = np.array([proj.proj_1p, proj.proj_1m, proj.proj_2p, proj.proj_2m])[:, None]
    # The term proj^2 / (norm den) has the amplitude |proj| / sqrt(norm den).
    return _energies(np.abs(p) / np.sqrt(den), lambda w: np.sum((p * w) ** 2 / den, axis=0),
                     1.0, deltas, n_maxes)


def dissipated_power_closed(
    sc: Coefficients, dc: DensityCoefficients, g: ConfocalGeometry, delta: float
) -> float:
    """E_delta = delta * ||grad V||^2 over the shell, summed mode by mode.

    In the shell the cosine and sine parts of mode n of V are each
    alpha e^{n rho} + beta e^{-n rho}.  With the scaled coefficients
    alpha~ = alpha e^{n rho_e} and beta~ = beta e^{-n rho_i} the omega
    integral removes the cross terms and

        E = delta pi sum_n n (1 - e^{-2 n (rho_e - rho_i)})
              (|alpha~_c|^2 + |alpha~_s|^2 + |beta~_c|^2 + |beta~_s|^2).

    Every term is positive; the squares are taken over a power-of-two scale
    (see _energies), so OverflowGuard means E itself is out of double range.
    """
    if len(dc.p_cos) != sc.n_max:
        raise ValueError("source and density coefficients have different truncation orders")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return _closed_energies(sc, dc, g, [delta], [sc.n_max])[0]


def dissipated_power_spectral(proj: ModeProjection, modes: ModeTable, delta: float) -> float:
    """Spectral surrogate of E_delta (resonant-mode sum); OverflowGuard as
    in dissipated_power_closed."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    return _spectral_energies(proj, modes, [delta], [len(proj.proj_1p)])[0]


def sweep(
    source: SourceSpec,
    g: ConfocalGeometry,
    deltas: Sequence[float],
    probes: Sequence[EllipticPoint],
    margin: int = 40,
) -> list[SweepRecord]:
    """Solve the transmission problem across a family of loss values.

    Each delta gets its own adaptive truncation.  The source coefficients,
    the mode table and the forcing projections do not depend on delta, so
    they are built once at the largest truncation; the solve and both
    energies then run once over (delta, mode) arrays, each row over the
    leading modes of its delta, and equal per-delta calls bit for bit.
    The probes of all deltas are evaluated in one evaluator call, each
    point with its delta's densities, zero past its truncation, which
    leaves its value unchanged bit for bit.  Records are returned in the
    order the deltas were given.

    Before any coefficient is built, InputError refuses an empty deltas,
    a probe not strictly outside the shell or so far out that the point
    source's closed form overflows, and (adaptive_n_max) a delta outside
    (0, 1) or a negative margin.  Each delta's solve emits the
    TruncationWarning that solve_densities at its n_max would, and an
    energy out of double range raises OverflowGuard.  probes may be empty.
    """
    if len(deltas) == 0:
        raise InputError("deltas: expected a non-empty list")
    for k, p in enumerate(probes):
        if p.rho <= g.rho_e:
            raise InputError(f"probes[{k}]: rho = {p.rho} is not outside rho_e = {g.rho_e}")
        # The point source's closed form squares |x - x0| times 2 pi; past
        # this (cosh itself past 710) it overflows and the value is lost.
        a = g.R * math.cosh(min(p.rho, 710.0))
        if not math.isfinite(2.0 * math.pi * a * a):
            raise InputError(
                f"probes[{k}]: rho = {p.rho} puts 2 pi (R cosh rho)^2 out of range"
            )
    n_maxes = [adaptive_n_max(d, g, margin) for d in deltas]
    n_top = max(n_maxes)
    sc_top = newtonian_coefficients(source, n_top, g.R, rho_e=g.rho_e)
    modes_top = mode_table(g, n_top)
    proj_top = mode_projections(boundary_forcing(sc_top, g), modes_top)
    dc = _assemble_densities(proj_top, modes_top, deltas, n_maxes)
    e_direct = _closed_energies(sc_top, dc, g, deltas, n_maxes)
    e_spectral = _spectral_energies(proj_top, modes_top, deltas, n_maxes)
    # One density column per (delta, probe) point, delta-major as rho and omega.
    columns = DensityCoefficients(
        *(np.repeat(getattr(dc, f.name).T, len(probes), axis=1) for f in fields(dc)))
    rho = np.tile([p.rho for p in probes], len(deltas))
    omega = np.tile([p.omega for p in probes], len(deltas))
    v = eval_potentials(source, columns, g, rho, omega)
    # |v| through hypot of the parts: it equals Python's complex abs bit for
    # bit, while np.abs of a complex array may differ in the last bit.
    far = np.hypot(v.real, v.imag).reshape(len(deltas), len(probes))
    return [
        SweepRecord(d, n_max, e, e_spec, f, f / (math.sqrt(e) if e > 0.0 else math.inf))
        for d, n_max, e, e_spec, f in zip(deltas, n_maxes, e_direct, e_spectral, far)
    ]


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
