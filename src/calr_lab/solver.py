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
all with one Horner recurrence (source._horner), for each density row
(the solve's (delta, mode) rows, or one row) at each point, so a value
depends neither on the other points or rows nor on trailing zero
densities; sweep relies on this to evaluate all its deltas in one call.

A sweep drives delta over several decades and the classifier grades the
outcome: resonant blow-up of E with decaying source visibility (CALR),
bounded/decaying E (no CALR), or neither.

Each rule is stated once.  adaptive_n_max refuses a delta outside (0, 1)
and a negative margin, and sweep a probe it cannot evaluate, all with
errors.InputError before any coefficient is built.  solve_densities,
sweep and oracle.validate share one solve, _solve: the solve (with its
tail check, TruncationWarning above 1e-10) and both energies run over
(delta, mode) arrays, one row per delta over its own leading modes.  The
functions that read one row refuse K rows (_one_row).  The energies
square over a power-of-two scale and refuse only an E out of range.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import NamedTuple, Sequence

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
    series_radius,
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


class BoundaryForcing(NamedTuple):
    """Mode coefficients of the transmission forcing on both interfaces."""

    geometry: ConfocalGeometry
    gc_i: np.ndarray
    gs_i: np.ndarray
    gc_e: np.ndarray
    gs_e: np.ndarray


class ModeProjection(NamedTuple):
    """S-inner products of the forcing with the four eigenfunction families."""

    proj_1p: np.ndarray
    proj_1m: np.ndarray
    proj_2p: np.ndarray
    proj_2m: np.ndarray


class DensityCoefficients(NamedTuple):
    """Complex density coefficients; index [..., n-1] holds mode n.

    phi_i = sum p_cos[n] phi_n_c(i) + p_sin[n] phi_n_s(i), and q_* likewise
    for phi_e.  Each array is one solve's row (n_max,), or K rows
    (K, n_max), one per loss value, as a sweep solves them.
    """

    p_cos: np.ndarray
    p_sin: np.ndarray
    q_cos: np.ndarray
    q_sin: np.ndarray


def _one_row(dc: DensityCoefficients) -> None:
    """ValueError, naming the shape, unless dc is one row (n_max,)."""
    if np.ndim(dc.p_cos) != 1:
        raise ValueError(
            f"expected one density row of shape (n_max,), got shape {np.shape(dc.p_cos)}")


class SweepRecord(NamedTuple):
    """Diagnostics of one loss value inside a sweep.

    e_direct holds the closed-form energy (dissipated_power_closed) of the
    truncated solve; the name is kept because it is the sweep.csv column.
    """

    delta: float
    n_max: int
    e_direct: float
    e_spectral: float
    far_samples: np.ndarray
    normalized_far: np.ndarray


class CalrVerdict(Enum):
    CALR = "CALR"
    NO_CALR = "NoCALR"
    INDETERMINATE = "Indeterminate"


class CalrDiagnosis(NamedTuple):
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

    Warns (TruncationWarning, at the caller of _solve's caller) once per
    delta, in order, when the row's last mode carries over 1e-10 of its
    S-norm, formed as (|w| sqrt(norm) / top)^2 with top the row's largest
    |w| sqrt(norm).
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
                          f"{tail:.2e}", TruncationWarning, stacklevel=4)
    return DensityCoefficients(w1 * modes.a1 + w2 * modes.a2, (w3 + w4) * modes.b,
                               (w1 + w2) * modes.b, w3 * modes.a2 + w4 * modes.a1)


def _solve(sc, g, deltas, n_maxes, modes=None, energies=False):
    """(dc, e_direct, e_spectral): row k of dc solved at deltas[k] over its
    leading n_maxes[k] modes (zero past them) and, with energies, each
    row's closed-form and spectral energy (else None).  One forcing, whose
    guards fire first, one mode table over the sc.n_max modes (or modes,
    that table) and one projection serve every row.
    """
    forcing = boundary_forcing(sc, g)
    modes = mode_table(g, sc.n_max) if modes is None else modes
    proj = mode_projections(forcing, modes)
    dc = _assemble_densities(proj, modes, deltas, n_maxes)
    if not energies:
        return dc, None, None
    return (dc, _closed_energies(sc, dc, g, deltas, n_maxes),
            _spectral_energies(proj, modes, deltas, n_maxes))


def solve_densities(
    sc: Coefficients, g: ConfocalGeometry, delta: float | Sequence[float]
) -> DensityCoefficients:
    """Solve the transmission problem at loss delta over the sc.n_max modes.

    delta is one loss, giving one row (n_max,), or a sequence of K losses,
    giving K rows (K, n_max) from one forcing, mode table and projection;
    row k equals the call at deltas[k] bit for bit.  A negative delta (a
    gain shell) is accepted: conjugate symmetry V(-delta) = conj(V(delta))
    is an invariant that tests exercise directly.  Raises ValueError for
    an empty sequence, a delta zero or nonfinite and an empty expansion,
    OverflowGuard past the n_max bound of boundary_forcing.  Emits, once
    per delta in order, TruncationWarning when the last retained mode
    still carries more than 1e-10 of the accumulated solution norm.
    """
    one = np.ndim(delta) == 0
    deltas = [delta] if one else list(delta)
    if not deltas:
        raise ValueError("deltas: expected a non-empty sequence")
    for d in deltas:
        if not (d != 0.0 and math.isfinite(d)):
            raise ValueError(f"delta must be finite and nonzero, got {d}")
    dc = _solve(sc, g, deltas, [sc.n_max] * len(deltas))[0]
    if one:
        return DensityCoefficients(*(a[0] for a in dc))
    return dc


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
    dc: DensityCoefficients, g: ConfocalGeometry, rho: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Both layer potentials of each of the K density rows of dc (one row
    for 1-d arrays) at the points (rho[j], omega[j]), shape (K, points).

    Mode n of the layer of phi_n_c (phi_n_s) on rho_k is -(near^n +-
    far^n) cos (sin)(n omega) / (2n) with near = e^{-|rho - rho_k|} and
    far = e^{-(rho + rho_k)}; writing cos and sin through e^{+-i n omega}
    turns each layer sum into power series in a complex ratio of modulus
    <= 1 (see _region_chains), with coefficients built once per row and
    region, summed by _horner and added in a fixed order.
    """
    p_cos, p_sin, q_cos, q_sin = (np.atleast_2d(a).T for a in dc)
    n = np.arange(1, len(p_cos) + 1, dtype=float)[:, None]
    halves = [
        (g.rho_i, ((p_cos - 1j * p_sin) / (2.0 * n), (p_cos + 1j * p_sin) / (2.0 * n))),
        (g.rho_e, ((q_cos - 1j * q_sin) / (2.0 * n), (q_cos + 1j * q_sin) / (2.0 * n))),
    ]
    out = np.empty((p_cos.shape[1], rho.size), dtype=complex)
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
        # (chain, row, point): each row's chains run over each point.
        acc = _horner(coef[..., None], np.stack(var)[:, None])
        out[:, idx] = -0.5 * sum(acc[1:], acc[0])
    return out


def eval_potentials(
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    rho,
    omega,
) -> np.ndarray:
    """V_delta at the elliptic points (rho[j], omega[j]), any region.

    rho and omega broadcast against each other to the points' shape.  The
    density arrays of dc are one row (n_max,), giving a complex result of
    that shape, or K rows (K, n_max), giving (K,) + that shape, row k at
    every point.  F is evaluated once per point and added to every row.
    The layer sums and the source series cost one complex exp per point
    and chain, then one complex multiply-add per mode, row and point
    (_horner), with no point x mode array; a value does not depend on which
    call its point or row falls in.
    """
    rho, omega = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(omega, dtype=float)
    )
    shape = rho.shape
    rho, omega = rho.ravel(), omega.ravel()
    if not (rho >= 0.0).all():
        raise ValueError("need rho >= 0 at every point")
    out = _layer_sums(dc, g, rho, omega)
    out += elliptic_potential(source, g.R, rho, omega)
    return out.reshape(dc.p_cos.shape[:-1] + shape)


def eval_potential(
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    x: EllipticPoint,
) -> complex:
    """Value of V_delta at an elliptic point (any region); dc is one row."""
    _one_row(dc)
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
    _one_row(dc)
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

    Each delta gets its own adaptive truncation.  The source coefficients
    are built once at the largest truncation, and one _solve pass gives
    the solve and both energies over (delta, mode) arrays, each row over
    the leading modes of its delta, equal to per-delta calls bit for bit.
    The probes of all deltas are evaluated in one evaluator call on the
    solve's (delta, mode) rows, each zero past its delta's truncation,
    which leaves its values unchanged bit for bit.  Records are returned
    in the order the deltas were given.

    Before any coefficient is built, InputError refuses an empty deltas,
    a probe not strictly outside the shell, at or past a Coefficients
    source's convergence radius (source.series_radius), or so far out that
    the point source's closed form overflows, (adaptive_n_max) a delta outside (0, 1)
    or a negative margin, and (newtonian_coefficients) a source inside the
    shell.  Each delta's solve emits the TruncationWarning that
    solve_densities at its n_max would, and an energy out of double range
    raises OverflowGuard.  probes may be empty.
    """
    if len(deltas) == 0:
        raise InputError("deltas: expected a non-empty list")
    radius = series_radius(source)
    for k, p in enumerate(probes):
        if p.rho <= g.rho_e:
            raise InputError(f"probes[{k}]: rho = {p.rho} is not outside rho_e = {g.rho_e}")
        if p.rho >= radius:
            raise InputError(
                f"probes[{k}]: rho = {p.rho} is at or past the source series'"
                f" convergence radius {radius}"
            )
        # The point source's closed form squares |x - x0| times 2 pi; past
        # this (cosh itself past 710) it overflows and the value is lost.
        a = g.R * math.cosh(min(p.rho, 710.0))
        if not math.isfinite(2.0 * math.pi * a * a):
            raise InputError(
                f"probes[{k}]: rho = {p.rho} puts 2 pi (R cosh rho)^2 out of range"
            )
    n_maxes = [adaptive_n_max(d, g, margin) for d in deltas]
    sc_top = newtonian_coefficients(source, max(n_maxes), g.R, rho_e=g.rho_e)
    dc, e_direct, e_spectral = _solve(sc_top, g, deltas, n_maxes, energies=True)
    v = eval_potentials(source, dc, g, [p.rho for p in probes], [p.omega for p in probes])
    # |v| through hypot of the parts: it equals Python's complex abs bit for
    # bit, while np.abs of a complex array may differ in the last bit.
    far = np.hypot(v.real, v.imag)
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
