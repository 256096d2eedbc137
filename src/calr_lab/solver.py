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

The forcing (boundary_forcing) and the densities share one layout:
complex arrays over (Gamma_i, Gamma_e) x (cosine span, sine span) x mode,
shape (2, 2, n_max), index [..., n-1] holding mode n, so that

    phi_i = sum_n dc[0, 0, n-1] phi_n_c(i) + dc[0, 1, n-1] phi_n_s(i),

and phi_e likewise from dc[1].  The spans do not mix: dc[:, s] is driven
by forcing[:, s] alone.  solve_densities solves one loss; _solve, which
sweep and oracle.validate call, solves K losses in one pass and puts their
rows before the mode axis, (2, 2, K, n_max).

Dissipated power is E_delta = delta * ||grad V||^2 over the shell.  In the
shell every mode of V is alpha e^{n rho} + beta e^{-n rho}; the omega
integral removes the cross terms and the metric Jacobian cancels, so the
energy is an exact sum of positive per-mode terms (_closed_energies).  The
spectral surrogate (_spectral_energies)

    E ~ delta * sum_n sum_branches proj^2 / (norm * (lambda^2 + delta^2))

is reported beside it; both are formed in _solve alone and sweep reports them.

Evaluation.  Mode n of a layer potential on rho_k is a mix of
e^{-n |rho - rho_k|} and e^{-n (rho + rho_k)} times cos or sin (n omega).
With zeta = rho + i omega each product is the real or imaginary part of a
power of a complex ratio such as e^{-(zeta - rho_k)}, and inside one
region (core, shell or exterior) all of them are powers of
x = e^{-(rho - lo) + i omega} or y = e^{-(hi - rho) + i omega} and their
conjugates, scaled by constants e^{-n c} with c >= 0; the source series
is a power series in e^{zeta} and e^{-zeta}.  eval_potentials sums them
all with one Horner recurrence (source._horner), for each density row
(the K rows of a solve over K losses, or one row) at each point, so a value
depends neither on the other points or rows nor on trailing zero
densities; sweep relies on this to evaluate all its deltas in one call.
The chains of all three regions run in one _horner call; how it adds
each mode's coefficients depends on the evaluation's size, and no bit.

A sweep drives delta over several decades and the classifier grades the
outcome: resonant blow-up of E with decaying source visibility (CALR),
bounded/decaying E (no CALR), or neither.

Each rule is stated once.  adaptive_n_max refuses a delta outside (0, 1)
and a margin that is not an integer >= 0, and sweep a probe it cannot
evaluate, all with errors.InputError before any coefficient is built.
The truncation bound is the mode table's (spectrum._mode_limit), which
adaptive_n_max and boundary_forcing read from n_max alone; adaptive_n_max
forms ln(1/delta) as -ln(delta), so a subnormal delta meets that bound
(OverflowGuard) instead of an infinite 1/delta.
solve_densities, sweep and oracle.validate share one solve, _solve: the
solve (with its tail check, TruncationWarning above 1e-10) and both
energies run over (delta, mode) arrays, one row per delta over its own
leading modes, and read the mode table's family fields (pairs,
eigenvalues, norms) as mode_table stored them.  An energy, density,
potential or normalized far value is refused (OverflowGuard, with no
numpy warning) only when it is itself out of double range.
"""

from __future__ import annotations

import math
import operator
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
    _in_closed_form_range,
    _square_scale,
    elliptic_potential,
    newtonian_coefficients,
    series_radius,
)
from .spectrum import (FAMILY_PARITY, ModeTable, Regime, _gram_entries, _mode_limit,
                       _refuse_modes, mode_factors, mode_table)

__all__ = [
    "SweepRecord",
    "CalrVerdict",
    "CalrDiagnosis",
    "z_param",
    "adaptive_n_max",
    "boundary_forcing",
    "mode_projections",
    "solve_densities",
    "eval_potentials",
    "sweep",
    "calr_classify",
]

# Tail of the mode sum (in solution S-norm, relative) above which a
# truncation warning is emitted.
_TAIL_TOL = 1e-10

# Classification policy thresholds (see calr_classify).
_GROWTH_BIG = 1e3
_SPREAD_FLAT = 2.0
_EXPONENT_MARGIN = 0.05
_VISIBILITY_DROP = 3.0
_VISIBILITY_DROP_BIG = 10.0


class SweepRecord(NamedTuple):
    """Diagnostics of one loss value inside a sweep.

    e_direct (_closed_energies; the name is the sweep.csv column's) and
    e_spectral are the two energies of the solve truncated at n_max.
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
    Raises InputError for delta outside (0, 1) or a margin that is not an
    integer >= 0, and OverflowGuard, naming the largest n_max that fits,
    when the modes do not fit the mode table's one bound (spectrum).
    """
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta: must be in (0, 1), got {delta}")
    try:
        margin = operator.index(margin)
    except TypeError:
        raise InputError(f"margin: must be an integer >= 0, got {margin}") from None
    if margin < 0:
        raise InputError(f"margin: must be >= 0, got {margin}")
    # ln(1/delta) as -ln(delta), finite for every positive double (1/delta
    # is inf below about 5.6e-309); a subnormal shell width still makes the
    # quotient inf, past every n_max.
    reach = 2.0 * -math.log(delta) / (g.rho_e - g.rho_i)
    n = math.ceil(reach) + margin if reach < math.inf else None
    if n is None or n > _mode_limit(g):
        try:
            need = f"n_max = {n}" if n is not None else "an n_max past double range"
        except ValueError:  # past the digits Python converts to text
            need = "an n_max too long to print"
        raise OverflowGuard(f"delta = {delta} needs {need}; the largest n_max that fits "
                            f"rho_e = {g.rho_e} is {_mode_limit(g)}")
    return n


def boundary_forcing(sc: Coefficients, g: ConfocalGeometry) -> np.ndarray:
    """Mode coefficients of (dF/dnu_i, -dF/dnu_e) on the two interfaces,
    shape (2, 2, n_max): (Gamma_i, Gamma_e) x (cosine span, sine span) x
    mode, the layout of the densities that solve_densities returns.
    OverflowGuard, with no numpy warning, when a coefficient leaves
    double range."""
    _refuse_modes(sc.n_max, g)
    n = np.arange(1, sc.n_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        out = np.array([
            [n * sc.f_plus * np.sinh(n * g.rho_i), n * sc.f_minus * np.cosh(n * g.rho_i)],
            [-n * sc.f_plus * np.sinh(n * g.rho_e), -n * sc.f_minus * np.cosh(n * g.rho_e)],
        ])
    if not np.all(np.isfinite(out)):
        raise OverflowGuard("forcing coefficients leave double range")
    return out


def mode_projections(forcing: np.ndarray, modes: ModeTable,
                     g: ConfocalGeometry) -> np.ndarray:
    """Pair the forcing with the eigenfunction families in the S-product.

    Returns shape (4, n_max), one row per family in spectrum's order.  On
    each mode-n subspace the pairing is the 2x2 Gram form of the density
    pair: each family pairs the forcing of its span, forcing[:, parity],
    with its pair (v1, v2); the 1+ row, e.g., is (g_i, g_e) G_cos (a1, b)^T
    on the cosine span.  _solve reads the rows for the densities and e_spectral.
    """
    n = modes.n.astype(float)
    if np.shape(forcing) != (2, 2, len(n)):
        raise ValueError("forcing and mode table have different truncation orders")
    f = mode_factors(n, g)
    gi, gx, ge = _gram_entries(f, FAMILY_PARITY)
    u1, u2 = forcing[:, FAMILY_PARITY]  # (interface, family, n)
    v1, v2 = modes.pairs.swapaxes(0, 1)
    return f.pref * (u1 * (gi * v1 + gx * v2) + u2 * (gx * v1 + ge * v2))


def _assemble_densities(proj, vecs, lam, norm, deltas, n_maxes) -> np.ndarray:
    """(2, 2, K, n_top) densities: row k solved at deltas[k], zero past
    n_maxes[k].  OverflowGuard when one is not a finite double.

    Warns (TruncationWarning, at the caller of _solve's caller) once per
    delta, in order, when the row's last mode carries over 1e-10 of its
    S-norm, formed as (|w| sqrt(norm) / top)^2 with top the row's largest
    |w| sqrt(norm).
    """
    z = np.array([[z_param(d)] for d in deltas])
    keep = np.arange(proj.shape[1]) < np.asarray(n_maxes)[:, None]
    # (family, delta, mode) arrays; z - lambda is z + (-lambda).
    p, lam, norm = proj[:, None], lam[:, None], norm[:, None]
    w_1p, w_1m, w_2p, w_2m = w = np.where(keep, p / ((z + lam) * norm), 0.0)
    (a1, b), (_, a2) = vecs[:2]
    dc = np.array([[w_1p * a1 + w_2p * a2, (w_1m + w_2m) * b],
                   [(w_1p + w_2p) * b, w_1m * a2 + w_2m * a1]])
    if not np.all(np.isfinite(dc)):
        raise OverflowGuard("densities leave double range")
    amp = np.abs(w) * np.sqrt(norm)
    top = np.max(amp, axis=(0, 2))
    contrib = np.sum((amp / np.where(top > 0.0, top, 1.0)[:, None]) ** 2, axis=0)
    for row, n_max, t in zip(contrib, n_maxes, top):
        tail = math.sqrt(float(row[n_max - 1]) / float(row[:n_max].sum())) if t > 0.0 else 0.0
        if tail > _TAIL_TOL:
            warnings.warn(f"mode sum truncated at n_max = {n_max} with relative tail "
                          f"{tail:.2e}", TruncationWarning, stacklevel=4)
    return dc


def _solve(sc, g, deltas, n_maxes, modes=None, energies=False):
    """(dc, e_direct, e_spectral): row k of dc solved at deltas[k] over its
    leading n_maxes[k] modes (zero past them) and, with energies, each
    row's closed-form and spectral energy (else None).  One forcing, whose
    guards fire first, one mode table over the sc.n_max modes (or modes,
    that table) and one projection serve every row.
    Densities that leave double range raise OverflowGuard, with no numpy
    warning.
    """
    forcing = boundary_forcing(sc, g)
    modes = mode_table(g, sc.n_max) if modes is None else modes
    with np.errstate(all="ignore"):  # _assemble_densities refuses a density out of range
        proj = mode_projections(forcing, modes, g)
        dc = _assemble_densities(proj, modes.pairs, modes.eigenvalues, modes.norms,
                                 deltas, n_maxes)
    if not energies:
        return dc, None, None
    return (dc, _closed_energies(sc, dc, g, deltas, n_maxes),
            _spectral_energies(proj, modes.eigenvalues, modes.norms, deltas, n_maxes))


def solve_densities(sc: Coefficients, g: ConfocalGeometry, delta: float) -> np.ndarray:
    """Solve the transmission problem at the one loss delta over the
    sc.n_max modes.

    Returns the complex densities in the forcing's layout, shape (2, 2,
    n_max) (see the module docstring).  A negative delta (a gain shell) is
    accepted: conjugate symmetry V(-delta) = conj(V(delta)) is an
    invariant that tests exercise directly.  Raises ValueError for a delta
    that is not one finite, nonzero number (a sequence included) and an
    empty expansion, OverflowGuard past the mode table's n_max bound.
    Emits TruncationWarning when the last retained mode still carries more
    than 1e-10 of the accumulated solution norm.
    """
    if not (np.ndim(delta) == 0 and delta != 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be one finite, nonzero loss, got {delta!r}")
    return _solve(sc, g, [delta], [sc.n_max])[0][:, :, 0]


def _region_chains(
    halves: list, n: np.ndarray, lo: float, hi: float | None
) -> np.ndarray:
    """Horner coefficients of the layer sums for points with lo <= rho <= hi.

    halves holds ((A - iB)/2, (A + iB)/2) per interface, A and B being
    the cosine and sine span densities over n.  Every near and far
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
    dc: np.ndarray, g: ConfocalGeometry, rho: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Both layer potentials of each of the K density rows of dc (one row
    for shape (2, 2, n_max)) at the points (rho[j], omega[j]), shape
    (K, points).

    Mode n of the layer of phi_n_c (phi_n_s) on rho_k is -(near^n +-
    far^n) cos (sin)(n omega) / (2n) with near = e^{-|rho - rho_k|} and
    far = e^{-(rho + rho_k)}; writing cos and sin through e^{+-i n omega}
    turns each layer sum into power series in a complex ratio of modulus
    <= 1 (see _region_chains), with coefficients built once per row and
    region, summed by Horner's rule in one _horner call over every
    region's (chain, row, point) block and added in a fixed order.
    """
    # (interface, span, mode, row)
    dc = np.reshape(dc, (2, 2, -1, np.shape(dc)[-1])).swapaxes(2, 3)
    n = np.arange(1, dc.shape[2] + 1, dtype=float)[:, None]
    halves = [(rk, ((c - 1j * s) / (2.0 * n), (c + 1j * s) / (2.0 * n)))
              for rk, (c, s) in zip((g.rho_i, g.rho_e), dc)]
    out = np.empty((dc.shape[3], rho.size), dtype=complex)
    region = (rho > g.rho_i).astype(int) + (rho > g.rho_e)
    bounds = ((0.0, g.rho_i), (g.rho_i, g.rho_e), (g.rho_e, None))
    pairs, where = [], []
    for r, (lo, hi) in enumerate(bounds):
        idx = np.flatnonzero(region == r)
        if idx.size == 0:
            continue
        x = np.exp((lo - rho[idx]) + 1j * omega[idx])
        var = [x, x.conj()]
        if hi is not None:
            y = np.exp((rho[idx] - hi) + 1j * omega[idx])
            var += [y, y.conj()]
        # (chain, row, point): each row's chains run over each point.
        pairs.append((_region_chains(halves, n, lo, hi)[..., None], np.stack(var)[:, None]))
        where.append(idx)
    for idx, acc in zip(where, _horner(pairs)):
        out[:, idx] = -0.5 * sum(acc[1:], acc[0])
    return out


def eval_potentials(
    source: SourceSpec,
    dc: np.ndarray,
    g: ConfocalGeometry,
    rho,
    omega,
) -> np.ndarray:
    """V_delta at the elliptic points (rho[j], omega[j]), any region.

    rho and omega broadcast against each other to the points' shape.  The
    densities dc are one row (2, 2, n_max), giving a complex result of
    that shape, or K rows (2, 2, K, n_max), giving (K,) + that shape, row
    k at every point.  F is evaluated once per point and added to every row.
    The layer sums and the source series cost one complex exp per point
    and chain, then one complex multiply-add per mode, row and point
    (Horner's rule, one loop over all regions), with no point x mode
    array.  A value does not depend on which call its point or row falls
    in.  Raises ValueError for rho < 0 or a non-finite rho or omega
    at any point, and OverflowGuard, with no numpy warning, when a value
    leaves double range.
    """
    rho, omega = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(omega, dtype=float)
    )
    shape = rho.shape
    rho, omega = rho.ravel(), omega.ravel()
    if not ((rho >= 0.0).all() and np.isfinite(rho).all()):
        raise ValueError("need finite rho >= 0 at every point")
    if not np.isfinite(omega).all():
        raise ValueError("need finite omega at every point")
    with np.errstate(all="ignore"):  # a value out of range is refused below
        out = _layer_sums(dc, g, rho, omega)
        out += elliptic_potential(source, g.R, rho, omega)
    if not np.all(np.isfinite(out)):
        raise OverflowGuard("potential leaves double range")
    return out.reshape(np.shape(dc)[2:-1] + shape)


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
    """E_delta = delta * ||grad V||^2 over the shell at each deltas[k], from
    row k of the (2, 2, K, n) densities dc over its leading n_maxes[k] modes:

        E = delta pi sum_n n (1 - e^{-2 n (rho_e - rho_i)})
              (|alpha~_c|^2 + |alpha~_s|^2 + |beta~_c|^2 + |beta~_s|^2)

    with alpha~ = alpha e^{n rho_e}, beta~ = beta e^{-n rho_i} for mode n of
    each span (alpha e^{n rho} + beta e^{-n rho} in the shell).  The squares
    are taken over a power-of-two scale (_energies): OverflowGuard means E
    itself is out of range.
    """
    n = np.arange(1, sc.n_max + 1, dtype=float)
    f = mode_factors(n, g)
    # e^{n rho_e}, e^{-n rho_i} and e^{-n (rho_e + rho_i)} in one exp call.
    rates = [g.rho_e, -g.rho_i, -(g.rho_e + g.rho_i)]
    up_e, down_i, cross = np.exp(np.multiply.outer(rates, n))
    # (span, row, mode) terms; the sine span's beta~ negates its F_n^- and q terms.
    (p, q), fs = dc, np.array([sc.f_plus, sc.f_minus])[:, None]
    half, inner = np.array([0.5, -0.5])[:, None, None], np.array([f.ci, f.si])[:, None]
    alpha = 0.5 * fs * up_e - q / (2.0 * n)
    beta = half * fs * down_i - (p * inner + half * q * cross) / n
    gap = -np.expm1(-2.0 * n * (g.rho_e - g.rho_i))
    amp = np.abs(np.concatenate([alpha, beta]))
    return _energies(amp, lambda w: n * gap * np.sum((amp * w) ** 2, axis=0),
                     math.pi, deltas, n_maxes)


def _spectral_energies(proj, lam, norms, deltas, n_maxes) -> list[float]:
    """The spectral surrogate of E_delta at each deltas[k] over its leading
    n_maxes[k] modes of the (4, n) projections; OverflowGuard as above."""
    den = norms[:, None] * (lam[:, None]**2 + np.square(np.asarray(deltas, dtype=float))[:, None])
    p = proj[:, None]
    # The term proj^2 / (norm den) has the amplitude |proj| / sqrt(norm den).
    return _energies(np.abs(p) / np.sqrt(den), lambda w: np.sum((p * w) ** 2 / den, axis=0),
                     1.0, deltas, n_maxes)


def sweep(
    source: SourceSpec,
    g: ConfocalGeometry,
    deltas: Sequence[float],
    probes: Sequence[EllipticPoint],
    margin: int = 40,
) -> tuple[list[SweepRecord], Coefficients]:
    """Solve the transmission problem across a family of loss values.

    Returns the records and the source coefficients at the largest
    truncation, max(r.n_max for r in records), for a caller that reads
    the expansion (the CLI's gap-condition report) without building it
    again.

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
    the point source's closed form overflows (source._in_closed_form_range),
    (adaptive_n_max) a delta outside (0, 1) or a margin that is not an
    integer >= 0, and (newtonian_coefficients) a source point inside the
    shell or past that range, and a series whose radius is not outside
    the shell.  Each delta's solve emits the TruncationWarning that
    solve_densities at its n_max would, and a density, energy, probe value
    or normalized far field out of double range raises OverflowGuard, with
    no numpy warning.  probes may be empty.
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
        if not _in_closed_form_range(g.R, p.rho):
            raise InputError(
                f"probes[{k}]: rho = {p.rho} puts 2 pi (R cosh rho)^2 out of range"
            )
    n_maxes = [adaptive_n_max(d, g, margin) for d in deltas]
    sc_top = newtonian_coefficients(source, max(n_maxes), g.R, rho_e=g.rho_e)
    dc, e_direct, e_spectral = _solve(sc_top, g, deltas, n_maxes, energies=True)
    v = eval_potentials(source, dc, g, [p.rho for p in probes], [p.omega for p in probes])
    # |v| through hypot of the parts: it equals Python's complex abs bit for
    # bit, while np.abs of a complex array may differ in the last bit.
    with np.errstate(all="ignore"):  # a value out of range is refused below
        far = np.hypot(v.real, v.imag)
        normalized = [f / (math.sqrt(e) if e > 0.0 else math.inf) for f, e in zip(far, e_direct)]
    if not np.all(np.isfinite(normalized)):
        raise OverflowGuard("normalized far field leaves double range")
    records = [SweepRecord(*row) for row in
               zip(deltas, n_maxes, e_direct, e_spectral, far, normalized)]
    return records, sc_top


def calr_classify(records: Sequence[SweepRecord], regime: Regime) -> CalrDiagnosis:
    """Grade a sweep: CALR, NoCALR or Indeterminate.

    Policy: a fitted growth exponent of E_delta above +0.05 with the
    normalized far-field dropping by at least 3x is resonant blow-up
    (CALR); so is total growth beyond 1e3 with a 10x visibility drop.
    A sweep whose energy stays within a 2x band, or decays (exponent
    below -0.05), is graded NoCALR.  Everything else is Indeterminate,
    including sweeps with nonfinite or nonpositive energies and sweeps of
    fewer than 3 distinct deltas, which fit no meaningful slope; their
    four numbers are NaN.
    """
    recs = sorted(records, key=lambda r: -r.delta)
    e = np.array([r.e_direct for r in recs])
    if len({r.delta for r in recs}) < 3 or not np.all(np.isfinite(e)) or np.any(e <= 0.0):
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
