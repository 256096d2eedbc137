"""Sources and their elliptic-harmonic expansion coefficients.

Every admissible source is charge balanced and supported strictly outside
the shell.  Its Newtonian potential F is harmonic below the source radius
rho_0 and is encoded there by the expansion

    F(x) = c + sum_{n>=1} ( F_n^+ cos(n omega) cosh(n rho)
                          + F_n^- sin(n omega) sinh(n rho) ).

With x = R cosh(zeta), zeta = rho + i omega, the free-space kernel
G(x - x0) = ln|x - x0| / (2 pi) expands below rho0 as

    ln|x - x0| = ln(R/2) + rho0
                 - sum_{n>=1} (2/n) e^{-n rho0} Re[e^{-i n omega0} cosh(n zeta)]

(Morse & Feshbach, Methods of Theoretical Physics, 1953, ch. 10): cosine
weights -e^{-n rho0} cos(n omega0) / (n pi), the sine analogue, and the
constant (ln(R/2) + rho0) / (2 pi).  A charge pair +-q therefore has
c = q (rho_+ - rho_-) / (2 pi).  Dipole data follow by differentiating in
the source position: c = -p / (2 pi Xi0), with Xi0 the scale factor at
the source and p the moment's component along the unit rho direction.

The decay rate of (F_n^+, F_n^-) is what decides cloaking: blow-up of the
dissipation requires lim sup |F_n^{+-}|^{1/n} > e^{-rho_star}, and the
quantitative version is the gap condition

    GC[rho_star]:  e^{-(n_{k+1} - n_k)(rho_e - rho_i)} e^{2 n_k rho_star}
                   (|F_{n_k}^+|^2 + |F_{n_k}^-|^2)  ->  infinity

along the subsequence {n_k} of nonzero coefficient pairs.  The report
below evaluates these terms in log space and grades the trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

from .errors import DegeneratePoint, SingularPoint, SourceInsideShell, TooFewCoefficients
from .geometry import (
    ConfocalGeometry,
    EllipticPoint,
    cartesian,
    elliptic_coords,
    metric_factor,
    tangents,
    to_cartesian,
)

__all__ = [
    "Dipole",
    "ChargePair",
    "Coefficients",
    "SourceSpec",
    "GapVerdict",
    "GapConditionReport",
    "green_expansion_coefficients",
    "newtonian_coefficients",
    "newtonian_eval",
    "newtonian_gradient",
    "convergence_exponent",
    "series_radius",
    "gap_condition_report",
]

# Points closer to a charge than this (relative to the focal scale) are
# treated as sitting on the singularity.
_SINGULAR_TOL = 1e-12

# Number of trailing gap-condition terms used to grade the trend, and the
# magnitude thresholds for a confident verdict.
_GC_TAIL = 5
_GC_MIN_INDICES = 8
_GC_LARGE = 1e3
_GC_SMALL = 1e-3


@dataclass(frozen=True)
class Dipole:
    """Point dipole a . grad_x G(x - x0) at an elliptic location."""

    location: EllipticPoint
    moment: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.moment, dtype=float)
        if m.shape != (2,) or not np.all(np.isfinite(m)):
            raise ValueError("moment must be a finite 2-vector")
        object.__setattr__(self, "moment", m)
        if not self.location.rho > 0.0:
            raise ValueError("dipole location must have rho > 0")


@dataclass(frozen=True)
class ChargePair:
    """Opposite point charges +-charge at two elliptic locations."""

    plus: EllipticPoint
    minus: EllipticPoint
    charge: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.charge) and self.charge != 0.0):
            raise ValueError("charge must be finite and nonzero")
        if not (self.plus.rho > 0.0 and self.minus.rho > 0.0):
            raise ValueError("charge locations must have rho > 0")
        if self.plus == self.minus:
            raise ValueError("charge locations must differ")


@dataclass(frozen=True)
class Coefficients:
    """Expansion data of a source (index [n-1] holds mode n)."""

    c: float
    f_plus: np.ndarray = field(repr=False)
    f_minus: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        fp = np.asarray(self.f_plus, dtype=float)
        fm = np.asarray(self.f_minus, dtype=float)
        if fp.ndim != 1 or fm.shape != fp.shape:
            raise ValueError("f_plus and f_minus must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise ValueError("expansion coefficients must be finite")
        object.__setattr__(self, "f_plus", fp)
        object.__setattr__(self, "f_minus", fm)

    @property
    def n_max(self) -> int:
        return len(self.f_plus)

    def truncated(self, n_max: int) -> Coefficients:
        """The leading n_max modes, as views (c is independent of n_max)."""
        if not 1 <= n_max <= self.n_max:
            raise ValueError(f"n_max must be in [1, {self.n_max}], got {n_max}")
        return Coefficients(self.c, self.f_plus[:n_max], self.f_minus[:n_max])


SourceSpec = Union[Dipole, ChargePair, Coefficients]


class GapVerdict(Enum):
    SATISFIED = "SatisfiedHeuristically"
    FAILS = "FailsHeuristically"
    INCONCLUSIVE = "Inconclusive"


class GapConditionReport(NamedTuple):
    """Finite-window evidence for/against GC[rho_star].

    indices are the mode numbers with nonzero coefficient pairs;
    log10_terms the decimal logs of the corresponding GC terms.
    """

    rho_star: float
    indices: np.ndarray
    log10_terms: np.ndarray
    verdict: GapVerdict = GapVerdict.INCONCLUSIVE


def green_expansion_coefficients(
    x0: EllipticPoint, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expansion weights of G(x - x0) about the elliptic frame.

    Returns (cos_w, sin_w), with cos_w[n-1] multiplying
    cos(n omega) cosh(n rho) and sin_w[n-1] multiplying
    sin(n omega) sinh(n rho) in the expansion of G, valid in rho < rho0:

        cos_w_n = -e^{-n rho0} cos(n omega0) / (n pi).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not x0.rho > 0.0:
        raise ValueError("expansion point must have rho > 0")
    n = np.arange(1, n_max + 1, dtype=float)
    damp = np.exp(-n * x0.rho) / (n * math.pi)
    return -damp * np.cos(n * x0.omega), -damp * np.sin(n * x0.omega)


def _require_outside(where: str, rho0: float, rho_e: float | None) -> None:
    if rho_e is not None and rho0 <= rho_e:
        raise SourceInsideShell(
            f"source.{where}: radius rho = {rho0} does not lie strictly outside rho_e = {rho_e}"
        )


def _dipole_coefficients(s: Dipole, n_max: int, R: float) -> Coefficients:
    rho0, omega0 = s.location.rho, s.location.omega
    xi0 = float(metric_factor(R, rho0, omega0))
    # Moment components along the unit coordinate vectors at the source.
    t_rho, t_omega = tangents(R, rho0, omega0)
    p = float(s.moment @ (t_rho / xi0))
    q = float(s.moment @ (t_omega / xi0))

    # F = a . grad_x G(x - x0) = -a . grad_{x0} G, so the weights and the
    # constant are the source-position derivatives of the Green data, negated.
    n = np.arange(1, n_max + 1, dtype=float)
    damp = np.exp(-n * rho0) / (math.pi * xi0)
    f_plus = -damp * (p * np.cos(n * omega0) + q * np.sin(n * omega0))
    f_minus = -damp * (p * np.sin(n * omega0) - q * np.cos(n * omega0))
    return Coefficients(-p / (2.0 * math.pi * xi0), f_plus, f_minus)


def _pair_coefficients(s: ChargePair, n_max: int) -> Coefficients:
    cp, sp = green_expansion_coefficients(s.plus, n_max)
    cm, sm = green_expansion_coefficients(s.minus, n_max)
    c = s.charge * (s.plus.rho - s.minus.rho) / (2.0 * math.pi)
    return Coefficients(c, s.charge * (cp - cm), s.charge * (sp - sm))


def newtonian_coefficients(
    s: SourceSpec, n_max: int, R: float, rho_e: float | None = None
) -> Coefficients:
    """Expansion data of the source potential, truncated at n_max.

    The constant is exact: q (rho_+ - rho_-) / (2 pi) for a charge pair
    and -p / (2 pi Xi0) for a dipole (see the module docstring).  Expansion
    data given as Coefficients are cut or zero-padded to n_max.  When rho_e
    is given, the source support is checked to lie strictly outside the
    shell (SourceInsideShell, an InputError naming source.location etc.).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(s, Coefficients):
        m = min(s.n_max, n_max)
        fp = np.zeros(n_max)
        fm = np.zeros(n_max)
        fp[:m] = s.f_plus[:m]
        fm[:m] = s.f_minus[:m]
        return Coefficients(s.c, fp, fm)
    if isinstance(s, Dipole):
        _require_outside("location", s.location.rho, rho_e)
        return _dipole_coefficients(s, n_max, R)
    if isinstance(s, ChargePair):
        _require_outside("plus", s.plus.rho, rho_e)
        _require_outside("minus", s.minus.rho, rho_e)
        return _pair_coefficients(s, n_max)
    raise TypeError(f"unsupported source type {type(s).__name__}")


def _square_scale(top: float) -> float:
    """The power of two s with top / s < 2**500 (so squares over s sum to a
    finite double), and 1 where top is below that, so no bit moves."""
    return math.ldexp(1.0, max(math.frexp(top)[1] - 500, 0))


def _horner(coef: np.ndarray, var: np.ndarray) -> np.ndarray:
    """sum_{n>=1} coef[n-1] var^n by Horner's rule, elementwise in var.

    coef[n-1] broadcasts against var.  No power of var is formed, so for
    |var| >= 1 no accumulator exceeds the sum of |terms|.
    """
    acc = np.zeros(np.broadcast_shapes(coef.shape[1:], np.shape(var)), dtype=complex)
    # Equal shapes: numpy multiplies by a broadcast var up to twice as slowly.
    var = np.ascontiguousarray(np.broadcast_to(var, acc.shape))
    for c in coef[::-1]:
        acc *= var
        acc += c
    acc *= var
    return acc


# Elements of one panel of _horner_blocks coefficients: 2**15 complex
# doubles, 512 KB.
_PANEL_ELEMENTS = 2**15


def _horner_blocks(pairs: list) -> list[np.ndarray]:
    """_horner(coef, var) for each (coef, var) pair of pairs, in one loop.

    Every coef has the same number of modes.  The blocks, each of shape
    broadcast(coef.shape[1:], var.shape), lie end to end on one flat axis,
    so each Horner step is one multiply and one add over all of them, on
    contiguous arrays.  The coefficients are copied, a panel of steps at a
    time (at most _PANEL_ELEMENTS elements, or one step if a step alone is
    larger), into step-major rows of that axis.  Every element sees the operations of _horner with the same
    values in the same order, so each block equals _horner bit for bit.
    """
    shapes = [np.broadcast_shapes(c.shape[1:], np.shape(v)) for c, v in pairs]
    edges = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
    acc = np.zeros(edges[-1], dtype=complex)
    var = np.empty_like(acc)
    blocks = list(zip(edges, edges[1:], shapes))
    for (a, b, shape), (_, v) in zip(blocks, pairs):
        var[a:b].reshape(shape)[...] = v
    n = len(pairs[0][0])
    steps = max(1, min(n, _PANEL_ELEMENTS // max(edges[-1], 1)))
    panel = np.empty((steps, edges[-1]), dtype=complex)
    # Views of each block's columns of the panel, one step per row.
    views = [panel[:, a:b].reshape((steps,) + shape) for a, b, shape in blocks]
    for top in range(n, 0, -steps):
        m = min(steps, top)
        for view, (c, _) in zip(views, pairs):
            view[:m] = c[top - m : top]
        for row in panel[m - 1 :: -1]:
            acc *= var
            acc += row
    acc *= var
    return [acc[a:b].reshape(shape) for a, b, shape in blocks]


def _series(
    sc: Coefficients, rho, omega
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, dF/drho, dF/domega) of the expansion at points (rho[j], omega[j]).

    With zeta = rho + i omega and a_n = F_n^+ - i F_n^-, the series is
    F = c + Re sum a_n cosh(n zeta), so dF/drho = Re G' and dF/domega =
    -Im G' with G' = sum n a_n sinh(n zeta).  Both sums are four Horner
    chains in e^{zeta} and e^{-zeta} (_horner), elementwise per point.
    """
    zeta = np.asarray(rho, dtype=float) + 1j * np.asarray(omega, dtype=float)
    half = 0.5 * (sc.f_plus - 1j * sc.f_minus)
    n = np.arange(1, len(half) + 1, dtype=float)
    coef = np.stack([half, n * half], axis=1).reshape((len(half), 2, 1) + (1,) * zeta.ndim)
    (up, down), (d_up, d_down) = _horner(coef, np.stack([np.exp(zeta), np.exp(-zeta)]))
    return sc.c + (up + down).real, (d_up - d_down).real, (d_down - d_up).imag


def _dot(r: np.ndarray, a) -> np.ndarray:
    """r . a over the last axis, of length 2, from its two components:
    numpy's reduction of a length-2 axis, bit for bit and faster.  The
    reduction adds from +0.0, so two -0.0 terms give +0.0, and so does
    the + 0.0 here."""
    return r[..., 0] * a[..., 0] + r[..., 1] * a[..., 1] + 0.0


def _offsets(x: np.ndarray, R: float, *charges: EllipticPoint) -> list:
    """Offsets x - x_k from each charge location, with squared lengths."""
    tol2 = (_SINGULAR_TOL * R) ** 2
    out = []
    for loc in charges:
        r = x - to_cartesian(R, loc)
        r2 = _dot(r, r)
        if (r2 <= tol2).any():
            raise SingularPoint("evaluation point coincides with a source singularity")
        out.append((r, r2))
    return out


def newtonian_eval(s: SourceSpec, x: np.ndarray, R: float) -> float | np.ndarray:
    """Value of the source potential F at a Cartesian point or points.

    x has shape (2,) (returns a float) or (..., 2) (returns an array of
    shape x.shape[:-1]).  Dipoles and charge pairs use the closed form
    (valid everywhere off the singularities); a Coefficients source uses
    its series, which only converges below the original source radius.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(s, Dipole):
        ((r, r2),) = _offsets(x, R, s.location)
        value = _dot(r, s.moment) / (2.0 * math.pi * r2)
    elif isinstance(s, ChargePair):
        (_, dp2), (_, dm2) = _offsets(x, R, s.plus, s.minus)
        value = s.charge * 0.25 * np.log(dp2 / dm2) / math.pi
    elif isinstance(s, Coefficients):
        rho, omega, focal = elliptic_coords(R, x)
        if focal.any():
            raise DegeneratePoint("evaluation point lies on the focal segment")
        value = _series(s, rho, omega)[0]
    else:
        raise TypeError(f"unsupported source type {type(s).__name__}")
    return float(value) if x.ndim == 1 else value


def newtonian_gradient(s: SourceSpec, x: np.ndarray, R: float) -> np.ndarray:
    """Cartesian gradient of the source potential, shape x.shape."""
    x = np.asarray(x, dtype=float)
    if isinstance(s, Dipole):
        ((r, r2),) = _offsets(x, R, s.location)
        a_dot = _dot(r, s.moment)
        return (s.moment - (2.0 * a_dot / r2)[..., None] * r) / (
            2.0 * math.pi * r2
        )[..., None]
    if isinstance(s, ChargePair):
        (rp, dp2), (rm, dm2) = _offsets(x, R, s.plus, s.minus)
        return s.charge * (rp / dp2[..., None] - rm / dm2[..., None]) / (2.0 * math.pi)
    if isinstance(s, Coefficients):
        rho, omega, focal = elliptic_coords(R, x)
        if focal.any():
            raise DegeneratePoint("evaluation point lies on the focal segment")
        _, d_rho, d_omega = _series(s, rho, omega)
        t_rho, t_omega = tangents(R, rho, omega)
        xi2 = (metric_factor(R, rho, omega) ** 2)[..., None]
        return (d_rho[..., None] * t_rho + d_omega[..., None] * t_omega) / xi2
    raise TypeError(f"unsupported source type {type(s).__name__}")


def elliptic_potential(s: SourceSpec, R: float, rho, omega) -> np.ndarray:
    """F at elliptic points (rho[j], omega[j]); expansion data use the series."""
    if isinstance(s, Coefficients):
        return _series(s, rho, omega)[0]
    return newtonian_eval(s, cartesian(R, rho, omega), R)


def convergence_exponent(sc: Coefficients) -> float:
    """Fitted decay rate rho_hat with |F_n| ~ exp(-rho_hat n).

    Least-squares slope of log hypot(F_n^+, F_n^-) (whose squares underflow
    below 1e-154) against n over the nonzero pairs; needs at least 10.
    """
    mag = np.hypot(sc.f_plus, sc.f_minus)
    n = np.arange(1, sc.n_max + 1, dtype=float)
    usable = (sc.f_plus != 0.0) | (sc.f_minus != 0.0)
    if int(np.count_nonzero(usable)) < 10:
        raise TooFewCoefficients(
            f"need >= 10 nonzero coefficient pairs, have {int(np.count_nonzero(usable))}"
        )
    slope = np.polyfit(n[usable], np.log(mag[usable]), 1)[0]
    return float(-slope)


def series_radius(s: SourceSpec) -> float:
    """The rho past which the series of a Coefficients source diverges.

    That is convergence_exponent for at least 10 nonzero pairs.  Fewer
    pairs make a polynomial, and a point source is no series: both are
    infinite.
    """
    if isinstance(s, Coefficients):
        try:
            return convergence_exponent(s)
        except TooFewCoefficients:
            pass
    return math.inf


def gap_condition_report(
    sc: Coefficients, g: ConfocalGeometry, rho_star: float
) -> GapConditionReport:
    """Evaluate the GC[rho_star] terms over the available window.

    The k-th term couples consecutive nonzero indices n_k < n_{k+1}:

        t_k = exp(-(n_{k+1} - n_k)(rho_e - rho_i)) * exp(2 n_k rho_star)
              * (F_{n_k}^+^2 + F_{n_k}^-^2),

    computed in log space, with the squares over s = _square_scale(max |F|)
    and 2 log10(s) added back, so nothing representable overflows.  Verdict
    policy: SatisfiedHeuristically when the last five terms increase
    strictly and the final term exceeds 1e3; FailsHeuristically when they
    decrease strictly below 1e-3; Inconclusive otherwise, and always
    Inconclusive when fewer than eight nonzero indices are available.
    """
    s = _square_scale(float(np.max(np.abs([sc.f_plus, sc.f_minus]), initial=0.0)))
    mag2 = (sc.f_plus / s) ** 2 + (sc.f_minus / s) ** 2
    idx = np.nonzero(mag2 > 0.0)[0]
    if len(idx) < 2:
        return GapConditionReport(rho_star, idx + 1, np.array([]), GapVerdict.INCONCLUSIVE)
    n_k = (idx + 1).astype(float)
    gaps = np.diff(n_k)
    log10_t = (
        (-gaps * (g.rho_e - g.rho_i) + 2.0 * n_k[:-1] * rho_star) / math.log(10.0)
        + (np.log10(mag2[idx[:-1]]) + 2.0 * math.log10(s))
    )

    verdict = GapVerdict.INCONCLUSIVE
    if len(idx) >= _GC_MIN_INDICES and len(log10_t) >= _GC_TAIL:
        tail = log10_t[-_GC_TAIL:]
        if np.all(np.diff(tail) > 0.0) and tail[-1] > math.log10(_GC_LARGE):
            verdict = GapVerdict.SATISFIED
        elif np.all(np.diff(tail) < 0.0) and tail[-1] < math.log10(_GC_SMALL):
            verdict = GapVerdict.FAILS
    return GapConditionReport(rho_star, idx[:-1] + 1, log10_t, verdict)
