"""Closed-form spectral data of the transmission operator.

For a single ellipse {rho = rho0} the Neumann-Poincare operator K* acts
diagonally on the weighted trigonometric densities

    phi_n_c = Xi^{-1} cos(n omega),   phi_n_s = Xi^{-1} sin(n omega),

with eigenvalues +alpha_n on the cosine branch and -alpha_n on the sine
branch, where alpha_n = exp(-2 n rho0) / 2.  The single-layer potential of
these densities is also diagonal.

For the core-shell pair Gamma_i = {rho = rho_i}, Gamma_e = {rho = rho_e}
the relevant operator is the 2x2 block NP-type operator acting on density
pairs (phi_i, phi_e).  On the span of (phi_n_c(i), phi_n_c(e)) it acts by
a 2x2 matrix A_n, and on the sine span by B_n.  Writing

    ei = exp(-2 n rho_i),  ee = exp(-2 n rho_e),  E = exp(-n (rho_e - rho_i)),

the eigenvalues of A_n are

    lambda_1n = (d - s) / 4,        lambda_2n = (d + s) / 4,
    d = ee - ei,                    s = sqrt(d^2 + 4 E^2),

and B_n has eigenvalues -lambda_1n, -lambda_2n.  With the eigenvector weights

    a_1n = u + s,  a_2n = u - s  (u = ee + ei),  b_n = -2 E (1 + ei)

each mode carries four eigenfunction families, always listed in this
order (k = 0 .. 3 on a leading axis; even k on the cosine span, odd k on
the sine span: FAMILY_PARITY):

    k  family  density pair  eigenvalue   squared S-norm
    0  1+      (a_1, b)      +lambda_1n   norm_1p
    1  1-      (b, a_2)      -lambda_1n   norm_1m
    2  2+      (a_2, b)      +lambda_2n   norm_2p
    3  2-      (b, a_1)      -lambda_2n   norm_2m

ModeTable is this family table: mode_table forms its pairs (4, 2, n),
eigenvalues (4, n) and norms (4, n) once, and the projection, the density
solve, the spectral surrogate, validate's eigen and norm checks and
`calr-lab spectrum` read them as stored; the same order numbers the rows
of solver.mode_projections.

Naive evaluation of lambda_2n and a_2n subtracts nearly equal exponentials
and loses all precision for large n when rho_e > 3 rho_i.  This module
uses the algebraically equivalent cancellation-free forms

    lambda_2n = E^2 / (s - d),
    a_2n      = -4 (E^2 - ei * ee) / (u + s),

which stay fully accurate in both thickness regimes.

Norms are measured in the inner product induced by the (negated) single
layer potential; on each mode span it reduces to a 2x2 Gram matrix
(s_gram) built from half-sums like (1 + ei) / 2 = exp(-n rho_i) *
cosh(n rho_i).

block_matrices and s_gram give A_n, B_n and the Gram matrices, each pair
stacked cosine span first, for one mode or for an array of modes;
validate's closed-form checks index them by FAMILY_PARITY as is.
mode_eigenvalues gives lambda_1n and lambda_2n alone, by the formulas
mode_table uses, for any n >= 1: past mode_table's range, where the norms
overflow, they underflow towards 0.  The oracle pairs its numeric
eigenvalues with them.  mode_table's range (_mode_limit) bounds every n_max.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import OverflowGuard
from .geometry import ConfocalGeometry

__all__ = [
    "ModeTable",
    "ModeFactors",
    "RegimeKind",
    "Regime",
    "AsymptoticRates",
    "block_matrices",
    "mode_factors",
    "mode_eigenvalues",
    "mode_table",
    "FAMILY_PARITY",
    "s_gram",
    "critical_radius",
    "asymptotic_rates",
]

# Largest 2 n rho_e of a mode table (_mode_limit): e^{-700} is a normal
# double, and doubles overflow near e^{709.78}.
_EXP_GUARD = 700.0

# Span of each family 1+, 1-, 2+, 2-: the index into a (cosine, sine) stack.
FAMILY_PARITY = np.array([0, 1, 0, 1])


class ModeTable(NamedTuple):
    """The family table (see the module docstring) for n = 1 .. n_max,
    index [..., n-1]: mode indices n (n_max,), density pairs (4, 2,
    n_max), eigenvalues (4, n_max) and squared S-norms (4, n_max)."""

    n: np.ndarray
    pairs: np.ndarray
    eigenvalues: np.ndarray
    norms: np.ndarray

    def truncated(self, n_max: int) -> ModeTable:
        """The leading n_max modes, as views.

        Every entry depends on its own n only, so the result equals
        mode_table(g, n_max) bit for bit.
        """
        if not 1 <= n_max <= len(self.n):
            raise ValueError(f"n_max must be in [1, {len(self.n)}], got {n_max}")
        return ModeTable(*(field[..., :n_max] for field in self))


class RegimeKind(Enum):
    THIN = "Thin"
    THICK = "Thick"


class Regime(NamedTuple):
    """Critical radius data for a shell geometry.

    rho_star is the cloaking threshold: charge-balanced sources supported
    inside {rho < rho_star} (but outside the shell) drive unbounded
    dissipation as the loss vanishes, sources outside it do not.
    far_bound_rho is a radius beyond which the potential stays uniformly
    bounded in the resonant case.
    """

    kind: RegimeKind
    rho_star: float
    far_bound_rho: float


class AsymptoticRates(NamedTuple):
    """Leading exponential rates of the mode data as n -> infinity.

    Each eigenvalue behaves like +-C * exp(-rate * n) and each norm like
    C * exp(-rate * n) / n with a positive constant C; `lambda1_rate`,
    `lambda2_rate` and `norm_rates['1p']` ... record the rate factors.
    lambda1 is negative, lambda2 positive for every n.
    """

    kind: RegimeKind
    lambda1_rate: float
    lambda2_rate: float
    norm_rates: dict


class ModeFactors(NamedTuple):
    """Per-mode exponentials and Gram half-sums (see s_gram)."""

    ei: np.ndarray
    ee: np.ndarray
    E: np.ndarray
    ci: np.ndarray
    si: np.ndarray
    ce: np.ndarray
    se: np.ndarray
    cx: np.ndarray
    sx: np.ndarray
    pref: np.ndarray


def mode_factors(n: np.ndarray, g: ConfocalGeometry) -> ModeFactors:
    """ei, ee, E, the six Gram half-sums and pi/n for mode indices n >= 1.

    The half-sums are exp(-n rho_k) cosh/sinh(n rho_i) style products,
    e.g. ci = (1 + ei)/2 and cx = E (1 + ei)/2, so every entry is bounded
    by 1 and no exponent is positive.
    """
    if np.any(n < 1):
        raise ValueError(f"mode index must be >= 1, got {np.min(n):g}")
    # One exp call; the exponents equal -2.0 * n * rho_i, -2.0 * n * rho_e
    # and -n * (rho_e - rho_i) bit for bit (the factors -1 and 2 are exact).
    rates = [-2.0 * g.rho_i, -2.0 * g.rho_e, g.rho_i - g.rho_e]
    exps = np.exp(np.multiply.outer(rates, n))
    up, dn = 1.0 + exps[:2], 1.0 - exps[:2]  # rows: rho_i, rho_e
    (ci, ce), (si, se) = 0.5 * up, 0.5 * dn
    cx, sx = 0.5 * exps[2] * up[0], 0.5 * exps[2] * dn[0]
    return ModeFactors(*exps, ci, si, ce, se, cx, sx, math.pi / n)


def block_matrices(n, g: ConfocalGeometry) -> np.ndarray:
    """A_n (cosine span) and B_n (sine span) stacked, cosine span first:
    shape (2, 2, 2) + shape(n) for a mode index n >= 1 or an array of them,
    so `a_mat, b_mat = block_matrices(n, g)` unpacks the spans.  An int
    goes through a (1,) array, as in geometry.to_cartesian, so it gives a
    column of the array form bit for bit.  Entries are bounded by 1/2
    (factored exponentials): any n is safe.
    """
    if np.ndim(n) == 0:
        return block_matrices(np.array([n]), g)[..., 0]
    f = mode_factors(n, g)
    return np.array([[[-0.5 * f.ei, f.sx], [f.cx, 0.5 * f.ee]],
                     [[0.5 * f.ei, f.cx], [f.sx, -0.5 * f.ee]]])


def _eigenvalues(f: ModeFactors):
    """d, s, lambda_1n and lambda_2n from a mode_factors result.

    Finite for every n >= 1: no exponent is positive, and where d and E
    both underflow (s = d = 0) lambda_2n is its limit 0.
    """
    d = f.ee - f.ei  # <= 0
    s = np.sqrt(d * d + 4.0 * f.E * f.E)
    lam1 = 0.25 * (d - s)
    # (d + s)/4 = (s^2 - d^2) / (4 (s - d)) = E^2 / (s - d); s - d >= s.
    lam2 = np.divide(f.E * f.E, s - d, out=np.zeros_like(s), where=s > d)
    return d, s, lam1, lam2


def mode_eigenvalues(n: np.ndarray, g: ConfocalGeometry) -> tuple[np.ndarray, np.ndarray]:
    """lambda_1n and lambda_2n for an array of mode indices n >= 1, equal to
    mode_table's bit for bit.  Unlike mode_table it has no range guard: its
    values underflow towards 0 instead of overflowing, as the norms would.
    """
    return _eigenvalues(mode_factors(n, g))[2:]


def _mode_limit(g: ConfocalGeometry) -> int:
    """The largest n_max whose table fits, the package's one truncation
    bound: float(n) 2 rho_e <= 700 keeps e^{-2 n rho_e}, the smallest
    factor mode_table forms, a normal double.  Capped at 2**53 modes."""
    n = int(min(_EXP_GUARD / (2.0 * g.rho_e), 2.0**53 - 1)) + 1
    while float(n) * 2.0 * g.rho_e > _EXP_GUARD:
        n -= 1
    return n


def _refuse_modes(n_max: int, g: ConfocalGeometry) -> None:
    """OverflowGuard, from n_max alone, past _mode_limit(g), for any int:
    the message gives 2 n rho_e only where a double holds it, and n only
    where Python converts it to text."""
    if n_max > _mode_limit(g):
        try:
            reach = float(n_max) * 2.0 * g.rho_e
        except OverflowError:  # n_max past the largest double
            reach = math.inf
        try:
            at = f"n = {n_max}"
        except ValueError:  # past the digits Python converts to text
            at = "an n too long to print"
        shown = f" = {reach:.1f}" if math.isfinite(reach) else ""
        raise OverflowGuard(f"2*n*rho_e{shown} exceeds double range at {at}")


def mode_table(g: ConfocalGeometry, n_max: int) -> ModeTable:
    """Eigendata for all modes n = 1 .. n_max at once, in the
    cancellation-free forms, range-checked from n_max before any array
    is made."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _refuse_modes(n_max, g)
    n = np.arange(1, n_max + 1, dtype=float)
    f = mode_factors(n, g)
    ei, ee, E = f.ei, f.ee, f.E
    d, s, lam1, lam2 = _eigenvalues(f)
    u = ee + ei
    a1 = u + s
    # u - s = (u^2 - s^2) / (u + s) = 4 (ei*ee - E^2) / (u + s).
    a2 = -4.0 * (E * E - ei * ee) / (u + s)
    b = -2.0 * E * (1.0 + ei)

    norm_1p = f.pref * (a1 * a1 * f.ci + 2.0 * a1 * b * f.cx + b * b * f.ce)
    norm_1m = f.pref * (b * b * f.si + 2.0 * a2 * b * f.sx + a2 * a2 * f.se)
    norm_2p = f.pref * (a2 * a2 * f.ci + 2.0 * a2 * b * f.cx + b * b * f.ce)
    norm_2m = f.pref * (b * b * f.si + 2.0 * a1 * b * f.sx + a1 * a1 * f.se)

    norms = np.stack([norm_1p, norm_1m, norm_2p, norm_2m])
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        bad = int(n[np.argmax(~np.all(np.isfinite(norms) & (norms > 0.0), axis=0))])
        raise OverflowGuard(f"mode norms leave double range near n = {bad}")
    return ModeTable(np.arange(1, n_max + 1), np.array([[a1, b], [b, a2], [a2, b], [b, a1]]),
                     np.array([lam1, -lam1, lam2, -lam2]), norms)


def _gram_entries(f: ModeFactors, parity) -> np.ndarray:
    """Gram entries over pi/n: (ci, cx, ce) for parity 0 (cosine), (si, sx, se)
    for 1 (sine); shape (3,) + shape(parity) + shape(n)."""
    return np.array([[f.ci, f.si], [f.cx, f.sx], [f.ce, f.se]])[:, parity]


def s_gram(n, g: ConfocalGeometry) -> np.ndarray:
    """Gram matrices of the mode-n density pairs in the S-inner product,
    cosine span first: shape (2, 2, 2) + shape(n) for an array of indices
    n >= 1, and an int n gives a column of it bit for bit (as block_matrices).

    G_cos is the Gram matrix of (phi_n_c(i), phi_n_c(e)), G_sin the sine
    analogue.  Both are symmetric positive definite:

        G_cos = (pi/n) [[(1+ei)/2, E(1+ei)/2], [E(1+ei)/2, (1+ee)/2]],
        G_sin = (pi/n) [[(1-ei)/2, E(1-ei)/2], [E(1-ei)/2, (1-ee)/2]].
    """
    if np.ndim(n) == 0:
        return s_gram(np.array([n]), g)[..., 0]
    f = mode_factors(n, g)
    gi, gx, ge = _gram_entries(f, [0, 1])
    return f.pref * np.moveaxis(np.array([[gi, gx], [gx, ge]]), 2, 0)


def critical_radius(rho_i: float, rho_e: float) -> Regime:
    """Cloaking threshold rho_star and far-field bound radius.

    Thin shells (rho_e <= 3 rho_i):   rho_star = (3 rho_e - rho_i) / 2,
                                      far bound at 2 rho_e - rho_i.
    Thick shells (rho_e > 3 rho_i):   rho_star = 2 (rho_e - rho_i),
                                      far bound at 3 rho_e - 4 rho_i.

    At rho_e = 3 rho_i both branches give rho_star = 4 rho_i.  In the
    concentric-disk limit (rho = log r) the thin branch reduces to the
    classical critical radius sqrt(r_e^3 / r_i).
    """
    if not (0.0 < rho_i < rho_e):
        raise ValueError(f"need 0 < rho_i < rho_e, got {rho_i}, {rho_e}")
    if rho_e <= 3.0 * rho_i:
        return Regime(
            RegimeKind.THIN,
            0.5 * (3.0 * rho_e - rho_i),
            2.0 * rho_e - rho_i,
        )
    return Regime(
        RegimeKind.THICK,
        2.0 * (rho_e - rho_i),
        3.0 * rho_e - 4.0 * rho_i,
    )


def asymptotic_rates(g: ConfocalGeometry) -> AsymptoticRates:
    """Decay rates of eigenvalues and norms for large n.

    Thin regime (rho_e <= 3 rho_i): both eigenvalue families decay at the
    shared rate rho_e - rho_i (constant 1/2) and all four norms at
    2 (rho_e - rho_i) (constant 4 pi / n).  Thick regime: the branches
    split,

        |lambda1| ~ exp(-2 rho_i n) / 2,
        lambda2   ~ exp(-2 (rho_e - 2 rho_i) n) / 2,
        norm_1p, norm_2m ~ (2 pi / n) exp(-4 rho_i n),
        norm_1m, norm_2p ~ (2 pi / n) exp(-2 (rho_e - rho_i) n).
    """
    width = g.rho_e - g.rho_i
    kind = critical_radius(g.rho_i, g.rho_e).kind
    thin = kind is RegimeKind.THIN
    # Norm rates in family order: 1+ and 2- decay more slowly in the thick regime.
    slow = 2.0 * width if thin else 4.0 * g.rho_i
    return AsymptoticRates(
        kind,
        lambda1_rate=width if thin else 2.0 * g.rho_i,
        lambda2_rate=width if thin else 2.0 * (g.rho_e - 2.0 * g.rho_i),
        norm_rates=dict(zip(("1p", "1m", "2p", "2m"), (slow, 2.0 * width, 2.0 * width, slow))),
    )
