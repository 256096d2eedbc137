"""Closed-form spectral data of the transmission operator.

For a single ellipse {rho = rho0} the Neumann-Poincare operator K* acts
diagonally on the weighted trigonometric densities

    phi_n_c = Xi^{-1} cos(n omega),   phi_n_s = Xi^{-1} sin(n omega),

with eigenvalues +alpha_n on the cosine branch and -alpha_n on the sine
branch, where alpha_n = exp(-2 n rho0) / 2.  The single-layer potential of
these densities is also diagonal; beta_n below is the coefficient that
shows up in the exterior expansion of S[phi_n_c].

For the core-shell pair Gamma_i = {rho = rho_i}, Gamma_e = {rho = rho_e}
the relevant operator is the 2x2 block NP-type operator acting on density
pairs (phi_i, phi_e).  On the span of (phi_n_c(i), phi_n_c(e)) it acts by
a 2x2 matrix A_n, and on the sine span by B_n.  Writing

    ei = exp(-2 n rho_i),  ee = exp(-2 n rho_e),  E = exp(-n (rho_e - rho_i)),

the eigenvalues of A_n are

    lambda_1n = (d - s) / 4,        lambda_2n = (d + s) / 4,
    d = ee - ei,                    s = sqrt(d^2 + 4 E^2),

and B_n has eigenvalues -lambda_1n, -lambda_2n.  The eigenvector weights

    a_1n = u + s,  a_2n = u - s  (u = ee + ei),  b_n = -2 E (1 + ei)

satisfy A (a_1, b)^T = lambda_1 (a_1, b)^T, A (a_2, b)^T = lambda_2
(a_2, b)^T, B (b, a_2)^T = -lambda_1 (b, a_2)^T and B (b, a_1)^T =
-lambda_2 (b, a_1)^T.

Naive evaluation of lambda_2n and a_2n subtracts nearly equal exponentials
and loses all precision for large n when rho_e > 3 rho_i.  This module
uses the algebraically equivalent cancellation-free forms

    lambda_2n = E^2 / (s - d),
    a_2n      = -4 (E^2 - ei * ee) / (u + s),

which stay fully accurate in both thickness regimes.

Norms are measured in the inner product induced by the (negated) single
layer potential; on each mode span it reduces to a 2x2 Gram matrix
(s_gram) built from half-sums like (1 + ei) / 2 = exp(-n rho_i) *
cosh(n rho_i).  The four stored norms are the squared S-norms of the
eigenfunction pairs Psi_n^{1+}, Psi_n^{1-}, Psi_n^{2+}, Psi_n^{2-}
(cosine pair for +lambda, sine pair for -lambda branches).

block_matrices and s_gram give A_n, B_n and the Gram matrices for one mode
or for an array of modes; validate's closed-form checks call them as is.
mode_eigenvalues gives lambda_1n and lambda_2n alone, by the formulas
mode_table uses, for any n >= 1: past mode_table's range, where the norms
overflow, they underflow towards 0.  The oracle pairs its numeric
eigenvalues with them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import OverflowGuard
from .geometry import ConfocalGeometry

__all__ = [
    "SingleEllipseMode",
    "ModeData",
    "ModeTable",
    "ModeFactors",
    "RegimeKind",
    "Regime",
    "AsymptoticRates",
    "single_ellipse_np",
    "block_matrices",
    "mode_data",
    "mode_factors",
    "mode_eigenvalues",
    "mode_table",
    "s_gram",
    "critical_radius",
    "asymptotic_rates",
]

# Largest exponent magnitude allowed inside exp(); doubles overflow near
# 709.78 and results would silently turn into inf.
_EXP_GUARD = 700.0


class SingleEllipseMode(NamedTuple):
    """Eigendata of K* on a single ellipse for one mode index."""

    n: int
    alpha: float
    beta: float


class ModeData(NamedTuple):
    """Eigendata of the block operator for one mode index n >= 1."""

    n: int
    lambda1: float
    lambda2: float
    a1: float
    a2: float
    b: float
    norm_1p: float
    norm_1m: float
    norm_2p: float
    norm_2m: float


class ModeTable(NamedTuple):
    """Vectorized eigendata for n = 1 .. n_max (index [n-1])."""

    n: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    norm_1p: np.ndarray
    norm_1m: np.ndarray
    norm_2p: np.ndarray
    norm_2m: np.ndarray

    def truncated(self, n_max: int) -> ModeTable:
        """The leading n_max modes, as views.

        Every entry depends on its own n only, so the result equals
        mode_table(g, n_max) bit for bit.
        """
        if not 1 <= n_max <= len(self.n):
            raise ValueError(f"n_max must be in [1, {len(self.n)}], got {n_max}")
        return ModeTable(*(column[:n_max] for column in self))

    def row(self, n: int) -> ModeData:
        values = (float(column[n - 1]) for column in self[1:])
        return ModeData(n, *values)


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


def block_matrices(n, g: ConfocalGeometry) -> tuple[np.ndarray, np.ndarray]:
    """A_n (cosine span) and B_n (sine span), shape (2, 2) + shape(n), for a
    mode index n >= 1 or an array of them.  An int goes through a (1,) array,
    as in geometry.to_cartesian, so it gives a column of the array form bit
    for bit.  Entries are bounded by 1/2 (factored exponentials): any n is safe.
    """
    if np.ndim(n) == 0:
        a_mat, b_mat = block_matrices(np.array([n]), g)
        return a_mat[..., 0], b_mat[..., 0]
    f = mode_factors(n, g)
    a_mat = np.array([[-0.5 * f.ei, f.sx], [f.cx, 0.5 * f.ee]])
    b_mat = np.array([[0.5 * f.ei, f.cx], [f.sx, -0.5 * f.ee]])
    return a_mat, b_mat


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


def _mode_arrays(n: np.ndarray, g: ConfocalGeometry):
    """Shared cancellation-free evaluation over an array of mode indices."""
    t_max = float(np.max(n)) * 2.0 * g.rho_e
    if t_max > _EXP_GUARD:
        raise OverflowGuard(
            f"2*n*rho_e = {t_max:.1f} exceeds double range at n = {int(np.max(n))}"
        )
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
    return lam1, lam2, a1, a2, b, norm_1p, norm_1m, norm_2p, norm_2m


def mode_data(n: int, g: ConfocalGeometry) -> ModeData:
    """Eigendata of the block operator for a single mode index n >= 1."""
    vals = _mode_arrays(np.array([float(n)]), g)
    return ModeData(n, *(float(v[0]) for v in vals))


def mode_table(g: ConfocalGeometry, n_max: int) -> ModeTable:
    """Eigendata for all modes n = 1 .. n_max at once."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    vals = _mode_arrays(n, g)
    return ModeTable(np.arange(1, n_max + 1), *vals)


def s_gram(n, g: ConfocalGeometry, parity: str) -> np.ndarray:
    """Gram matrix of the mode-n density pair in the S-inner product, shape
    (2, 2) + shape(n) for an array of mode indices n >= 1; an int n gives a
    column of the array form bit for bit, as in block_matrices.

    parity='cos' gives the Gram matrix of (phi_n_c(i), phi_n_c(e)),
    parity='sin' the sine analogue.  Both are symmetric positive definite:

        G_cos = (pi/n) [[(1+ei)/2, E(1+ei)/2], [E(1+ei)/2, (1+ee)/2]],
        G_sin = (pi/n) [[(1-ei)/2, E(1-ei)/2], [E(1-ei)/2, (1-ee)/2]].
    """
    if parity not in ("cos", "sin"):
        raise ValueError(f"parity must be 'cos' or 'sin', got {parity!r}")
    if np.ndim(n) == 0:
        return s_gram(np.array([n]), g, parity)[..., 0]
    f = mode_factors(n, g)
    if parity == "cos":
        return f.pref * np.array([[f.ci, f.cx], [f.cx, f.ce]])
    return f.pref * np.array([[f.si, f.sx], [f.sx, f.se]])


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
    if g.rho_e <= 3.0 * g.rho_i:
        return AsymptoticRates(
            RegimeKind.THIN,
            lambda1_rate=width,
            lambda2_rate=width,
            norm_rates={key: 2.0 * width for key in ("1p", "1m", "2p", "2m")},
        )
    return AsymptoticRates(
        RegimeKind.THICK,
        lambda1_rate=2.0 * g.rho_i,
        lambda2_rate=2.0 * (g.rho_e - 2.0 * g.rho_i),
        norm_rates={
            "1p": 4.0 * g.rho_i,
            "1m": 2.0 * width,
            "2p": 2.0 * width,
            "2m": 4.0 * g.rho_i,
        },
    )
