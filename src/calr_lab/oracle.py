"""Nystrom discretization of the two-interface boundary operator.

This module provides the independent numerical check of the closed-form
spectrum: discretize the block operator

    [ -K*_{Gi}        -dnu_i S_{Ge} ]
    [ +dnu_e S_{Gi}   +K*_{Ge}      ]

on the two confocal interfaces with plain trapezoidal quadrature and
compare its dense eigenvalues with the analytic values of the spectrum
module.  Every kernel here is evaluated from Cartesian node data alone;
none of the closed forms it is meant to validate are reused.

For disjoint analytic curves all kernels are smooth (the diagonal of K*
has the removable-singularity limit kappa/(4*pi)), so plain trapezoid
converges spectrally and no singular quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveOverlap, EigensolveFailure
from .geometry import ConfocalGeometry, SampledCurve, sample_ellipse
from .spectrum import mode_table

__all__ = [
    "BlockNPMatrix",
    "SpectrumReport",
    "np_kernel",
    "assemble_np",
    "assemble_block_np",
    "numeric_spectrum",
    "sample_circle",
]

_MIN_CURVE_GAP = 1e-8


@dataclass(frozen=True)
class BlockNPMatrix:
    """Dense 2N x 2N discretization of the block operator.

    `matrix` has the quadrature weights folded in, so its eigenvalues
    approximate the operator spectrum directly.  The geometry is kept so
    that numeric_spectrum can produce the matching analytic values.
    """

    matrix: np.ndarray = field(repr=False)
    geometry: ConfocalGeometry | None
    n_per_curve: int


@dataclass(frozen=True)
class SpectrumReport:
    """Numeric eigenvalues paired with their analytic counterparts.

    Eigenvalues are sorted by decreasing magnitude.  `matched` holds the
    greedily assigned analytic value for each numeric one, `rel_errors`
    the pairwise relative error (absolute error where the analytic value
    is zero).  `max_imag` records the largest imaginary part seen in the
    eigensolve; the operator is real-diagonalizable, so this is a pure
    discretization diagnostic.
    """

    eigenvalues: np.ndarray = field(repr=False)
    matched: np.ndarray = field(repr=False)
    rel_errors: np.ndarray = field(repr=False)
    max_imag: float = 0.0

    @property
    def worst(self) -> float:
        return float(np.max(self.rel_errors)) if self.rel_errors.size else 0.0


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


def _kernel_block(target: SampledCurve, src: SampledCurve, same: bool) -> np.ndarray:
    """Weighted kernel matrix K[i, j] = k(x_i, y_j) w_j, vectorized."""
    tx, tn, sy = target.nodes, target.normals, src.nodes
    d1 = tx[:, 0:1] - sy[None, :, 0]
    d2 = tx[:, 1:2] - sy[None, :, 1]
    r_sq = d1 * d1 + d2 * d2
    if same:
        np.fill_diagonal(r_sq, 1.0)
    else:
        gap = math.sqrt(float(np.min(r_sq)))
        if gap < _MIN_CURVE_GAP:
            raise CurveOverlap(
                f"curves approach within {gap:.3e} (< {_MIN_CURVE_GAP})"
            )
    k = (d1 * tn[:, 0:1] + d2 * tn[:, 1:2]) / (2.0 * math.pi * r_sq)
    if same:
        np.fill_diagonal(k, target.curvature / (4.0 * math.pi))
    return k * src.weights


def assemble_np(curve: SampledCurve) -> np.ndarray:
    """Single-curve Nystrom matrix for K* (diagnostic mode)."""
    return _kernel_block(curve, curve, same=True)


def assemble_block_np(
    gi: SampledCurve,
    ge: SampledCurve,
    geometry: ConfocalGeometry | None = None,
    flip_first_block: bool = False,
) -> BlockNPMatrix:
    """Assemble the weighted 2N x 2N block matrix for two disjoint curves.

    `flip_first_block` negates the (1,1) block; it exists only so the
    validation harness can prove that the spectral cross-check catches
    sign transcription errors.
    """
    if len(gi.weights) != len(ge.weights):
        raise ValueError(
            f"curves must use the same N, got {len(gi.weights)} and {len(ge.weights)}"
        )
    k_ii = _kernel_block(gi, gi, same=True)
    k_ee = _kernel_block(ge, ge, same=True)
    k_ie = _kernel_block(gi, ge, same=False)  # dnu_i S_{Ge}
    k_ei = _kernel_block(ge, gi, same=False)  # dnu_e S_{Gi}
    sign_ii = 1.0 if flip_first_block else -1.0
    m = np.block([[sign_ii * k_ii, -k_ie], [k_ei, k_ee]])
    return BlockNPMatrix(m, geometry, len(gi.weights))


def block_np_for(
    g: ConfocalGeometry, N: int, flip_first_block: bool = False
) -> BlockNPMatrix:
    """Sample both interfaces of a shell geometry and assemble the block."""
    gi = sample_ellipse(g.R, g.rho_i, N)
    ge = sample_ellipse(g.R, g.rho_e, N)
    return assemble_block_np(gi, ge, geometry=g, flip_first_block=flip_first_block)


def _greedy_match(numeric: np.ndarray, analytic: np.ndarray):
    """Pair numeric eigenvalues with analytic ones, largest first.

    Each numeric value takes the nearest unused analytic value; exact
    distance ties are broken in favor of matching sign.
    """
    matched = np.empty_like(numeric)
    errors = np.empty_like(numeric)
    used = np.zeros(len(analytic), dtype=bool)
    for idx in np.argsort(-np.abs(numeric)):
        v = numeric[idx]
        dist = np.where(used, np.inf, np.abs(analytic - v))
        best = np.flatnonzero(dist == dist.min())
        if len(best) > 1:
            signs = np.sign(analytic[best]) == np.sign(v)
            if signs.any():
                best = best[signs]
        j = int(best[0])
        used[j] = True
        matched[idx] = analytic[j]
        denom = abs(analytic[j])
        errors[idx] = abs(v - analytic[j]) / denom if denom > 0.0 else abs(v)
    return matched, errors


def numeric_spectrum(
    m: BlockNPMatrix | np.ndarray,
    count: int,
    analytic: np.ndarray | None = None,
) -> SpectrumReport:
    """Top `count` eigenvalues by magnitude, paired with analytic values.

    For a BlockNPMatrix the analytic candidates are +-1/2 (the n = 0
    pair: the block is triangular there because the uniform-angle
    density on an ellipse is its equilibrium measure) together with the
    +-lambda_{1,n}, +-lambda_{2,n} of its geometry; for a plain matrix
    they must be passed explicitly.  Eigenvalues of the (real,
    nonsymmetric) matrix are theoretically real; the largest imaginary
    part is recorded and then discarded.
    """
    if isinstance(m, BlockNPMatrix):
        matrix = m.matrix
        if analytic is None:
            if m.geometry is None:
                raise ValueError(
                    "block matrix carries no geometry; pass analytic values"
                )
            table = mode_table(m.geometry, max(8, count))
            lam = np.concatenate([[0.5], table.lambda1, table.lambda2])
            analytic = np.concatenate([lam, -lam])
    else:
        matrix = np.asarray(m)
        if analytic is None:
            raise ValueError("plain matrices require explicit analytic values")
    n = matrix.shape[0]
    if not 1 <= count <= n // 4:
        raise ValueError(f"count must be in [1, {n // 4}], got {count}")
    try:
        ev = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"dense eigensolve failed: {exc}") from exc
    max_imag = float(np.max(np.abs(ev.imag))) if ev.size else 0.0
    order = np.argsort(-np.abs(ev))
    top = ev[order[:count]].real
    matched, errors = _greedy_match(top, np.asarray(analytic, dtype=float))
    return SpectrumReport(top, matched, errors, max_imag)
