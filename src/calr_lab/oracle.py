"""Nystrom discretization of the two-interface boundary operator.

This module provides the independent numerical check of the closed-form
spectrum: discretize the block operator

    [ -K*_{Gi}        -dnu_i S_{Ge} ]
    [ +dnu_e S_{Gi}   +K*_{Ge}      ]

on the two confocal interfaces with plain trapezoidal quadrature and
compare its eigenvalues with the analytic values of the spectrum module.
Every kernel here is evaluated from Cartesian node data alone; none of
the closed forms it is meant to validate are reused.

With N even equispaced nodes omega_j = 2 pi j / N on both curves, the
reflections omega -> -omega and omega -> pi - omega map the nodes onto
themselves and the matrix commutes with both.  numeric_spectrum then
folds it by index arithmetic into four parity blocks, the cos/sin x
even/odd-n spans, and solves those instead of the dense matrix.

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
from .spectrum import ModeTable, mode_table

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
    analytic value assigned to each numeric one (the nearest unused
    candidate of its parity block's branch, or of the whole candidate list
    on the dense path), `rel_errors` the pairwise relative error (absolute
    error where the analytic value is zero).  `max_imag` records the
    largest imaginary part seen in the eigensolves; the operator is
    real-diagonalizable, so this is a pure discretization diagnostic.
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


def _nearest_unused(numeric: np.ndarray, analytic: np.ndarray):
    """Pair numeric eigenvalues with candidate analytic ones, largest first.

    Each numeric value takes the nearest unused candidate; exact distance
    ties are broken in favor of matching sign.  The fold passes one parity
    block's branch, the dense path every candidate.
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


def _node_maps(N: int) -> list:
    """The group e, r1 (omega -> -omega), r2 (omega -> pi - omega), r1 r2
    as node maps j -> j, -j, N/2 - j, j + N/2 (mod N); the character
    (c1, c2) takes the values 1, c1, c2, c1 c2 on them."""
    j, half = np.arange(N), N // 2
    return [j, -j % N, (half - j) % N, (j + half) % N]


def _is_reflection_symmetric(matrix: np.ndarray, N: int) -> bool:
    """Whether the block matrix commutes with both node reflections.

    With P the permutation matrix of a reflection, MP - PM is
    M[:, p] - M[p, :]; it is measured in chunks of 64 rows, so no
    2N x 2N temporary is formed.  Both commutators must be within
    1e-12 of max|M|.
    """
    if N < 8 or N % 2 or matrix.shape != (2 * N, 2 * N):
        return False
    tol = 1e-12 * float(np.max(np.abs(matrix)))
    for node_map in _node_maps(N)[1:3]:
        perm = np.concatenate([node_map, N + node_map])
        for start in range(0, 2 * N, 64):
            rows = slice(start, start + 64)
            if np.max(np.abs(matrix[rows, perm] - matrix[perm[rows]])) > tol:
                return False
    return True


def _parity_blocks(matrix: np.ndarray, N: int) -> list:
    """The four parity blocks ((c1, c2), M_chi) of a reflection-symmetric
    block matrix, c1 and c2 being the parities under r1 and r2.

    Nodes j = 0 .. N//4 represent the orbits of the two reflections on
    each curve.  The stabiliser of j = 0 is {e, r1} and, for N divisible
    by 4, that of j = N/4 is {e, r2}; every other orbit has four nodes.  A
    block keeps the representatives whose stabiliser its character is
    trivial on, and M_chi[a, b] = sum_g chi(g) M[a, g b] / |stab(a)|.  The
    union of the blocks' spectra is the spectrum of M.
    """
    reps = np.arange(N // 4 + 1)
    fixed_r1, fixed_r2 = reps == 0, 4 * reps == N
    stab = np.where(fixed_r1 | fixed_r2, 2.0, 1.0)
    maps = _node_maps(N)
    blocks = []
    for c1 in (1, -1):
        for c2 in (1, -1):
            keep = ~(fixed_r1 & (c1 < 0) | fixed_r2 & (c2 < 0))
            r = reps[keep]
            rows = np.concatenate([r, N + r])
            block = np.zeros((len(rows), len(rows)))
            for chi, node_map in zip((1, c1, c2, c1 * c2), maps):
                cols = np.concatenate([node_map[r], N + node_map[r]])
                block += chi * matrix[np.ix_(rows, cols)]
            block /= np.tile(stab[keep], 2)[:, None]
            blocks.append(((c1, c2), block))
    return blocks


def _branch(table: ModeTable, c1: int, c2: int) -> np.ndarray:
    """Analytic eigenvalues of the parity block (c1, c2).

    Cosine blocks (c1 = +1) hold +lambda_{1,n}, +lambda_{2,n} for
    (-1)^n = c2, sine blocks -lambda_{1,n}, -lambda_{2,n} for
    (-1)^(n+1) = c2; the (+, +) block also holds the n = 0 pair +-1/2.
    """
    sel = c1 * np.where(table.n % 2 == 0, 1, -1) == c2
    lam = c1 * np.concatenate([table.lambda1[sel], table.lambda2[sel]])
    return np.concatenate([[0.5, -0.5], lam]) if (c1, c2) == (1, 1) else lam


def _eigvals(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"eigensolve failed: {exc}") from exc


def numeric_spectrum(
    m: BlockNPMatrix | np.ndarray,
    count: int,
    analytic: np.ndarray | None = None,
) -> SpectrumReport:
    """Top `count` eigenvalues by magnitude, paired with analytic values.

    For a BlockNPMatrix without explicit analytic values whose matrix
    commutes with both node reflections (every block_np_for matrix), the
    matrix is folded into its four parity blocks (_parity_blocks).  The
    top `count` values are taken over the union of the blocks' spectra,
    and each is paired with the nearest unused value of its own block's
    branch: +-1/2 (the n = 0 pair: the block is triangular there because
    the uniform-angle density on an ellipse is its equilibrium measure)
    and the signed lambda_{1,n}, lambda_{2,n} of its parity (_branch).

    Otherwise the dense matrix is solved and each value takes the nearest
    unused of all candidates: those passed in `analytic` (required for a
    plain matrix) or +-1/2, +-lambda_{1,n}, +-lambda_{2,n} of the
    geometry.  Eigenvalues of the (real, nonsymmetric) matrix are
    theoretically real; the largest imaginary part is recorded and then
    discarded.
    """
    if isinstance(m, BlockNPMatrix):
        matrix = m.matrix
        if analytic is None and m.geometry is None:
            raise ValueError("block matrix carries no geometry; pass analytic values")
    else:
        matrix = np.asarray(m)
        if analytic is None:
            raise ValueError("plain matrices require explicit analytic values")
    n = matrix.shape[0]
    if not 1 <= count <= n // 4:
        raise ValueError(f"count must be in [1, {n // 4}], got {count}")
    if analytic is None:
        # One more mode than count, so that every branch has at least
        # `count` candidates.
        table = mode_table(m.geometry, max(8, count + 1))
        if _is_reflection_symmetric(matrix, m.n_per_curve):
            return _folded_spectrum(matrix, m.n_per_curve, count, table)
        lam = np.concatenate([[0.5], table.lambda1, table.lambda2])
        analytic = np.concatenate([lam, -lam])
    ev = _eigvals(matrix)
    max_imag = float(np.max(np.abs(ev.imag))) if ev.size else 0.0
    top = ev[np.argsort(-np.abs(ev))[:count]].real
    matched, errors = _nearest_unused(top, np.asarray(analytic, dtype=float))
    return SpectrumReport(top, matched, errors, max_imag)


def _folded_spectrum(
    matrix: np.ndarray, N: int, count: int, table: ModeTable
) -> SpectrumReport:
    """numeric_spectrum of a reflection-symmetric matrix, block by block."""
    chars, blocks = zip(*_parity_blocks(matrix, N))
    evs = [_eigvals(b) for b in blocks]
    ev = np.concatenate(evs)
    label = np.repeat(np.arange(len(evs)), [len(e) for e in evs])
    order = np.argsort(-np.abs(ev))[:count]
    top, label = ev[order].real, label[order]
    matched = np.empty_like(top)
    errors = np.empty_like(top)
    for k, (c1, c2) in enumerate(chars):
        mine = label == k
        branch = _branch(table, c1, c2)
        matched[mine], errors[mine] = _nearest_unused(top[mine], branch)
    max_imag = float(np.max(np.abs(ev.imag)))
    return SpectrumReport(top, matched, errors, max_imag)
