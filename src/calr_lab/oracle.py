"""Independent routes that check the closed-form production path.

Each route recomputes by another method a closed form of spectrum, source
or solver, and serves only for cross-validation.

- The Nystrom spectrum (numeric_spectrum) discretizes the block operator

      [ -K*_{Gi}        -dnu_i S_{Ge} ]
      [ +dnu_e S_{Gi}   +K*_{Ge}      ]

  by the trapezoid rule on both interfaces from Cartesian node data
  alone; spectrum.mode_eigenvalues (which has no range guard) only
  supplies the values it is compared against.  No
  option alters a block: tests negate one by hand to show it is caught.
- The transmission energy (transmission_energy) solves the four
  transmission conditions of each mode and span in closed form from the
  source coefficients alone, the confocal analogue of the per-mode solves
  of Nicorovici, McPhedran & Milton (PRB 49, 1994) and Ammari et al.
  (ARMA 208, 2013), and never reads a mode table, projection or density.

validate runs the nine checks of `calr-lab validate` in eight steps,
each threshold stated once, in its body.  They compare (1) the Nystrom
eigenvalues of mode_blocks_for's blocks with mode_eigenvalues and (2)
the k = 0 entry of those blocks, K* of Gamma_i on 1/Xi, with 1/2, (3, 4)
block_matrices and s_gram with the family table of mode_table (its
pairs, eigenvalues and norms, order in spectrum's docstring), (5) V,
the layer sums plus F as eval_potentials forms them, with the
transmission conditions (continuity on V; flux_jump from one-sided
stencils on the layer sums alone plus the source's rho derivative
grad F . dx/drho in closed form, so that F's constant part cannot drown
V's variation), (6) the surrogate with the closed-form energy, (7) V at
-delta with conj V at delta, and (8) the closed-form energy at +delta
with transmission_energy (direct_energy).  Step 1 solves only the mode
blocks whose norm bound reaches the top values it compares (see
_mode_spectrum; 5 of 127 4 x 4 blocks at N = 256 on the default
geometry), and step 2 reads its k = 0 entry from the same blocks, so the
Nystrom work is O(N log N).  Steps 3-8 share one solver._solve pass (the
solve of solve_densities and sweep) whose rows are +delta and -delta
(steps 5 and 7, one layer-sum pass; step 8 reads the +delta
energy) and step 6's five losses (their energies); steps 3 and 4 read
the first 50 modes of its table.  The check-only routes of the tests
(the energy quadrature, the shell gradient and the projection oracle)
live in tests/reference.py.

On confocal ellipses the operator couples no two Fourier modes: with the
node weights W of both curves, A = W M W^-1 has entries w_i k(x_i, y_j),
and in elliptic coordinates each of its four N x N curve blocks is a sum
of functions of omega - omega' and omega + omega'.  For N even and
equispaced nodes omega_j = 2 pi j / N, the discrete Fourier similarity
F A F^-1 of each block is therefore zero off the index pairs (k, +-k).
numeric_spectrum checks that pattern and then works on one 4 x 4 block per
mode k = 1 .. N/2 - 1 (on the indices k and N - k of both curves) and a
2 x 2 block at k = 0 and k = N/2, in place of the dense 2N x 2N matrix;
of the 4 x 4 blocks it solves only those that can hold a top value.

mode_blocks_for reaches the same blocks without the matrix.  On the
nodes omega_j = 2 pi j / N each curve block is A_ab[i, j] = c(i - j) +
h(i + j), indices mod N, and its Fourier block has c^(k) at (k, k) and
h^(k) at (k, -k); the DFTs of rows 0 and 1 determine both (see
mode_blocks_for), so six kernel rows per block and one short FFT replace
the 4N^2 entries and the N x N FFTs.  The price is rounding.  Entries
near the diagonal lose digits to cancellation in x_i - y_j, and
recovering h^ divides by sin(2 pi k / N), so the blocks differ from the
dense route's by up to about 0.02 N^2 eps of the largest entry (1.5e-13
at N = 256, 1.4e-11 at N = 2048).  The form is checked on rows 0-2 and
N/3 .. N/3 + 2 of every block through the identity

    A[i, j] - A[i+1, j+1] - A[i+1, j-1] + A[i+2, j] = 0,

whose residual has the same N^2 eps rounding (at most 0.09 N^2 eps
measured at N = 64 .. 2048 on three geometries); so the guard allows
max(_MODE_TOL, N^2 2^-52) of the largest sampled entry, not the flat
_MODE_TOL of the dense path, and a breach is refused with no dense
fallback.

For disjoint analytic curves all kernels are smooth (the diagonal of K*
has the removable-singularity limit kappa/(4*pi)), so plain trapezoid
converges spectrally and no singular quadrature is needed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CurveOverlap, EigensolveFailure, InputError, OverflowGuard
from .geometry import (ConfocalGeometry, EllipticPoint, SampledCurve, cartesian,
                       sample_ellipse, tangents)
from .solver import _energies, _layer_sums, _solve, adaptive_n_max
from .source import (Coefficients, Dipole, SourceSpec, elliptic_potential,
                     newtonian_coefficients, newtonian_gradient)
from .spectrum import FAMILY_PARITY, block_matrices, mode_eigenvalues, mode_table, s_gram

__all__ = [
    "BlockNPMatrix",
    "SpectrumReport",
    "assemble_block_np",
    "block_np_for",
    "numeric_spectrum",
    "mode_blocks_for",
    "transmission_energy",
    "validate",
]

# Smallest distance between two curves' nodes, relative to the curves'
# size (their largest node coordinate), that _kernel_block accepts.
_MIN_CURVE_GAP = 1e-8

# Largest Fourier-block entry off the (k, +-k) pattern, relative to the
# largest entry, below which numeric_spectrum solves mode by mode.  Exact
# decoupling leaves rounding only (about 1e-15 at N = 1024).  The sampled
# rows of mode_blocks_for round like N^2 eps and get max(this, N^2 2^-52).
_MODE_TOL = 1e-12


class BlockNPMatrix(NamedTuple):
    """Dense 2N x 2N discretization of the block operator.

    `matrix` has the quadrature weights folded in, so its eigenvalues
    approximate the operator spectrum directly.  `weights` holds the node
    weights of the inner then the outer curve, shape (2N,), which the
    Fourier mode blocks are taken in.  The geometry is kept so that
    numeric_spectrum can produce the matching analytic values.
    """

    matrix: np.ndarray
    geometry: ConfocalGeometry | None
    weights: np.ndarray


class SpectrumReport(NamedTuple):
    """Numeric eigenvalues paired with their analytic counterparts.

    Eigenvalues are sorted by decreasing magnitude.  `matched` holds the
    analytic value assigned to each numeric one (the nearest unused
    candidate of its own Fourier mode k, or of the whole candidate list on
    the dense path), `rel_errors` the pairwise relative error (absolute
    error where the analytic value is zero).  `max_imag` records the
    largest imaginary part seen in the eigensolves: on the mode-block
    route that is the blocks solved (those that can hold a top value), on
    the dense path the whole matrix.  The operator is real-diagonalizable,
    so this is a pure discretization diagnostic.
    `resolved` is False on the pairs whose numeric and analytic values
    both lie below the rounding `floor` (see numeric_spectrum), whose
    relative error is noise; `worst` is taken over the resolved pairs.
    """

    eigenvalues: np.ndarray
    matched: np.ndarray
    rel_errors: np.ndarray
    max_imag: float = 0.0
    floor: float = 0.0

    @property
    def resolved(self) -> np.ndarray:
        below = (np.abs(self.eigenvalues) < self.floor) & (np.abs(self.matched) < self.floor)
        return ~below

    @property
    def worst(self) -> float:
        errors = self.rel_errors[self.resolved]
        return float(np.max(errors)) if errors.size else 0.0


def _kernel_block(
    target: SampledCurve,
    src: SampledCurve,
    same: bool,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted kernel matrix K[i, j] = k(x_i, y_j) w_j, vectorized; it is
    written into `out` when given.  With `rows`, only the rows i in `rows`
    are formed, each equal to that row of the whole block bit for bit.

    The offset planes d1 = x_i1 - y_j1 and d2 = x_i2 - y_j2 are updated in
    place, so the block allocates d1, d2, r^2 and one square besides the
    result.  Every entry is still (d1 n1 + d2 n2) / (2 pi r^2) w_j with
    r^2 = d1^2 + d2^2, each operation rounded as in that expression, so
    the block equals its out-of-place form bit for bit.
    """
    rows = np.arange(len(target.weights)) if rows is None else np.asarray(rows)
    tx, tn, sy = target.nodes[rows], target.normals[rows], src.nodes
    on_diag = (np.arange(len(rows)), rows)  # the entries with y_j = x_i
    d1 = tx[:, 0:1] - sy[None, :, 0]
    d2 = tx[:, 1:2] - sy[None, :, 1]
    r_sq = d1 * d1
    r_sq += d2 * d2
    if same:
        r_sq[on_diag] = 1.0
    else:
        gap = math.sqrt(float(np.min(r_sq)))
        size = max(float(np.max(np.abs(c.nodes))) for c in (target, src))
        if gap < _MIN_CURVE_GAP * size:
            raise CurveOverlap(
                f"curves approach within {gap:.3e} (< {_MIN_CURVE_GAP} of their size {size:.3e})"
            )
    d1 *= tn[:, 0:1]
    d2 *= tn[:, 1:2]
    d1 += d2
    r_sq *= 2.0 * math.pi
    d1 /= r_sq
    if same:
        d1[on_diag] = target.curvature[rows] / (4.0 * math.pi)
    return np.multiply(d1, src.weights, out=out)


def assemble_block_np(
    gi: SampledCurve, ge: SampledCurve, geometry: ConfocalGeometry | None = None
) -> BlockNPMatrix:
    """Assemble the weighted 2N x 2N block matrix for two disjoint curves.

    Its first N x N block is -K*_{Gi}, the negated single-curve block
    _kernel_block(gi, gi, same=True), bit for bit.
    """
    if len(gi.weights) != len(ge.weights):
        raise ValueError(
            f"curves must use the same N, got {len(gi.weights)} and {len(ge.weights)}"
        )
    N = len(gi.weights)
    m = np.empty((2 * N, 2 * N))
    k_ii = _kernel_block(gi, gi, same=True, out=m[:N, :N])
    k_ie = _kernel_block(gi, ge, same=False, out=m[:N, N:])  # dnu_i S_{Ge}
    _kernel_block(ge, gi, same=False, out=m[N:, :N])  # dnu_e S_{Gi}
    _kernel_block(ge, ge, same=True, out=m[N:, N:])
    np.negative(k_ii, out=k_ii)
    np.negative(k_ie, out=k_ie)
    return BlockNPMatrix(m, geometry, np.concatenate([gi.weights, ge.weights]))


def block_np_for(g: ConfocalGeometry, N: int) -> BlockNPMatrix:
    """Sample both interfaces of a shell geometry and assemble the block."""
    gi = sample_ellipse(g.R, g.rho_i, N)
    ge = sample_ellipse(g.R, g.rho_e, N)
    return assemble_block_np(gi, ge, geometry=g)


def _nearest_unused(numeric: np.ndarray, analytic: np.ndarray):
    """Pair numeric eigenvalues with candidate analytic ones, largest first.

    Each numeric value takes the nearest unused candidate; exact distance
    ties are broken in favor of matching sign.  The mode-block route passes
    one mode's candidates, the dense path every candidate.
    """
    matched = np.empty_like(numeric)
    errors = np.empty_like(numeric)
    # A handful of values per call: Python floats, with the same IEEE
    # arithmetic, cost less here than numpy calls on tiny arrays.
    values, candidates = numeric.tolist(), analytic.tolist()
    used = [False] * len(candidates)
    for idx in np.argsort(-np.abs(numeric)).tolist():
        v = values[idx]
        dist = [math.inf if u else abs(a - v) for a, u in zip(candidates, used)]
        nearest = min(dist)
        best = [j for j, d in enumerate(dist) if d == nearest]
        if len(best) > 1:
            signs = [j for j in best if np.sign(candidates[j]) == np.sign(v)]
            if signs:
                best = signs
        j = best[0]
        used[j] = True
        a = candidates[j]
        matched[idx] = a
        errors[idx] = abs(v - a) / abs(a) if abs(a) > 0.0 else abs(v)
    return matched, errors


def _mode_blocks(m: BlockNPMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """The Fourier mode blocks of W M W^-1, or None off the mode pattern.

    Each curve block A_ab of A = W M W^-1 (W = diag(m.weights)) becomes
    B_ab = F A_ab F^-1, F the DFT matrix, one block at a time.  A_ab is
    real, so B_ab[N - k, N - l] = conj(B_ab[k, l]) and only the rows
    k = 0 .. N/2 are formed (rfft down the columns, then ifft along the
    rows).  Returns the
    2 x 2 blocks of k = 0 and k = N/2, shape (2, 2, 2), and the 4 x 4
    blocks of k = 1 .. N/2 - 1 on the indices (inner, k), (inner, N - k),
    (outer, k), (outer, N - k), shape (N/2 - 1, 4, 4); their spectra
    together are the spectrum of M.  None when N is odd, or when some
    entry off the pairs (k, +-k) exceeds _MODE_TOL times the largest entry
    (always so if M holds a NaN or an inf).
    """
    N = len(m.weights) // 2
    if N % 2 or m.matrix.shape != (2 * N, 2 * N):
        return None
    k = np.arange(N // 2 + 1)
    minus_k = -k % N
    diag = np.empty((2, 2, len(k)), dtype=complex)  # [a, b, k]: B_ab[k, k]
    anti = np.empty_like(diag)  # [a, b, k]: B_ab[k, N - k]
    offs, bigs = [], []
    for a in (0, 1):
        rows = slice(a * N, (a + 1) * N)
        for b in (0, 1):
            cols = slice(b * N, (b + 1) * N)
            block = m.matrix[rows, cols] * m.weights[rows, None]
            block /= m.weights[cols]
            h = np.fft.ifft(np.fft.rfft(block, axis=0), axis=1)
            diag[a, b], anti[a, b] = h[k, k], h[k, minus_k]
            mag = np.abs(h)
            bigs.append(mag.max())
            mag[k, k] = mag[k, minus_k] = 0.0
            offs.append(mag.max())
    if not np.max(offs) <= _MODE_TOL * np.max(bigs):
        return None
    return _stack_modes(diag, anti)


def _stack_modes(diag: np.ndarray, anti: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ends, quads) of _mode_blocks from the entries B_ab[k, k] (diag) and
    B_ab[k, N - k] (anti), each of shape (2, 2, N/2 + 1)."""
    ends = diag[:, :, [0, -1]].transpose(2, 0, 1)
    d = diag[:, :, 1:-1].transpose(2, 0, 1)
    x = anti[:, :, 1:-1].transpose(2, 0, 1)
    # quads[k, a, s, b, t]: s, t = 0 for index k, 1 for index N - k.
    quads = np.stack(
        [np.stack([d, x], axis=-1), np.stack([x.conj(), d.conj()], axis=-1)], axis=2
    )
    return ends, quads.reshape(-1, 4, 4)


def mode_blocks_for(g: ConfocalGeometry, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The mode blocks of _mode_blocks(block_np_for(g, N)) from six kernel
    rows per curve block, in O(N log N).

    Each curve block of A = W M W^-1 has the form A[i, j] = c(i - j) +
    h(i + j), indices mod N (see the module docstring), so row r has the
    DFT R_r(l) = e^{-i r t} c^(-l) + e^{i r t} h^(l), t = 2 pi l / N.  Rows
    0 and 1 give h^(l) = (R_1 - e^{-i t} R_0) / (2 i sin t) and c^(-l) =
    R_0 - h^(l), for 0 < l < N/2; c is real, so c^(l) is the conjugate.
    The entries are diag[k] = c^(k) and anti[k] = h^(k), and at k = 0 and
    k = N/2 both are R_0(k).

    Rows 2 and N/3 .. N/3 + 2 are sampled as well, to check the form on
    both triples: A[i, j] - A[i+1, j+1] - A[i+1, j-1] + A[i+2, j] = 0 to
    within max(_MODE_TOL, N^2 2^-52) of the largest sampled entry (the
    module docstring gives the rounding model).  Raises EigensolveFailure
    when it does not hold (always so on a NaN or an inf), and
    sample_ellipse's ValueError for N odd or below 8.
    """
    # The weighted entries do not depend on the scale, so both curves are
    # sampled at R moved into [1, 2) by an exact power of two: every entry
    # keeps its bits, and no node offset squared under- or overflows.
    r_unit = math.ldexp(g.R, 1 - math.frexp(g.R)[1])
    curves = (sample_ellipse(r_unit, g.rho_i, N), sample_ellipse(r_unit, g.rho_e, N))
    third = N // 3
    rows = np.array([0, 1, 2, third, third + 1, third + 2])
    a = np.empty((2, 2, len(rows), N))  # a[p, q]: the sampled rows of A_pq
    for p, target in enumerate(curves):
        for q, src in enumerate(curves):
            block = _kernel_block(target, src, same=p == q, out=a[p, q], rows=rows)
            if p == 0:  # -K*_{Gi} and -dnu_i S_{Ge}, as in assemble_block_np
                np.negative(block, out=block)
            block *= target.weights[rows, None]
            block /= src.weights
    # The form's residual on rows 0-2 and on rows N/3 .. N/3 + 2.
    mid = a[:, :, [1, 4]]
    resid = a[:, :, [0, 3]] - np.roll(mid, -1, axis=-1) - np.roll(mid, 1, axis=-1)
    resid += a[:, :, [2, 5]]
    scale = np.max(np.abs(a))
    worst = np.max(np.abs(resid))
    tol = max(_MODE_TOL, N * N * 2.0**-52)
    if not worst <= tol * scale < math.inf:
        raise EigensolveFailure(
            f"sampled kernel rows break the Fourier mode form: residual"
            f" {worst / scale:.3e} of the largest entry exceeds {tol:.3e}"
        )
    r0, r1 = np.fft.rfft(a[:, :, :2], axis=-1).transpose(2, 0, 1, 3)
    t = 2.0 * math.pi * np.arange(1, N // 2) / N
    h = (r1[..., 1:-1] - np.exp(-1j * t) * r0[..., 1:-1]) / (2j * np.sin(t))
    diag, anti = r0.copy(), r0.copy()
    diag[..., 1:-1] = np.conj(r0[..., 1:-1] - h)
    anti[..., 1:-1] = h
    return _stack_modes(diag, anti)


def _mode_spectrum(
    ends: np.ndarray, quads: np.ndarray, count: int, geometry: ConfocalGeometry
) -> SpectrumReport:
    """numeric_spectrum from the mode blocks of _mode_blocks or mode_blocks_for.

    Only the blocks that can hold a top-`count` value are solved.  A
    block's spectral radius is at most its Frobenius norm, and so is a
    computed eigenvalue up to rounding of a few eps, covered by the factor
    1 + 1e-12 of `bound`.  The two end blocks and the ceil(count / 4) + 1
    quads of largest bound are solved first; the count-th largest |lambda|
    among them is a floor that every top value reaches, so one more call
    solves the other quads whose bound reaches it, and no quad left out
    holds a value that large.  The solved values stand in block order (k =
    0 .. N/2) before the sort, as when every block is solved.
    """
    bound = np.linalg.norm(quads, axis=(1, 2)) * (1.0 + 1e-12)
    by_bound = np.argsort(-bound)
    first = by_bound[: -(-count // 4) + 1]
    ev_ends, ev_first = _eigvals(ends), _eigvals(quads[first])
    floor = np.sort(np.abs(np.concatenate([ev_ends.ravel(), ev_first.ravel()])))[-count]
    rest = by_bound[len(first) : np.count_nonzero(bound >= floor)]
    ev_quads = np.empty((len(quads), 4), dtype=complex)
    ev_quads[first], ev_quads[rest] = ev_first, _eigvals(quads[rest])
    solved = np.sort(np.concatenate([first, rest]))
    ev = np.concatenate([ev_ends[0], ev_quads[solved].ravel(), ev_ends[1]])
    mode = np.concatenate([[0, 0], np.repeat(solved + 1, 4), [len(quads) + 1] * 2])
    order = np.argsort(-np.abs(ev))[:count]
    top, mode = ev[order].real, mode[order]
    lam1, lam2 = mode_eigenvalues(np.arange(1.0, max(1, int(mode.max())) + 1), geometry)
    matched = np.empty_like(top)
    errors = np.empty_like(top)
    for k in np.unique(mode):
        mine = mode == k
        if k == 0:
            candidates = np.array([0.5, -0.5])
        else:
            lam = np.array([lam1[k - 1], lam2[k - 1]])
            candidates = np.concatenate([lam, -lam])
        matched[mine], errors[mine] = _nearest_unused(top[mine], candidates)
    max_imag = float(np.max(np.abs(ev.imag)))
    return SpectrumReport(top, matched, errors, max_imag)


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

    For a BlockNPMatrix without explicit analytic values whose Fourier
    blocks decouple by mode (every block_np_for matrix; see _mode_blocks),
    the 2 x 2 and 4 x 4 mode blocks are solved in place of the matrix,
    the 4 x 4 ones only where their norm bound can reach the top (see
    _mode_spectrum); max_imag then covers the solved blocks only.  The
    top `count` values are those of the union of all block spectra, and
    each keeps its mode k and is paired with the nearest unused value of
    that mode's candidates: +-1/2 at k = 0 (the uniform-angle density on
    an ellipse is its equilibrium measure) and +-lambda_{1,k},
    +-lambda_{2,k} otherwise.

    Otherwise the dense matrix is solved and each value takes the nearest
    unused of all candidates: those passed in `analytic` (required for a
    plain matrix, and refused with a ValueError unless finite) or +-1/2, +-lambda_{1,n}, +-lambda_{2,n} of the
    geometry.  On both paths the lambdas come from mode_eigenvalues,
    which has no range guard, so a count reaching modes whose values fall
    below rounding is paired (with noise) rather than refused; the floor
    is (n/2)^2 2^-52 times the largest |entry| of the n x n matrix, the
    mode blocks' N^2 eps rounding.  Eigenvalues of the (real, nonsymmetric)
    matrix are theoretically real; the largest imaginary part is recorded
    and then discarded.
    """
    if isinstance(m, BlockNPMatrix):
        matrix = m.matrix
        if analytic is None and m.geometry is None:
            raise ValueError("block matrix carries no geometry; pass analytic values")
    else:
        matrix = np.asarray(m)
        if analytic is None:
            raise ValueError("plain matrices require explicit analytic values")
    if analytic is not None and not np.all(np.isfinite(analytic)):
        raise ValueError("analytic values must be finite")
    n = matrix.shape[0]
    if not 1 <= count <= n // 4:
        raise ValueError(f"count must be in [1, {n // 4}], got {count}")
    floor = (n / 2) ** 2 * 2.0**-52 * float(np.max(np.abs(matrix)))
    if analytic is None:
        blocks = _mode_blocks(m)
        if blocks is not None:
            return _mode_spectrum(*blocks, count, m.geometry)._replace(floor=floor)
        lam = np.concatenate(
            [[0.5], *mode_eigenvalues(np.arange(1.0, max(8, count + 1) + 1), m.geometry)])
        analytic = np.concatenate([lam, -lam])
    ev = _eigvals(matrix)
    max_imag = float(np.max(np.abs(ev.imag))) if ev.size else 0.0
    top = ev[np.argsort(-np.abs(ev))[:count]].real
    matched, errors = _nearest_unused(top, np.asarray(analytic, dtype=float))
    return SpectrumReport(top, matched, errors, max_imag, floor)


def transmission_energy(sc: Coefficients, g: ConfocalGeometry, delta: float) -> float:
    """E_delta of the truncated source sc on g from the transmission
    conditions, mode by mode in closed form, with no mode table,
    projection or density.

    Mode n of span sigma (+1: cos(n omega), F_n^+ and cosh; -1:
    sin(n omega), F_n^- and sinh) is A c(n rho) / c(n rho_i) in the core,
    B e^{n rho} + C e^{-n rho} in the shell of permittivity
    eps = -1 + i delta and F_n c(n rho) + D e^{-n rho} outside.  With
    q = e^{-2 n rho_i}, t = c'/c at n rho_i = (1 - sigma q) / (1 + sigma q),
    E = e^{-n (rho_e - rho_i)} and F~ = F_n e^{n rho_e}, continuity of the
    profile and of eps times its rho derivative on both interfaces give
    the scaled unknowns

        B' = B e^{n rho_e} = F~ (t + eps) / den,
        C' = C e^{-n rho_i} = -E F~ (t - eps) / den,
        den = i delta (t + eps) - E^2 (2 - i delta) (t - eps),

    and E_delta = delta pi sum_n n (1 - E^2) (|B'|^2 + |C'|^2) over both
    spans.  t + eps = (t - 1) + i delta takes t - 1 = -2 sigma q /
    (1 + sigma q) as formed, since (t + 1) - 2 would lose about 1/delta
    of its digits.  The squares are taken through solver._energies, so
    OverflowGuard means some F~ or E itself is out of double range; no
    bound on n_max applies.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    n = np.arange(1, sc.n_max + 1, dtype=float)
    sigma = np.array([[1.0], [-1.0]])  # (span, mode) arrays
    q = sigma * np.exp(-2.0 * n * g.rho_i)
    gap = np.exp(-n * (g.rho_e - g.rho_i))
    # F_n times e^{n rho_e / 2} twice: a point source's F_n that has
    # underflowed to 0 stays 0 up to n rho_e = 1419, where e^{n rho_e}
    # alone is inf.
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * n * g.rho_e)
        f = np.array([sc.f_plus, sc.f_minus]) * half * half
    if not np.all(np.isfinite(f)):
        raise OverflowGuard("source coefficients F_n e^{n rho_e} leave double range")
    t_eps = -2.0 * q / (1.0 + q) + 1j * delta  # t + eps
    t_neps = 2.0 / (1.0 + q) - 1j * delta  # t - eps
    f_den = f / (1j * delta * t_eps - gap * gap * (2.0 - 1j * delta) * t_neps)
    amp = np.abs(np.concatenate([f_den * t_eps, gap * f_den * t_neps]))[:, None]
    weight = n * -np.expm1(-2.0 * n * (g.rho_e - g.rho_i))
    return _energies(amp, lambda w: weight * np.sum((amp * w) ** 2, axis=0),
                     math.pi, [delta], [sc.n_max])[0]


def _check(name: str, observed: float, threshold: float, status=None):
    """A validate check: pass iff observed < threshold, unless status is given."""
    return {
        "name": name,
        "status": status or ("pass" if observed < threshold else "fail"),
        "observed": float(observed),
        "threshold": float(threshold),
    }


def _relative(jump: float, scale: float) -> float:
    """jump / scale, where a jump measured against a zero scale is 0 (a zero source)."""
    return jump / scale if scale > 0.0 else (0.0 if jump == 0.0 else math.inf)


def _mat_vec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Mode-by-mode products of 2x2 matrices (..., 2, 2, n) with vectors
    (..., 2, n), as elementwise products and sums."""
    return mats[..., 0, :] * vecs[..., None, 0, :] + mats[..., 1, :] * vecs[..., None, 1, :]


def validate(
    g: ConfocalGeometry,
    source: SourceSpec | None = None,
    n_nystrom: int = 256,
    n_modes: int = 3,
) -> list[dict]:
    """The checks of `calr-lab validate` (see the module docstring), in order.

    The default source is a dipole at (rho_e + 0.5, 0.9), moment (1, 0.4).
    Before any work, InputError refuses n_nystrom (nodes per curve)
    odd, below 8 or so large that its float64 nodes exceed numpy's index
    range (a smaller size that cannot be allocated raises MemoryError),
    n_modes below 1, and 2 + 4 n_modes > n_nystrom / 2,
    then adaptive_n_max (OverflowGuard) a loss of steps 5-6 that needs
    more modes than doubles hold, and SourceInsideShell (an InputError) a
    source not strictly outside the shell; OverflowGuard follows for a
    source whose coefficients or densities are not doubles.  Steps 1
    and 2 read one mode_blocks_for call (below 64 nodes, step 2 reads a
    second one on 64).  Nothing depends on the scale
    R: the curves' overlap guard (_kernel_block) is relative to their size,
    and mode_blocks_for samples them at R moved into [1, 2).
    The solve's TruncationWarnings are attributed to the caller of validate.
    """
    if n_nystrom < 8 or n_nystrom % 2:
        raise InputError(f"n_nystrom: must be even and >= 8, got {n_nystrom}")
    if 8 * n_nystrom > np.iinfo(np.intp).max:
        raise InputError(f"n_nystrom: {n_nystrom} float64 nodes exceed numpy's index range")
    if n_modes < 1:
        raise InputError(f"n_modes: must be >= 1, got {n_modes}")
    count = 2 + 4 * n_modes
    if count > n_nystrom // 2:
        raise InputError(
            f"n_modes: 2 + 4 * n_modes = {count} exceeds n_nystrom / 2 = {n_nystrom // 2}"
        )
    if source is None:
        source = Dipole(EllipticPoint(g.rho_e + 0.5, 0.9), np.array([1.0, 0.4]))
    # One solve serves steps 3-7: rows +delta and -delta (steps 5 and 7)
    # and step 6's losses, each at its own truncation.
    delta = 1e-3
    deltas = [delta, -delta] + [10.0 ** (-k) for k in range(2, 7)]
    n_maxes = [adaptive_n_max(abs(d), g) for d in deltas]
    n_top = max(n_maxes)
    sc = newtonian_coefficients(source, n_top, g.R, rho_e=g.rho_e)
    # 1. Nystrom block spectrum against the closed-form eigenvalues, solved
    # mode by mode from a few kernel rows per curve block.
    blocks = mode_blocks_for(g, n_nystrom)
    rep = _mode_spectrum(*blocks, count, g)
    keep = np.abs(rep.matched) != 0.5
    worst = float(np.max(rep.rel_errors[keep])) if keep.any() else 0.0
    spectrum = _check("nystrom_spectrum", worst, 1e-6)
    if n_nystrom < 64 and spectrum["status"] == "fail":
        # Below 64 nodes a miss is too coarse to certify convergence either way.
        spectrum["status"] = "indeterminate"

    # 2. K* on Gamma_i maps 1/Xi to 1/(2 Xi): the k = 0 entry of the
    # inner-inner block, -K* on the constant of the weighted basis, is
    # -1/2.  It is read from step 1's blocks, on at least 64 nodes.
    ends = (blocks if n_nystrom >= 64 else mode_blocks_for(g, 64))[0]
    checks = [spectrum, _check("alpha0_half", abs(ends[0, 0, 0] + 0.5), 1e-8)]

    # Steps 3 and 4 read 50 modes, more than the solve's n_top when
    # rho_e - rho_i >= 2 ln(1e6) / 9 (about 3.07); truncated tables equal
    # fresh ones bit for bit.
    table = mode_table(g, max(n_top, 50))
    solved = _solve(sc, g, deltas, n_maxes, table.truncated(n_top), energies=True)
    table = table.truncated(50)
    vecs, norms = table.pairs, table.norms

    # 3. Eigen-residuals (componentwise) of each family of the table, n = 1
    # .. 50 at once, under A_n or B_n of its span: (4, 2, 2, n) matrices.
    mats, lam = block_matrices(table.n, g)[FAMILY_PARITY], table.eigenvalues[:, None]
    num = np.abs(_mat_vec(mats, vecs) - lam * vecs)
    den = _mat_vec(np.abs(mats), np.abs(vecs)) + np.abs(lam) * np.abs(vecs)
    worst = float(np.max(num / den))
    checks.append(_check("eigen_residuals", worst, 1e-12))

    # 4. Mode norms against the Gram closed form (s_gram) at six of those
    # modes, and Gram positivity.
    k = np.array([1, 2, 5, 10, 25, 50]) - 1
    grams = s_gram(table.n[k], g)
    try:
        np.linalg.cholesky(grams.transpose(0, 3, 1, 2))
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    # Each family's norm against the quadratic form v.G v of its span.
    v = vecs[..., k]
    gv = _mat_vec(grams[FAMILY_PARITY], v)
    quad = gv[:, 0] * v[:, 0] + gv[:, 1] * v[:, 1]
    worst = float(np.max(np.abs(quad - norms[:, k]) / np.abs(norms[:, k])))
    checks.append(_check("s_norms", worst, 1e-12, None if pd else "fail"))

    # 5. Transmission conditions for the source, from the +-delta rows cut
    # to their truncation; one layer-sum pass serves steps 5 and 7, and V
    # is the layer sums plus F, as eval_potentials(source, ...) forms it.
    dc, e_direct, e_spectral = solved
    rows = dc[:, :, :2, : n_maxes[0]]
    stencil = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3, -15.0 / 4, 6.0 / 5, -1.0 / 6])
    h = 1e-4
    omegas = np.linspace(0.07, 2.0 * math.pi - 0.13, 12)
    steps = np.arange(len(stencil)) * h
    shell = -1.0 + 1j * delta
    # Per interface, columns: the continuity pair, then the inner and outer
    # stencils; then step 7's three points, one per region.
    radii = np.array([
        np.concatenate([[rho_t - 1e-9, rho_t + 1e-9], rho_t - steps, rho_t + steps])
        for rho_t in (g.rho_i, g.rho_e)
    ])
    rho5, omega5 = np.broadcast_arrays(radii[:, None, :], omegas[:, None])
    rhos = [0.5 * g.rho_i, 0.5 * (g.rho_i + g.rho_e), g.rho_e + 0.3]
    rho_pts = np.concatenate([rho5.ravel(), rhos])
    omega_pts = np.concatenate([omega5.ravel(), [0.3, 2.0, 4.0]])
    # The stencils difference the layer sums alone: near the shell V's
    # variation can fall below the rounding of F's constant part.  F is
    # smooth across both interfaces, so its rho derivative is added on
    # both sides in closed form, grad F . dx/drho.
    on_curves = np.array([[g.rho_i], [g.rho_e]])
    with np.errstate(all="ignore"):  # a value out of range is refused below
        layers = _layer_sums(rows, g, rho_pts, omega_pts)
        both = layers + elliptic_potential(source, g.R, rho_pts, omega_pts)
        grad = newtonian_gradient(source, cartesian(g.R, on_curves, omegas), g.R)
        d_f = np.sum(grad * tangents(g.R, on_curves, omegas)[0], axis=-1)
    if not (np.all(np.isfinite(both)) and np.all(np.isfinite(d_f))):
        raise OverflowGuard("potential leaves double range")
    values, at_7 = both[0, : rho5.size].reshape(rho5.shape), both[:, rho5.size :]
    sums = layers[0, : rho5.size].reshape(rho5.shape)
    # The fluxes on both sides of each interface, (interface, omega): the
    # permittivity inside (1, shell) and outside (shell, 1) times the
    # one-sided rho derivative.
    d_in = d_f - np.sum(sums[..., 2 : 2 + len(stencil)] * stencil, axis=-1) / h
    d_out = d_f + np.sum(sums[..., 2 + len(stencil) :] * stencil, axis=-1) / h
    fi, fo = np.array([[1.0], [shell]]) * d_in, np.array([[shell], [1.0]]) * d_out
    # Each check's worst interface, relative to that interface's own scale.
    worst_c = max(map(_relative, np.max(np.abs(values[..., 0] - values[..., 1]), axis=1).tolist(),
                      np.max(np.abs(values[..., 0]), axis=1).tolist()))
    worst_f = max(map(_relative, np.max(np.abs(fi - fo), axis=1).tolist(),
                      np.max(np.maximum(np.abs(fi), np.abs(fo)), axis=1).tolist()))
    checks.append(_check("continuity", worst_c, 1e-6))
    checks.append(_check("flux_jump", worst_f, 1e-8))

    # 6. Spectral surrogate stays within a bounded factor of the direct
    # energy.  A loss without energy (a zero source) has no ratio to bound.
    energies = zip(e_direct[2:], e_spectral[2:])
    ratios = [e / e_spec for e, e_spec in energies if e or e_spec]
    spread = max(ratios) / min(ratios) if ratios else math.nan
    status = None if ratios else "indeterminate"
    checks.append(_check("surrogate_ratio", spread, 10.0, status))

    # 7. Conjugation symmetry: z(-delta) = conj(z(delta)) pointwise in V,
    # from the two rows evaluated with step 5.
    vp, vm = at_7
    worst = float(np.max(np.abs(vm - np.conj(vp)) / np.maximum(np.abs(vp), 1e-30)))
    checks.append(_check("reality_symmetry", worst, 1e-13))

    # 8. The closed energy of the +delta row against the per-mode
    # transmission solve, which reads the source coefficients alone.
    direct = transmission_energy(sc.truncated(n_maxes[0]), g, delta)
    observed = _relative(abs(e_direct[0] - direct), e_direct[0])
    checks.append(_check("direct_energy", observed, 1e-12))
    return checks
