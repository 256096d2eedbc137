"""Independent routes that check the closed-form production path.

Each route recomputes by another method a closed form of spectrum, source
or solver, and serves only for cross-validation.

- The Nystrom spectrum (numeric_spectrum) discretizes the block operator

      [ -K*_{Gi}        -dnu_i S_{Ge} ]
      [ +dnu_e S_{Gi}   +K*_{Ge}      ]

  by the trapezoid rule on both interfaces from Cartesian node data
  alone; mode_table only supplies the values it is compared against.  No
  option alters a block: tests negate one by hand to show it is caught.
- The energy quadrature (dissipated_power_direct: Gauss-Legendre in rho,
  trapezoid in omega) reuses the spectral densities and checks only the
  energy sum of dissipated_power_closed.
- The shell gradient it integrates (eval_gradient_shell) is a separable
  mode sum, independent of the Horner evaluator behind eval_potentials.
  It keeps its (n_rho, n_max) @ (n_max, n_omega) form (_layer_radial):
  point by point the 128 x 512 grid would cost 65536 n_max entries.
- The projection oracle (coefficient_projection_oracle) samples the
  closed-form newtonian_eval and never reads newtonian_coefficients.

On confocal ellipses the operator couples no two Fourier modes: with the
node weights W of both curves, A = W M W^-1 has entries w_i k(x_i, y_j),
and in elliptic coordinates each of its four N x N curve blocks is a sum
of functions of omega - omega' and omega + omega'.  For N even and
equispaced nodes omega_j = 2 pi j / N, the discrete Fourier similarity
F A F^-1 of each block is therefore zero off the index pairs (k, +-k).
numeric_spectrum checks that pattern and then solves one 4 x 4 block per
mode k = 1 .. N/2 - 1 (on the indices k and N - k of both curves) and a
2 x 2 block at k = 0 and k = N/2, in place of the dense 2N x 2N matrix.

For disjoint analytic curves all kernels are smooth (the diagonal of K*
has the removable-singularity limit kappa/(4*pi)), so plain trapezoid
converges spectrally and no singular quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveOverlap, EigensolveFailure
from .geometry import ConfocalGeometry, SampledCurve, cartesian, sample_ellipse, tangents
from .solver import DensityCoefficients
from .source import (
    ChargePair,
    Coefficients,
    Dipole,
    SourceSpec,
    newtonian_eval,
    newtonian_gradient,
)
from .spectrum import mode_table

__all__ = [
    "BlockNPMatrix",
    "SpectrumReport",
    "np_kernel",
    "assemble_np",
    "assemble_block_np",
    "numeric_spectrum",
    "sample_circle",
    "eval_gradient_shell",
    "dissipated_power_direct",
    "coefficient_projection_oracle",
]

_MIN_CURVE_GAP = 1e-8

# Largest Fourier-block entry off the (k, +-k) pattern, relative to the
# largest entry, below which numeric_spectrum solves mode by mode.  Exact
# decoupling leaves rounding only (about 1e-15 at N = 1024).
_MODE_TOL = 1e-12


@dataclass(frozen=True)
class BlockNPMatrix:
    """Dense 2N x 2N discretization of the block operator.

    `matrix` has the quadrature weights folded in, so its eigenvalues
    approximate the operator spectrum directly.  `weights` holds the node
    weights of the inner then the outer curve, shape (2N,), which the
    Fourier mode blocks are taken in.  The geometry is kept so that
    numeric_spectrum can produce the matching analytic values.
    """

    matrix: np.ndarray = field(repr=False)
    geometry: ConfocalGeometry | None
    weights: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SpectrumReport:
    """Numeric eigenvalues paired with their analytic counterparts.

    Eigenvalues are sorted by decreasing magnitude.  `matched` holds the
    analytic value assigned to each numeric one (the nearest unused
    candidate of its own Fourier mode k, or of the whole candidate list on
    the dense path), `rel_errors` the pairwise relative error (absolute
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


def _kernel_block(
    target: SampledCurve, src: SampledCurve, same: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Weighted kernel matrix K[i, j] = k(x_i, y_j) w_j, vectorized; it is
    written into `out` when given.

    The offset planes d1 = x_i1 - y_j1 and d2 = x_i2 - y_j2 are updated in
    place, so the block allocates d1, d2, r^2 and one square besides the
    result.  Every entry is still (d1 n1 + d2 n2) / (2 pi r^2) w_j with
    r^2 = d1^2 + d2^2, each operation rounded as in that expression, so
    the block equals its out-of-place form bit for bit.
    """
    tx, tn, sy = target.nodes, target.normals, src.nodes
    d1 = tx[:, 0:1] - sy[None, :, 0]
    d2 = tx[:, 1:2] - sy[None, :, 1]
    r_sq = d1 * d1
    r_sq += d2 * d2
    if same:
        np.fill_diagonal(r_sq, 1.0)
    else:
        gap = math.sqrt(float(np.min(r_sq)))
        if gap < _MIN_CURVE_GAP:
            raise CurveOverlap(
                f"curves approach within {gap:.3e} (< {_MIN_CURVE_GAP})"
            )
    d1 *= tn[:, 0:1]
    d2 *= tn[:, 1:2]
    d1 += d2
    r_sq *= 2.0 * math.pi
    d1 /= r_sq
    if same:
        np.fill_diagonal(d1, target.curvature / (4.0 * math.pi))
    return np.multiply(d1, src.weights, out=out)


def assemble_np(curve: SampledCurve) -> np.ndarray:
    """Single-curve Nystrom matrix for K* (diagnostic mode)."""
    return _kernel_block(curve, curve, same=True)


def assemble_block_np(
    gi: SampledCurve, ge: SampledCurve, geometry: ConfocalGeometry | None = None
) -> BlockNPMatrix:
    """Assemble the weighted 2N x 2N block matrix for two disjoint curves.

    Its first N x N block is -assemble_np(gi) bit for bit.
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
    ends = diag[:, :, [0, -1]].transpose(2, 0, 1)
    d = diag[:, :, 1:-1].transpose(2, 0, 1)
    x = anti[:, :, 1:-1].transpose(2, 0, 1)
    # quads[k, a, s, b, t]: s, t = 0 for index k, 1 for index N - k.
    quads = np.stack(
        [np.stack([d, x], axis=-1), np.stack([x.conj(), d.conj()], axis=-1)], axis=2
    )
    return ends, quads.reshape(-1, 4, 4)


def _mode_spectrum(
    ends: np.ndarray, quads: np.ndarray, count: int, geometry: ConfocalGeometry
) -> SpectrumReport:
    """numeric_spectrum from the mode blocks of _mode_blocks."""
    ev_ends, ev_quads = _eigvals(ends), _eigvals(quads)
    ev = np.concatenate([ev_ends[0], ev_quads.ravel(), ev_ends[1]])
    mode = np.repeat(np.arange(len(quads) + 2), [2] + [4] * len(quads) + [2])
    order = np.argsort(-np.abs(ev))[:count]
    top, mode = ev[order].real, mode[order]
    table = mode_table(geometry, max(1, int(mode.max())))
    matched = np.empty_like(top)
    errors = np.empty_like(top)
    for k in np.unique(mode):
        mine = mode == k
        if k == 0:
            candidates = np.array([0.5, -0.5])
        else:
            lam = np.array([table.lambda1[k - 1], table.lambda2[k - 1]])
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
    the 2 x 2 and 4 x 4 mode blocks are solved in place of the matrix.
    The top `count` values are taken over the union of their spectra, and
    each keeps its mode k and is paired with the nearest unused value of
    that mode's candidates: +-1/2 at k = 0 (the uniform-angle density on
    an ellipse is its equilibrium measure) and +-lambda_{1,k},
    +-lambda_{2,k} otherwise.

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
        blocks = _mode_blocks(m)
        if blocks is not None:
            return _mode_spectrum(*blocks, count, m.geometry)
        table = mode_table(m.geometry, max(8, count + 1))
        lam = np.concatenate([[0.5], table.lambda1, table.lambda2])
        analytic = np.concatenate([lam, -lam])
    ev = _eigvals(matrix)
    max_imag = float(np.max(np.abs(ev.imag))) if ev.size else 0.0
    top = ev[np.argsort(-np.abs(ev))[:count]].real
    matched, errors = _nearest_unused(top, np.asarray(analytic, dtype=float))
    return SpectrumReport(top, matched, errors, max_imag)


def _layer_radial(
    n: np.ndarray, g: ConfocalGeometry, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Radial factors of the layers on rho_i and rho_e at each radius.

    With near = e^{-n |rho - rho_k|} and far = e^{-n (rho + rho_k)} (no
    exponent is positive), returns (near + far) / 2 and (near - far) / 2,
    each of shape (2,) + rho.shape + (n_max,) with index 0 for rho_i and
    1 for rho_e.  Mode n of the layer potential of phi_n_c (phi_n_s) on
    rho_k is that half over -n times cos (sin)(n omega) in every region;
    d/drho turns the halves into n (sigma_k near -+ far) / 2 with
    sigma_k = sign(rho_k - rho).
    """
    r = np.asarray(rho, dtype=float)[..., None]
    rk = np.reshape([g.rho_i, g.rho_e], (2,) + (1,) * r.ndim)
    near, far = np.exp(-n * np.abs(r - rk)), np.exp(-n * (r + rk))
    return 0.5 * (near + far), 0.5 * (near - far)


def _series_radial(sc: Coefficients, rho) -> tuple[np.ndarray, ...]:
    """Mode indices n and F^+- cosh(n rho), F^+- sinh(n rho) at each rho.

    The plain product F_n * cosh(n rho) can overflow long before the term
    itself leaves double range (tiny coefficient times huge hyperbolic),
    so the radial factors are folded into the coefficient logs first.
    Returns (n, fp_ch, fp_sh, fm_ch, fm_sh), the factors of shape
    rho.shape + (len(f_plus),).
    """
    n = np.arange(1, len(sc.f_plus) + 1, dtype=float)
    nr = np.asarray(rho, dtype=float)[..., None] * n
    with np.errstate(divide="ignore"):
        log_ch = nr + np.log1p(np.exp(-2.0 * nr)) - math.log(2.0)
        log_sh = nr + np.log1p(-np.exp(-2.0 * nr)) - math.log(2.0)
        log_p = np.log(np.abs(sc.f_plus))
        log_m = np.log(np.abs(sc.f_minus))
        sp, sm = np.sign(sc.f_plus), np.sign(sc.f_minus)
        fp_ch, fp_sh = sp * np.exp(log_p + log_ch), sp * np.exp(log_p + log_sh)
        fm_ch, fm_sh = sm * np.exp(log_m + log_ch), sm * np.exp(log_m + log_sh)
    return n, fp_ch, fp_sh, fm_ch, fm_sh


def _shell_gradient_grid(
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    rhos: np.ndarray,
    omegas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dV/drho, dV/domega) on the tensor grid rhos x omegas in the shell.

    Separable matmuls over the modes keep the cost at (n_rho + n_omega)
    n_max entries rather than n_rho n_omega n_max.
    """
    n = np.arange(1, len(dc.p_cos) + 1, dtype=float)
    (chi, che), (shi, she) = _layer_radial(n, g, rhos)

    cw = np.cos(np.outer(n, omegas))
    sw = np.sin(np.outer(n, omegas))

    # In the shell sigma_i = -1 and sigma_e = +1 (also on the interfaces).
    a_rho = dc.p_cos * chi - dc.q_cos * she
    b_rho = dc.p_sin * shi - dc.q_sin * che
    a_om = dc.p_cos * chi + dc.q_cos * che
    b_om = -dc.p_sin * shi - dc.q_sin * she

    d_rho = a_rho @ cw + b_rho @ sw
    d_omega = a_om @ sw + b_om @ cw
    if isinstance(source, Coefficients):
        # The same contraction for the series, at its own truncation.
        m, fp_ch, fp_sh, fm_ch, fm_sh = _series_radial(source, rhos)
        cw, sw = np.cos(np.outer(m, omegas)), np.sin(np.outer(m, omegas))
        f_rho = (m * fp_sh) @ cw + (m * fm_ch) @ sw
        f_omega = (m * fm_sh) @ cw - (m * fp_ch) @ sw
    else:
        grad = newtonian_gradient(source, cartesian(g.R, rhos[:, None], omegas), g.R)
        t_rho, t_omega = tangents(g.R, rhos[:, None], omegas)
        f_rho, f_omega = (grad * t_rho).sum(axis=-1), (grad * t_omega).sum(axis=-1)
    return d_rho + f_rho, d_omega + f_omega


def eval_gradient_shell(
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    rho: float,
    omega: float,
) -> tuple[complex, complex]:
    """(dV/drho, dV/domega) at a single shell point."""
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
    source: SourceSpec,
    dc: DensityCoefficients,
    g: ConfocalGeometry,
    delta: float,
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
    if n_omega is None:
        n_omega = max(4 * len(dc.p_cos) + 2, 512)
    rhos, w_rho = _gauss_panels(g.rho_i, g.rho_e, n_panels, gl_order)
    omegas = 2.0 * math.pi * np.arange(n_omega) / n_omega
    d_rho, d_omega = _shell_gradient_grid(source, dc, g, rhos, omegas)
    density = np.abs(d_rho) ** 2 + np.abs(d_omega) ** 2
    return delta * float(w_rho @ density.sum(axis=1)) * (2.0 * math.pi / n_omega)


def coefficient_projection_oracle(
    s: SourceSpec, rho_t: float, n_max: int, R: float
) -> Coefficients:
    """Recover expansion data by Fourier projection on a test ellipse.

    Samples F on {rho = rho_t} (which must lie strictly below the source)
    at M = max(8 n_max, 512) equispaced angles and divides the Fourier
    coefficients by the known radial factors.  This route never touches
    the closed-form expansion coefficients, so it serves as an independent
    check of newtonian_coefficients.
    """
    if isinstance(s, Dipole):
        rho0 = s.location.rho
    elif isinstance(s, ChargePair):
        rho0 = min(s.plus.rho, s.minus.rho)
    elif isinstance(s, Coefficients):
        rho0 = math.inf
    else:
        raise TypeError(f"unsupported source type {type(s).__name__}")
    if not 0.0 < rho_t < rho0:
        raise ValueError(f"need 0 < rho_t < source radius, got rho_t = {rho_t}")

    m_nodes = max(8 * n_max, 512)
    omegas = 2.0 * math.pi * np.arange(m_nodes) / m_nodes
    values = newtonian_eval(s, cartesian(R, rho_t, omegas), R)

    spec = np.fft.rfft(values)
    n = np.arange(1, n_max + 1, dtype=float)
    cos_coeff = 2.0 * spec[1 : n_max + 1].real / m_nodes
    sin_coeff = -2.0 * spec[1 : n_max + 1].imag / m_nodes
    f_plus = cos_coeff / np.cosh(n * rho_t)
    f_minus = sin_coeff / np.sinh(n * rho_t)
    return Coefficients(float(spec[0].real) / m_nodes, f_plus, f_minus)
