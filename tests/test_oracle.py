"""Tests for the Nystrom cross-check oracle.

The oracle is itself validated from first principles here: kernel limits
on circles, exact equilibrium-density identities, and eigenvector actions
that are known in closed form without touching the spectrum module.
"""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import calr_lab
from calr_lab import (
    ConfocalGeometry,
    CurveOverlap,
    EigensolveFailure,
    SampledCurve,
    metric_factor,
    mode_table,
    sample_ellipse,
)
from calr_lab import cli, oracle, solver, source
from calr_lab.errors import InputError, TruncationWarning
from calr_lab.geometry import cartesian, ellipse_curvature, tangents
from calr_lab.oracle import (
    BlockNPMatrix,
    assemble_block_np,
    assemble_np,
    np_kernel,
    numeric_spectrum,
    sample_circle,
)
from calr_lab.oracle import block_np_for
from calr_lab.spectrum import mode_eigenvalues

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
THICK = ConfocalGeometry(1.0, 0.2, 1.0)


def test_circle_kernel_is_constant():
    """On a circle of radius r the kernel equals 1/(4 pi r) everywhere."""
    radius, N = 1.7, 64
    curve = sample_circle(radius, N)
    want = 1.0 / (4.0 * math.pi * radius)
    vals = [np_kernel(curve, i, j) for i in range(0, N, 7) for j in range(N)]
    assert max(abs(v - want) for v in vals) < 1e-14


def test_circle_spectrum_is_half_and_zeros():
    """The circle operator has eigenvalue 1/2 (constants) and 0 otherwise."""
    curve = sample_circle(1.0, 128)
    report = numeric_spectrum(
        assemble_np(curve), 5, analytic=np.array([0.5, 0.0, 0.0, 0.0, 0.0])
    )
    assert report.worst < 1e-12
    assert report.max_imag < 1e-10


def test_kernel_diagonal_is_curvature_limit():
    curve = sample_ellipse(1.0, 0.8, 64)
    for i in (0, 5, 16, 40):
        assert np_kernel(curve, i, i) == curve.curvature[i] / (4.0 * math.pi)


def test_kernel_near_diagonal_approaches_limit():
    """Adjacent off-diagonal entries converge to the curvature limit as
    the grid refines (removable singularity)."""
    curve = sample_ellipse(1.0, 0.8, 4096)
    want = curve.curvature[0] / (4.0 * math.pi)
    assert abs(np_kernel(curve, 0, 1) - want) < 1e-2 * want


def test_kernel_is_asymmetric_on_ellipse():
    """K* is genuinely non-self-adjoint on a non-circular curve: swapping
    target and source changes the value at order one."""
    N = 64
    curve = sample_ellipse(1.0, 0.8, N)
    a = np_kernel(curve, 0, N // 4)
    b = np_kernel(curve, N // 4, 0)
    assert abs(a - b) > 0.1 * max(abs(a), abs(b))


def test_equilibrium_density_identity():
    """K*[1/Xi] = (1/2)(1/Xi) on any ellipse: the uniform-angle density is
    the equilibrium measure, giving an exact eigenvector to test against."""
    for rho0 in (THIN.rho_i, THIN.rho_e):
        N = 256
        curve = sample_ellipse(1.0, rho0, N)
        om = 2.0 * math.pi * np.arange(N) / N
        dens = 1.0 / np.asarray(metric_factor(1.0, rho0, om))
        resid = assemble_np(curve) @ dens - 0.5 * dens
        assert np.max(np.abs(resid)) < 1e-8 * np.max(dens)


def test_block_eigenvector_action():
    """The weighted block matrix reproduces the four closed-form
    eigenvector actions M v = lambda v at the quadrature nodes."""
    N = 512
    m = block_np_for(THIN, N).matrix
    om = 2.0 * math.pi * np.arange(N) / N
    xii = np.asarray(metric_factor(1.0, THIN.rho_i, om))
    xie = np.asarray(metric_factor(1.0, THIN.rho_e, om))
    table = mode_table(THIN, 8)
    for n in (1, 2, 5):
        row = table.row(n)
        families = (
            (row.a1, row.b, np.cos(n * om), row.lambda1),
            (row.a2, row.b, np.cos(n * om), row.lambda2),
            (row.b, row.a2, np.sin(n * om), -row.lambda1),
            (row.b, row.a1, np.sin(n * om), -row.lambda2),
        )
        for c_i, c_e, trig, lam in families:
            v = np.concatenate([c_i * trig / xii, c_e * trig / xie])
            resid = m @ v - lam * v
            assert np.max(np.abs(resid)) < 1e-6 * np.max(np.abs(v))


def test_single_ellipse_spectrum():
    """One isolated ellipse has eigenvalues 1/2 and +-exp(-2 n rho0)/2."""
    rho0, N = 0.8, 256
    curve = sample_ellipse(1.0, rho0, N)
    alphas = np.array([0.5 * math.exp(-2.0 * n * rho0) for n in range(1, 7)])
    analytic = np.concatenate([[0.5], alphas, -alphas])
    report = numeric_spectrum(assemble_np(curve), 13, analytic=analytic)
    assert report.worst < 1e-6


def test_block_spectrum_matches_and_converges():
    """Numeric block eigenvalues match the analytic table, and the error
    contracts at least fourth-order under refinement (down to roundoff)."""
    errors = {}
    for N in (64, 128, 256):
        report = numeric_spectrum(block_np_for(THIN, N), 18)
        errors[N] = max(report.worst, 1e-16)
        assert report.max_imag < 1e-8
    assert errors[256] < 1e-6
    assert errors[128] <= max(errors[64] / 4.0, 1e-12)
    assert errors[256] <= max(errors[128] / 4.0, 1e-12)


def test_block_spectrum_thick_geometry():
    report = numeric_spectrum(block_np_for(ConfocalGeometry(1.0, 0.2, 1.0), 256), 18)
    assert report.worst < 1e-6


def test_flip_is_detected():
    """A sign transcription error in the (1,1) block must blow the
    spectral comparison far past every tolerance in use."""
    m = block_np_for(THIN, 128)
    np.negative(m.matrix[:128, :128], out=m.matrix[:128, :128])
    assert numeric_spectrum(m, 18).worst > 1e-3


def test_single_curve_spectrum_is_real_and_contained():
    ev = np.linalg.eigvals(assemble_np(sample_ellipse(1.0, 0.8, 128)))
    assert np.max(np.abs(ev.imag)) < 1e-8
    assert np.all(ev.real > -0.5 - 1e-8)
    assert np.all(ev.real < 0.5 + 1e-8)


def test_block_spectrum_symmetry():
    """Away from +1/2, the block spectrum is symmetric under negation."""
    ev = np.sort(np.linalg.eigvals(block_np_for(THIN, 128).matrix).real)
    trimmed = ev[np.abs(np.abs(ev) - 0.5) > 1e-6]
    assert np.max(np.abs(np.sort(trimmed) + np.sort(-trimmed)[::-1])) < 1e-8


def test_oracle_runtime():
    start = time.time()
    numeric_spectrum(block_np_for(THIN, 256), 18)
    assert time.time() - start < 10.0


def test_overlap_guard():
    gi = sample_ellipse(1.0, 0.5, 64)
    with pytest.raises(CurveOverlap):
        assemble_block_np(gi, gi)


def test_mismatched_curve_sizes():
    with pytest.raises(ValueError):
        assemble_block_np(sample_ellipse(1.0, 0.5, 64), sample_ellipse(1.0, 0.8, 32))


def test_count_validation():
    block = block_np_for(THIN, 64)
    with pytest.raises(ValueError):
        numeric_spectrum(block, 0)
    with pytest.raises(ValueError):
        numeric_spectrum(block, 64)  # > 2N/4


def test_plain_matrix_requires_analytic():
    with pytest.raises(ValueError):
        numeric_spectrum(np.eye(16), 2)
    with pytest.raises(ValueError):
        numeric_spectrum(BlockNPMatrix(np.eye(16), None, np.ones(16)), 2)


def test_eigensolve_failure_is_reported():
    bad = np.full((16, 16), np.nan)
    with pytest.raises(EigensolveFailure):
        numeric_spectrum(bad, 2, analytic=np.zeros(4))


def test_sample_circle_validation():
    with pytest.raises(ValueError):
        sample_circle(1.0, 4)


def test_block_assembly_matches_np_block():
    """Writing the kernel blocks into one preallocated matrix gives the
    matrix of np.block bit for bit, and the weights of both curves."""
    gi, ge = sample_ellipse(1.0, THIN.rho_i, 64), sample_ellipse(1.0, THIN.rho_e, 64)
    k = oracle._kernel_block
    want = np.block(
        [
            [-k(gi, gi, same=True), -k(gi, ge, same=False)],
            [k(ge, gi, same=False), k(ge, ge, same=True)],
        ]
    )
    m = assemble_block_np(gi, ge)
    assert np.array_equal(m.matrix, want)
    assert np.array_equal(m.weights, np.concatenate([gi.weights, ge.weights]))


def _kernel_block_out_of_place(target, src, same):
    """The weighted kernel block written as plain array expressions."""
    tx, tn, sy = target.nodes, target.normals, src.nodes
    d1 = tx[:, 0:1] - sy[None, :, 0]
    d2 = tx[:, 1:2] - sy[None, :, 1]
    r_sq = d1 * d1 + d2 * d2
    if same:
        np.fill_diagonal(r_sq, 1.0)
    k = (d1 * tn[:, 0:1] + d2 * tn[:, 1:2]) / (2.0 * math.pi * r_sq)
    if same:
        np.fill_diagonal(k, target.curvature / (4.0 * math.pi))
    return k * src.weights


R2 = ConfocalGeometry(2.0, 1.5, 3.0)


@pytest.mark.parametrize("geometry", [THIN, THICK, R2], ids=["thin", "thick", "R2"])
@pytest.mark.parametrize("N", [64, 256])
def test_kernel_block_in_place_matches_out_of_place(geometry, N):
    """The in-place kernel block equals the plain expression bit for bit,
    on one curve and across curves, returned or written into `out`."""
    gi = sample_ellipse(geometry.R, geometry.rho_i, N)
    ge = sample_ellipse(geometry.R, geometry.rho_e, N)
    for target, src, same in ((gi, gi, True), (ge, ge, True), (gi, ge, False), (ge, gi, False)):
        want = _kernel_block_out_of_place(target, src, same)
        assert np.array_equal(oracle._kernel_block(target, src, same), want)
        out = np.full((2 * N, N), np.nan)
        oracle._kernel_block(target, src, same, out=out[N:])
        assert np.array_equal(out[N:], want)


@pytest.mark.parametrize("geometry", [THIN, THICK, R2], ids=["thin", "thick", "R2"])
@pytest.mark.parametrize("N", [64, 256])
def test_first_block_is_the_single_curve_matrix(geometry, N):
    """The first N x N block of block_np_for is -assemble_np of Gamma_i
    bit for bit, and its first N weights are Gamma_i's: validate reads
    K*_{Gi} from there."""
    m = block_np_for(geometry, N)
    curve = sample_ellipse(geometry.R, geometry.rho_i, N)
    assert np.array_equal(-m.matrix[:N, :N], assemble_np(curve))
    assert np.array_equal(m.weights[:N], curve.weights)


# ---------------------------------------------------------------------------
# Fourier mode blocks


def _mode_block_list(m):
    """The mode blocks of m in the order k = 0 .. N/2."""
    ends, quads = oracle._mode_blocks(m)
    return [ends[0], *quads, ends[1]]


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
@pytest.mark.parametrize("N", [64, 70, 130, 256])
def test_mode_blocks_reproduce_dense_spectrum(geometry, N):
    """The union of the mode blocks' eigenvalues is the dense spectrum of
    the same matrix."""
    m = block_np_for(geometry, N)
    blocks = _mode_block_list(m)
    folded = np.sort(np.concatenate([np.linalg.eigvals(b) for b in blocks]).real)
    dense = np.sort(np.linalg.eigvals(m.matrix).real)
    assert np.max(np.abs(folded - dense)) < 1e-13


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_fold_guard_holds_at_n_1024(geometry):
    """With equispaced nodes the Fourier blocks stay off the (k, +-k)
    pattern at rounding level only, so the 1e-12 guard keeps folding at
    N = 1024."""
    assert oracle._mode_blocks(block_np_for(geometry, 1024)) is not None


def test_mode_block_sizes():
    """A 2 x 2 block at k = 0 and k = N/2 and a 4 x 4 block for every k
    between them: 2N rows in all.  Odd N has no mode N/2 and is refused."""
    for N in (8, 70, 256):
        sizes = [len(b) for b in _mode_block_list(block_np_for(THIN, N))]
        assert sizes == [2] + [4] * (N // 2 - 1) + [2]
        assert sum(sizes) == 2 * N
    odd = assemble_block_np(sample_circle(1.0, 9), sample_circle(2.0, 9))
    assert oracle._mode_blocks(odd) is None


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_each_mode_block_holds_its_own_mode(geometry):
    """Block k holds +-1/2 at k = 0 and +-lambda_{1,k}, +-lambda_{2,k}
    otherwise."""
    N, k_max = 256, 8
    table = mode_table(geometry, k_max)
    blocks = _mode_block_list(block_np_for(geometry, N))
    got = np.sort(np.linalg.eigvals(blocks[0]).real)
    assert np.max(np.abs(got - [-0.5, 0.5])) < 1e-12
    for k in range(1, k_max + 1):
        lam = np.array([table.lambda1[k - 1], table.lambda2[k - 1]])
        got = np.sort(np.linalg.eigvals(blocks[k]).real)
        assert np.max(np.abs(got - np.sort(np.concatenate([lam, -lam])))) < 1e-12


def _parity_halves(quad):
    """Cosine and sine halves of a 4 x 4 mode block, and their coupling.

    The bases (e_k + e_{N-k}) / sqrt 2 and (e_k - e_{N-k}) / sqrt 2 of
    each curve are cos(k omega) and sin(k omega); the reflection
    omega -> -omega of both ellipses keeps the two apart.  Returns the
    2 x 2 cosine and sine blocks and the largest entry coupling them.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    q = np.kron(np.eye(2), h)[[0, 2, 1, 3]]  # rows: cos in, cos out, sin in, sin out
    r = q @ quad @ q.T
    coupling = max(np.max(np.abs(r[:2, 2:])), np.max(np.abs(r[2:, :2])))
    return r[:2, :2], r[2:, 2:], coupling


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
@pytest.mark.parametrize("N", [64, 70, 130, 256])
def test_parity_blocks_reproduce_dense_spectrum(geometry, N):
    """Split into cosine and sine halves, the mode blocks decouple by
    parity in omega, and the union of the halves' eigenvalues is the
    dense spectrum of the same matrix."""
    m = block_np_for(geometry, N)
    ends, quads = oracle._mode_blocks(m)
    halves = [_parity_halves(b) for b in quads]
    scale = max(np.max(np.abs(b)) for b in (*ends, *quads))
    assert max(c for _, _, c in halves) <= 1e-12 * scale
    cosine = [*ends, *(c for c, _, _ in halves)]
    sine = [s for _, s, _ in halves]
    # N/2 + 1 cosine modes and N/2 - 1 sine modes per curve.
    assert sum(map(len, cosine)) == 2 * (N // 2 + 1)
    assert sum(map(len, sine)) == 2 * (N // 2 - 1)
    folded = np.sort(np.concatenate([np.linalg.eigvals(b) for b in cosine + sine]).real)
    dense = np.sort(np.linalg.eigvals(m.matrix).real)
    assert np.max(np.abs(folded - dense)) < 1e-13


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_each_parity_block_holds_its_own_branch(geometry):
    """Within mode k the cosine half holds +lambda_{1,k}, +lambda_{2,k}
    and the sine half -lambda_{1,k}, -lambda_{2,k}; the k = 0 block is
    all cosine and holds +-1/2."""
    N, k_max = 256, 8
    table = mode_table(geometry, k_max)
    ends, quads = oracle._mode_blocks(block_np_for(geometry, N))
    got = np.sort(np.linalg.eigvals(ends[0]).real)
    assert np.max(np.abs(got - [-0.5, 0.5])) < 1e-12
    all_cos, all_want = [], []
    for k in range(1, k_max + 1):
        want = np.sort([table.lambda1[k - 1], table.lambda2[k - 1]])
        cos_half, sin_half, _ = _parity_halves(quads[k - 1])
        got_cos = np.sort(np.linalg.eigvals(cos_half).real)
        got_sin = np.sort(np.linalg.eigvals(sin_half).real)
        assert np.max(np.abs(got_cos - want)) < 1e-12
        assert np.max(np.abs(got_sin - np.sort(-want))) < 1e-12
        all_cos.append(got_cos)
        all_want.append(want)
    # The opposite sine/cosine branch is far off.
    all_cos, all_want = np.concatenate(all_cos), np.concatenate(all_want)
    assert np.max(np.abs(np.sort(all_cos) - np.sort(-all_want))) > 1e-3


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_mode_route_solves_nothing_larger_than_4x4(geometry, monkeypatch):
    """No dense eigensolve on block_np_for matrices: every matrix handed
    to the eigensolver is a 2 x 2 or 4 x 4 mode block."""
    shapes = []
    eigvals = oracle._eigvals

    def record(matrix):
        shapes.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(oracle, "_eigvals", record)
    numeric_spectrum(block_np_for(geometry, 256), 18)
    assert shapes
    assert max(shape[-1] for shape in shapes) <= 4


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mode_guard_refuses_non_finite_matrices(bad):
    N = 16
    matrix = block_np_for(THIN, N).matrix.copy()
    matrix[3, 5] = bad
    with np.errstate(invalid="ignore"):  # an inf turns into NaNs in the FFT
        assert oracle._mode_blocks(BlockNPMatrix(matrix, THIN, np.ones(2 * N))) is None
        matrix = np.full((2 * N, 2 * N), bad)
        assert oracle._mode_blocks(BlockNPMatrix(matrix, THIN, np.ones(2 * N))) is None


def _ellipse_nodes(rho0, N, offset=0.0, wobble=0.0):
    """Trapezoid nodes at omega_j = t_j + wobble sin t_j, t_j = 2 pi (j +
    offset) / N, weighted Xi(omega_j) omega'(t_j) 2 pi / N."""
    t = 2.0 * math.pi * (np.arange(N) + offset) / N
    om = t + wobble * np.sin(t)
    xi = np.asarray(metric_factor(1.0, rho0, om))
    t_rho, _ = tangents(1.0, rho0, om)
    return SampledCurve(
        cartesian(1.0, rho0, om),
        t_rho / xi[:, None],
        ellipse_curvature(1.0, rho0, om),
        xi * (1.0 + wobble * np.cos(t)) * (2.0 * math.pi / N),
    )


def _all_candidates(geometry, count):
    """The dense path's candidates: +-1/2, +-lambda_{1,n}, +-lambda_{2,n}."""
    table = mode_table(geometry, max(8, count + 1))
    lam = np.concatenate([[0.5], table.lambda1, table.lambda2])
    return np.concatenate([lam, -lam])


def test_offset_nodes_are_not_folded(monkeypatch):
    """Nodes that are not equispaced in omega (omega_j = t_j + 0.1 sin t_j)
    couple the Fourier modes, so the guard takes the dense path."""
    N, count = 64, 14
    m = assemble_block_np(
        _ellipse_nodes(THIN.rho_i, N, wobble=0.1),
        _ellipse_nodes(THIN.rho_e, N, wobble=0.1),
        geometry=THIN,
    )
    assert oracle._mode_blocks(m) is None
    assert oracle._mode_blocks(block_np_for(THIN, N)) is not None

    def no_fold(*args):
        raise AssertionError("folded a matrix whose Fourier modes couple")

    monkeypatch.setattr(oracle, "_mode_spectrum", no_fold)
    report = numeric_spectrum(m, count)
    ev = np.linalg.eigvals(m.matrix)
    top = ev[np.argsort(-np.abs(ev))[:count]].real
    matched, errors = oracle._nearest_unused(top, _all_candidates(THIN, count))
    assert np.array_equal(report.eigenvalues, top)
    assert np.array_equal(report.matched, matched)
    assert np.array_equal(report.rel_errors, errors)
    assert report.worst < 1e-6


def test_offset_nodes_fold():
    """Nodes shifted by a third of a step are still equispaced in omega, so
    the modes decouple; the fold agrees with the dense solve."""
    N, count = 64, 14
    m = assemble_block_np(
        _ellipse_nodes(THIN.rho_i, N, offset=1 / 3),
        _ellipse_nodes(THIN.rho_e, N, offset=1 / 3),
        geometry=THIN,
    )
    assert oracle._mode_blocks(m) is not None
    folded = numeric_spectrum(m, count)
    dense = numeric_spectrum(m, count, analytic=_all_candidates(THIN, count))
    f, d = np.argsort(folded.eigenvalues), np.argsort(dense.eigenvalues)
    assert np.max(np.abs(folded.eigenvalues[f] - dense.eigenvalues[d])) < 1e-13
    assert np.array_equal(folded.matched[f], dense.matched[d])


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_folded_spectrum_agrees_with_dense_path(geometry):
    """One matrix, folded and solved dense (explicit analytic values take
    the dense path), gives the same top eigenvalues and the same pairing.
    +-lambda pairs have equal magnitude, so both sides are compared in
    value order."""
    N, count = 128, 18
    m = block_np_for(geometry, N)
    folded = numeric_spectrum(m, count)
    dense = numeric_spectrum(m, count, analytic=_all_candidates(geometry, count))
    f, d = np.argsort(folded.eigenvalues), np.argsort(dense.eigenvalues)
    assert np.max(np.abs(folded.eigenvalues[f] - dense.eigenvalues[d])) < 1e-14
    assert np.array_equal(folded.matched[f], dense.matched[d])
    assert folded.worst < 1e-6


# ---------------------------------------------------------------------------
# Mode blocks from sampled kernel rows


@pytest.mark.parametrize("geometry", [THIN, THICK, R2], ids=["thin", "thick", "R2"])
@pytest.mark.parametrize("N", [64, 256])
def test_sampled_rows_are_rows_of_the_block_matrix(geometry, N):
    """The rows mode_blocks_for samples from each curve block, formed
    alone with that block's sign, are the rows of block_np_for's matrix
    bit for bit: the sampled route and the dense route start from the
    same numbers."""
    m = block_np_for(geometry, N)
    curves = (sample_ellipse(geometry.R, geometry.rho_i, N),
              sample_ellipse(geometry.R, geometry.rho_e, N))
    rows = np.array([0, 1, 2, N // 3, N // 3 + 1, N // 3 + 2])
    for p, target in enumerate(curves):
        for q, src in enumerate(curves):
            got = oracle._kernel_block(target, src, p == q, rows=rows)
            want = m.matrix[p * N + rows, q * N : (q + 1) * N]
            assert np.array_equal(-got if p == 0 else got, want)


# Largest difference between the mode blocks of the two routes, in units of
# N^2 2^-52 times the largest entry.  Measured at most 0.019 (thick, N = 128
# and 512) over these geometries and N; the bound leaves a factor 5.
_ROUTE_AGREEMENT = 0.1


@pytest.mark.parametrize("geometry", [THIN, THICK, R2], ids=["thin", "thick", "R2"])
@pytest.mark.parametrize("N", [64, 128, 256, 512, 1024, 2048])
def test_mode_blocks_for_matches_the_dense_route(geometry, N):
    """The blocks from sampled rows agree with the Fourier blocks of the
    dense matrix to rounding that grows like N^2 eps, their top 18
    eigenvalues agree to 1e-12 (measured <= 5.5e-14), and each eigenvalue
    is paired with the same analytic value."""
    ends, quads = oracle.mode_blocks_for(geometry, N)
    dense_ends, dense_quads = oracle._mode_blocks(block_np_for(geometry, N))
    scale = max(np.max(np.abs(dense_ends)), np.max(np.abs(dense_quads)))
    diff = max(np.max(np.abs(ends - dense_ends)), np.max(np.abs(quads - dense_quads)))
    assert diff <= _ROUTE_AGREEMENT * N * N * 2.0**-52 * scale
    got = oracle._mode_spectrum(ends, quads, 18, geometry)
    want = oracle._mode_spectrum(dense_ends, dense_quads, 18, geometry)
    f, d = np.argsort(got.eigenvalues), np.argsort(want.eigenvalues)
    assert np.max(np.abs(got.eigenvalues[f] - want.eigenvalues[d])) < 1e-12
    assert np.array_equal(got.matched[f], want.matched[d])


@pytest.mark.parametrize("block", range(4))
@pytest.mark.parametrize("row", range(6))
@pytest.mark.parametrize("bad", ["1e-6", "nan", "inf"])
def test_mode_blocks_for_refuses_a_perturbed_entry(monkeypatch, block, row, bad):
    """One entry of any sampled row of any curve block, moved by 1e-6 of
    that block's largest entry (or made non-finite), breaks the form
    c(i - j) + h(i + j): the guard refuses it."""
    kernel_block = oracle._kernel_block
    calls = []

    def perturbed(target, src, same, out=None, rows=None):
        k = kernel_block(target, src, same, out=out, rows=rows)
        if rows is not None and len(calls) == block:
            big = np.max(np.abs(k))
            k[row, 7] = {"1e-6": k[row, 7] + 1e-6 * big, "nan": np.nan, "inf": np.inf}[bad]
        calls.append(rows)
        return k

    monkeypatch.setattr(oracle, "_kernel_block", perturbed)
    with np.errstate(invalid="ignore"), pytest.raises(EigensolveFailure, match="residual"):
        oracle.mode_blocks_for(THIN, 64)
    assert len(calls) > block


def test_mode_blocks_for_refuses_nodes_off_the_grid(monkeypatch):
    """Nodes that are not equispaced in omega (omega_j = t_j + 0.1 sin t_j)
    couple the Fourier modes, and there is no dense fallback: refused.
    Nodes shifted by a third of a step are still equispaced; they pass,
    and agree with the dense route on the same nodes."""
    N = 64
    monkeypatch.setattr(oracle, "sample_ellipse", lambda R, rho, n: _ellipse_nodes(rho, n, wobble=0.1))
    with pytest.raises(EigensolveFailure, match="residual"):
        oracle.mode_blocks_for(THIN, N)

    monkeypatch.setattr(oracle, "sample_ellipse", lambda R, rho, n: _ellipse_nodes(rho, n, offset=1 / 3))
    ends, quads = oracle.mode_blocks_for(THIN, N)
    dense_ends, dense_quads = oracle._mode_blocks(block_np_for(THIN, N))
    assert np.max(np.abs(ends - dense_ends)) < 1e-13
    assert np.max(np.abs(quads - dense_quads)) < 1e-13


# ---------------------------------------------------------------------------
# Norm-pruned mode spectrum


def _all_blocks_spectrum(ends, quads, count, geometry):
    """_mode_spectrum with every block solved: the top `count` values of
    the union of all block spectra, each paired within its own mode."""
    ev_ends, ev_quads = np.linalg.eigvals(ends), np.linalg.eigvals(quads)
    ev = np.concatenate([ev_ends[0], ev_quads.ravel(), ev_ends[1]])
    mode = np.repeat(np.arange(len(quads) + 2), [2] + [4] * len(quads) + [2])
    order = np.argsort(-np.abs(ev))[:count]
    top, mode = ev[order].real, mode[order]
    lam1, lam2 = mode_eigenvalues(np.arange(1.0, mode.max() + 1), geometry)
    matched, errors = np.empty_like(top), np.empty_like(top)
    for k in np.unique(mode):
        if k == 0:
            candidates = np.array([0.5, -0.5])
        else:
            lam = np.array([lam1[k - 1], lam2[k - 1]])
            candidates = np.concatenate([lam, -lam])
        mine = mode == k
        matched[mine], errors[mine] = oracle._nearest_unused(top[mine], candidates)
    return top, matched, errors


@pytest.mark.parametrize("geometry", [THIN, THICK, R2], ids=["thin", "thick", "R2"])
@pytest.mark.parametrize("N", [16, 64, 256, 1024])
def test_pruned_mode_spectrum_equals_the_all_blocks_solve(geometry, N):
    """Solving only the blocks whose norm bound reaches the count-th
    largest value gives the all-blocks top values, their analytic partners
    and errors, as multisets of (value, partner, error) bit for bit, also
    where the top reaches modes past mode_table's range."""
    blocks = oracle.mode_blocks_for(geometry, N)
    for count in (2, 14, 18, N // 2):
        want = _all_blocks_spectrum(*blocks, count, geometry)
        got = oracle._mode_spectrum(*blocks, count, geometry)
        assert sorted(zip(got.eigenvalues, got.matched, got.rel_errors)) == sorted(zip(*want))


def test_numeric_spectrum_pairs_modes_past_mode_tables_range():
    """A count whose top values reach modes past mode_table's range (its
    guard refuses from n = 117 here) is paired, not refused: the
    candidates come from mode_eigenvalues, which underflow towards 0."""
    rep = numeric_spectrum(block_np_for(ConfocalGeometry(2.0, 1.5, 3.0), 256), 128)
    assert len(rep.eigenvalues) == len(rep.matched) == 128
    assert np.all(np.isfinite(rep.matched)) and np.all(np.isfinite(rep.rel_errors))
    assert sorted(np.abs(rep.matched[:2])) == [0.5, 0.5]


def test_numeric_spectrum_reports_pairs_below_rounding_apart():
    """On that count 50 of the 128 pairs lie below the rounding floor
    N^2 2^-52 max|entry| (7.4e-14) on both sides; worst covers the other
    78, a Nystrom error, not the noise ratio (9.5e65) of the 50."""
    m = block_np_for(ConfocalGeometry(2.0, 1.5, 3.0), 256)
    rep = numeric_spectrum(m, 128)
    assert rep.floor == 256**2 * 2.0**-52 * np.max(np.abs(m.matrix))
    assert 7.3e-14 < rep.floor < 7.5e-14
    below = ~rep.resolved
    assert np.count_nonzero(below) == 50
    assert np.all(np.abs(rep.matched[below]) < rep.floor)
    assert np.all(np.abs(rep.eigenvalues[below]) < rep.floor)
    assert np.max(rep.rel_errors[below]) > 1e60
    assert rep.worst == np.max(rep.rel_errors[rep.resolved]) < 1e-5


@pytest.mark.parametrize("g", [THIN, THICK, ConfocalGeometry(2.0, 1.5, 3.0)])
def test_validate_spectrum_count_has_no_pair_below_rounding(g):
    """Validate's step 1 (count 14, N = 256) has no pair below the floor,
    so leaving such pairs out of worst changes nothing there."""
    rep = numeric_spectrum(block_np_for(g, 256), 14)
    assert rep.resolved.all()
    assert rep.worst == np.max(rep.rel_errors)


def test_a_large_value_paired_below_the_floor_stays_an_error():
    """A pair is left out only when both its values are below the floor:
    a numeric value far above it, paired with a zero, still counts."""
    analytic = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
    circle = assemble_np(sample_circle(1.0, 128))
    assert numeric_spectrum(circle, 5, analytic=analytic).worst < 1e-12
    circle[0, 0] += 0.25
    rep = numeric_spectrum(circle, 5, analytic=analytic)
    assert rep.matched[1] == 0.0 and rep.eigenvalues[1] > 0.2
    assert rep.resolved.tolist() == [True, True, False, False, False]
    assert rep.worst == rep.rel_errors[1] > 0.2


@pytest.mark.parametrize("top", [0.25, 0.2, 0.01])
def test_pruned_mode_spectrum_finds_a_block_at_its_bound(top):
    """A rank-one block c 1 1^T has spectral radius 4c, equal to its norm
    bound (and four times its largest entry).  Planted with 4c = 0.25 and
    0.2, above the 14th value of THIN at N = 64 (0.193), it is solved and
    found, and with 4c = 0.01 it is left out; as in the all-blocks solve."""
    ends, quads = oracle.mode_blocks_for(THIN, 64)
    quads[20] = np.full((4, 4), top / 4.0)
    got = oracle._mode_spectrum(ends, quads, 14, THIN)
    want = _all_blocks_spectrum(ends, quads, 14, THIN)
    assert sorted(zip(got.eigenvalues, got.matched, got.rel_errors)) == sorted(zip(*want))
    assert np.any(np.abs(got.eigenvalues - top) < 1e-12) == (top > 0.194)


def test_pruned_mode_spectrum_solves_few_blocks(monkeypatch):
    """On the validate_default geometry (N = 256, top 14) the two end
    blocks and 5 of the 127 quads are solved."""
    solved = []
    eigvals = oracle._eigvals

    def record(matrix):
        solved.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(oracle, "_eigvals", record)
    oracle._mode_spectrum(*oracle.mode_blocks_for(THIN, 256), 14, THIN)
    assert sum(shape[0] for shape in solved if shape[1:] == (4, 4)) == 5
    assert sum(shape[0] for shape in solved if shape[1:] == (2, 2)) == 2


def test_scaled_mode_block_enters_the_top(monkeypatch):
    """A mode block scaled by 1e3 (k = N/4, eigenvalues about 4.1) carries
    its norm bound with it, so it is solved, its mode enters the top
    values, and validate's nystrom_spectrum fails."""
    N, k = 64, 16
    mode_blocks_for = oracle.mode_blocks_for

    def scaled(g, n):
        ends, quads = mode_blocks_for(g, n)
        quads[k - 1] *= 1e3
        return ends, quads

    monkeypatch.setattr(oracle, "mode_blocks_for", scaled)
    rep = oracle._mode_spectrum(*oracle.mode_blocks_for(THIN, N), 14, THIN)
    lam = mode_table(THIN, k)
    mine = np.isin(rep.matched, [lam.lambda1[k - 1], lam.lambda2[k - 1],
                                 -lam.lambda1[k - 1], -lam.lambda2[k - 1]])
    assert mine.sum() == 4
    assert np.all(np.abs(rep.eigenvalues[mine]) > 1.0)
    checks = {c["name"]: c for c in oracle.validate(THIN, n_nystrom=N)}
    assert checks["nystrom_spectrum"]["status"] == "fail"
    assert checks["nystrom_spectrum"]["observed"] > 100.0


# The check-only routes that live in oracle, by the production module that
# must not define them.
_ORACLE_ONLY = {
    solver: ["dissipated_power_direct", "_gauss_panels", "_shell_gradient_grid",
             "_layer_radial", "eval_gradient_shell"],
    source: ["_series_radial", "coefficient_projection_oracle", "elliptic_gradient"],
}

_ROOT_EXPORTS = """
    AsymptoticRates CalrDiagnosis CalrError CalrVerdict ChargePair Coefficients
    ConfigError ConfocalGeometry CurveOverlap DegeneratePoint DensityCoefficients
    Dipole EigensolveFailure EllipticPoint GapConditionReport GapVerdict ModeData
    ModeTable OverflowGuard Regime RegimeKind SampledCurve
    SingleEllipseMode SingularPoint SourceInsideShell SweepRecord TooFewCoefficients
    TruncationWarning adaptive_n_max asymptotic_rates block_matrices
    boundary_forcing calr_classify coefficient_projection_oracle
    convergence_exponent critical_radius dissipated_power_closed
    dissipated_power_direct dissipated_power_spectral ellipse_curvature
    eval_gradient_shell eval_potential eval_potentials gap_condition_report
    green_expansion_coefficients metric_factor mode_data mode_projections
    mode_table newtonian_coefficients newtonian_eval newtonian_gradient s_gram
    sample_ellipse single_ellipse_np solve_densities sweep to_cartesian
    to_elliptic z_param __version__
""".split()


def _imported_modules(path: Path) -> set[str]:
    """Dotted names of every module and name the file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out.add(base)
            out.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return out


def test_independent_routes_live_in_oracle():
    """The production modules hold no check-only route and never import
    oracle; the package root still exports the routes, from oracle."""
    for module, names in _ORACLE_ONLY.items():
        assert [name for name in names if hasattr(module, name)] == []
        imported = _imported_modules(Path(module.__file__))
        assert not [m for m in imported if "oracle" in m.split(".")]
    for name in ("dissipated_power_direct", "eval_gradient_shell",
                 "coefficient_projection_oracle"):
        assert getattr(calr_lab, name) is getattr(oracle, name)
    assert calr_lab.__all__ == _ROOT_EXPORTS
    assert all(hasattr(calr_lab, name) for name in calr_lab.__all__)


# Run in a fresh interpreter: this test process has imported the oracle.
_LAZY_ORACLE = """
import sys
import calr_lab
assert "calr_lab.oracle" not in sys.modules, "import calr_lab"
import calr_lab.cli
calr_lab.cli.build_parser()
assert "calr_lab.oracle" not in sys.modules, "import calr_lab.cli; build_parser()"
for name in ("dissipated_power_direct", "eval_gradient_shell", "coefficient_projection_oracle"):
    assert getattr(calr_lab, name) is getattr(sys.modules["calr_lab.oracle"], name), name
try:
    calr_lab.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""


def test_oracle_is_imported_on_first_use():
    """Neither the package nor the CLI parser imports the oracle; the
    root's three re-exports import it and are the oracle's functions, and
    an unknown name is still an AttributeError."""
    src = str(Path(calr_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_ORACLE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _count_calls(monkeypatch, functions):
    """Count the calls of each function, wherever a calr_lab module binds it."""
    calls = {fn.__name__: 0 for fn in functions}
    modules = [calr_lab, cli, oracle, solver, source, calr_lab.spectrum]
    for fn in functions:
        def wrapper(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_validate_solves_its_source_once(monkeypatch):
    """Steps 3-7 share one spectral solve: one call each to solver._solve,
    mode_table, newtonian_coefficients and eval_potentials per validate,
    and no sweep or solve_densities call.  The last geometry's solve
    needs 49 modes, fewer than steps 3-4 read."""
    calls = _count_calls(monkeypatch, [
        solver._solve, mode_table, source.newtonian_coefficients, solver.eval_potentials,
        solver.sweep, solver.solve_densities])
    for g in (THIN, THICK, ConfocalGeometry(2.0, 0.3, 3.6)):
        calls.update(dict.fromkeys(calls, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            checks = oracle.validate(g, n_nystrom=64)
        assert calls == {"_solve": 1, "mode_table": 1, "newtonian_coefficients": 1,
                         "eval_potentials": 1, "sweep": 0, "solve_densities": 0}
        assert [c["name"] for c in checks] == [
            "nystrom_spectrum", "alpha0_half", "eigen_residuals", "s_norms",
            "continuity", "flux_jump", "surrogate_ratio", "reality_symmetry"]


def _public_route_checks(g, src):
    """continuity, flux_jump, surrogate_ratio and reality_symmetry as the
    public functions give them: solve_densities(sc, g, [delta, -delta])
    with eval_potentials for steps 5 and 7, sweep's records for step 6."""
    delta = 1e-3
    sc = source.newtonian_coefficients(src, solver.adaptive_n_max(delta, g), g.R, rho_e=g.rho_e)
    rows = solver.solve_densities(sc, g, [delta, -delta])
    stencil = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3, -15.0 / 4, 6.0 / 5, -1.0 / 6])
    h = 1e-4
    omegas = np.linspace(0.07, 2.0 * math.pi - 0.13, 12)
    steps = np.arange(len(stencil)) * h
    shell = -1.0 + 1j * delta
    radii = np.array([
        np.concatenate([[rho_t - 1e-9, rho_t + 1e-9], rho_t - steps, rho_t + steps])
        for rho_t in (g.rho_i, g.rho_e)
    ])
    rho5, omega5 = np.broadcast_arrays(radii[:, None, :], omegas[:, None])
    rhos = [0.5 * g.rho_i, 0.5 * (g.rho_i + g.rho_e), g.rho_e + 0.3]
    both = solver.eval_potentials(src, rows, g, np.concatenate([rho5.ravel(), rhos]),
                                  np.concatenate([omega5.ravel(), [0.3, 2.0, 4.0]]))
    values, (vp, vm) = both[0, : rho5.size].reshape(rho5.shape), both[:, rho5.size :]
    worst_c, worst_f = 0.0, 0.0
    for v, e_in, e_out in zip(values, (1.0, shell), (shell, 1.0)):
        inner, outer = v[:, 2 : 2 + len(stencil)], v[:, 2 + len(stencil) :]
        vscale = float(np.max(np.abs(v[:, 0])))
        worst_c = max(worst_c, float(np.max(np.abs(v[:, 0] - v[:, 1]))) / vscale)
        d_in = -sum(c * inner[:, k] for k, c in enumerate(stencil)) / h
        d_out = sum(c * outer[:, k] for k, c in enumerate(stencil)) / h
        fi, fo = e_in * d_in, e_out * d_out
        fscale = float(np.max(np.maximum(np.abs(fi), np.abs(fo))))
        worst_f = max(worst_f, float(np.max(np.abs(fi - fo))) / fscale)
    recs = solver.sweep(src, g, [10.0 ** (-k) for k in range(2, 7)], [])
    ratios = [r.e_direct / r.e_spectral for r in recs]
    symmetry = float(np.max(np.abs(vm - np.conj(vp)) / np.maximum(np.abs(vp), 1e-30)))
    return {"continuity": worst_c, "flux_jump": worst_f,
            "surrogate_ratio": max(ratios) / min(ratios), "reality_symmetry": symmetry}


@pytest.mark.parametrize("g", [THIN, THICK])
def test_validate_matches_the_public_route(g):
    """The one-pass checks equal, bit for bit, those of the public route on
    a thin and a thick shell (validate's default dipole)."""
    src = oracle.Dipole(oracle.EllipticPoint(g.rho_e + 0.5, 0.9), np.array([1.0, 0.4]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        want = _public_route_checks(g, src)
        got = {c["name"]: c["observed"] for c in oracle.validate(g, src, n_nystrom=64)}
    assert {name: got[name] for name in want} == want


def test_validate_checks_live_in_oracle():
    """The CLI defines none of validate's check helpers and imports only
    validate from oracle."""
    moved = ["_check", "_relative", "_mat_vec", "_nystrom_checks", "_closed_form_checks"]
    assert [name for name in moved if hasattr(cli, name)] == []
    imported = _imported_modules(Path(cli.__file__))
    assert sorted(m for m in imported if "oracle" in m.split(".")) == ["oracle", "oracle.validate"]


def test_cli_imports_no_private_names():
    """The CLI runs on the package's public names only."""
    imported = _imported_modules(Path(cli.__file__))
    private = [m for m in imported if not m.startswith("__future__")
               and any(part.startswith("_") for part in m.split("."))]
    assert private == []


@pytest.mark.parametrize(
    "n_nystrom, n_modes, rule",
    [(256, 0, "n_modes: must be >= 1"), (16, 20, r"n_modes: 2 \+ 4 \* n_modes = 82"),
     (15, 3, "n_nystrom: must be even"), (6, 1, "n_nystrom: must be even")],
    ids=["no-modes", "count-exceeds-quarter", "odd", "too-small"],
)
def test_validate_refuses_sizes_before_any_work(monkeypatch, n_nystrom, n_modes, rule):
    """Sizes the spectrum check cannot compare raise validate's own
    ValueError before a kernel row is sampled."""
    def no_work(*args):
        raise AssertionError("validate sampled kernel rows")

    monkeypatch.setattr(oracle, "mode_blocks_for", no_work)
    with pytest.raises(InputError, match=rule) as info:
        oracle.validate(THIN, None, n_nystrom, n_modes)
    assert isinstance(info.value, ValueError)


def test_oracle_all_lists_its_public_definitions():
    """oracle.__all__ names every public function and class oracle.py defines."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    defined = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(oracle.__all__) == sorted(defined)
