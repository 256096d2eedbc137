"""Tests for the Nystrom cross-check oracle.

The oracle is itself validated from first principles here: kernel limits
on circles, exact equilibrium-density identities, and eigenvector actions
that are known in closed form without touching the spectrum module.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from calr_lab import (
    ConfocalGeometry,
    CurveOverlap,
    EigensolveFailure,
    SampledCurve,
    metric_factor,
    mode_table,
    sample_ellipse,
)
from calr_lab import oracle
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
    report = numeric_spectrum(block_np_for(THIN, 128, flip_first_block=True), 18)
    assert report.worst > 1e-3


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
        numeric_spectrum(BlockNPMatrix(np.eye(16), None, 8), 2)


def test_eigensolve_failure_is_reported():
    bad = np.full((16, 16), np.nan)
    with pytest.raises(EigensolveFailure):
        numeric_spectrum(bad, 2, analytic=np.zeros(4))


def test_sample_circle_validation():
    with pytest.raises(ValueError):
        sample_circle(1.0, 4)


# ---------------------------------------------------------------------------
# parity fold


def _block_sizes(N):
    """(+,+), (+,-), (-,+), (-,-) sizes: N//4 + 1 orbit representatives per
    curve, less the fixed node j = 0 for sine blocks and, when 4 divides N,
    the fixed node j = N/4 for c2 = -1."""
    reps, quarter = N // 4 + 1, int(N % 4 == 0)
    return [2 * (reps - d) for d in (0, quarter, 1, 1 + quarter)]


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
@pytest.mark.parametrize("N", [64, 70, 130, 256])
def test_parity_blocks_reproduce_dense_spectrum(geometry, N):
    """The union of the four parity blocks' eigenvalues is the dense
    spectrum of the same matrix."""
    matrix = block_np_for(geometry, N).matrix
    assert oracle._is_reflection_symmetric(matrix, N)
    blocks = oracle._parity_blocks(matrix, N)
    assert [chars for chars, _ in blocks] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert [len(b) for _, b in blocks] == _block_sizes(N)
    folded = np.sort(np.concatenate([np.linalg.eigvals(b) for _, b in blocks]).real)
    dense = np.sort(np.linalg.eigvals(matrix).real)
    assert np.max(np.abs(folded - dense)) < 1e-13


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_fold_guard_holds_at_n_1024(geometry):
    """With mirrored nodes both commutators stay at rounding level, so the
    1e-12 guard keeps folding at N = 1024."""
    assert oracle._is_reflection_symmetric(block_np_for(geometry, 1024).matrix, 1024)


def test_parity_block_sizes_from_the_orbit_count():
    assert _block_sizes(256) == [130, 128, 128, 126]
    assert _block_sizes(70) == [36, 36, 34, 34]


@pytest.mark.parametrize("geometry", [THIN, THICK], ids=["thin", "thick"])
def test_each_parity_block_holds_its_own_branch(geometry):
    """The leading eigenvalues of each block, sorted, are the leading
    values of that block's branch: cosine blocks +lambda, sine blocks
    -lambda, each for one parity of n, and +-1/2 in the (+, +) block."""
    N, k = 256, 8
    table = mode_table(geometry, 40)
    for (c1, c2), block in oracle._parity_blocks(block_np_for(geometry, N).matrix, N):
        ev = np.linalg.eigvals(block).real
        got = np.sort(ev[np.argsort(-np.abs(ev))[:k]])
        branch = oracle._branch(table, c1, c2)
        want = np.sort(branch[np.argsort(-np.abs(branch))[:k]])
        assert np.max(np.abs(got - want)) < 1e-12
        # The opposite sine/cosine branch is far off.
        assert np.max(np.abs(got - np.sort(-want))) > 1e-3


def _offset_ellipse(rho0, N, offset):
    """Trapezoid nodes at omega_j = 2 pi (j + offset) / N."""
    om = 2.0 * math.pi * (np.arange(N) + offset) / N
    xi = np.asarray(metric_factor(1.0, rho0, om))
    t_rho, _ = tangents(1.0, rho0, om)
    return SampledCurve(
        cartesian(1.0, rho0, om),
        t_rho / xi[:, None],
        ellipse_curvature(1.0, rho0, om),
        xi * (2.0 * math.pi / N),
    )


def _all_candidates(geometry, count):
    """The dense path's candidates: +-1/2, +-lambda_{1,n}, +-lambda_{2,n}."""
    table = mode_table(geometry, max(8, count + 1))
    lam = np.concatenate([[0.5], table.lambda1, table.lambda2])
    return np.concatenate([lam, -lam])


def test_offset_nodes_are_not_folded(monkeypatch):
    """Nodes shifted by a third of a step are mapped onto no node by
    either reflection, so the guard takes the dense path."""
    N, count = 64, 14
    m = assemble_block_np(
        _offset_ellipse(THIN.rho_i, N, 1 / 3),
        _offset_ellipse(THIN.rho_e, N, 1 / 3),
        geometry=THIN,
    )
    assert not oracle._is_reflection_symmetric(m.matrix, N)
    assert oracle._is_reflection_symmetric(block_np_for(THIN, N).matrix, N)

    def no_fold(*args):
        raise AssertionError("folded a matrix without the node reflections")

    monkeypatch.setattr(oracle, "_parity_blocks", no_fold)
    report = numeric_spectrum(m, count)
    ev = np.linalg.eigvals(m.matrix)
    top = ev[np.argsort(-np.abs(ev))[:count]].real
    matched, errors = oracle._nearest_unused(top, _all_candidates(THIN, count))
    assert np.array_equal(report.eigenvalues, top)
    assert np.array_equal(report.matched, matched)
    assert np.array_equal(report.rel_errors, errors)
    assert report.worst < 1e-6


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
