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
    metric_factor,
    mode_table,
    sample_ellipse,
)
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
