"""Tests for the mode eigendata: closed forms vs high-precision recomputation."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from calr_lab import (
    ConfocalGeometry,
    OverflowGuard,
    RegimeKind,
    asymptotic_rates,
    block_matrices,
    critical_radius,
    mode_table,
    s_gram,
)
from calr_lab.spectrum import FAMILY_PARITY, ModeTable, mode_eigenvalues
from reference import mode_column, mode_data, single_ellipse_np

mpmath.mp.dps = 60

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
THICK = ConfocalGeometry(1.0, 0.2, 1.0)
NEAR_DEGENERATE = ConfocalGeometry(1.0, 0.5, 0.55)


def _mp_mode(n, rho_i, rho_e):
    """Recompute one mode's eigendata with 60-digit arithmetic.

    Returns the one-mode family record (as reference.mode_column) of the
    double-precision roundings of the high-precision values, so any
    agreement failure beyond a few ulps points at the library, not at
    this oracle.
    """
    n = mpmath.mpf(n)
    ri, re = mpmath.mpf(rho_i), mpmath.mpf(rho_e)
    ei = mpmath.e ** (-2 * n * ri)
    ee = mpmath.e ** (-2 * n * re)
    big_e = mpmath.e ** (-n * (re - ri))
    d = ee - ei
    u = ee + ei
    s = mpmath.sqrt(d * d + 4 * big_e * big_e)
    lam1 = (d - s) / 4
    lam2 = (d + s) / 4
    a1 = u + s
    a2 = u - s
    b = -2 * big_e * (1 + ei)
    pref = mpmath.pi / n
    g_cos = [[pref * (1 + ei) / 2, pref * big_e * (1 + ei) / 2],
             [pref * big_e * (1 + ei) / 2, pref * (1 + ee) / 2]]
    g_sin = [[pref * (1 - ei) / 2, pref * big_e * (1 - ei) / 2],
             [pref * big_e * (1 - ei) / 2, pref * (1 - ee) / 2]]

    def quad(gram, v):
        return (gram[0][0] * v[0] * v[0] + 2 * gram[0][1] * v[0] * v[1]
                + gram[1][1] * v[1] * v[1])

    return ModeTable(
        int(n),
        np.array([[a1, b], [b, a2], [a2, b], [b, a1]], dtype=float),
        np.array([lam1, -lam1, lam2, -lam2], dtype=float),
        np.array([quad(g_cos, (a1, b)), quad(g_sin, (b, a2)),
                  quad(g_cos, (a2, b)), quad(g_sin, (b, a1))], dtype=float),
    )


def test_single_ellipse_alpha0_is_half():
    assert single_ellipse_np(0, 0.5).alpha == 0.5
    assert single_ellipse_np(0, 2.0).alpha == 0.5


def test_single_ellipse_values():
    mode = single_ellipse_np(1, 0.5)
    assert math.isclose(mode.alpha, float(1 / (2 * mpmath.e)), rel_tol=1e-15)
    assert math.isclose(
        mode.beta, float((-mpmath.e + 1 / mpmath.e) / 2), rel_tol=1e-15
    )
    mode = single_ellipse_np(3, 0.8)
    assert math.isclose(mode.alpha, float(mpmath.e ** -4.8 / 2), rel_tol=1e-14)
    assert math.isclose(mode.beta, float(-mpmath.sinh(4.8)), rel_tol=1e-14)


def test_single_ellipse_invariants():
    for rho0 in (0.3, 0.8, 2.0):
        for n in range(0, 30):
            mode = single_ellipse_np(n, rho0)
            assert 0.0 < mode.alpha <= 0.5
            assert mode.beta <= 0.0


def test_single_ellipse_validation():
    with pytest.raises(ValueError):
        single_ellipse_np(-1, 0.5)
    with pytest.raises(ValueError):
        single_ellipse_np(1, 0.0)
    with pytest.raises(OverflowGuard):
        single_ellipse_np(500, 1.0)


def test_block_matrix_entries():
    a_mat, b_mat = block_matrices(1, THIN)
    assert math.isclose(a_mat[0, 0], float(-mpmath.e ** -1 / 2), rel_tol=1e-15)
    for n in (1, 3, 7):
        a_mat, b_mat = block_matrices(n, THIN)
        ei = mpmath.e ** (-2 * n * mpmath.mpf("0.5"))
        ee = mpmath.e ** (-2 * n * mpmath.mpf("0.8"))
        big_e = mpmath.e ** (-n * mpmath.mpf("0.3"))
        sx = float(big_e * (1 - ei) / 2)
        cx = float(big_e * (1 + ei) / 2)
        assert math.isclose(a_mat[0, 0], float(-ei / 2), rel_tol=1e-14)
        assert math.isclose(a_mat[1, 1], float(ee / 2), rel_tol=1e-14)
        assert math.isclose(a_mat[0, 1], sx, rel_tol=1e-14)
        assert math.isclose(a_mat[1, 0], cx, rel_tol=1e-14)
        assert math.isclose(b_mat[0, 0], float(ei / 2), rel_tol=1e-14)
        assert math.isclose(b_mat[0, 1], cx, rel_tol=1e-14)
        assert math.isclose(b_mat[1, 0], sx, rel_tol=1e-14)
        assert math.isclose(b_mat[1, 1], float(-ee / 2), rel_tol=1e-14)


def test_mode_data_against_high_precision():
    for g in (THIN, THICK):
        for n in (1, 2, 10, 40):
            md = mode_data(n, g)
            ref = _mp_mode(n, g.rho_i, g.rho_e)
            for key, got_all, want_all in zip(ModeTable._fields[1:], md[1:], ref[1:]):
                for idx in np.ndindex(want_all.shape):
                    got, want = got_all[idx], want_all[idx]
                    assert math.isclose(got, want, rel_tol=1e-14), (
                        f"{key}{list(idx)} at n={n}: {got} vs {want}"
                    )


def test_trace_and_det_match_eigenvalues():
    for g in (THIN, THICK):
        for n in range(1, 51):
            a_mat, b_mat = block_matrices(n, g)
            md = mode_data(n, g)
            scale = abs(md.eigenvalues[0]) + abs(md.eigenvalues[2])
            assert abs(np.trace(a_mat) - (md.eigenvalues[0] + md.eigenvalues[2])) <= 1e-13 * scale
            assert abs(np.trace(b_mat) + (md.eigenvalues[0] + md.eigenvalues[2])) <= 1e-13 * scale
            prod = md.eigenvalues[0] * md.eigenvalues[2]
            assert abs(np.linalg.det(a_mat) - prod) <= 1e-13 * abs(prod)
            assert abs(np.linalg.det(b_mat) - prod) <= 1e-13 * abs(prod)


def test_eigen_residuals_componentwise():
    """A v = lambda v and B v = -lambda v with a componentwise backward
    error below 1e-12 for every mode up to n = 50."""
    for g in (THIN, THICK):
        for n in range(1, 51):
            a_mat, b_mat = block_matrices(n, g)
            md = mode_data(n, g)
            pairs = (
                (a_mat, md.pairs[0], md.eigenvalues[0]),
                (a_mat, md.pairs[2], md.eigenvalues[2]),
                (b_mat, md.pairs[1], md.eigenvalues[1]),
                (b_mat, md.pairs[3], md.eigenvalues[3]),
            )
            for mat, vec, lam in pairs:
                res = np.abs(mat @ vec - lam * vec)
                scale = np.abs(mat) @ np.abs(vec) + abs(lam) * np.abs(vec)
                assert np.all(res <= 1e-12 * scale)


def test_eigenvalues_match_direct_solve():
    for g in (THIN, THICK):
        for n in range(1, 51):
            a_mat, b_mat = block_matrices(n, g)
            md = mode_data(n, g)
            got_a = np.sort(np.linalg.eigvals(a_mat).real)
            want = np.sort([md.eigenvalues[0], md.eigenvalues[2]])
            assert np.all(np.abs(got_a - want) <= 1e-13 * np.abs(want))
            got_b = np.sort(np.linalg.eigvals(b_mat).real)
            want_b = np.sort([md.eigenvalues[1], md.eigenvalues[3]])
            assert np.all(np.abs(got_b - want_b) <= 1e-13 * np.abs(want_b))


def test_mode_sign_invariants():
    for g in (THIN, THICK):
        table = mode_table(g, 100)
        assert np.all(table.eigenvalues[0] < 0.0)
        assert np.all(table.eigenvalues[2] > 0.0)
        assert np.all(np.abs(table.eigenvalues[0]) < 0.5)
        assert np.all(table.eigenvalues[2] < 0.5)
        assert np.all(table.pairs[0, 0] > 0.0)  # a1
        assert np.all(table.pairs[1, 1] < 0.0)  # a2
        assert np.all(table.pairs[0, 1] < 0.0)  # b
        assert np.all(table.norms > 0.0)


def test_mode_table_matches_mode_data():
    table = mode_table(THIN, 20)
    for n in (1, 7, 20):
        row = mode_column(table, n)
        single = mode_data(n, THIN)
        for got, want in zip(row, single):
            assert np.array_equal(got, want)


def test_mode_table_truncation_is_bit_identical():
    for g in (THIN, THICK):
        head = mode_table(g, 120).truncated(37)
        fresh = mode_table(g, 37)
        for got, want in zip(head, fresh):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        mode_table(THIN, 5).truncated(6)
    with pytest.raises(ValueError):
        mode_table(THIN, 5).truncated(0)



@pytest.mark.parametrize(
    "g", [THIN, THICK, NEAR_DEGENERATE], ids=["thin", "thick", "near_degenerate"]
)
def test_family_table_holds_the_eigenpairs_and_norms_of_its_spans(g):
    """ModeTable lists 1+, 1-, 2+, 2- in one order on the leading axis of
    its pairs, eigenvalues and norms: 1- and 2- mirror the pairs of 2+ and
    1+ with negated eigenvalues, and for n = 1 .. 50 each family is an
    eigenpair of the block of its span (A_n for even k, B_n for odd k) and
    its norm is the s_gram form of its pair, both within validate's 1e-12."""
    table = mode_table(g, 50)
    vecs, lams, norms = table.pairs, table.eigenvalues, table.norms
    assert vecs.shape == (4, 2, 50) and lams.shape == norms.shape == (4, 50)
    assert np.array_equal(vecs[[1, 3]], vecs[[2, 0], ::-1])
    assert np.array_equal(lams[1::2], -lams[::2])
    blocks = block_matrices(table.n, g)
    grams = s_gram(table.n, g)
    assert list(FAMILY_PARITY) == [0, 1, 0, 1]
    for k in range(4):
        mat, gram, (v1, v2), lam = blocks[k % 2], grams[k % 2], vecs[k], lams[k]
        res = np.abs(mat[:, 0] * v1 + mat[:, 1] * v2 - lam * vecs[k])
        scale = np.abs(mat[:, 0] * v1) + np.abs(mat[:, 1] * v2) + np.abs(lam * vecs[k])
        assert np.max(res / scale) < 1e-12, k
        quad = v1 * (gram[0, 0] * v1 + gram[0, 1] * v2) + v2 * (gram[1, 0] * v1 + gram[1, 1] * v2)
        assert np.max(np.abs(quad - norms[k]) / norms[k]) < 1e-12, k

def test_mode_eigenvalues_are_mode_tables_past_its_range():
    """mode_eigenvalues gives mode_table's lambdas bit for bit, and past the
    range where mode_table refuses (its norms overflow) it stays finite:
    lambda_2n reaches its limit 0 where E^2 and d underflow together."""
    thick_far = ConfocalGeometry(2.0, 1.5, 3.0)
    for g, n_ok in ((THIN, 400), (THICK, 300), (thick_far, 116)):
        table = mode_table(g, n_ok)
        lam1, lam2 = mode_eigenvalues(table.n.astype(float), g)
        assert np.array_equal([lam1, lam2], table.eigenvalues[::2])
        with pytest.raises(OverflowGuard):
            mode_table(g, 3 * n_ok)
        lam1, lam2 = mode_eigenvalues(np.arange(1.0, 3001.0), g)
        assert np.all(np.isfinite(lam1)) and np.all(np.isfinite(lam2))
    assert lam2[-1] == 0.0 and lam1[-1] == 0.0


def test_s_gram_diagonal_and_symmetry():
    g_cos = s_gram(1, THIN)[0]
    want = float(mpmath.pi * mpmath.e ** mpmath.mpf("-0.5")
                 * mpmath.cosh(mpmath.mpf("0.5")))
    assert math.isclose(g_cos[0, 0], want, rel_tol=1e-15)
    for n in (1, 5, 40, 100):
        grams = s_gram(n, THIN)
        assert grams.shape == (2, 2, 2)
        for gram in grams:
            assert gram[0, 1] == gram[1, 0]
            # Positive definiteness via Cholesky.
            np.linalg.cholesky(gram)


@pytest.mark.parametrize(
    "g", [THIN, THICK, ConfocalGeometry(2.0, 1.5, 3.0)], ids=["thin", "thick", "R2"]
)
def test_one_mode_forms_are_columns_of_the_array_forms(g):
    """block_matrices and s_gram take an array of mode indices, with shape
    (2, 2) + shape(n) per span; at an int n they give column n of it bit
    for bit."""
    n = np.arange(1, 61)
    blocks = block_matrices(n, g)
    a_all, b_all = blocks
    grams = s_gram(n, g)
    assert blocks.shape == grams.shape == (2, 2, 2, 60)
    for k in n:
        a_mat, b_mat = block_matrices(int(k), g)
        assert np.array_equal(a_mat, a_all[..., k - 1])
        assert np.array_equal(b_mat, b_all[..., k - 1])
        assert np.array_equal(block_matrices(int(k), g), blocks[..., k - 1])
        assert np.array_equal(s_gram(int(k), g), grams[..., k - 1])
    with pytest.raises(ValueError):
        block_matrices(np.array([3, 0, 1]), g)
    with pytest.raises(ValueError):
        s_gram(np.array([0, 1]), g)


def test_s_gram_validation():
    with pytest.raises(ValueError):
        s_gram(0, THIN)


def test_mode_orthogonality_under_gram():
    """Distinct eigenvectors of one parity are S-orthogonal: the cross
    pairing vanishes relative to the norm product, n up to 100."""
    for g in (THIN, THICK):
        table = mode_table(g, 100)
        for n in range(1, 101):
            row = mode_column(table, n)
            g_cos, g_sin = s_gram(n, g)
            v1 = row.pairs[0]
            v2 = row.pairs[2]
            w1 = row.pairs[1]
            w2 = row.pairs[3]
            cross_cos = abs(v1 @ g_cos @ v2)
            cross_sin = abs(w1 @ g_sin @ w2)
            assert cross_cos <= 1e-12 * math.sqrt(row.norms[0] * row.norms[2])
            assert cross_sin <= 1e-12 * math.sqrt(row.norms[1] * row.norms[3])
            # And the norm formulas agree with the quadratic forms.
            assert abs(v1 @ g_cos @ v1 - row.norms[0]) <= 1e-12 * row.norms[0]
            assert abs(v2 @ g_cos @ v2 - row.norms[2]) <= 1e-12 * row.norms[2]
            assert abs(w1 @ g_sin @ w1 - row.norms[1]) <= 1e-12 * row.norms[1]
            assert abs(w2 @ g_sin @ w2 - row.norms[3]) <= 1e-12 * row.norms[3]


def test_critical_radius_examples():
    reg = critical_radius(0.5, 0.8)
    assert reg.kind is RegimeKind.THIN
    assert math.isclose(reg.rho_star, 0.95, rel_tol=1e-15)
    assert math.isclose(reg.far_bound_rho, 1.1, rel_tol=1e-15)

    reg = critical_radius(0.2, 1.0)
    assert reg.kind is RegimeKind.THICK
    assert math.isclose(reg.rho_star, 1.6, rel_tol=1e-15)
    assert math.isclose(reg.far_bound_rho, 2.2, rel_tol=1e-15)


def test_critical_radius_branch_boundary():
    # At rho_e = 3 rho_i the two branch formulas coincide.
    thin_val = (3.0 * 0.9 - 0.3) / 2.0
    thick_val = 2.0 * (0.9 - 0.3)
    assert abs(thin_val - thick_val) <= 1e-15
    reg = critical_radius(0.3, 0.9)
    assert abs(reg.rho_star - thin_val) <= 1e-15


def test_critical_radius_outside_shell():
    for rho_i, rho_e in ((0.5, 0.8), (0.2, 1.0), (0.1, 0.35), (1.0, 4.0)):
        reg = critical_radius(rho_i, rho_e)
        assert reg.rho_star > rho_e
        assert reg.far_bound_rho > reg.rho_star


def test_critical_radius_validation():
    with pytest.raises(ValueError):
        critical_radius(0.0, 0.5)
    with pytest.raises(ValueError):
        critical_radius(0.5, 0.5)


def test_disk_limit_identity():
    """Under rho = ln r the thin critical radius is the classical
    sqrt(r_e^3 / r_i) threshold for concentric disks."""
    for rho_i, rho_e in ((0.5, 0.8), (0.4, 1.0), (1.0, 1.5)):
        direct = (3.0 * rho_e - rho_i) / 2.0
        r_i, r_e = math.exp(rho_i), math.exp(rho_e)
        via_disk = math.log(math.sqrt(r_e**3 / r_i))
        assert abs(direct - via_disk) <= 1e-15 * direct


def test_asymptotic_rate_fields():
    thin = asymptotic_rates(THIN)
    assert thin.kind is RegimeKind.THIN
    width = THIN.rho_e - THIN.rho_i
    assert math.isclose(thin.lambda1_rate, width, rel_tol=1e-15)
    assert math.isclose(thin.lambda2_rate, width, rel_tol=1e-15)
    for key in ("1p", "1m", "2p", "2m"):
        assert math.isclose(thin.norm_rates[key], 2.0 * width, rel_tol=1e-15)

    thick = asymptotic_rates(THICK)
    assert thick.kind is RegimeKind.THICK
    assert math.isclose(thick.lambda1_rate, 2.0 * THICK.rho_i, rel_tol=1e-15)
    assert math.isclose(
        thick.lambda2_rate, 2.0 * (THICK.rho_e - 2.0 * THICK.rho_i), rel_tol=1e-15
    )
    assert math.isclose(thick.norm_rates["1p"], 4.0 * THICK.rho_i, rel_tol=1e-15)
    assert math.isclose(thick.norm_rates["2m"], 4.0 * THICK.rho_i, rel_tol=1e-15)
    width = THICK.rho_e - THICK.rho_i
    assert math.isclose(thick.norm_rates["1m"], 2.0 * width, rel_tol=1e-15)
    assert math.isclose(thick.norm_rates["2p"], 2.0 * width, rel_tol=1e-15)


def _scaled_sequences(g):
    table = mode_table(g, 60)
    rates = asymptotic_rates(g)
    n = np.arange(1, 61, dtype=float)
    return {
        "lambda1": np.abs(table.eigenvalues[0]) * np.exp(rates.lambda1_rate * n),
        "lambda2": table.eigenvalues[2] * np.exp(rates.lambda2_rate * n),
        "norm_1p": table.norms[0] * n * np.exp(rates.norm_rates["1p"] * n),
        "norm_1m": table.norms[1] * n * np.exp(rates.norm_rates["1m"] * n),
        "norm_2p": table.norms[2] * n * np.exp(rates.norm_rates["2p"] * n),
        "norm_2m": table.norms[3] * n * np.exp(rates.norm_rates["2m"] * n),
    }


def _drift(seq, lo, hi):
    window = seq[lo - 1:hi]
    return float((window.max() - window.min()) / abs(window.mean()))


def test_rate_scaled_sequences_converge():
    """Rate-scaled eigenvalues flatten out fast; rate-scaled norms carry a
    first correction of order e^{-n(rho_e - rho_i)} (about 2.5e-3 at
    n = 20 for the 0.5/0.8 shell), so their early-window drift is larger
    but must shrink as the window moves right."""
    for g in (THIN, THICK):
        seqs = _scaled_sequences(g)
        assert _drift(seqs["lambda1"], 20, 60) < 1e-3
        assert _drift(seqs["lambda2"], 20, 60) < 1e-3
        for key in ("norm_1p", "norm_1m", "norm_2p", "norm_2m"):
            assert _drift(seqs[key], 20, 60) < 1e-2
            assert _drift(seqs[key], 40, 60) < _drift(seqs[key], 20, 40)
            assert _drift(seqs[key], 40, 60) < 1e-4


def test_overflow_guard_on_large_modes():
    with pytest.raises(OverflowGuard):
        mode_table(THIN, 500)


def test_mode_validation():
    with pytest.raises(ValueError):
        mode_table(THIN, 0)
    with pytest.raises(ValueError):
        block_matrices(0, THIN)


def test_mode_table_refuses_before_sizing_its_arrays():
    """The 2 n rho_e bound is checked from n_max alone: refusing two
    million modes allocates under 1 MB, not a 16 MB array of indices."""
    tracemalloc.start()
    try:
        with pytest.raises(OverflowGuard, match=r"at n = 2000000$"):
            mode_table(THIN, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n_max, message", [
    (10**308, f"2*n*rho_e exceeds double range at n = {10**308}"),  # 1.6e308 is inf
    (2**1024, f"2*n*rho_e exceeds double range at n = {2**1024}"),  # past float()
    (10**400, f"2*n*rho_e exceeds double range at n = {10**400}"),
    (10**5000, "2*n*rho_e exceeds double range at an n too long to print"),
], ids=["1e308", "2**1024", "1e400", "1e5000"])
def test_mode_table_refuses_any_int_past_the_bound(n_max, message):
    """Every int past the bound is an OverflowGuard: also one whose
    2 n rho_e is no double, or that Python does not convert to text.  The
    message gives 2 n rho_e and n only where they can be formed."""
    with pytest.raises(OverflowGuard) as info:
        mode_table(THIN, n_max)
    assert str(info.value) == message
