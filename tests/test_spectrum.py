"""Tests for the mode eigendata: closed forms vs high-precision recomputation."""

from __future__ import annotations

import math

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
    mode_data,
    mode_table,
    s_gram,
    single_ellipse_np,
)

mpmath.mp.dps = 60

THIN = ConfocalGeometry(1.0, 0.5, 0.8)
THICK = ConfocalGeometry(1.0, 0.2, 1.0)


def _mp_mode(n, rho_i, rho_e):
    """Recompute one mode's eigendata with 60-digit arithmetic.

    Returns a dict of floats: the double-precision roundings of the
    high-precision values, so any agreement failure beyond a few ulps
    points at the library, not at this oracle.
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

    return {
        "lambda1": float(lam1),
        "lambda2": float(lam2),
        "a1": float(a1),
        "a2": float(a2),
        "b": float(b),
        "norm_1p": float(quad(g_cos, (a1, b))),
        "norm_1m": float(quad(g_sin, (b, a2))),
        "norm_2p": float(quad(g_cos, (a2, b))),
        "norm_2m": float(quad(g_sin, (b, a1))),
    }


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
            for key, want in ref.items():
                got = getattr(md, key)
                assert math.isclose(got, want, rel_tol=1e-14), (
                    f"{key} at n={n}: {got} vs {want}"
                )


def test_trace_and_det_match_eigenvalues():
    for g in (THIN, THICK):
        for n in range(1, 51):
            a_mat, b_mat = block_matrices(n, g)
            md = mode_data(n, g)
            scale = abs(md.lambda1) + abs(md.lambda2)
            assert abs(np.trace(a_mat) - (md.lambda1 + md.lambda2)) <= 1e-13 * scale
            assert abs(np.trace(b_mat) + (md.lambda1 + md.lambda2)) <= 1e-13 * scale
            prod = md.lambda1 * md.lambda2
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
                (a_mat, np.array([md.a1, md.b]), md.lambda1),
                (a_mat, np.array([md.a2, md.b]), md.lambda2),
                (b_mat, np.array([md.b, md.a2]), -md.lambda1),
                (b_mat, np.array([md.b, md.a1]), -md.lambda2),
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
            want = np.sort([md.lambda1, md.lambda2])
            assert np.all(np.abs(got_a - want) <= 1e-13 * np.abs(want))
            got_b = np.sort(np.linalg.eigvals(b_mat).real)
            want_b = np.sort([-md.lambda1, -md.lambda2])
            assert np.all(np.abs(got_b - want_b) <= 1e-13 * np.abs(want_b))


def test_mode_sign_invariants():
    for g in (THIN, THICK):
        table = mode_table(g, 100)
        assert np.all(table.lambda1 < 0.0)
        assert np.all(table.lambda2 > 0.0)
        assert np.all(np.abs(table.lambda1) < 0.5)
        assert np.all(table.lambda2 < 0.5)
        assert np.all(table.a1 > 0.0)
        assert np.all(table.a2 < 0.0)
        assert np.all(table.b < 0.0)
        for name in ("norm_1p", "norm_1m", "norm_2p", "norm_2m"):
            assert np.all(getattr(table, name) > 0.0)


def test_mode_table_matches_mode_data():
    table = mode_table(THIN, 20)
    for n in (1, 7, 20):
        row = table.row(n)
        single = mode_data(n, THIN)
        for name in ("lambda1", "lambda2", "a1", "a2", "b",
                     "norm_1p", "norm_1m", "norm_2p", "norm_2m"):
            assert getattr(row, name) == getattr(single, name)


def test_mode_table_truncation_is_bit_identical():
    for g in (THIN, THICK):
        head = mode_table(g, 120).truncated(37)
        fresh = mode_table(g, 37)
        for name in ("n", "lambda1", "lambda2", "a1", "a2", "b",
                     "norm_1p", "norm_1m", "norm_2p", "norm_2m"):
            assert np.array_equal(getattr(head, name), getattr(fresh, name))
    with pytest.raises(ValueError):
        mode_table(THIN, 5).truncated(6)
    with pytest.raises(ValueError):
        mode_table(THIN, 5).truncated(0)


def test_s_gram_diagonal_and_symmetry():
    g_cos = s_gram(1, THIN, "cos")
    want = float(mpmath.pi * mpmath.e ** mpmath.mpf("-0.5")
                 * mpmath.cosh(mpmath.mpf("0.5")))
    assert math.isclose(g_cos[0, 0], want, rel_tol=1e-15)
    for n in (1, 5, 40, 100):
        for parity in ("cos", "sin"):
            gram = s_gram(n, THIN, parity)
            assert gram.shape == (2, 2)
            assert gram[0, 1] == gram[1, 0]
            # Positive definiteness via Cholesky.
            np.linalg.cholesky(gram)


@pytest.mark.parametrize(
    "g", [THIN, THICK, ConfocalGeometry(2.0, 1.5, 3.0)], ids=["thin", "thick", "R2"]
)
def test_one_mode_forms_are_columns_of_the_array_forms(g):
    """block_matrices and s_gram take an array of mode indices, with shape
    (2, 2) + shape(n); at an int n they give column n of it bit for bit."""
    n = np.arange(1, 61)
    a_all, b_all = block_matrices(n, g)
    grams = {parity: s_gram(n, g, parity) for parity in ("cos", "sin")}
    assert a_all.shape == b_all.shape == grams["cos"].shape == (2, 2, 60)
    for k in n:
        a_mat, b_mat = block_matrices(int(k), g)
        assert np.array_equal(a_mat, a_all[..., k - 1])
        assert np.array_equal(b_mat, b_all[..., k - 1])
        for parity, gram in grams.items():
            assert np.array_equal(s_gram(int(k), g, parity), gram[..., k - 1])
    with pytest.raises(ValueError):
        block_matrices(np.array([3, 0, 1]), g)
    with pytest.raises(ValueError):
        s_gram(np.array([0, 1]), g, "sin")


def test_s_gram_validation():
    with pytest.raises(ValueError):
        s_gram(0, THIN, "cos")
    with pytest.raises(ValueError):
        s_gram(1, THIN, "tan")


def test_mode_orthogonality_under_gram():
    """Distinct eigenvectors of one parity are S-orthogonal: the cross
    pairing vanishes relative to the norm product, n up to 100."""
    for g in (THIN, THICK):
        table = mode_table(g, 100)
        for n in range(1, 101):
            row = table.row(n)
            g_cos = s_gram(n, g, "cos")
            g_sin = s_gram(n, g, "sin")
            v1 = np.array([row.a1, row.b])
            v2 = np.array([row.a2, row.b])
            w1 = np.array([row.b, row.a2])
            w2 = np.array([row.b, row.a1])
            cross_cos = abs(v1 @ g_cos @ v2)
            cross_sin = abs(w1 @ g_sin @ w2)
            assert cross_cos <= 1e-12 * math.sqrt(row.norm_1p * row.norm_2p)
            assert cross_sin <= 1e-12 * math.sqrt(row.norm_1m * row.norm_2m)
            # And the norm formulas agree with the quadratic forms.
            assert abs(v1 @ g_cos @ v1 - row.norm_1p) <= 1e-12 * row.norm_1p
            assert abs(v2 @ g_cos @ v2 - row.norm_2p) <= 1e-12 * row.norm_2p
            assert abs(w1 @ g_sin @ w1 - row.norm_1m) <= 1e-12 * row.norm_1m
            assert abs(w2 @ g_sin @ w2 - row.norm_2m) <= 1e-12 * row.norm_2m


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
        "lambda1": np.abs(table.lambda1) * np.exp(rates.lambda1_rate * n),
        "lambda2": table.lambda2 * np.exp(rates.lambda2_rate * n),
        "norm_1p": table.norm_1p * n * np.exp(rates.norm_rates["1p"] * n),
        "norm_1m": table.norm_1m * n * np.exp(rates.norm_rates["1m"] * n),
        "norm_2p": table.norm_2p * n * np.exp(rates.norm_rates["2p"] * n),
        "norm_2m": table.norm_2m * n * np.exp(rates.norm_rates["2m"] * n),
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
        mode_data(500, THIN)
    with pytest.raises(OverflowGuard):
        mode_table(THIN, 500)


def test_mode_validation():
    with pytest.raises(ValueError):
        mode_data(0, THIN)
    with pytest.raises(ValueError):
        mode_table(THIN, 0)
    with pytest.raises(ValueError):
        block_matrices(0, THIN)
