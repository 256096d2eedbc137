"""The field.csv number kernel, numtext.g17_cells, against the CLI's
reference text, cli._fmt.

g17_cells gives each value's '%.17g' text, behind the comma of its CSV
field, as a NUL-padded uint8 row; a value its certified fast path
(numtext.digits17) declines gets _fmt's own text.  Every test here asks
for _fmt's text byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from calr_lab import cli, numtext

MAX = np.finfo(np.float64).max


def _row_texts(cells: np.ndarray) -> str:
    """The rows of g17_cells joined, their NUL bytes left out: ",t0,t1,..."."""
    return cells[cells != 0].tobytes().decode("ascii")


def _texts(x) -> list[str]:
    """Each value's text, its comma left out."""
    cells = numtext.g17_cells(np.asarray(x, dtype=np.float64))
    fields = _row_texts(cells).split(",")
    assert fields[0] == "" and len(fields) == len(cells) + 1
    return fields[1:]


def _fmt_all(x) -> list[str]:
    return [cli._fmt(v) for v in np.asarray(x, dtype=np.float64).tolist()]


def _certified(x) -> np.ndarray:
    return numtext.digits17(np.asarray(x, dtype=np.float64))[2]


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, MAX, -MAX])
@example([float("inf"), float("-inf"), float("nan"), 1e-250, 1e17, 1e-5, 1e-4])
def test_kernel_matches_fmt_on_any_floats(xs):
    assert _texts(xs) == _fmt_all(xs)


def test_kernel_matches_fmt_on_random_bit_patterns():
    """10^6 random sign and mantissa bits, with exponent bits from 2^-840 to
    2^60: the binades the fast path serves, 1e-250 <= |x| < 1e17, and
    those just past both ends.  Farther out every value is declined to
    _fmt wholesale; the hypothesis test draws them."""
    rng = np.random.default_rng(2028)
    n = 10**6
    bits = rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(1023 - 840, 1023 + 61, n, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    x = bits.view(np.float64)
    chunks = [x[k:k + 2**16] for k in range(0, n, 2**16)]  # bounded memory
    got = "".join(_row_texts(numtext.g17_cells(chunk)) for chunk in chunks)
    if got != "," + ",".join(map(cli._fmt, x.tolist())):
        got_list = got.split(",")[1:]
        bad = [k for k in range(n) if got_list[k] != cli._fmt(x[k])][:5]
        raise AssertionError([(x[k], got_list[k], cli._fmt(x[k])) for k in bad])
    assert _certified(chunks[0]).mean() > 0.95


def test_kernel_matches_fmt_at_powers_of_ten():
    """Every 10^k, k in [-300, 300], and its two neighbours, where
    floor(log10|x|) can be one off the exponent of the text."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    x = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    assert _texts(np.concatenate([x, -x])) == _fmt_all(np.concatenate([x, -x]))


def test_kernel_matches_fmt_at_the_edges():
    x = [float(2**53 - 1), float(2**53), float(2**53 + 1), np.nextafter(2.0**53, np.inf),
         2.0**54, MAX, -MAX, np.nextafter(1e17, 0), 99999999999999999.0]
    assert _texts(x) == _fmt_all(x)


@pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["below", "above"])
def test_kernel_survives_a_log10_one_ulp_off(monkeypatch, direction):
    """floor(log10|x|) one below the exponent takes the D = 10^17 branch
    (read as 10^16 at E + 1), one above the t < 10^16 branch; a log10
    that rounds the other way than this platform's must not move a byte.
    """
    powers = np.array([float(f"1e{k}") for k in range(-250, 17)])
    x = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf),
                        np.random.default_rng(7).uniform(-1e3, 1e3, 2000)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    assert _texts(x) == _fmt_all(x)
    assert _certified(x).mean() > 0.8


def test_kernel_rounds_up_to_a_new_decade():
    """A value whose 17 digits round up to the next power of ten prints as
    that power; the doubles below 1e-14 and 1e-70 do so, in range."""
    x = [9.99999999999999999e5, 1e-14, 1e-70, -1e-70]
    assert Fraction(1e-14) < Fraction(1, 10**14) and Fraction(1e-70) < Fraction(1, 10**70)
    assert _texts(x) == ["1000000", "1e-14", "1e-70", "-1e-70"] == _fmt_all(x)
    assert _certified(x).all()


def test_kernel_declines_a_tie_to_fmt():
    """1125899906842624.25 has 18 digits and ends in 5: |x| 10^1 sits on a
    half-way point, so the fast path declines it and _fmt rounds it to
    even."""
    x = [1125899906842624.25, -1125899906842624.25, 1.5]
    assert list(_certified(x)) == [False, False, True]
    assert _texts(x) == ["1125899906842624.2", "-1125899906842624.2", "1.5"] == _fmt_all(x)


def _reference_field_rows(xs, ys, blank, values) -> str:
    """field.csv's grid rows cell by cell with _fmt: x1, x2, then re, im,
    |v| from the next row of ``values`` or, for a blank cell, nothing."""
    cells = iter(values.tolist())
    lines = []
    for j, y in enumerate(ys.tolist()):
        for i, x in enumerate(xs.tolist()):
            parts = ["", "", ""] if blank[j, i] else [cli._fmt(v) for v in next(cells)]
            lines.append(",".join([cli._fmt(x), cli._fmt(y)] + parts) + "\n")
    assert next(cells, None) is None
    return "".join(lines)


def test_field_rows_match_a_per_cell_reference():
    """cli._field_rows on a 7 x 17 grid, so three blocks with the last one
    row long (17 = 2 * 8 + 1): the first has no blank cell and values in
    exponent form, the second is all blank, the last has one lone blank
    cell and values none of which needs an exponent."""
    assert cli._FIELD_BLOCK == 8
    rng = np.random.default_rng(32)
    xs = np.linspace(-2.5, 2.5, 7)
    ys = np.linspace(-1.25, 1.25, 17)
    blank = np.zeros((17, 7), bool)
    blank[8:16] = True
    blank[16, 3] = True
    first = rng.standard_normal((8 * 7, 3)) * 10.0 ** rng.integers(-9, 21, (8 * 7, 3))
    first[:4] = [[0.0, -0.0, 1e-5], [1e17, -3e-250, 5e-324], [1.5e300, 1e16, 1e-4], [-7.0, 0.5, 2.0]]
    last = rng.uniform(-900.0, 900.0, (6, 3))
    last[0] = [0.0, -0.0, 1e-4]  # zero prints "0": no exponent either
    values = np.concatenate([first, last])
    assert (np.abs(last) < 1e16).all() and ((np.abs(last) >= 1e-4) | (last == 0)).all()
    assert any("e" in cli._fmt(v) for v in first.ravel().tolist())

    blocks = list(cli._field_rows(xs, ys, blank, values))
    assert [b.count("\n") for b in blocks] == [8 * 7, 8 * 7, 7]
    assert blocks[1] == "".join(f"{cli._fmt(x)},{cli._fmt(y)},,,\n"
                                for y in ys[8:16].tolist() for x in xs.tolist())
    assert "".join(blocks) == _reference_field_rows(xs, ys, blank, values)
    assert "e" not in blocks[2]
