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
