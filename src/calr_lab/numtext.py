"""The text of a CSV number: Python's '%.17g' of a double, for one value
(fmt, the definition) or, behind its field's comma, for a whole float64
array at once (g17_cells).

g17_cells forms the 17 digits from integers, as in Loitsch, "Printing
floating-point numbers quickly and accurately with integers" (PLDI
2010).  With E = floor(log10|x|), t = |x| 10^(16-E) is formed as a
double-double h + lo: 10^k is held as hi + lo, both rounded from exact
ints, and |x| hi is Dekker's exact TwoProduct over Veltkamp's split
(Numer. Math. 18, 1971).  Then |h + lo - t| < 2^-104 t < 2^-47 for
t < 2^57, so D = round(t), the 17-digit integer of '%.17g', is certified
where t sits _TIE_MARGIN or more from a half-way point.  A value not
certified (zero, not finite, out of _FAST_RANGE, next to a tie) is
formatted by fmt.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 2.0**-30
_FAST_RANGE = (1e-250, 1e17)  # certified |x|: -250 <= E <= 16
_ONE_TO_20 = np.arange(1, 21, dtype=np.uint8)[:, None]


def fmt(x: float) -> str:
    """The text of one CSV number; g17_cells writes the same bytes."""
    return format(float(x), ".17g")


class _Tables(NamedTuple):
    """10^k = hi + lo for k = 16 - E in [0, 266], hi as hi_hi + hi_lo; and
    %g's layout for each E + 250 in [0, 267]: D = I scale + F, I the
    n_int digits before the point and F those after it.  The 20 digits
    after the point, the zeros of "0.000" first, are F 10^m: the first
    4 are F // div * top, the other 16 (F mod div) * low.  The exponent
    text of each E + 250 ("" in fixed form), at most 5 bytes, is held
    NUL-padded to 8 as one uint64, so that one gather fetches it."""

    hi: np.ndarray
    lo: np.ndarray
    hi_hi: np.ndarray
    hi_lo: np.ndarray
    scale: np.ndarray
    div: np.ndarray
    top: np.ndarray
    low: np.ndarray
    n_int: np.ndarray
    exponent: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so importing the CLI does not pay for it."""
    hi = [float(10**k) for k in range(267)]
    lo = np.array([float(10**k - int(h)) for k, h in enumerate(hi)])
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    e = np.arange(-250, 18)
    fixed = (e >= -4) & (e <= 16)
    after = np.where(fixed, np.minimum(16 - e, 17), 16)
    m = np.where(fixed, 4 + e, 4)
    exponent = [f"e{k:+03d}" if k < -4 or k > 16 else "" for k in e.tolist()]
    return _Tables(
        hi, lo, hi_hi, hi - hi_hi,
        10**after, 10 ** np.maximum(16 - m, 0), 10 ** np.maximum(m - 16, 0),
        10 ** np.minimum(m, 16), np.where(fixed & (e >= 0), e + 1, 1).astype(np.uint8),
        np.array(exponent, dtype="S8").view(np.uint64),
    )


def digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, certified): %.17g of x reads the digits of D, 10^16 <= D < 10^17,
    with the point after the first at exponent E.

    Certified: |x| in _FAST_RANGE and round(t) _TIE_MARGIN clear of a
    tie.  floor(log10|x|) may be one off E near a power of ten: one too
    small gives D = 10^17, read as 10^16 at E + 1; one too large gives
    t < 10^16, certified only where 10 t rounds up to 10^17, which is
    D = 10^16 at this E.  D and E of the others mean nothing.
    """
    tab = _tables()
    a = np.abs(x)
    ok = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    a = np.where(ok, a, 1.0)  # nothing out of range reaches log10 or the split
    e = np.minimum(np.maximum(np.floor(np.log10(a)), -250.0), 16.0).astype(np.int64)
    k = 16 - e
    h = a * tab.hi[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi_hi, hi_lo = tab.hi_hi[k], tab.hi_lo[k]
    lo = (((a_hi * hi_hi - h) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * tab.lo[k]
    r = np.rint(lo)
    d = h.astype(np.int64) + r.astype(np.int64)  # h >= 2^53 is an integer
    frac = lo - r
    ok &= (np.abs(frac) < 0.5 - _TIE_MARGIN) & (d <= 10**17)
    ok &= (d > 10**16) | ((d == 10**16) & (frac > _TIE_MARGIN - 0.05))
    top = d == 10**17
    d[top] = 10**16
    return d, e + top, ok


def _put_digits(v: np.ndarray, rows: np.ndarray) -> None:
    """Write the decimal digits (0-9) of v >= 0 down the first axis of
    ``rows``, units last; v has the shape of rows[0]."""
    for row in rows[::-1]:
        q = v // 10
        np.subtract(v, q * 10, out=row, casting="unsafe")
        v = q


def text_cells(texts: list[str]) -> np.ndarray:
    """ASCII texts as the NUL-padded rows of a (len, width) uint8 array."""
    cells = np.array(texts, dtype="S")
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


def g17_cells(x: np.ndarray) -> np.ndarray:
    """Each value of the 1-d float64 ``x`` as a CSV field after its comma,
    in the NUL-padded rows of a uint8 array.

    Row i, its NUL bytes left out, is "," + fmt(x[i]).  Laid out by %g's
    rules: exponent form iff E < -4 or E > 16, trailing zeros dropped,
    and an exponent of at least two digits.  The columns are the comma,
    the sign, the integer digits aligned right against the point, the
    point, 20 digits (the zeros after "0." of E = -2..-4, then 17), and
    the exponent; whatever a value does not use is NUL.  A value
    digits17 does not certify gets fmt's own text, aligned left.
    """
    tab = _tables()
    d, e, ok = digits17(x)
    at_e = e + 250
    scale, div = tab.scale[at_e], tab.div[at_e]
    i = d // scale
    f = d - i * scale
    q0 = f // div
    low = (f - q0 * div) * tab.low[at_e]  # < 10^16
    n_int = tab.n_int[at_e]
    wi = int(n_int.max(initial=1))
    n = x.size

    cols = np.zeros((wi + 28, n), np.uint8)  # column-major: one op per column
    int_cols = cols[2:wi + 2]
    _put_digits(i.astype(np.int32) if wi <= 9 else i, int_cols)
    int_cols += ord("0")
    int_cols *= _ONE_TO_20[wi - 1::-1] <= n_int  # no leading zeros
    cols[0] = ord(",")
    cols[1] = np.signbit(x) * np.uint8(ord("-"))

    # The 20 digits after the point, 4 by 4; uint16 halves the digit loop's bytes.
    quads = np.empty((5, n), np.uint16)
    quads[0] = q0 * tab.top[at_e]
    for k, eight in ((1, low // 10**8), (3, low % 10**8)):
        four = eight // 10**4
        quads[k], quads[k + 1] = four, eight - four * 10**4
    frac_cols = cols[wi + 3:wi + 23]
    _put_digits(quads, frac_cols.reshape(5, 4, n).swapaxes(0, 1))
    last = ((frac_cols != 0) * _ONE_TO_20).max(axis=0, initial=0)
    frac_cols += ord("0")
    frac_cols *= _ONE_TO_20 <= last  # no trailing zeros
    cols[wi + 2] = (last > 0) * ord(".")
    cols[wi + 23:] = tab.exponent[at_e].view(np.uint8).reshape(n, 8)[:, :5].T
    declined = np.flatnonzero(~ok)
    if declined.size:
        fallback = text_cells(["," + fmt(v) for v in x[declined].tolist()])
        cols[:, declined] = 0
        cols[:fallback.shape[1], declined] = fallback.T
    return cols.T
