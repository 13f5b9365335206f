"""Exact CSV text of numeric columns, a block of rows at a time.

Every text table qfbias writes comes from `csv_blocks`. Its bytes equal
Python's own formatting of each value:

  * an integer column writes `str(v)`;
  * a float column writes `format(v, ".12f")`, and NaN, meaning
    "undefined", writes an empty field.

Each block is laid out as an (n, width) byte matrix: every field is
right-aligned in its own fixed span of columns, padded on the left with
NUL bytes, and one boolean compaction drops the padding. No digit or
separator is NUL, so what is left is the rows' text.
"""

from __future__ import annotations

import numpy as np

ROW_BLOCK = 1 << 13  # rows per block: bounds the byte matrix to a few hundred KB

_COMMA, _NEWLINE, _MINUS, _POINT, _ZERO = b",\n-.0"
_FRAC_DIGITS = 12
_FRAC_ONE = 10**_FRAC_DIGITS
_FIVE = np.uint64(5**_FRAC_DIGITS)
_LOW26 = np.uint64((1 << 26) - 1)
_FLOAT_LIMIT = 2.0**63


def csv_blocks(columns):
    """Yield the CSV lines of equal-length columns as bytes, ROW_BLOCK rows at a time.

    Integer columns are cast to int64 (a cast that could lose values is
    refused) and float columns to float64. Raises ValueError for a float
    that is infinite or of magnitude >= 2**63: no qfbias column can hold
    one (angles, statistics, quotients of coordinate sums and Li
    predictions are all bounded), and the exact route here covers only
    |v| < 2**63. Memory is bounded by the block, not by the table.
    """
    columns = [_as_column(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns differ in length")
    for lo in range(0, n, ROW_BLOCK):
        yield _block([c[lo : lo + ROW_BLOCK] for c in columns])


def _as_column(c) -> np.ndarray:
    c = np.asarray(c)
    if c.dtype.kind == "f":
        return c.astype(np.float64, casting="safe", copy=False)
    if c.dtype.kind in "iu":
        return c.astype(np.int64, casting="safe", copy=False)
    raise TypeError(f"cannot write a column of dtype {c.dtype}")


def _block(columns) -> bytes:
    fields = [_float_parts(c) if c.dtype == np.float64 else _int_parts(c) for c in columns]
    # integer digits plus a sign column when the block holds a negative
    spans = [len(str(int(whole.max()))) + bool(negative.any()) for whole, negative, *_ in fields]
    width = sum(spans) + sum(1 + _FRAC_DIGITS for f in fields if f[2] is not None) + len(fields)
    text = np.zeros((len(columns[0]), width), dtype=np.uint8)
    at = 0
    for (whole, negative, frac, undefined), span in zip(fields, spans):
        start = at
        _put_int(text[:, at : at + span], whole, negative)
        at += span
        if frac is not None:
            text[:, at] = _POINT
            _put_fraction(text[:, at + 1 : at + 1 + _FRAC_DIGITS], frac)
            at += 1 + _FRAC_DIGITS
            if undefined.any():
                text[undefined, start:at] = 0
        text[:, at] = _COMMA
        at += 1
    text[:, -1] = _NEWLINE
    flat = text.reshape(-1)
    return flat[flat != 0].tobytes()


def _int_parts(col: np.ndarray):
    """Magnitude (exact, -2**63 included) and sign of an int64 column."""
    return np.abs(col).view(np.uint64), col < 0, None, None


def _float_parts(col: np.ndarray):
    """Integer part, sign and 12-digit fraction of format(v, ".12f"), and NaN rows.

    The fraction f of |v| is exactly m * 2**-k with m < 2**53, so
    f * 10**12 = m * 5**12 / 2**(k - 12), rounded half to even. m is split
    into limbs of 27 and 26 bits so every product fits in uint64; a
    fraction that rounds up to 10**12 carries into the integer part.
    """
    undefined = np.isnan(col)
    mag = np.abs(col)
    if (mag >= _FLOAT_LIMIT).any():
        raise ValueError("float column holds an infinity or a value of magnitude >= 2**63")
    mag[undefined] = 0.0
    whole = np.floor(mag)
    mantissa, exponent = np.frexp(mag - whole)
    m = (mantissa * 2.0**53).astype(np.uint64)
    # shift s = k - 12 >= 41; past 89 the quotient and the half bit are 0 anyway
    s = np.minimum(41 - exponent, 89).astype(np.uint64)
    b = (m & _LOW26) * _FIVE
    c = (m >> np.uint64(26)) * _FIVE + (b >> np.uint64(26))
    # m * 5**12 = c * 2**26 + (b & _LOW26)
    frac = c >> (s - np.uint64(26))
    half = (c >> (s - np.uint64(27))) & np.uint64(1)
    sticky = (c & ((np.uint64(1) << (s - np.uint64(27))) - np.uint64(1))) | (b & _LOW26)
    frac += half & ((sticky != 0) | (frac & np.uint64(1)))
    carry = frac == _FRAC_ONE
    frac[carry] = 0
    return whole.astype(np.uint64) + carry, np.signbit(col) & ~undefined, frac, undefined


def _put_int(field: np.ndarray, u: np.ndarray, negative: np.ndarray) -> None:
    """Right-align the decimal text of -u where negative, else u, in field."""
    if u.max() < 2**32:
        u = u.astype(np.uint32)
    ndigits = _put_digits(field, u)
    rows = np.flatnonzero(negative)
    field[rows, field.shape[1] - 1 - ndigits[rows]] = _MINUS


def _put_fraction(field: np.ndarray, frac: np.ndarray) -> None:
    """Write the 12-digit, zero-filled fraction as two 6-digit uint32 halves."""
    high = frac // 10**6
    _put_digits(field[:, :6], high.astype(np.uint32), zero_fill=True)
    _put_digits(field[:, 6:], (frac - high * 10**6).astype(np.uint32), zero_fill=True)


def _put_digits(field: np.ndarray, u: np.ndarray, zero_fill: bool = False) -> np.ndarray:
    """Write u in decimal, right-aligned across field, as ASCII; return digit counts.

    Leading zeros are left NUL unless zero_fill. Arithmetic runs in u's own
    dtype, so a uint32 u costs about half a uint64 one.
    """
    width = field.shape[1]
    ndigits = np.ones(u.size, dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        q = u // 10
        char = (u - q * 10).astype(np.uint8)
        char += _ZERO
        if j < width - 1 and not zero_fill:
            shown = (u != 0).view(np.uint8)
            char *= shown
            ndigits += shown
        field[:, j] = char
        u = q
    return ndigits
