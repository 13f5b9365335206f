"""Representation cache files: magic "QFR1", little-endian, bit-exact.

Layout: 4 magic bytes, then a header of three signed 64-bit form coefficients
and an unsigned 64-bit record count, then count records of (p: u64, x: i64,
y: i64) sorted by p. The format carries no coverage bound, so readers treat
the largest stored prime as the trusted coverage limit. Nor does it carry a
checksum: the reader checks every record instead (`_check_rows`). The writer
takes the rows as a stream of blocks and writes the count last, so only the
reader ever holds a whole table.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .atomic import replacing
from .errors import CacheFormatError, TableBoundError
from .forms import QuadraticForm, RepTable, _extents

MAGIC = b"QFR1"
_HEADER = struct.Struct("<qqqQ")

_RECORD_DTYPE = np.dtype([("p", "<u8"), ("x", "<i8"), ("y", "<i8")])


def write_cache(path, form: QuadraticForm, blocks: Iterable[RepTable]) -> int:
    """Write the rows of blocks, ascending in p, as a QFR1 cache of form;
    returns the record count.

    The header goes out with a count of 0, then each block's records as one
    packed array, and then the header again with the real count; so the
    writer holds one block at a time. The file is written whole or not at
    all (`atomic.replacing`): a write that fails leaves any previous cache
    at path whole. A path that exists and is not a regular file after its
    links (a FIFO, a device) is refused with ValueError before it is opened:
    a FIFO's open blocks, and neither can seek back to the count.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"cache target {path} is not a regular file")
    count = 0
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(form.a, form.b, form.c, 0))
        for block in blocks:
            rec = np.empty(len(block), dtype=_RECORD_DTYPE)
            rec["p"], rec["x"], rec["y"] = block.p, block.x, block.y
            fh.write(rec.tobytes())
            count += len(block)
        fh.seek(len(MAGIC))
        fh.write(_HEADER.pack(form.a, form.b, form.c, count))
    return count


def read_cache(path, expected_form: QuadraticForm | None = None) -> RepTable:
    """Read a QFR1 file back into a table.

    Raises CacheFormatError on a bad magic, truncated payload, unsorted or
    non-canonical records (`_check_rows`), or (when expected_form is given)
    mismatched coefficients. The header is checked against the file size
    first, then the payload is read once, straight into the record array.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size)
        if head[:4] != MAGIC:
            raise CacheFormatError(f"{path}: not a QFR1 cache (bad magic)")
        if len(head) < 4 + _HEADER.size:
            raise CacheFormatError(f"{path}: truncated header")
        a, b, c, count = _HEADER.unpack_from(head, 4)
        size = os.fstat(fh.fileno()).st_size - len(head)
        if size != count * _RECORD_DTYPE.itemsize:
            raise CacheFormatError(
                f"{path}: expected {count} records, payload holds "
                f"{size // _RECORD_DTYPE.itemsize}"
            )
        records = np.fromfile(fh, dtype=_RECORD_DTYPE, count=count)
    try:
        form = QuadraticForm(a, b, c)
    except ValueError as exc:
        raise CacheFormatError(f"{path}: invalid form in header: {exc}") from exc
    if expected_form is not None and form != expected_form:
        raise CacheFormatError(
            f"{path}: cache holds form {form}, expected {expected_form}"
        )
    p, x, y = (records[k].astype(np.int64) for k in _RECORD_DTYPE.names)
    del records  # the checks' temporaries reuse its memory
    if p.size:
        _check_rows(path, form, p, x, y)
    return RepTable(form, p, x, y, int(p[-1]) if p.size else 0)


def _check_rows(path, form: QuadraticForm, p, x, y) -> None:
    """CacheFormatError unless the rows ascend by p, then by (x, y), and each
    is a canonical representation of its prime.

    Rows within 2 <= p, 0 <= y < x and `forms._extents` at the largest p keep
    every term of Q inside its int64 guard, so Q(x, y) = p is exact there; a
    row outside is refused whatever its wrapped Q. The one flip of a bit of
    x or y that keeps Q(x, y) = p lands on another row of p, out of order.
    """
    if np.any(np.diff(p) < 0):
        raise CacheFormatError(f"{path}: records are not sorted by p")
    try:
        x_max, y_max = _extents(form, int(p[-1]))
    except TableBoundError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
    bad = (p < 2) | (y < 0) | (y >= x) | (x > x_max) | (y > y_max)
    bad |= form.a * x * x + form.c * y * y != p - form.b * x * y
    tie = np.flatnonzero(p[1:] == p[:-1])
    bad[tie + 1] |= (x[tie + 1] < x[tie]) | (x[tie + 1] == x[tie]) & (y[tie + 1] <= y[tie])
    if bad.any():
        i = int(np.argmax(bad))
        raise CacheFormatError(f"{path}: record {i} (p={p[i]}, x={x[i]}, y={y[i]}) is "
                               "not a canonical representation of p, or is out of order")
