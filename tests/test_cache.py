import errno
import io
import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest

from qfbias import atomic, cache
from qfbias.cache import MAGIC, read_cache, write_cache
from qfbias.errors import CacheFormatError
from qfbias.forms import QuadraticForm, RepTable, empty_table, representation_table, row_blocks
from qfbias.primes import sieve_range

from oracles import table_to

Q11 = QuadraticForm(1, 0, 1)


def test_round_trip_bit_exact(tmp_path):
    table = representation_table(Q11, sieve_range(2, 5000))
    path = tmp_path / "t.qfr"
    write_cache(path, table.form, [table])
    back = read_cache(path, expected_form=Q11)
    assert back.form == table.form
    assert np.array_equal(back.p, table.p)
    assert np.array_equal(back.x, table.x)
    assert np.array_equal(back.y, table.y)


def test_pinned_byte_layout(tmp_path):
    arr = np.array([5], dtype=np.int64)
    table = RepTable(Q11, arr, np.array([2], dtype=np.int64), np.array([1], dtype=np.int64), 5)
    path = tmp_path / "one.qfr"
    write_cache(path, table.form, [table])
    expected = (
        MAGIC
        + struct.pack("<qqqQ", 1, 0, 1, 1)
        + struct.pack("<Qqq", 5, 2, 1)
    )
    assert path.read_bytes() == expected


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.qfr"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.qfr"
    path.write_bytes(MAGIC + struct.pack("<qqqQ", 1, 0, 1, 3) + b"\x00" * 8)
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_form_mismatch_rejected(tmp_path):
    table = representation_table(Q11, sieve_range(2, 100))
    path = tmp_path / "t.qfr"
    write_cache(path, table.form, [table])
    with pytest.raises(CacheFormatError):
        read_cache(path, expected_form=QuadraticForm(1, 0, 2))


def test_invalid_header_form_rejected(tmp_path):
    path = tmp_path / "badform.qfr"
    path.write_bytes(MAGIC + struct.pack("<qqqQ", 2, 4, 6, 0))
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_unsorted_records_rejected(tmp_path):
    path = tmp_path / "unsorted.qfr"
    body = struct.pack("<Qqq", 13, 3, 2) + struct.pack("<Qqq", 5, 2, 1)
    path.write_bytes(MAGIC + struct.pack("<qqqQ", 1, 0, 1, 2) + body)
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_reader_takes_max_prime_as_limit(tmp_path):
    table = representation_table(Q11, sieve_range(2, 5000))
    path = tmp_path / "t.qfr"
    write_cache(path, table.form, [table])
    back = read_cache(path)
    assert back.limit == back.max_prime


def test_empty_cache_round_trip(tmp_path):
    table = representation_table(Q11, sieve_range(2, 4))  # only 2, 3: no records
    path = tmp_path / "empty.qfr"
    write_cache(path, table.form, [table])
    back = read_cache(path, expected_form=Q11)
    assert len(back) == 0
    assert back.limit == 0


@pytest.mark.parametrize("blob, message", [
    (b"QFR", "not a QFR1 cache (bad magic)"),
    (b"NOPE" + b"\x00" * 64, "not a QFR1 cache (bad magic)"),
    (MAGIC + struct.pack("<qqq", 1, 0, 1), "truncated header"),
    (MAGIC + struct.pack("<qqqQ", 1, 0, 1, 3) + b"\x00" * 50, "expected 3 records, payload holds 2"),
    (MAGIC + struct.pack("<qqqQ", 2, 4, 6, 0), "invalid form in header"),
    (MAGIC + struct.pack("<qqqQ", 1, 0, 2, 0), "cache holds form"),
    (MAGIC + struct.pack("<qqqQ", 1, 0, 1, 2) + struct.pack("<QqqQqq", 13, 3, 2, 5, 2, 1),
     "records are not sorted by p"),
    # Q(2, 3) = 13, but a canonical row has y < x
    (MAGIC + struct.pack("<qqqQ", 1, 0, 1, 2) + struct.pack("<QqqQqq", 5, 2, 1, 13, 2, 3),
     "record 1 (p=13, x=2, y=3) is not a canonical representation of p, or is out of order"),
    (MAGIC + struct.pack("<qqqQ", 1, 0, 1, 1) + struct.pack("<Qqq", 1 << 62, 2, 1),
     "form (1,0,1) to 4611686018427387904 exceeds the int64 range"),
], ids=["short-magic", "magic", "header", "count", "form", "expected-form", "order", "row",
        "int64"])
def test_each_check_keeps_its_message(tmp_path, blob, message):
    path = tmp_path / "c.qfr"
    path.write_bytes(blob)
    with pytest.raises(CacheFormatError, match="^" + re.escape(f"{path}: {message}")):
        read_cache(path, expected_form=Q11)


def _written(tmp_path, coeffs, limit):
    """A clean cache of the form to limit: its path and its bytes."""
    path = tmp_path / "c.qfr"
    form = QuadraticForm(*coeffs)
    write_cache(path, form, [table_to(form, limit)])
    return path, bytearray(path.read_bytes())


def test_flipped_bit_in_x_refused(tmp_path):
    path, blob = _written(tmp_path, (1, 0, 1), 100_000)
    blob[-16] ^= 1  # the low bit of the last record's x
    path.write_bytes(blob)
    with pytest.raises(CacheFormatError, match="is not a canonical representation"):
        read_cache(path, expected_form=Q11)


def test_flip_onto_the_other_root_refused(tmp_path):
    # 13 = Q(5, 4) = Q(7, 4) for x^2 - 3xy + 3y^2, and 5 ^ 2 == 7: the flipped
    # row passes every per-row check, but the prime's rows no longer ascend
    path, blob = _written(tmp_path, (1, -3, 3), 13)
    table = read_cache(path)
    rows = list(zip(table.p.tolist(), table.x.tolist(), table.y.tolist()))
    assert rows[-3:] == [(13, 5, 4), (13, 7, 3), (13, 7, 4)]
    blob[-3 * 24 + 8] ^= 2  # the x of (13, 5, 4) becomes 7
    path.write_bytes(blob)
    with pytest.raises(CacheFormatError, match=re.escape("(p=13, x=7, y=3) is not a canonical")):
        read_cache(path)


@pytest.mark.parametrize("coeffs", [(1, -1, 2), (3, -2, 5), (1, -3, 3)], ids=str)
def test_clean_b_negative_caches_load(tmp_path, coeffs):
    form = QuadraticForm(*coeffs)
    table = table_to(form, 200_000)
    path = tmp_path / "c.qfr"
    write_cache(path, table.form, [table])
    back = read_cache(path, expected_form=form)
    assert np.array_equal(back.x, table.x) and np.array_equal(back.y, table.y)


def test_payload_read_once(tmp_path):
    path = tmp_path / "t.qfr"
    write_cache(path, Q11, [table_to(Q11, 2_000_000)])
    payload = path.stat().st_size - len(MAGIC) - cache._HEADER.size
    tracemalloc.start()
    try:
        back = read_cache(path, expected_form=Q11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) * cache._RECORD_DTYPE.itemsize == payload
    # the record array plus the three int64 columns: 2.0x the payload; reading
    # the file as bytes, then slicing the body off, peaked at 3.0x
    assert peak <= 2.2 * payload


class _FullDisk(io.FileIO):
    """A file that takes the first write, then half of the next and fails."""

    def write(self, data):
        if self.tell() == 0:
            return super().write(data)
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_previous_cache(tmp_path, monkeypatch):
    path = tmp_path / "t.qfr"
    old = representation_table(Q11, sieve_range(2, 500))
    write_cache(path, Q11, [old])
    assert [p.name for p in tmp_path.iterdir()] == ["t.qfr"]
    before = path.read_bytes()

    # the cache is written through `atomic.replacing`, which opens the file
    monkeypatch.setattr(atomic, "open", _FullDisk, raising=False)
    with pytest.raises(OSError):
        write_cache(path, Q11, [representation_table(Q11, sieve_range(2, 5000))])
    assert [p.name for p in tmp_path.iterdir()] == ["t.qfr"]
    assert path.read_bytes() == before
    back = read_cache(path, expected_form=Q11)
    assert np.array_equal(back.p, old.p)


def test_failed_write_through_a_link_keeps_its_target(tmp_path, monkeypatch):
    old, link = tmp_path / "old.qfr", tmp_path / "link.qfr"
    write_cache(old, Q11, [representation_table(Q11, sieve_range(2, 500))])
    before = old.read_bytes()
    link.symlink_to(old)
    with monkeypatch.context() as mp:
        mp.setattr(atomic, "open", _FullDisk, raising=False)
        with pytest.raises(OSError):
            write_cache(link, Q11, [representation_table(Q11, sieve_range(2, 5000))])
    # the older cache is whole, the link is a link, and no temporary is left
    assert old.read_bytes() == before
    assert link.is_symlink() and link.readlink() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.qfr", "old.qfr"]
    # a write that succeeds replaces the link's target, not the link
    table = representation_table(Q11, sieve_range(2, 5000))
    write_cache(link, Q11, [table])
    assert link.is_symlink() and link.readlink() == old
    assert np.array_equal(read_cache(old).p, table.p)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.qfr", "old.qfr"]


def test_block_writes_equal_one_structured_copy(tmp_path):
    table = representation_table(QuadraticForm(2, 1, 3), sieve_range(2, 5000))
    records = np.empty(len(table), dtype=[("p", "<u8"), ("x", "<i8"), ("y", "<i8")])
    records["p"], records["x"], records["y"] = table.p, table.x, table.y
    want = MAGIC + struct.pack("<qqqQ", 2, 1, 3, len(table)) + records.tobytes()
    n, empty = len(table), table.slice_first(0)
    for size in (1, 7, n):
        blocks = [RepTable(table.form, table.p[i : i + size], table.x[i : i + size],
                           table.y[i : i + size], table.limit) for i in range(0, n, size)]
        # zero-row blocks first, last and between every two
        blocks = [empty, *itertools.chain.from_iterable((b, empty) for b in blocks)]
        assert write_cache(tmp_path / "t.qfr", table.form, iter(blocks)) == n
        assert (tmp_path / "t.qfr").read_bytes() == want


def test_streamed_write_peak_stays_flat(tmp_path):
    # measured 4.8 MiB to 2e6 and 5.1 MiB to 2e7 (one sieve segment and its
    # rows live at a time), where the table grows from 1.7 to 14.5 MiB
    path = tmp_path / "t.qfr"
    write_cache(path, Q11, row_blocks(empty_table(Q11), 1000))  # warm module-level state first
    peaks = {}
    for limit in (2_000_000, 20_000_000):
        tracemalloc.start()
        try:
            write_cache(path, Q11, row_blocks(empty_table(Q11), limit))
            peaks[limit] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(read_cache(path)) == 635170  # the x^2 + y^2 primes to 2e7
    assert peaks[20_000_000] < 6 * 2**20
    assert peaks[20_000_000] < 1.2 * peaks[2_000_000]
