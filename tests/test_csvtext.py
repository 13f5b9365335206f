"""The CSV row kernel against Python's own str(int) and format(v, ".12f").

The references below use only the built-in formatting; nothing here reuses
the kernel's integer arithmetic.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias.cli import _write_csv
from qfbias.csvtext import ROW_BLOCK, csv_blocks

INT64 = st.integers(-(2**63), 2**63 - 1)
# every float64 of magnitude below 2**63: zeros of both signs, subnormals, all exponents
FLOAT = st.floats(-(2.0**63), 2.0**63, exclude_min=True, exclude_max=True, allow_nan=False)
FLOAT_OR_NAN = FLOAT | st.just(math.nan)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# uniform random bit patterns reach the mantissas st.floats rarely draws
FLOAT_BITS = st.integers(0, 2**64 - 1).map(_bits_to_float).filter(lambda v: abs(v) < 2.0**63)
# odd multiples of 2**-13 end in a 5 at the 13th decimal: exact ties at 12 decimals
TIE = st.integers(-(2**49), 2**49).map(lambda k: (2 * k + 1) / 2**13)


def _just_above_tie(r: int, j: int) -> float:
    """v = m / 2**53 in [0.5, 1) with v * 10**12 = n + 1/2 + r / 2**41 exactly.

    v * 10**12 = m * 5**12 / 2**41, so m is the solution of
    m * 5**12 = 2**40 + r (mod 2**41) in the j-th period.
    """
    m = (2**40 + r) * pow(5**12, -1, 2**41) % 2**41 + j * 2**41
    return m / 2**53


# v * 10**12 exceeds a tie by less than 2**-15: random floats almost never land there
ABOVE_TIE = st.builds(_just_above_tie, st.integers(1, 2**26 - 1), st.integers(2**11, 2**12 - 1))


def near(values):
    """Each value with its two float neighbours that lie below 2**63 in magnitude."""
    out = [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    return [w for w in out if abs(w) < 2.0**63]


def text(*columns) -> str:
    return b"".join(csv_blocks(columns)).decode()


def reference(*columns) -> str:
    def field(v):
        if isinstance(v, float):
            return "" if math.isnan(v) else format(v, ".12f")
        return str(v)

    return "".join(",".join(field(v) for v in row) + "\n" for row in zip(*columns))


def floats(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


class TestByteEquality:
    @given(st.lists(INT64, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_int64_column(self, values):
        assert text(np.array(values, dtype=np.int64)) == reference(values)

    @given(st.lists(FLOAT_OR_NAN, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float64_column(self, values):
        assert text(floats(values)) == reference(values)

    @given(st.lists(FLOAT_BITS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float64_bit_patterns(self, values):
        assert text(floats(values)) == reference(values)

    @given(st.lists(TIE, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_ties_and_their_neighbours(self, values):
        values = near(values)
        assert text(floats(values)) == reference(values)

    @given(st.lists(ABOVE_TIE, min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_excess_over_a_tie_far_below_the_last_digit(self, values):
        assert text(floats(values)) == reference(values)

    @given(st.lists(st.tuples(INT64, FLOAT_OR_NAN, INT64, FLOAT), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_mixed_rows(self, rows):
        columns = list(zip(*rows))
        arrays = [np.array(c, dtype=np.int64 if i % 2 == 0 else np.float64)
                  for i, c in enumerate(columns)]
        assert text(*arrays) == reference(*columns)

    @pytest.mark.parametrize("value, expected", [
        (-0.0, "-0.000000000000"),
        (5e-324, "0.000000000000"),
        (-5e-324, "-0.000000000000"),
        (2**-13, "0.000122070312"),
        (3 * 2**-13, "0.000366210938"),
        (0.9999999999995, "0.999999999999"),
        (9.9999999999995, "10.000000000000"),
        (float(2**53 - 1), "9007199254740991.000000000000"),
        (2.0**63 - 1024, "9223372036854774784.000000000000"),
    ])
    def test_pinned_floats(self, value, expected):
        assert format(value, ".12f") == expected
        assert text(floats(near([value]))) == reference(near([value]))
        assert text(floats([value])) == expected + "\n"

    @pytest.mark.parametrize("value", [0, -1, 2**53 - 1, 2**63 - 1, -(2**63)])
    def test_pinned_ints(self, value):
        assert text(np.array([value], dtype=np.int64)) == f"{value}\n"

    def test_nan_is_an_empty_field(self):
        assert text(np.array([1, 2]), floats([math.nan, 0.5]), np.array([-3, 4])) == (
            "1,,-3\n2,0.500000000000,4\n"
        )

    def test_narrow_integer_dtypes_are_widened(self):
        assert text(np.array([-5, 7], dtype=np.int8), np.array([3, 9], dtype=np.uint32)) == (
            "-5,3\n7,9\n"
        )


class TestRefused:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, 2.0**63, -(2.0**63), 1e300])
    def test_float_outside_the_exact_range(self, value):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            text(floats([1.0, value]))

    def test_columns_of_different_lengths(self):
        with pytest.raises(ValueError, match="length"):
            text(np.arange(3), np.arange(4))

    @pytest.mark.parametrize("column", [np.array(["a"]), np.array([2**64 - 1], dtype=np.uint64)])
    def test_column_that_cannot_be_exact(self, column):
        with pytest.raises(TypeError):
            text(column)


class TestBlocks:
    @pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_row_count_at_block_edges(self, n):
        ints = (np.arange(n, dtype=np.int64) - n // 2) * 7919
        vals = ints / 977.0
        blocks = list(csv_blocks([ints, vals]))
        assert len(blocks) == -(-n // ROW_BLOCK)
        got = b"".join(blocks).decode()
        assert got.count("\n") == n
        assert got == reference(ints.tolist(), vals.tolist())

    def test_writer_header_and_headerless(self, tmp_path):
        path = tmp_path / "t.csv"
        with _write_csv(path, "a,b") as write:
            write(np.array([1, -2]), floats([0.25, math.nan]))
        assert path.read_bytes() == b"a,b\n1,0.250000000000\n-2,\n"
        with _write_csv(path, None) as write:
            write(np.array([2, 3]))
            write(np.array([], dtype=np.int64))
            write(np.array([5]))
        assert path.read_bytes() == b"2\n3\n5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize("existing", [None, b"old,bytes\n1,2\n"])
    def test_failed_stream_leaves_no_partial_file(self, tmp_path, existing):
        path = tmp_path / "t.csv"
        if existing is not None:
            path.write_bytes(existing)

        def blocks():
            yield np.arange(ROW_BLOCK + 5), np.zeros(ROW_BLOCK + 5)
            raise RuntimeError("the source failed after its first block")

        with pytest.raises(RuntimeError, match="first block"):
            with _write_csv(path, "a,b") as write:
                for columns in blocks():
                    write(*columns)
        # no temporary is left beside the target, and an older file stays whole
        assert list(tmp_path.iterdir()) == ([] if existing is None else [path])
        if existing is not None:
            assert path.read_bytes() == existing

    def test_link_is_written_through(self, tmp_path):
        # the rename replaces the file the link names, and the link stays
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        with _write_csv(link, "a") as write:
            write(np.array([7]))
        assert link.is_symlink() and target.read_bytes() == b"a\n7\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_writing_a_million_rows_holds_only_blocks(self, tmp_path):
        n = 1_000_000
        p = np.arange(n, dtype=np.int64) * 9973 + 10**7
        x = np.arange(n, dtype=np.int64) % 3163
        raw = np.linspace(0.0, math.pi / 4, n, endpoint=False)
        theta = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            with _write_csv(path, "p,x,raw,theta") as write:
                write(p, x, raw, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file is ~45 MB; one block's byte matrix and temporaries peak near 1.5 MiB
        assert peak < 4 * 2**20
        with open(path, "rb") as fh:
            assert sum(1 for _ in fh) == n + 1
        lines = path.read_text().splitlines()
        for i in (0, ROW_BLOCK - 1, ROW_BLOCK, n - 1):
            assert lines[i + 1] == f"{p[i]},{x[i]},{raw[i]:.12f},{theta[i]:.12f}"
