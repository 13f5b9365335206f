import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias import primes as primes_module
from qfbias.counting import FieldSplitting, prime_ideal_count
from qfbias.errors import SieveCapacityError
from qfbias.forms import QuadraticForm, empty_table, representation_table, row_blocks
from qfbias.primes import (
    DEFAULT_CAPACITY,
    DEFAULT_SEGMENT_SIZE,
    CongruenceClass,
    nth_prime_bound,
    segments,
    sieve_range,
)
from qfbias.series import fold_series

from conftest import trial_division_primes
from oracles import _simple_prime_flags, first_primes, in_class, nth_prime

Q11 = QuadraticForm(1, 0, 1)


class TestSieveRange:
    def test_small_window(self):
        assert sieve_range(0, 10).tolist() == [2, 3, 5, 7]

    def test_empty_window(self):
        assert sieve_range(14, 16).tolist() == []

    def test_million_window(self):
        assert sieve_range(10**6, 10**6 + 30).tolist() == [1000003]

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            sieve_range(10, 5)

    def test_against_trial_division(self):
        assert sieve_range(2, 10_000).tolist() == trial_division_primes(2, 10_000)

    def test_offset_window_against_trial_division(self):
        assert sieve_range(5000, 6000).tolist() == trial_division_primes(5000, 6000)

    def test_classical_pi_of_one_million(self):
        assert sieve_range(2, 10**6).size == 78498

    def test_trial_division_count_at_1e5(self):
        assert sieve_range(2, 10**5).size == len(trial_division_primes(2, 10**5))

    def test_segmented_agrees_with_simple_sieve_at_1e6(self):
        simple = np.flatnonzero(_simple_prime_flags(10**6))
        assert np.array_equal(sieve_range(2, 10**6), simple)

    @given(
        lo=st.integers(min_value=0, max_value=300),
        width=st.integers(min_value=0, max_value=400),
        seg=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_segment_size_never_changes_output(self, lo, width, seg):
        hi = lo + width
        want = sieve_range(lo, hi).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", seg)
            assert sieve_range(lo, hi).tolist() == want
            assert _stream(lo, hi) == want


TILE_SPAN = 2 * 3 * 5 * 7 * 11 * 13  # the pre-sieved tile covers 15015 odd numbers
_FLAGS = _simple_prime_flags(5 * TILE_SPAN)


def _edge(k: int, d: int) -> int:
    """A bound within 20 of a multiple of 15015, half the tile span (0..20 for k = 0)."""
    return max(k * TILE_SPAN // 2 + d, 0)


class TestPresievedSegments:
    @given(
        lo=st.builds(_edge, st.integers(0, 8), st.integers(-20, 20)),
        seg=st.sampled_from([1, 2, 3, 7, 30031, 2**20]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_simple_sieve_across_tile_periods(self, lo, seg, data):
        # tiny segments get short ranges so that each example stays fast
        width = data.draw(st.integers(0, 600 if seg < 10 else 2 * TILE_SPAN), label="width")
        hi = min(lo + width, _FLAGS.size - 1)
        want = np.flatnonzero(_FLAGS[: hi + 1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", seg)
            assert np.array_equal(sieve_range(lo, hi), want[want >= lo])

    @pytest.mark.parametrize("seg", [1, 2, 3, 7, 30031])
    def test_every_range_with_ends_in_0_to_16(self, monkeypatch, seg):
        monkeypatch.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", seg)
        for lo in range(17):
            for hi in range(lo, 17):
                got = sieve_range(lo, hi).tolist()
                assert got == [p for p in (2, 3, 5, 7, 11, 13) if lo <= p <= hi]

    def test_base_primes_built_once_per_power_of_two(self, monkeypatch):
        calls = []
        window = primes_module._sieve_window

        def spy(lo, hi):
            if lo == 17:  # a base-prime build; the windows of segments start elsewhere
                calls.append(hi)
            return window(lo, hi)

        monkeypatch.setattr(primes_module, "_sieve_window", spy)
        primes_module._base_primes.cache_clear()
        monkeypatch.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", 1000)
        segs = list(segments(2, 10**6))
        assert len(segs) == 1000
        monkeypatch.undo()
        assert np.array_equal(np.concatenate(segs), sieve_range(2, 10**6))
        assert len(calls) <= math.isqrt(10**6).bit_length()

    def test_base_primes_equal_the_plain_sieve(self):
        # each power of two is one window of the segmented sieve, whose own
        # base primes come from the smaller powers built on the way
        flags = _simple_prime_flags(1 << 22)
        for bits in range(1, 23):
            primes_module._base_primes.cache_clear()
            base = primes_module._base_primes(bits)
            want = np.flatnonzero(flags[: (1 << bits) + 1])
            assert base.dtype == np.int64 and not base.flags.writeable
            assert np.array_equal(base, want[want >= 17])


def _stream(lo, hi):
    """The primes of `segments(lo, hi)` as one list."""
    return [p for seg in segments(lo, hi) for p in seg.tolist()]


class TestPrimeStream:
    """`segments`: the one window loop every prime consumer reads."""

    def test_matches_sieve_range(self):
        assert _stream(2, 200) == sieve_range(2, 200).tolist()

    @pytest.mark.parametrize("seg", [1, 2, 7, 64, 10**6])
    def test_segment_independence(self, monkeypatch, seg):
        want = _stream(0, 500)
        monkeypatch.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", seg)
        segs = list(segments(0, 500))
        assert all(s.size for s in segs)
        assert [p for s in segs for p in s.tolist()] == want

    def test_strictly_increasing_no_composites(self):
        primes = _stream(2, 1000)
        assert all(a < b for a, b in zip(primes, primes[1:]))
        assert set(primes) == set(trial_division_primes(2, 1000))

    def test_empty_stream(self):
        assert _stream(2, 1) == []
        assert _stream(24, 28) == []
        assert _stream(10, 5) == []

    def test_rejects_bad_segment(self, monkeypatch):
        monkeypatch.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", 0)
        with pytest.raises(ValueError):
            list(segments(2, 10))
        with pytest.raises(ValueError):
            sieve_range(2, 10)

    @given(lo=st.integers(0, 3000), width=st.integers(0, 3000),
           segment_size=st.integers(1, 30_000))
    @settings(max_examples=60, deadline=None)
    def test_windows_are_contiguous_and_no_wider_than_a_segment(self, lo, width, segment_size):
        hi = lo + width
        spans = []

        def spy(a, b):
            spans.append((a, b))
            return sieve_range(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", segment_size)
            mp.setattr(primes_module, "sieve_range", spy)
            got = _stream(lo, hi)
        assert got == trial_division_primes(lo, hi)
        if hi >= 2:
            assert spans[0][0] == max(lo, 2) and spans[-1][1] == hi
        assert all(b - a < segment_size for a, b in spans)
        assert all(b + 1 == a for (_, b), (a, _) in zip(spans, spans[1:]))


class TestNthPrime:
    def test_first(self):
        assert nth_prime(1) == 2

    def test_twenty_fifth(self):
        assert nth_prime(25) == 97

    def test_tenth(self):
        assert nth_prime(10) == 29

    def test_against_oracle_prefix(self):
        oracle = trial_division_primes(2, 4000)
        for n in (2, 3, 5, 50, 200, len(oracle)):
            assert nth_prime(n) == oracle[n - 1]

    def test_bound_inequality_holds(self):
        oracle = trial_division_primes(2, 10_000)
        for n in range(6, len(oracle) + 1):
            assert oracle[n - 1] <= nth_prime_bound(n)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            nth_prime(0)

    def test_capacity_error(self, monkeypatch):
        # prime #1e9 needs a sieve to ~2.4e10, past DEFAULT_CAPACITY: refused
        # before anything is sieved
        def refuse(lo, hi, *args, **kwargs):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr(primes_module, "sieve_range", refuse)
        with pytest.raises(SieveCapacityError, match="capacity"):
            nth_prime(10**9)

    def test_first_primes_against_oracle_prefix(self):
        oracle = trial_division_primes(2, 4000)
        for n in (1, 5, 6, 7, 200, len(oracle)):
            primes = first_primes(n)
            assert primes.dtype == np.int64
            assert primes.tolist() == oracle[:n]


def _prn(n: int) -> np.ndarray:
    """The PrN column of the fold over every prime to the n-th, stride 1."""
    [ser] = fold_series(empty_table(Q11), [CongruenceClass.trivial()], n, stride=1)
    return ser.points[:, 1]


class TestPrimeSegments:
    """The series fold's cut of `segments` at the N-th prime."""

    @given(n=st.integers(min_value=1, max_value=3000), segment_size=st.integers(1, 30_000))
    @settings(max_examples=60, deadline=None)
    def test_concatenation_is_the_first_n_primes(self, n, segment_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", segment_size)
            got = _prn(n)
        assert np.array_equal(got, first_primes(n))

    def test_one_streamed_pass_stops_at_the_nth_prime(self, monkeypatch):
        spans = []

        def spy(lo, hi, *args, **kwargs):
            spans.append((lo, hi))
            return sieve_range(lo, hi, *args, **kwargs)

        monkeypatch.setattr(primes_module, "sieve_range", spy)
        got = _prn(300_000)
        assert spans and all(hi - lo < DEFAULT_SEGMENT_SIZE for lo, hi in spans)
        assert spans[0][0] == 2 and all(hi + 1 == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert spans[-1][1] <= nth_prime_bound(300_000)
        assert got.size == 300_000 and int(got[-1]) == nth_prime(300_000)
        # the last segment reaches past the 300000th prime only in its sieve
        assert spans[-1][0] <= nth_prime(300_000) <= spans[-1][1]

    def test_capacity_error_before_sieving(self, monkeypatch):
        monkeypatch.setattr(primes_module, "sieve_range", lambda *a, **k: pytest.fail("sieved"))
        with pytest.raises(SieveCapacityError, match="capacity"):
            _prn(200_000_000)

    def test_bad_input_refused_at_the_call(self, monkeypatch):
        monkeypatch.setattr(primes_module, "_sieve_window", lambda lo, hi: pytest.fail("sieved"))
        for n_max, stride in ((0, 1), (9, 10)):
            with pytest.raises(ValueError, match="n_max must be at least the stride"):
                fold_series(empty_table(Q11), [CongruenceClass.trivial()], n_max, stride)
        with pytest.raises(SieveCapacityError, match="exceeds capacity"):
            _prn(10**10)


PAST = DEFAULT_CAPACITY + 1


# every consumer of the sieve at one past the capacity, each refused at the call
@pytest.mark.parametrize("call", [
    lambda: sieve_range(2, PAST),
    lambda: segments(PAST, PAST),
    lambda: fold_series(empty_table(Q11), [CongruenceClass.trivial()], PAST, stride=1),
    lambda: row_blocks(empty_table(Q11), PAST),
    lambda: prime_ideal_count(FieldSplitting(-1), PAST),
    lambda: representation_table(Q11, np.array([PAST])),
], ids=["sieve_range", "segments", "fold_series", "row_blocks", "prime_ideal_count",
        "representation_table"])
def test_capacity_refused_before_sieving(monkeypatch, call):
    monkeypatch.setattr(primes_module, "_sieve_window", lambda lo, hi: pytest.fail("sieved"))
    with pytest.raises(SieveCapacityError, match=rf"^sieve to \d+ exceeds capacity {DEFAULT_CAPACITY}$"):
        call()


class TestCongruenceClass:
    def test_residue_normalized(self):
        assert CongruenceClass(1, 1) == CongruenceClass.trivial()
        assert CongruenceClass(9, 4).residue == 1

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            CongruenceClass(2, 4)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            CongruenceClass(1, 0)

    def test_contains(self):
        cls = CongruenceClass(5, 8)
        assert in_class(cls, 13) and not in_class(cls, 17)
        assert in_class(CongruenceClass.trivial(), 7)

