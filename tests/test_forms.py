import functools
import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfbias import forms, primes
from qfbias.errors import OracleBoundError, SieveCapacityError, TableBoundError
from qfbias.forms import (
    QuadraticForm,
    brute_force_representations,
    canonical_filter,
    representation_table,
)
from qfbias.primes import DEFAULT_CAPACITY, DEFAULT_SEGMENT_SIZE, CongruenceClass, sieve_range

from conftest import trial_division_primes
from oracles import Representation, canonical_pairs, cornacchia, sqrt_mod, table_rows, table_to

Q11 = QuadraticForm(1, 0, 1)
Q111 = QuadraticForm(1, 1, 1)
# diagonal, general and negative-b forms the bulk table is checked against;
# the last two are not reduced (b < -2a), so some canonical x lie left of the
# ellipse centre
ORACLE_FORMS = [(1, 0, 1), (1, 0, 2), (1, 1, 1), (2, 1, 3), (1, -1, 2),
                (3, -2, 5), (2, -1, 1), (1, 1, 3), (5, 4, 7), (1, -3, 5), (2, -5, 4)]
PROPERTY_BOUND = 200_000


def exhaustive_roots(n: int, p: int) -> list[int]:
    return [r for r in range(p) if r * r % p == n % p]


def positive_solutions(d: int, p: int) -> set[tuple[int, int]]:
    out = set()
    for x in range(1, math.isqrt(p) + 1):
        rest = p - x * x
        if rest <= 0 or rest % d:
            continue
        y = math.isqrt(rest // d)
        if y > 0 and x * x + d * y * y == p:
            out.add((x, y))
    return out


class TestQuadraticForm:
    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            QuadraticForm(2, 4, 6)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticForm(1, 5, 1)

    def test_rejects_negative_leading(self):
        with pytest.raises(ValueError):
            QuadraticForm(-1, 0, -1)

    def test_discriminant_data(self):
        assert Q11.disc == -4 and Q11.D == 4
        assert Q111.disc == -3 and Q111.D == 3

    def test_evaluate(self):
        assert Q11.evaluate(3, 2) == 13
        assert Q111.evaluate(2, 1) == 7
        assert Q111.evaluate(0, 0) == 0


@pytest.mark.parametrize("module, names", [
    ("qfbias", ("Representation", "sqrt_mod", "cornacchia", "canonical_pairs", "splitting_type",
                "nth_prime", "MomentSums", "moment_sum", "poly_sum", "negative_bias_fraction",
                "CountSeries", "ensure_table", "sample_angles")),
    ("qfbias.forms",
     ("Representation", "sqrt_mod", "cornacchia", "_fast_pairs", "canonical_pairs",
      "ensure_table")),
    ("qfbias.counting", ("splitting_type", "SPLIT", "INERT", "RAMIFIED", "negative_bias_fraction",
                         "CountSeries")),
    ("qfbias.primes", ("_simple_prime_flags", "first_primes", "nth_prime")),
    ("qfbias.series", ("MAX_MOMENT_POWER", "MomentSums", "moment_sum", "poly_sum")),
    ("qfbias.equidist", ("sample_angles",)),
])
def test_per_prime_oracles_live_with_the_tests(module, names):
    # the package holds what its commands run; the oracles are in tests/oracles.py
    mod = importlib.import_module(module)
    assert [name for name in names if hasattr(mod, name)] == []


def test_benchmark_oracle_import_resolves():
    # the benchmark's output checks import these two from qfbias.forms
    from qfbias.forms import QuadraticForm, brute_force_representations, canonical_filter

    got = canonical_filter(brute_force_representations(QuadraticForm(1, 0, 1), 13))
    assert got == [(3, 2)]


class TestSqrtMod:
    def test_zero(self):
        assert sqrt_mod(0, 7) == 0

    def test_residue(self):
        assert sqrt_mod(2, 7) == 3

    def test_nonresidue(self):
        assert sqrt_mod(3, 7) is None

    def test_exhaustive_small_primes(self):
        for p in trial_division_primes(3, 60):
            for n in range(p):
                roots = exhaustive_roots(n, p)
                got = sqrt_mod(n, p)
                if roots:
                    assert got == min(roots)
                else:
                    assert got is None

    def test_smallest_root_is_deterministic(self):
        for p in (13, 17, 97, 101):
            for n in range(2, p):
                r = sqrt_mod(n, p)
                if r is not None and n:
                    assert r <= p - r


class TestCornacchia:
    def test_examples(self):
        assert cornacchia(1, 13) == (3, 2)
        assert cornacchia(3, 7) == (2, 1)
        assert cornacchia(1, 3) is None

    def test_two(self):
        assert cornacchia(1, 2) == (1, 1)
        assert cornacchia(2, 2) is None

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            cornacchia(3, 3)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_against_exhaustive_search(self, d):
        for p in trial_division_primes(3, 2000):
            if d % p == 0:
                continue
            want = positive_solutions(d, p)
            got = cornacchia(d, p)
            if want:
                assert got in want, (d, p, got, want)
            else:
                assert got is None, (d, p, got)


class TestBruteForce:
    def test_five_has_eight_lattice_points(self):
        assert brute_force_representations(Q11, 5) == {
            (1, 2), (2, 1), (-1, 2), (2, -1), (1, -2), (-2, 1), (-1, -2), (-2, -1),
        }

    def test_seven_not_a_sum_of_squares(self):
        assert brute_force_representations(Q11, 7) == set()

    def test_twelve_solutions_for_hexagonal_form(self):
        got = brute_force_representations(Q111, 7)
        assert got == {
            (2, 1), (1, 2), (-1, 3), (3, -1), (-3, 2), (2, -3),
            (-2, 3), (3, -2), (1, -3), (-3, 1), (-1, -2), (-2, -1),
        }

    def test_bound_enforced(self):
        with pytest.raises(OracleBoundError):
            brute_force_representations(Q11, 5, bound=3)

    @given(
        ab=st.sampled_from([(1, 0, 1), (1, 0, 2), (1, 1, 1), (2, 1, 3), (1, 0, 5)]),
        p=st.sampled_from(trial_division_primes(2, 300)),
    )
    @settings(max_examples=80)
    def test_symmetry_closure_and_soundness(self, ab, p):
        form = QuadraticForm(*ab)
        sols = brute_force_representations(form, p)
        for x, y in sols:
            assert form.evaluate(x, y) == p
            assert (-x, -y) in sols


class TestCanonicalPairs:
    def test_thirteen(self):
        assert [(r.x, r.y) for r in canonical_pairs(Q11, 13)] == [(3, 2)]

    def test_three_not_represented(self):
        assert canonical_pairs(Q11, 3) == []

    def test_two_rejected_by_ordering(self):
        assert canonical_pairs(Q11, 2) == []

    def test_representation_fields(self):
        rep = canonical_pairs(Q11, 13)[0]
        assert rep == Representation(p=13, x=3, y=2)

    def test_fermat_criterion_below_ten_thousand(self):
        for p in trial_division_primes(3, 10_000):
            has_pair = bool(canonical_pairs(Q11, p))
            assert has_pair == (p % 4 == 1)

    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 0, 5), (1, 0, 9)])
    def test_fast_path_equals_oracle_small(self, coeffs):
        form = QuadraticForm(*coeffs)
        for p in trial_division_primes(2, 3000):
            fast = [(r.x, r.y) for r in canonical_pairs(form, p)]
            slow = canonical_filter(brute_force_representations(form, p))
            assert fast == slow, (coeffs, p)


class TestRepresentationTable:
    def test_matches_scalar_path_fast_forms(self):
        primes = sieve_range(2, 3000)
        for coeffs in [(1, 0, 1), (1, 0, 2), (1, 0, 3)]:
            form = QuadraticForm(*coeffs)
            table = representation_table(form, primes)
            rows = list(table_rows(table))
            want = [
                (p, r.x, r.y)
                for p in primes.tolist()
                for r in canonical_pairs(form, p)
            ]
            assert rows == want

    def test_matches_scalar_path_general_forms(self):
        primes = sieve_range(2, 2000)
        for coeffs in [(1, 1, 1), (2, 1, 3), (3, 2, 5)]:
            form = QuadraticForm(*coeffs)
            rows = list(table_rows(representation_table(form, primes)))
            want = [
                (p, r.x, r.y)
                for p in primes.tolist()
                for r in canonical_pairs(form, p)
            ]
            assert rows == want

    def test_slicing(self):
        table = representation_table(Q11, sieve_range(2, 200))
        below = table.slice_below(100)
        assert below.max_prime <= 100 and below.limit == 100
        assert table.slice_below(table.limit).limit == table.limit == 199
        with pytest.raises(ValueError, match="covers primes to 199"):
            table.slice_below(200)
        cls = table.slice_class(CongruenceClass(5, 8))
        assert all(p % 8 == 5 for p in cls.p.tolist())


@functools.lru_cache(maxsize=None)
def _full_table(coeffs):
    return representation_table(QuadraticForm(*coeffs), sieve_range(2, PROPERTY_BOUND))


class TestLatticeEngine:
    @pytest.mark.parametrize("coeffs", ORACLE_FORMS, ids=lambda c: "%d,%d,%d" % c)
    def test_matches_per_prime_oracles_to_3e5(self, coeffs):
        form = QuadraticForm(*coeffs)
        primes = sieve_range(2, 3 * 10**5)
        rows = list(table_rows(representation_table(form, primes)))
        want = [(p, r.x, r.y) for p in primes.tolist() for r in canonical_pairs(form, p)]
        assert rows == want

    @given(
        coeffs=st.sampled_from(ORACLE_FORMS),
        lo=st.integers(min_value=2, max_value=PROPERTY_BOUND),
        span=st.integers(min_value=0, max_value=PROPERTY_BOUND),
        modulus=st.integers(min_value=1, max_value=24),
        residue=st.integers(min_value=0, max_value=23),
        stride=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_is_filtered_full_table(self, coeffs, lo, span, modulus, residue, stride):
        full = _full_table(coeffs)
        primes = sieve_range(lo, min(lo + span, PROPERTY_BOUND))
        subset = primes[primes % modulus == residue % modulus][::stride]
        table = representation_table(full.form, subset)
        keep = np.isin(full.p, subset)
        assert np.array_equal(table.p, full.p[keep])
        assert np.array_equal(table.x, full.x[keep])
        assert np.array_equal(table.y, full.y[keep])
        assert table.limit == (int(subset[-1]) if subset.size else 0)

    def test_huge_coefficient_with_small_primes_is_empty(self):
        table = representation_table(QuadraticForm(1, 0, 2**60), sieve_range(2, 100))
        assert len(table) == 0 and table.limit == 97

    def test_prime_past_capacity_is_refused(self):
        with pytest.raises(SieveCapacityError, match="capacity"):
            representation_table(Q11, np.array([2**61 - 1]))

    def test_capacity_checked_before_sieving(self, monkeypatch):
        seed = representation_table(Q11, sieve_range(2, 100))
        calls = []
        monkeypatch.setattr("qfbias.primes.sieve_range", lambda lo, hi, **kw: calls.append(hi))
        for build in (lambda: forms.row_blocks(forms.empty_table(Q11), DEFAULT_CAPACITY + 1),
                      lambda: forms.row_blocks(seed, DEFAULT_CAPACITY + 1)):
            with pytest.raises(SieveCapacityError, match="capacity"):
                build()
        assert calls == []

    def test_fresh_table_covers_its_limit(self, monkeypatch):
        table = table_to(Q11, 100)
        assert table.limit == 100 and table.max_prime == 97
        monkeypatch.setattr("qfbias.primes.sieve_range",
                            lambda lo, hi, **kw: pytest.fail(f"sieved [{lo}, {hi}]"))
        # streaming the table to its own limit reads its rows and sieves nothing
        [block] = forms.row_blocks(table, 100)
        assert block.p.tolist() == table.p.tolist() and block.limit == 100

    def test_int64_overflow_is_refused(self):
        # for a = 2^60, a*x^2 fits but the row ends need 4a*hi
        for a in (2**62, 2**60):
            with pytest.raises(TableBoundError, match="int64"):
                representation_table(QuadraticForm(a, 1, 1), sieve_range(2, 100))


def _streamed(form, limit):
    """The (p, x, y) columns of `row_blocks` from an empty seed to limit, joined."""
    blocks = list(forms.row_blocks(forms.empty_table(form), limit))
    return [np.concatenate([getattr(b, col) for b in blocks]) for col in ("p", "x", "y")]


class TestWindowedEngine:
    @given(
        coeffs=st.sampled_from(ORACLE_FORMS + [(2, -2, 3)]),
        bound=st.integers(min_value=2, max_value=2000),
        skip=st.integers(min_value=0, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_window_size_gives_the_same_table(self, coeffs, bound, skip, data):
        # (2,1,3), (2,-1,1), (2,-5,4) and (2,-2,3) represent 2, so the windows
        # that straddle 2 must keep both parities; five forms have b < 0
        window = data.draw(st.integers(min_value=1, max_value=bound), label="window")
        want = _full_table(coeffs).slice_below(bound)
        subset = sieve_range(2, bound)[skip:]
        with mock.patch.object(forms, "WINDOW", window):
            table = representation_table(want.form, subset)
            streamed = _streamed(want.form, bound)
        keep = want.p >= (subset[0] if subset.size else bound + 1)
        for got, rows in (((table.p, table.x, table.y), keep), (streamed, slice(None))):
            for col, want_col in zip(got, (want.p, want.x, want.y)):
                assert np.array_equal(col, want_col[rows])

    def test_row_blocks_sieve_one_segment_at_a_time(self, monkeypatch):
        spans = []

        def spy(lo, hi, *args, **kwargs):
            spans.append((lo, hi))
            return sieve_range(lo, hi, *args, **kwargs)

        limit = 3 * DEFAULT_SEGMENT_SIZE + 5
        monkeypatch.setattr(primes, "sieve_range", spy)
        streamed = _streamed(Q11, limit)
        assert spans[0][0] == 2 and spans[-1][1] == limit
        assert all(hi - lo < DEFAULT_SEGMENT_SIZE for lo, hi in spans)
        assert len(spans) == 4
        direct = representation_table(Q11, sieve_range(2, limit))
        for col, want in zip(streamed, (direct.p, direct.x, direct.y)):
            assert np.array_equal(col, want)

    def test_traced_peak_of_a_2e6_table(self):
        # measured 4.7 MiB, the sieve's included, for a 1.7 MiB table (74416
        # rows); the engine that flagged and enumerated the whole range at
        # once peaked at 9.1 MiB
        representation_table(Q11, sieve_range(2, 1000))  # warm module-level state first
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            table = representation_table(Q11, sieve_range(2, 2_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert len(table) == 74416
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("coeffs, rows, bound", [((1, 0, 1), 95015, 12),
                                                     ((2, -5, 4), 116775, 16)],
                             ids=["1,0,1", "2,-5,4"])
    def test_traced_peak_at_the_top_of_the_capacity(self, coeffs, rows, bound):
        # a 2^22-value span in two windows of 2^21 values: (1,0,1) reaches
        # that span by its row rule and (2,-5,4), with no sector edge, by the
        # cap. Measured 10.1 and 13.8 MiB, with 2.2 and 2.7 MiB tables; one
        # 2^22 window peaked at 16.1 and 19.2 MiB, and (1,0,1) in int64
        # lanes at 21.0 MiB
        form = QuadraticForm(*coeffs)
        primes = sieve_range(DEFAULT_CAPACITY - 2**22, DEFAULT_CAPACITY)
        assert forms._window_span(form, DEFAULT_CAPACITY) == 2**21
        representation_table(form, primes[:10])  # warm module-level state first
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            table = representation_table(form, primes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert len(table) == rows
        assert peak < bound * 2**20

    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 1, 1), (2, -5, 4)],
                             ids=lambda c: "%d,%d,%d" % c)
    def test_sized_windows_equal_2_18_windows_at_1e9(self, coeffs):
        form = QuadraticForm(*coeffs)
        primes = sieve_range(10**9, 10**9 + 2**22)
        assert forms._window_span(form, int(primes[-1])) > forms.WINDOW
        sized = representation_table(form, primes)
        with mock.patch.object(forms, "_window_span", lambda form, hi: 1 << 18):
            fixed = representation_table(form, primes)
        assert len(sized) > 10_000
        for col in ("p", "x", "y"):
            assert np.array_equal(getattr(sized, col), getattr(fixed, col))

    def test_row_ends_are_exact_square_roots(self):
        k = (1 << 31) - 1  # k^2 + 2k < 2^62: the largest squares the engine meets
        s = np.array([0, 1, 2, 3, 4, 99, 100, 101, k * k - 1, k * k, k * k + 2 * k])
        assert forms._isqrt(s).tolist() == [math.isqrt(int(v)) for v in s]


class TestRowBlocks:
    @given(
        coeffs=st.sampled_from(ORACLE_FORMS),
        seed_limit=st.integers(min_value=2, max_value=3000),
        extra=st.one_of(st.just(0), st.integers(min_value=1, max_value=3000)),
        segment_size=st.integers(min_value=1, max_value=4000),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_over_a_seed_equal_one_table(self, coeffs, seed_limit, extra, segment_size):
        # extra = 0 streams the seed alone; above it every prime is enumerated once
        form = QuadraticForm(*coeffs)
        seed, limit = table_to(form, seed_limit), seed_limit + extra
        enumerated = []

        def spy(f, ps):
            enumerated.extend(ps.tolist())
            return representation_table(f, ps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes, "DEFAULT_SEGMENT_SIZE", segment_size)
            mp.setattr(forms, "representation_table", spy)
            blocks = list(forms.row_blocks(seed, limit))
        # ascending in p, and no prime's rows split between two blocks
        p = np.concatenate([b.p for b in blocks])
        assert np.all(p[:-1] <= p[1:])
        full = [b for b in blocks if len(b)]
        assert all(u.p[-1] < v.p[0] for u, v in zip(full, full[1:]))
        primes_to_limit = sieve_range(2, limit)
        assert enumerated == primes_to_limit[primes_to_limit > seed_limit].tolist()
        want = representation_table(form, primes_to_limit)
        for col in ("p", "x", "y"):
            assert np.array_equal(np.concatenate([getattr(b, col) for b in blocks]),
                                  getattr(want, col))


@functools.lru_cache(maxsize=None)
def _primes_past_capacity(lo):
    """The primes of [lo, lo + 2000], which the sieve refuses above its capacity."""
    return trial_division_primes(lo, lo + 2000)


def _lexsort_rows(form: QuadraticForm, primes: np.ndarray):
    """Reference for `_window_rows`: every canonical point of the bounding box
    whose value is one of the primes, ordered with np.lexsort by (p, x, y)."""
    ext = math.isqrt(4 * form.c * int(primes[-1]) // form.D) + 1  # |x| on the ellipse
    x, y = np.meshgrid(np.arange(1, ext + 1), np.arange(ext), indexing="ij")
    x, y = x.ravel(), y.ravel()
    q = form.a * x * x + form.b * x * y + form.c * y * y
    keep = (x > y) & np.isin(q, primes)
    p, x, y = q[keep], x[keep], y[keep]
    order = np.lexsort((y, x, p))
    return p[order], x[order], y[order]


class TestWindowKernel:
    @given(
        a=st.integers(min_value=1, max_value=6),
        b=st.integers(min_value=-9, max_value=9),
        c=st.integers(min_value=1, max_value=9),
        lo=st.integers(min_value=2, max_value=20_000),
        span=st.integers(min_value=0, max_value=4000),
        stride=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_rows_equal_lexsort_reference(self, a, b, c, lo, span, stride):
        assume(b * b < 4 * a * c and math.gcd(math.gcd(a, b), c) == 1)
        form = QuadraticForm(a, b, c)
        primes = sieve_range(lo, lo + span)[::stride]
        assume(primes.size > 0)
        got = forms._window_rows(form, primes)
        want = _lexsort_rows(form, primes)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @given(
        a=st.integers(min_value=1, max_value=4),
        b=st.integers(min_value=-9, max_value=9),
        c=st.integers(min_value=1, max_value=9),
        span=st.integers(min_value=0, max_value=4000),
        where=st.sampled_from(["anywhere", "2^31", "top"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_uint32_lanes_equal_per_prime_oracle(self, a, b, c, span, where, data):
        # windows at any height, across 2^31, where int32 arithmetic would
        # turn negative, and within 2^22 of the capacity; at most 8 primes of
        # each, as the oracle walks each ellipse in Python
        assume(b * b < 4 * a * c and math.gcd(math.gcd(a, b), c) == 1)
        form = QuadraticForm(a, b, c)
        if where == "2^31":
            lo = data.draw(st.integers(2**31 - span, 2**31), label="lo")
        else:
            first = 2 if where == "anywhere" else DEFAULT_CAPACITY - 2**22
            lo = data.draw(st.integers(first, DEFAULT_CAPACITY - span), label="lo")
        primes = sieve_range(lo, lo + span)
        assume(primes.size > 0)
        primes = primes[:: -(-primes.size // 8)]
        p, x, y = forms._window_rows(form, primes)
        want = [(r.p, r.x, r.y) for q in primes.tolist()
                for r in canonical_pairs(form, q, oracle_bound=DEFAULT_CAPACITY)]
        assert list(zip(p.tolist(), x.tolist(), y.tolist())) == want

    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 1, 1), (2, 1, 3), (1, -1, 2), (1, -2, 2)],
                             ids=lambda c: "%d,%d,%d" % c)
    def test_rows_end_at_the_sector_edge(self, coeffs):
        # for 2a + b >= 0 a row's least value on x > y is Q(y + 1, y), so
        # the rows stop within one of the last row holding a value <= hi:
        # 22,360 rows for x^2 + y^2 at 1e9 where the ellipse reaches 31,622
        form = QuadraticForm(*coeffs)
        for hi in (10, 10**6, 10**9, DEFAULT_CAPACITY):
            top = forms._y_top(form, hi)
            last = top
            while last > 0 and form.evaluate(last + 1, last) > hi:
                last -= 1
            assert last <= top <= last + 1, (hi, top, last)

    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("lo", [2**32 - 1000, 2**34])
    def test_uint32_lanes_hold_past_2_32(self, c, lo):
        # the lanes are exact mod 2^32 and each offset Q - lo is below the
        # window's span, so no height needs a wider lane; the remainder chain
        # of x^2 + c*y^2 checks every prime here quickly
        form = QuadraticForm(1, 0, c)
        primes = np.array(_primes_past_capacity(lo), dtype=np.int64)
        p, x, y = forms._window_rows(form, primes)
        want = [(r.p, r.x, r.y) for q in primes.tolist() for r in canonical_pairs(form, q)]
        assert list(zip(p.tolist(), x.tolist(), y.tolist())) == want
        assert len(want) >= 10

    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 0, 2), (2, 0, 3), (1, 1, 1),
                                        (2, 1, 3), (1, 1, 3), (5, 4, 7), (1, -1, 2),
                                        (3, -2, 5), (1, -3, 3)],
                             ids=lambda c: "%d,%d,%d" % c)
    def test_rows_at_window_edges_match_oracle(self, coeffs):
        # 2a + b >= 0 enumerates only t = 2ax + by in [r_in, r_out], and
        # (1, -3, 3) both branches: a window whose first and last primes are
        # represented has rows exactly on both ends
        form = QuadraticForm(*coeffs)
        primes = sieve_range(2, 30_000)
        pairs = {p: canonical_pairs(form, p) for p in primes.tolist()}
        hits = np.array([p for p, reps in pairs.items() if reps])
        assert hits.size > 100
        for lo, hi in zip(hits[:-5:7], hits[5::7]):
            for window in (primes[(primes >= lo) & (primes <= hi)], np.array([lo]), np.array([hi])):
                p, x, y = forms._window_rows(form, window)
                want = [(r.p, r.x, r.y) for q in window.tolist() for r in pairs[q]]
                assert list(zip(p.tolist(), x.tolist(), y.tolist())) == want

    def test_rows_of_one_prime_tie_on_x(self):
        # 7 = Q(3, 1) = Q(3, 2) for x^2 - xy + y^2: two rows share p and x
        form = QuadraticForm(1, -1, 1)
        p, x, y = forms._window_rows(form, np.array([7]))
        assert (p.tolist(), x.tolist(), y.tolist()) == ([7, 7], [3, 3], [1, 2])
        primes = sieve_range(2, forms.WINDOW)
        got = forms._window_rows(form, primes)
        assert np.count_nonzero(got[0][1:] == got[0][:-1]) > 1000
        for g, w in zip(got, _lexsort_rows(form, primes)):
            assert np.array_equal(g, w)

    @given(
        coeffs=st.sampled_from(ORACLE_FORMS),
        modulus=st.integers(min_value=1, max_value=24),
        residue=st.integers(min_value=0, max_value=23),
    )
    @settings(max_examples=40, deadline=None)
    def test_slice_class_equals_boolean_mask(self, coeffs, modulus, residue):
        assume(math.gcd(residue, modulus) == 1)
        table = _full_table(coeffs)
        got = table.slice_class(CongruenceClass(residue, modulus))
        mask = table.p % modulus == residue % modulus
        assert np.array_equal(got.p, table.p[mask])
        assert np.array_equal(got.x, table.x[mask])
        assert np.array_equal(got.y, table.y[mask])
        assert got.limit == table.limit and got.form == table.form
