import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias.errors import SieveCapacityError
from qfbias import primes as primes_module
from qfbias import forms as forms_module
from qfbias.forms import QuadraticForm, _x_extent, empty_table, representation_table
from qfbias.polynomials import BivariatePolynomial, parse_polynomial
from qfbias.primes import (
    DEFAULT_SEGMENT_SIZE,
    CongruenceClass,
    nth_prime_bound,
    sieve_range,
)
from qfbias.series import (
    BiasSeries,
    _check_sums,
    bias_series,
    fold_series,
    ratio_series,
    sign_changes,
)

from conftest import UNSHRUNK
from oracles import (
    canonical_pairs, first_primes, moment_sum, nth_prime, poly_sum, table_rows, table_to,
)

Q11 = QuadraticForm(1, 0, 1)
C14 = CongruenceClass(1, 4)
TRIVIAL = CongruenceClass.trivial()


def _series(form, cls, n_max, stride=100):
    """bias_series on a table built to the series' own bound, Pr of its last point."""
    return bias_series(table_to(form, nth_prime(n_max - n_max % stride)), cls, n_max, stride)


class TestMomentSum:
    def test_first_moment_to_29(self):
        ms = moment_sum(table_to(Q11, 29), C14, 1, 29)
        assert (ms.sum_a, ms.sum_b, ms.count) == (14, 6, 4)

    def test_no_qualifying_primes(self):
        ms = moment_sum(table_to(Q11, 2), C14, 3, 2)
        assert (ms.sum_a, ms.sum_b, ms.count) == (0, 0, 0)

    def test_five_mod_eight_to_13(self):
        ms = moment_sum(table_to(Q11, 13), CongruenceClass(5, 8), 1, 13)
        assert (ms.sum_a, ms.sum_b) == (5, 3)

    def test_power_guard(self):
        with pytest.raises(ValueError):
            moment_sum(table_to(Q11, 100), C14, 9, 100)

    def test_each_canonical_pair_counts_once(self):
        # a skewed (non-reduced) form can represent one prime by several
        # canonical pairs; every pair contributes a term
        skew = QuadraticForm(1, -6, 10)
        pairs = [(r.x, r.y) for r in canonical_pairs(skew, 5)]
        assert pairs == [(5, 1), (5, 2), (7, 2)]
        ms = moment_sum(table_to(skew, 5), TRIVIAL, 1, 5)
        assert ms.count == len(canonical_pairs(skew, 2)) + 3
        assert ms.sum_a >= 5 + 5 + 7

    def test_exactness_of_high_powers(self):
        ms = moment_sum(table_to(Q11, 1000), C14, 8, 1000)
        direct = 0
        for p in sieve_range(2, 1000).tolist():
            for rep in canonical_pairs(Q11, p):
                if p % 4 == 1:
                    direct += rep.x**8
        assert ms.sum_a == direct

    @given(x1=st.integers(10, 400), x2=st.integers(10, 400))
    @settings(max_examples=25, deadline=None)
    def test_monotone_prefix(self, x1, x2):
        lo, hi = sorted((x1, x2))
        table = table_to(Q11, hi)
        small = moment_sum(table, C14, 1, lo)
        large = moment_sum(table, C14, 1, hi)
        assert small.sum_a <= large.sum_a
        assert small.sum_b <= large.sum_b

    @pytest.mark.parametrize("modulus", [4, 8, 12])
    def test_class_additivity(self, modulus):
        import math

        limit = 20_000
        table = table_to(Q11, limit)
        total_a = total_b = 0
        for m in range(modulus):
            if math.gcd(m, modulus) != 1:
                continue
            ms = moment_sum(table, CongruenceClass(m, modulus), 1, limit)
            total_a += ms.sum_a
            total_b += ms.sum_b
        everything = moment_sum(table, TRIVIAL, 1, limit)
        # subtract contributions from primes dividing the modulus
        div_a = div_b = 0
        for p, x, y in table_rows(table):
            if modulus % p == 0:
                div_a += x
                div_b += y
        assert total_a == everything.sum_a - div_a
        assert total_b == everything.sum_b - div_b


class TestBiasSeries:
    def test_single_point_n10(self):
        ser = _series(Q11, C14, 10, stride=10)
        assert ser.points.dtype == np.int64 and ser.points.shape == (1, 4)
        assert ser.points[-1].tolist() == [10, 29, 14, 6]
        assert ser.F[-1] == pytest.approx(14 / 6)

    def test_single_point_n3(self):
        ser = _series(Q11, C14, 3, stride=3)
        assert ser.F[-1] == pytest.approx(2.0)

    def test_unrepresentable_class_undefined(self):
        ser = _series(Q11, CongruenceClass(3, 4), 50, stride=10)
        assert np.isnan(ser.F).all() and (ser.points[:, 3] == 0).all()

    def test_grid_is_stride_multiples(self):
        ser = _series(Q11, C14, 100, stride=20)
        assert ser.points[:, 0].tolist() == [20, 40, 60, 80, 100]

    def test_reusing_table_matches_fresh(self):
        # a table reaching past the series' bound gives the points of one built to it
        table = representation_table(Q11, sieve_range(2, 10_000))
        fresh = _series(Q11, C14, 500, stride=100)
        reused = bias_series(table, C14, 500, stride=100)
        assert (fresh.form, fresh.cls, fresh.stride) == (reused.form, reused.cls, reused.stride)
        np.testing.assert_array_equal(fresh.points, reused.points)

    def test_series_on_one_grid_share_one_streamed_pass(self, monkeypatch):
        n_max = 200_000
        seed = table_to(Q11, 1_000_000)  # covers the first segment only
        spans, enumerated = [], []

        def sieve_spy(lo, hi, *args, **kwargs):
            spans.append((lo, hi))
            return sieve_range(lo, hi, *args, **kwargs)

        def table_spy(form, primes):
            enumerated.extend(primes.tolist())
            return representation_table(form, primes)

        monkeypatch.setattr(primes_module, "sieve_range", sieve_spy)
        monkeypatch.setattr(forms_module, "representation_table", table_spy)
        classes = (TRIVIAL, CongruenceClass(1, 8), CongruenceClass(5, 8))
        series = fold_series(seed, classes, n_max, stride=100)
        # one pass of segments from 2 up, none of them the whole first-N range,
        # and no number sieved twice
        assert spans[0][0] == 2 and all(hi - lo < DEFAULT_SEGMENT_SIZE for lo, hi in spans)
        assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        want = first_primes(n_max)
        assert all(ser.points[:, 1].tolist() == want[99::100].tolist() for ser in series)
        # only the primes above the seed, each once, up to Pr(n_max)
        assert enumerated == want[want > seed.limit].tolist()
        monkeypatch.undo()
        table = table_to(Q11, int(want[-1]))
        for ser in series:
            np.testing.assert_array_equal(ser.points, bias_series(table, ser.cls, n_max).points)

    def test_capacity_error_before_sieving(self, monkeypatch):
        table = table_to(Q11, 100)
        calls = []
        monkeypatch.setattr("qfbias.primes.sieve_range", lambda lo, hi, **kw: calls.append(hi))
        with pytest.raises(SieveCapacityError, match="capacity"):
            bias_series(table, C14, 200_000_000)
        with pytest.raises(SieveCapacityError, match="capacity"):
            fold_series(empty_table(Q11), [C14], 200_000_000)
        assert calls == []

    def test_stride_validation(self):
        table = table_to(Q11, 1000)
        with pytest.raises(ValueError, match="stride"):
            bias_series(table, C14, 10, stride=0)
        with pytest.raises(ValueError, match="stride"):
            bias_series(table, C14, 5, stride=10)


def _bias_values_by_loop(cls, n_max, stride, table):
    """Reference: one searchsorted per point over the class's prefix sums."""
    primes = sieve_range(2, nth_prime_bound(n_max))[:n_max]
    rows = table.slice_below(int(primes[-1])).slice_class(cls)
    cum_x, cum_y = np.cumsum(rows.x), np.cumsum(rows.y)
    out = []
    for n in range(stride, n_max + 1, stride):
        pr_n = int(primes[n - 1])
        idx = int(np.searchsorted(rows.p, pr_n, side="right"))
        sum_a = int(cum_x[idx - 1]) if idx else 0
        sum_b = int(cum_y[idx - 1]) if idx else 0
        out.append((n, pr_n, sum_a, sum_b))
    return out


@pytest.fixture(scope="module")
def tables_to_n3000():
    primes = sieve_range(2, nth_prime_bound(3000))
    return {form: representation_table(form, primes)
            for form in (Q11, QuadraticForm(1, 1, 1), QuadraticForm(2, 1, 3))}


# (1,0,1) never represents 3 mod 4, (1,1,1) never 2 mod 3: every F is None
SERIES_CASES = [
    (Q11, TRIVIAL), (Q11, C14), (Q11, CongruenceClass(3, 4)), (Q11, CongruenceClass(5, 8)),
    (QuadraticForm(1, 1, 1), CongruenceClass(7, 12)),
    (QuadraticForm(1, 1, 1), CongruenceClass(2, 3)),
    (QuadraticForm(2, 1, 3), CongruenceClass(3, 5)),
]


class TestBiasSeriesAgainstLoop:
    @given(case=st.sampled_from(SERIES_CASES), n_max=st.integers(1, 3000),
           stride=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_points_equal_per_point_searchsorted(self, tables_to_n3000, case, n_max, stride):
        form, cls = case
        stride = min(stride, n_max)
        table = tables_to_n3000[form]
        ser = bias_series(table, cls, n_max, stride=stride)
        assert ser.points.dtype == np.int64
        got = [tuple(row) for row in ser.points.tolist()]
        assert got == _bias_values_by_loop(cls, n_max, stride, table)
        # F is exactly Python's correctly rounded int / int, NaN where sum_b = 0
        assert ser.F.dtype == np.float64
        for (_, _, sum_a, sum_b), f in zip(got, ser.F.tolist()):
            if sum_b == 0:
                assert math.isnan(f)
            else:
                assert f == sum_a / sum_b


# b < 0 forms as in the general-forms workload, and (1,-6,10), for which 5
# has three canonical pairs; 3 mod 4 and 2 mod 3 are empty classes
FOLD_CASES = {
    Q11: (TRIVIAL, C14, CongruenceClass(3, 4), CongruenceClass(5, 8)),
    QuadraticForm(1, 1, 1): (CongruenceClass(7, 12), CongruenceClass(2, 3)),
    QuadraticForm(1, -1, 2): (TRIVIAL, CongruenceClass(2, 7)),
    QuadraticForm(3, -2, 5): (CongruenceClass(1, 4), TRIVIAL),
    QuadraticForm(1, -6, 10): (TRIVIAL, CongruenceClass(1, 4), CongruenceClass(3, 4)),
}


class TestFoldSeries:
    @given(form=st.sampled_from(list(FOLD_CASES)), n_max=st.integers(1, 1500),
           stride=st.integers(1, 1500), data=st.data())
    @settings(UNSHRUNK, max_examples=60)
    def test_equals_bias_series_on_a_full_table(self, form, n_max, stride, data):
        stride = min(stride, n_max)
        pr_last = nth_prime(n_max - n_max % stride)
        seed = table_to(form, data.draw(st.integers(0, pr_last - 1), label="seed limit"))
        segment_size = data.draw(
            st.one_of(st.integers(1, 64), st.integers(1, pr_last)), label="segment size"
        )
        classes = FOLD_CASES[form]
        with pytest.MonkeyPatch.context() as mp:
            # the fold's pass in segments of this size
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", segment_size)
            folded = fold_series(seed, classes, n_max, stride)
        table = table_to(form, pr_last)
        assert len(folded) == len(classes)
        for cls, ser in zip(classes, folded):
            want = bias_series(table, cls, n_max, stride)
            assert (ser.form, ser.cls, ser.stride) == (form, cls, stride)
            assert ser.points.dtype == np.int64
            np.testing.assert_array_equal(ser.points, want.points)

    @given(n_max=st.integers(1, 20_000), stride=st.integers(1, 700))
    @settings(max_examples=60, deadline=None)
    def test_grid_points_equal_first_primes_at_the_stride_points(self, n_max, stride):
        if stride > n_max:
            with pytest.raises(ValueError):
                fold_series(empty_table(Q11), [C14], n_max, stride)
            return
        ns = np.arange(stride, n_max + 1, stride)
        [ser] = fold_series(empty_table(Q11), [C14], n_max, stride)
        assert np.array_equal(ser.points[:, 0], ns)
        assert np.array_equal(ser.points[:, 1], first_primes(n_max)[ns - 1])

    def test_memory_stays_flat_where_the_table_grows(self):
        classes = (CongruenceClass(1, 8), CongruenceClass(5, 8), TRIVIAL)
        fold_series(empty_table(Q11), classes, 1000)  # imports and memoised base primes
        peaks = {}
        for n_max in (100_000, 400_000):
            tracemalloc.start()
            try:
                fold_series(empty_table(Q11), classes, n_max)
                peaks[n_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # measured 4.40 MB at N = 1e5 and 4.46 MB at N = 4e5 (numpy 2, one
        # sieve segment and one lattice window live at a time); the table to
        # Pr(4e5) = 5.8e6 it replaces holds ~2e5 rows, 4.8 MB, 4x that at 1e5
        assert peaks[400_000] < 6_000_000
        assert peaks[400_000] < 1.5 * peaks[100_000]


# non-reduced forms (|b| > a or a > c), whose canonical x can pass sqrt(p):
# 5 = Q(7, 2) under (1,-6,10)
NON_REDUCED = [QuadraticForm(1, -6, 10), QuadraticForm(2, -5, 4), QuadraticForm(1, -3, 5)]
_non_reduced = st.tuples(st.integers(1, 6), st.integers(-14, 14), st.integers(1, 60)).filter(
    lambda f: f[1] ** 2 < 4 * f[0] * f[2] and math.gcd(*f) == 1
    and (abs(f[1]) > f[0] or f[0] > f[2])
).map(lambda f: QuadraticForm(*f))


class TestSumGuard:
    @given(form=st.one_of(st.sampled_from(NON_REDUCED), _non_reduced), limit=st.integers(2, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_no_row_exceeds_the_bound_the_guard_uses(self, form, limit):
        table = table_to(form, limit)
        assert all(0 <= y < x <= _x_extent(form, p) for p, x, y in table_rows(table))
        # the guard bounds every row up to p by the extent at p
        assert int(table.x.max(initial=0)) <= _x_extent(form, limit)

    def test_guard_reads_the_forms_extent(self):
        # (x - 2**20 y)^2 + y^2, so x reaches ~2**20 * sqrt(p)
        skew = QuadraticForm(1, -2**21, 2**40 + 1)
        rows = 2**62 // (2**19 * 1000)  # would pass a sqrt(p) bound at p = 1e6
        with pytest.raises(SieveCapacityError, match="overflow"):
            _check_sums(skew, rows, 10**6)
        _check_sums(Q11, rows, 10**6)


class TestRatioSeries:
    def test_self_ratio_is_one(self):
        ser = _series(Q11, C14, 50, stride=10)
        r = ratio_series(ser, ser)
        assert r.dtype == np.float64 and r.shape == (5,)
        assert r == pytest.approx(np.ones(5))

    def test_hand_value_at_n10(self):
        cls = _series(Q11, CongruenceClass(1, 8), 10, stride=10)
        allp = _series(Q11, TRIVIAL, 10, stride=10)
        [r] = ratio_series(cls, allp).tolist()
        assert cls.points[0, 0] == 10
        assert r == pytest.approx(12 / 7)

    def test_undefined_propagates(self):
        cls = _series(Q11, CongruenceClass(3, 4), 50, stride=10)
        allp = _series(Q11, TRIVIAL, 50, stride=10)
        assert np.isnan(ratio_series(cls, allp)).all()

    def test_mismatched_grids_rejected(self):
        a = _series(Q11, C14, 40, stride=10)
        b = _series(Q11, C14, 40, stride=20)
        with pytest.raises(ValueError):
            ratio_series(a, b)

    def test_mismatched_forms_rejected(self):
        a = _series(Q11, C14, 40, stride=10)
        b = _series(QuadraticForm(1, 1, 1), C14, 40, stride=10)
        with pytest.raises(ValueError):
            ratio_series(a, b)


class TestPolySum:
    def test_linear_matches_moment(self):
        assert poly_sum(table_to(Q11, 29), C14, parse_polynomial("x"), 29) == 14

    def test_form_value_recovers_prime_sum(self):
        # f(x, y) = x^2 + y^2 evaluates to p on every canonical pair
        total = poly_sum(table_to(Q11, 29), C14, parse_polynomial("x^2 + y^2"), 29)
        assert total == 5 + 13 + 17 + 29

    def test_rational_coefficients_exact(self):
        total = poly_sum(table_to(Q11, 29), C14, parse_polynomial("1/3 x"), 29)
        assert total == Fraction(14, 3)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_sum(table_to(Q11, 29), C14, BivariatePolynomial({}), 29)


def _synthetic(fs, grid=None):
    """A series whose F column is fs: v as v/1, None as 0/0 (undefined)."""
    grid = list(range(1, len(fs) + 1)) if grid is None else grid
    pts = np.array([(n, 0, 0 if f is None else f, 0 if f is None else 1)
                    for n, f in zip(grid, fs)], dtype=np.int64)
    return BiasSeries(form=Q11, cls=TRIVIAL, stride=1, points=pts)


class TestSignChanges:
    def test_constant_sign(self):
        count, _ = sign_changes(_synthetic([1, 1, 1]), _synthetic([0] * 3))
        assert count == 0

    def test_alternation(self):
        count, where = sign_changes(_synthetic([1, -1, 1]), _synthetic([0] * 3))
        assert count == 2
        assert where.tolist() == [2, 3]

    def test_zero_neither_counts_nor_resets(self):
        count, _ = sign_changes(_synthetic([1, 0, 1]), _synthetic([0] * 3))
        assert count == 0
        count, where = sign_changes(_synthetic([1, 0, -1]), _synthetic([0] * 3))
        assert count == 1 and where.tolist() == [3]

    def test_undefined_points_skipped(self):
        u = _synthetic([1, None, -2])
        v = _synthetic([0, 0, 0])
        count, where = sign_changes(u, v)
        assert (count, where.tolist()) == (1, [3])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sign_changes(_synthetic([1], grid=[1]), _synthetic([1], grid=[2]))

    def test_pipeline_has_a_crossing(self):
        table = representation_table(Q11, sieve_range(2, 120_000))
        s1 = bias_series(table, CongruenceClass(1, 8), 10_000, stride=100)
        s5 = bias_series(table, CongruenceClass(5, 8), 10_000, stride=100)
        count, _ = sign_changes(s1, s5)
        assert count >= 1


def _f_or_none(ser):
    """The (N, F or None) pairs of a series, F as Python's int / int."""
    return [(n, None if b == 0 else a / b) for n, _, a, b in ser.points.tolist()]


def _ratio_by_loop(series_class, series_all):
    """Reference: the per-point ratio loop, None where undefined."""
    out = []
    for (n, fc), (_, fa) in zip(_f_or_none(series_class), _f_or_none(series_all)):
        out.append((n, None if fc is None or fa is None or fa == 0.0 else fc / fa))
    return out


def _sign_changes_by_loop(u, v):
    """Reference: the per-point running-sign loop over (N, F or None) pairs."""
    crossings, prev_sign = [], 0
    for (n, a), (_, b) in zip(_f_or_none(u), _f_or_none(v)):
        if a is None or b is None or a - b == 0:
            continue
        sign = 1 if a - b > 0 else -1
        if prev_sign != 0 and sign != prev_sign:
            crossings.append(n)
        prev_sign = sign
    return len(crossings), crossings


# sums small enough to force exact zeros, ties and undefined points, and
# large ones up to the 2**53 bound below which F is exact
_sums = st.one_of(st.integers(-3, 3), st.integers(-(2**53), 2**53))


@st.composite
def _series_pair(draw):
    n = draw(st.integers(1, 40))
    grid = sorted(draw(st.sets(st.integers(1, 10**6), min_size=n, max_size=n)))

    def series():
        sums = draw(st.lists(st.tuples(_sums, _sums), min_size=n, max_size=n))
        pts = np.array([(g, 0, a, b) for g, (a, b) in zip(grid, sums)], dtype=np.int64)
        return BiasSeries(form=Q11, cls=TRIVIAL, stride=1, points=pts)

    return series(), series()


class TestColumnsAgainstPerPointLoops:
    @given(pair=_series_pair())
    @settings(max_examples=200, deadline=None)
    def test_ratio_series_equals_loop(self, pair):
        u, v = pair
        got = ratio_series(u, v).tolist()
        want = _ratio_by_loop(u, v)
        assert [math.isnan(r) for r in got] == [r is None for _, r in want]
        assert [r for r in got if not math.isnan(r)] == [r for _, r in want if r is not None]

    @given(pair=_series_pair())
    @settings(max_examples=200, deadline=None)
    def test_sign_changes_equals_loop(self, pair):
        u, v = pair
        count, where = sign_changes(u, v)
        assert (count, where.tolist()) == _sign_changes_by_loop(u, v)


class TestRSymmetry:
    def test_mod_eight_ratios_converge_to_one(self, rep_table_full):
        # the refined series and the all-primes series share one limit, so
        # both normalized ratios must flatten onto 1
        n_max = 500_000
        s_all = bias_series(rep_table_full, TRIVIAL, n_max, stride=n_max)
        for m in (1, 5):
            s_cls = bias_series(rep_table_full, CongruenceClass(m, 8), n_max, stride=n_max)
            [r] = ratio_series(s_cls, s_all).tolist()
            assert abs(r - 1.0) < 0.02
