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
    ensure_table,
    representation_table,
)
from qfbias.primes import DEFAULT_CAPACITY, DEFAULT_SEGMENT_SIZE, CongruenceClass, sieve_range

from conftest import trial_division_primes
from oracles import Representation, canonical_pairs, cornacchia, sqrt_mod, table_rows

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
                "CountSeries")),
    ("qfbias.forms",
     ("Representation", "sqrt_mod", "cornacchia", "_fast_pairs", "canonical_pairs")),
    ("qfbias.counting", ("splitting_type", "SPLIT", "INERT", "RAMIFIED", "negative_bias_fraction",
                         "CountSeries")),
    ("qfbias.primes", ("_simple_prime_flags", "first_primes", "nth_prime")),
    ("qfbias.series", ("MAX_MOMENT_POWER", "MomentSums", "moment_sum", "poly_sum")),
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
        for build in (lambda: ensure_table(Q11, DEFAULT_CAPACITY + 1),
                      lambda: forms.row_blocks(seed, DEFAULT_CAPACITY + 1)):
            with pytest.raises(SieveCapacityError, match="capacity"):
                build()
        assert calls == []

    def test_fresh_table_covers_its_limit(self, monkeypatch):
        table = ensure_table(Q11, 100)
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
            grown = ensure_table(want.form, bound)
        keep = want.p >= (subset[0] if subset.size else bound + 1)
        for got, rows in ((table, keep), (grown, slice(None))):
            assert np.array_equal(got.p, want.p[rows])
            assert np.array_equal(got.x, want.x[rows])
            assert np.array_equal(got.y, want.y[rows])
        assert grown.limit == bound

    def test_ensure_table_sieves_one_segment_at_a_time(self, monkeypatch):
        spans = []

        def spy(lo, hi, *args, **kwargs):
            spans.append((lo, hi))
            return sieve_range(lo, hi, *args, **kwargs)

        limit = 3 * DEFAULT_SEGMENT_SIZE + 5
        monkeypatch.setattr(primes, "sieve_range", spy)
        table = ensure_table(Q11, limit)
        assert spans[0][0] == 2 and spans[-1][1] == limit
        assert all(hi - lo < DEFAULT_SEGMENT_SIZE for lo, hi in spans)
        assert len(spans) == 4
        direct = representation_table(Q11, sieve_range(2, limit))
        assert np.array_equal(table.p, direct.p)
        assert np.array_equal(table.x, direct.x)
        assert np.array_equal(table.y, direct.y)

    def test_traced_peak_of_a_2e6_table(self):
        # measured 4.2 MiB for a 1.7 MiB table (74416 rows); the engine that
        # flagged and enumerated the whole range at once peaked at 9.1 MiB
        ensure_table(Q11, 1000)  # warm module-level state first
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            table = ensure_table(Q11, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert len(table) == 74416
        assert peak < 6 * 2**20

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
        seed, limit = ensure_table(form, seed_limit), seed_limit + extra
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
