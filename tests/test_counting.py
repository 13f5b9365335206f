import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias import counting
from qfbias import primes as primes_module
from qfbias.arith import euler_phi, kronecker_array, squarefree_part
from qfbias.counting import (
    FieldSplitting,
    a_coefficient,
    d_functions,
    d_race,
    density_check,
    log_integral,
    norm_residue_subgroup,
    prime_ideal_count,
)
from qfbias.errors import ConsistencyError, SieveCapacityError
from qfbias.forms import QuadraticForm, RepTable
from qfbias.primes import DEFAULT_CAPACITY, CongruenceClass, sieve_range

from conftest import trial_division_primes
from oracles import (
    CountSeries,
    class_series,
    d_race_rows,
    in_class,
    kronecker,
    negative_bias_fraction,
    splitting_type,
    table_to,
    value_at,
)

GAUSS = FieldSplitting(-1)
Q11 = QuadraticForm(1, 0, 1)
DELTAS = [-1, -2, -3, -7, -11]


class TestFieldSplitting:
    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            FieldSplitting(1)

    def test_rejects_square_factor(self):
        with pytest.raises(ValueError):
            FieldSplitting(-4)

    def test_field_discriminants(self):
        assert GAUSS.field_discriminant == -4
        assert FieldSplitting(-2).field_discriminant == -8
        assert FieldSplitting(-3).field_discriminant == -3
        assert FieldSplitting(-7).field_discriminant == -7

    def test_examples(self):
        assert splitting_type(GAUSS, 5) == "split"
        assert splitting_type(GAUSS, 2) == "ramified"
        assert splitting_type(GAUSS, 3) == "inert"

    @pytest.mark.parametrize("delta", DELTAS)
    def test_split_iff_discriminant_is_square_mod_p(self, delta):
        fs = FieldSplitting(delta)
        d = fs.field_discriminant
        for p in trial_division_primes(3, 200):
            kind = splitting_type(fs, p)
            if d % p == 0:
                assert kind == "ramified"
                continue
            has_root = any(r * r % p == d % p for r in range(p))
            assert (kind == "split") == has_root


class TestDFunctions:
    def test_hand_prefixes(self):
        d1, d2 = class_series(*d_functions(table_to(Q11, 20), 20))
        assert d2.evaluate(6) == -1
        assert d2.evaluate(14) == 0
        assert d1.evaluate(18) == -1

    def test_steps_are_unit_sized_and_disjoint(self):
        d1, d2 = class_series(*d_functions(table_to(Q11, 10_000), 10_000))
        for series in (d1, d2):
            vals = np.asarray(series.values[:-1])  # final entry is the endpoint
            assert np.all(np.abs(np.diff(vals)) == 1)
        assert set(d1.x_grid[:-1]).isdisjoint(d2.x_grid[:-1])

    def test_every_qualifying_prime_is_an_event(self):
        columns = d_functions(table_to(Q11, 2000), 2000)
        assert [c.dtype for c in columns] == [np.int64] * 3
        d1, d2 = class_series(*columns)
        primes = sieve_range(2, 1999).tolist()
        np.testing.assert_array_equal(d1.x_grid[:-1], [p for p in primes if p % 8 == 1])
        np.testing.assert_array_equal(d2.x_grid[:-1], [p for p in primes if p % 8 == 5])

    def test_decomposition_matches_brute_force(self):
        # the per-prime oracle finds each p = a^2 + 4b^2 by its own loop over b
        columns = d_functions(table_to(Q11, 500), 500)
        assert list(zip(*(c.tolist() for c in columns))) == d_race_rows(500)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), x_max=st.integers(2, 30_000))
    def test_d_race_over_any_cut_of_the_rows(self, data, x_max):
        # today's streams cut only at sieve-segment edges; repeated cuts give empty blocks
        table = table_to(Q11, x_max - 1)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(table)), max_size=12)))
        blocks = [
            RepTable(Q11, table.p[i:j], table.x[i:j], table.y[i:j], table.limit)
            for i, j in zip([0, *cuts], [*cuts, len(table)])
        ]
        written = []
        final, fractions = d_race(iter(blocks), x_max, lambda *c: written.append(c))
        assert len(written) == len(blocks) + 1  # one write per block, then the endpoint
        columns = [np.concatenate(c) for c in zip(*written)]
        for got, want in zip(columns, d_functions(table, x_max)):
            np.testing.assert_array_equal(got, want)
        rows = d_race_rows(x_max)
        assert tuple(final.tolist()) == rows[-1][1:]
        assert fractions == tuple(map(negative_bias_fraction, class_series(*zip(*rows))))
        # a block of another form, anywhere in the stream, is refused
        other = table_to(QuadraticForm(1, 1, 1), 100)
        at = data.draw(st.integers(0, len(blocks)))
        with pytest.raises(ValueError, match="x\\^2 \\+ y\\^2"):
            d_race(iter([*blocks[:at], other, *blocks[at:]]), x_max, lambda *c: None)

    def test_value_at_vs_evaluate(self):
        d1, _ = class_series(*d_functions(table_to(Q11, 100), 100))
        p = d1.x_grid[0]  # 17, the first prime = 1 mod 8 with a pair
        assert d1.evaluate(p) == 0
        assert value_at(d1, p) == d1.values[0]


class TestBiasFraction:
    def test_all_negative(self):
        series = CountSeries([2, 3, 5], [-1, -2, -1])
        assert negative_bias_fraction(series) == (1.0, 1.0)

    def test_alternating(self):
        series = CountSeries([1, 2, 3, 4], [1, -1, 1, -1])
        frac = negative_bias_fraction(series)
        assert frac.negative == 0.5 and frac.nonpositive == 0.5

    def test_zeros_count_only_as_nonpositive(self):
        series = CountSeries([1, 2], [0, 1])
        frac = negative_bias_fraction(series)
        assert frac.negative == 0.0 and frac.nonpositive == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            negative_bias_fraction(CountSeries([], []))


class TestPrimeIdealCount:
    def test_example_x10(self):
        assert prime_ideal_count(GAUSS, 10) == 4

    def test_example_with_class(self):
        assert prime_ideal_count(GAUSS, 10, CongruenceClass(1, 4)) == 3

    def test_no_norms_below_two(self):
        assert prime_ideal_count(GAUSS, 1) == 0

    def test_brute_force_cross_check(self):
        # enumerate ideal norms directly from splitting data
        for delta in DELTAS:
            fs = FieldSplitting(delta)
            x = 500
            norms = []
            for p in trial_division_primes(2, x):
                kind = splitting_type(fs, p)
                if kind == "split":
                    norms += [p, p]
                elif kind == "ramified":
                    norms.append(p)
            for p in trial_division_primes(2, math.isqrt(x)):
                if splitting_type(fs, p) == "inert":
                    norms.append(p * p)
            assert prime_ideal_count(fs, x) == len(norms)
            cls = CongruenceClass(1, 4)
            assert prime_ideal_count(fs, x, cls) == sum(
                1 for n in norms if n % 4 == 1
            )

    def test_class_filter_additivity(self):
        modulus = 8
        x = 10_000
        total = prime_ideal_count(GAUSS, x)
        by_class = sum(
            prime_ideal_count(GAUSS, x, CongruenceClass(m, modulus))
            for m in range(modulus)
            if math.gcd(m, modulus) == 1
        )
        shared = 1  # the single ramified ideal above 2 has norm 2, gcd(2, 8) > 1
        assert by_class == total - shared

    def test_capacity_refused_before_sieving(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved before the capacity check")

        monkeypatch.setattr("qfbias.primes.sieve_range", refuse)
        with pytest.raises(SieveCapacityError, match="exceeds capacity"):
            prime_ideal_count(GAUSS, DEFAULT_CAPACITY + 1)

    def test_capacity_of_the_largest_bound_refused_before_sieving(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved before the capacity check")

        monkeypatch.setattr("qfbias.primes.sieve_range", refuse)
        with pytest.raises(SieveCapacityError, match="exceeds capacity"):
            prime_ideal_count(GAUSS, [100, DEFAULT_CAPACITY + 1, 1000])

    def test_capacity_refused_before_the_character_table(self, monkeypatch):
        # the table has min(|d_K|, x + 1) entries: 4e7 of them take seconds to build
        monkeypatch.setattr(counting, "_chi_table", lambda d, size: pytest.fail("built"))
        with pytest.raises(SieveCapacityError, match="exceeds capacity"):
            prime_ideal_count(FieldSplitting(-9999991), DEFAULT_CAPACITY + 1)

    def test_scalar_gives_int_and_array_gives_int64_array(self):
        assert type(prime_ideal_count(GAUSS, 100)) is int
        counts = prime_ideal_count(GAUSS, np.array([10, 1, 100]))
        assert counts.dtype == np.int64
        assert counts.tolist() == [4, 0, prime_ideal_count(GAUSS, 100)]
        assert prime_ideal_count(GAUSS, []).tolist() == []

    @settings(max_examples=100, deadline=None)
    @given(
        # small fields, and squarefree |delta| <= 1e9, whose chi table is cut at the bound
        delta=st.sampled_from([-1, -2, -3, -5, -6, -15])
        | st.integers(-10**9, -1).filter(lambda d: squarefree_part(d) == d),
        cls=st.integers(min_value=1, max_value=60).flatmap(
            lambda mod: st.sampled_from(
                [CongruenceClass(r, mod) for r in range(mod) if math.gcd(r, mod) == 1]
            )
        ),
        bounds=st.lists(st.integers(min_value=1, max_value=20_000), min_size=1, max_size=8),
    )
    def test_bound_array_equals_per_prime_count_and_scalar_calls(self, delta, cls, bounds):
        fs = FieldSplitting(delta)
        top = max(bounds)
        norms = []  # (norm, ideals of that norm) from each prime's splitting type
        for p in _scan_primes(20_000):
            kind = splitting_type(fs, p)
            if kind == "inert" and p * p <= top:
                norms.append((p * p, 1))
            elif kind != "inert" and p <= top:
                norms.append((p, 2 if kind == "split" else 1))
        expected = [
            sum(k for n, k in norms if n <= x and in_class(cls, n)) for x in bounds
        ]
        counts = prime_ideal_count(fs, np.array(bounds), cls)
        assert counts.tolist() == expected
        assert [prime_ideal_count(fs, x, cls) for x in bounds] == expected

    @settings(max_examples=40, deadline=None)
    @given(
        delta=st.sampled_from([-1, -3, -5, -15]),
        bounds=st.lists(st.integers(min_value=1, max_value=30_000), min_size=1, max_size=6),
        segment_size=st.integers(1, 30_000),
    )
    def test_counts_add_across_windows(self, delta, bounds, segment_size):
        fs, cls = FieldSplitting(delta), CongruenceClass(1, 4)
        want = prime_ideal_count(fs, bounds, cls).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", segment_size)
            assert prime_ideal_count(fs, bounds, cls).tolist() == want

    def test_memory_holds_one_window_not_the_range(self):
        fs, cls = GAUSS, CongruenceClass(1, 8)
        xs = [10**k for k in range(2, 8)]
        prime_ideal_count(fs, xs[:2], cls)  # imports and memoised base primes
        tracemalloc.start()
        try:
            counts = prime_ideal_count(fs, xs, cls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == [12, 80, 603, 4802, 39191, 332177]
        # measured 3.0 MiB at 1e7 (numpy 2, one 2^20-number window of primes
        # and its masks live at a time); all the norms of the range, sorted by
        # kind, peaked at 15.5 MiB
        assert peak < 4 * 2**20

    def test_chi_table_built_once_per_count(self, monkeypatch):
        calls = []

        def spy(d, n):
            calls.append(n.size)
            return kronecker_array(d, n)

        fs = FieldSplitting(-7)
        monkeypatch.setattr(counting, "kronecker_array", spy)
        for x in (100, 1000, 10_000):
            prime_ideal_count(fs, x)
        # no memo: every count builds the table it reads, at the |d_K| = 7 residues
        assert calls == [7, 7, 7]
        # one table serves every bound of one call
        prime_ideal_count(fs, [100, 1000, 10_000])
        assert calls == [7, 7, 7, 7]
        chi = counting._chi_table(fs.field_discriminant, 7)
        assert chi.tolist() == [kronecker(-7, r) for r in range(7)]

    @pytest.mark.parametrize("d", [-3, -4, -7, -8, -15, -20, -24, -999983])
    def test_chi_table_equals_kronecker_at_every_residue(self, d):
        chi = counting._chi_table(d, abs(d))
        assert chi.tolist() == [kronecker(d, r) for r in range(abs(d))]

    def test_chi_table_reads_only_the_residues_below_the_bound(self, monkeypatch):
        sizes = []

        def spy(d, n):
            sizes.append(n.size)
            return kronecker_array(d, n)

        monkeypatch.setattr(counting, "kronecker_array", spy)
        fs = FieldSplitting(-9999991)  # d_K = delta: 9,999,991 residues mod |d_K|
        assert prime_ideal_count(fs, 1000) == 185
        # a table of all |d_K| residues evaluated 9,999,991
        assert sum(sizes) <= 1001
        assert counting._chi_table(fs.field_discriminant, 1001).dtype == np.int8


class TestKroneckerArray:
    @given(
        a=st.integers(min_value=-4 * 10**9, max_value=4 * 10**9),
        n=st.lists(st.integers(min_value=0, max_value=2**40), max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_kronecker(self, a, n):
        got = kronecker_array(a, np.array(n, dtype=np.int64))
        assert got.tolist() == [kronecker(a, v) for v in n]

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            kronecker_array(-4, np.array([3, -1]))

    def test_rejects_a_past_int64(self):
        assert kronecker_array(-(2**63), np.array([3])).tolist() == [kronecker(-(2**63), 3)]
        with pytest.raises(ValueError, match="a inside int64"):
            kronecker_array(2**63, np.array([3]))


STABILIZATION_WINDOW = 100


def _closure(modulus: int, generators) -> set[int]:
    """Subgroup of (Z/MZ)^* generated by the given residues."""
    group = {1 % modulus} | {g % modulus for g in generators}
    changed = True
    while changed:
        changed = False
        for a in list(group):
            for b in list(group):
                ab = a * b % modulus
                if ab not in group:
                    group.add(ab)
                    changed = True
    return group


@functools.cache
def _scan_primes(budget: int) -> tuple[int, ...]:
    return tuple(trial_division_primes(2, budget))


def scanned_subgroup(fs: FieldSplitting, modulus: int, budget: int = 10_000):
    """Oracle for H: the closure of prime-ideal norm residues up to budget.

    Split primes coprime to M contribute p mod M, inert primes p^2 mod M;
    the ramified primes are skipped. The scan certifies only membership: it
    counts as stabilized when it saw at least STABILIZATION_WINDOW primes and
    the last STABILIZATION_WINDOW of them added nothing. Returns (H, stabilized).
    """
    d = fs.field_discriminant
    group = {1 % modulus}
    generators: set[int] = set()
    since_change = 0
    scanned = 0
    for p in _scan_primes(budget):
        if math.gcd(p, modulus) != 1 or d % p == 0:
            continue
        norm = p % modulus if kronecker(d, p) == 1 else p * p % modulus
        scanned += 1
        generators.add(norm)
        if norm in group:
            since_change += 1
            continue
        group = _closure(modulus, generators)
        since_change = 0
    stabilized = scanned >= STABILIZATION_WINDOW and since_change >= STABILIZATION_WINDOW
    return group, stabilized


@st.composite
def _field_and_modulus(draw):
    """A squarefree delta < 0 and M <= 200, often a multiple of |d_K|."""
    delta = draw(st.integers(-60, -1).filter(lambda d: squarefree_part(d) == d))
    fs = FieldSplitting(delta)
    d = abs(fs.field_discriminant)
    moduli = st.integers(1, 200)
    if d <= 200:
        moduli |= st.integers(1, 200 // d).map(lambda k: k * d)
    return fs, draw(moduli)


def members(sub):
    """The elements of H in [0, M), by its membership test."""
    return {r for r in range(sub.modulus) if sub.contains(r)}


class TestNormResidueSubgroup:
    def test_gauss_mod_eight(self):
        sub = norm_residue_subgroup(GAUSS, 8)
        assert members(sub) == {1, 5}
        assert sub.index == 2

    def test_trivial_modulus(self):
        sub = norm_residue_subgroup(GAUSS, 1)
        assert members(sub) == {0} and sub.index == 1

    def test_eisenstein_mod_three(self):
        sub = norm_residue_subgroup(FieldSplitting(-3), 3)
        assert members(sub) == {1}
        assert sub.index == 2

    def test_rejects_modulus_below_one(self):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            norm_residue_subgroup(GAUSS, 0)

    def test_discriminant_factored_once_per_subgroup(self, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return squarefree_part(n)

        monkeypatch.setattr(counting, "squarefree_part", spy)
        sub = norm_residue_subgroup(GAUSS, 8)
        assert members(sub) == {1, 5} and sub.index == 2 and not sub.contains(3)
        # the subgroup keeps the field's d_K, so nothing is factored again
        assert calls == []
        assert a_coefficient(GAUSS, CongruenceClass(5, 8)) == 2
        assert calls == []

    @pytest.mark.parametrize("delta", DELTAS)
    def test_scan_matches_closed_form(self, delta):
        fs = FieldSplitting(delta)
        for modulus in range(1, 51):
            scanned, stabilized = scanned_subgroup(fs, modulus)
            assert stabilized
            assert members(norm_residue_subgroup(fs, modulus)) == scanned

    @given(case=_field_and_modulus())
    @settings(max_examples=200, deadline=None)
    def test_scan_oracle_property(self, case):
        fs, modulus = case
        sub = norm_residue_subgroup(fs, modulus)
        closed = members(sub)
        scanned, stabilized = scanned_subgroup(fs, modulus)
        if not stabilized:
            assert scanned <= closed
            return
        assert scanned == closed
        units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
        assert sub.index * len(scanned) == len(units)
        for r in range(-modulus, 2 * modulus):
            assert sub.contains(r) == (r % modulus in scanned)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_contains_squares_and_small_index(self, delta):
        fs = FieldSplitting(delta)
        for modulus in range(2, 51):
            sub = members(norm_residue_subgroup(fs, modulus))
            squares = {
                r * r % modulus
                for r in range(modulus)
                if math.gcd(r, modulus) == 1
            }
            assert squares <= sub
            assert euler_phi(modulus) % len(sub) == 0
            assert euler_phi(modulus) // len(sub) in (1, 2)


class TestACoefficient:
    def test_gauss_mod_eight_values(self):
        assert a_coefficient(GAUSS, CongruenceClass(1, 8)) == 2
        assert a_coefficient(GAUSS, CongruenceClass(5, 8)) == 2
        assert a_coefficient(GAUSS, CongruenceClass(3, 8)) == 0
        assert a_coefficient(GAUSS, CongruenceClass(7, 8)) == 0

    def test_trivial_modulus(self):
        for delta in DELTAS:
            assert a_coefficient(FieldSplitting(delta), CongruenceClass.trivial()) == 1

    def test_large_modulus_needs_no_sieve(self, monkeypatch):
        monkeypatch.setattr("qfbias.primes.sieve_range", None)
        big = 10**9 + 7
        assert a_coefficient(GAUSS, CongruenceClass(1, big)) == 1
        assert a_coefficient(GAUSS, CongruenceClass(1, 4 * big)) == 2
        assert a_coefficient(GAUSS, CongruenceClass(3, 4 * big)) == 0

    @pytest.mark.parametrize("delta", DELTAS)
    def test_character_sum_identity_small(self, delta):
        fs = FieldSplitting(delta)
        for modulus in range(1, 51):
            total = sum(
                a_coefficient(fs, CongruenceClass(m, modulus))
                for m in range(modulus)
                if math.gcd(m, modulus) == 1
            ) if modulus > 1 else a_coefficient(fs, CongruenceClass.trivial())
            assert total == euler_phi(modulus)


class TestDensity:
    def test_log_integral_against_substituted_trapezoid(self):
        # independent oracle: substitute t = e^u so the integrand is smooth on
        # a uniform grid, then composite trapezoid with Richardson
        def trap(x, n):
            us = np.linspace(math.log(2.0), math.log(float(x)), n + 1)
            return float(np.trapezoid(np.exp(us) / us, us))

        for x in (10**3, 10**6):
            coarse, fine = trap(x, 500_000), trap(x, 1_000_000)
            oracle = (4.0 * fine - coarse) / 3.0
            assert log_integral(x) == pytest.approx(oracle, abs=1e-4)

    def test_trivial_class_ratio_near_one(self):
        report = density_check(GAUSS, CongruenceClass.trivial(), [10**6])[0]
        assert report.a_coeff == 1
        assert 0.95 <= report.ratio <= 1.05

    def test_zero_coefficient_class_is_exactly_empty(self):
        report = density_check(GAUSS, CongruenceClass(3, 8), [10**6])[0]
        assert report.a_coeff == 0
        assert report.empirical == 0
        assert report.predicted == 0.0
        assert math.isnan(report.ratio)

    def test_one_report_per_checkpoint_equals_single_checkpoints(self):
        cls = CongruenceClass(1, 8)
        xs = [100, 1000, 10_000, 12_345]
        reports = density_check(GAUSS, cls, xs)
        assert [r.x for r in reports] == xs
        assert reports == [density_check(GAUSS, cls, [x])[0] for x in xs]

    def test_zero_coefficient_checked_at_every_checkpoint(self, monkeypatch):
        # a wrong A = 0 for the trivial class must be caught at the first checkpoint
        monkeypatch.setattr(counting, "a_coefficient", lambda fs, cls: 0)
        with pytest.raises(ConsistencyError, match="A=0 .* but 25 ideals counted"):
            density_check(GAUSS, CongruenceClass.trivial(), [100, 1000])

    def test_minimum_x_enforced(self):
        with pytest.raises(ValueError):
            density_check(GAUSS, CongruenceClass.trivial(), [50])
