import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias.equidist import (
    AngleSample,
    Sector,
    conjugate_sample,
    default_root_count,
    hecke_angle,
    ks_statistic,
    prefix_statistics,
    root_count_for_form,
    sample_angles,
    sector_counts,
    weyl_sum,
)
from qfbias.forms import QuadraticForm, Representation, canonical_pairs, representation_table
from qfbias.primes import CongruenceClass, sieve_range

TWO_PI = 2 * math.pi

angle_lists = st.lists(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), min_size=1, max_size=200
)


class TestHeckeAngle:
    def test_axis_sample(self):
        rep = Representation(p=2, x=1, y=0)
        assert hecke_angle(rep, 4).theta == 0.0

    def test_diagonal_sample(self):
        rep = Representation(p=2, x=1, y=1)
        assert hecke_angle(rep, 4).theta == pytest.approx(math.pi)

    def test_two_one_sample(self):
        rep = Representation(p=5, x=2, y=1)
        sample = hecke_angle(rep, 4)
        assert sample.theta == pytest.approx(1.854590436003, abs=1e-9)
        assert sample.raw_arg == pytest.approx(math.atan2(1, 2))

    def test_winding_validation(self):
        with pytest.raises(ValueError):
            hecke_angle(Representation(p=5, x=2, y=1), 0)

    def test_conjugate_mirrors_theta(self):
        sample = hecke_angle(Representation(p=5, x=2, y=1), 4)
        conj = conjugate_sample(sample)
        assert conj.theta == pytest.approx(TWO_PI - sample.theta)
        assert conj.raw_arg == sample.raw_arg
        assert conjugate_sample(AngleSample(p=2, theta=0.0, raw_arg=0.0)).theta == 0.0

    def test_default_winding(self):
        assert default_root_count(-1) == 4
        assert default_root_count(-3) == 6
        assert default_root_count(-5) == 2
        assert root_count_for_form(QuadraticForm(1, 0, 1)) == 4
        assert root_count_for_form(QuadraticForm(1, 1, 1)) == 6
        assert root_count_for_form(QuadraticForm(1, 0, 5)) == 2


class TestWeylSum:
    def test_equally_spaced_cancels(self):
        vals = (np.arange(12) / 12.0).tolist()
        for n in range(1, 6):
            assert weyl_sum(vals, n, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_has_unit_modulus(self):
        assert weyl_sum([0.37], 3, 1.0) == pytest.approx(1.0)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            weyl_sum([0.1], 0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weyl_sum([], 1, 1.0)

    def test_accepts_angle_samples(self):
        samples = [AngleSample(p=5, theta=1.0, raw_arg=0.25)]
        assert weyl_sum(samples, 1) == pytest.approx(1.0)

    @given(angle_lists, st.integers(min_value=-5, max_value=5).filter(bool))
    @settings(max_examples=60)
    def test_bounded_by_one(self, vals, n):
        assert 0.0 <= weyl_sum(vals, n) <= 1.0 + 1e-12


class TestKsStatistic:
    def test_single_midpoint(self):
        assert ks_statistic([0.5], 1.0) == pytest.approx(0.5)

    def test_centered_grid(self):
        n = 8
        vals = ((np.arange(n) + 0.5) / n).tolist()
        assert ks_statistic(vals, 1.0) == pytest.approx(1 / (2 * n))

    def test_degenerate_point_mass(self):
        assert ks_statistic([0.0] * 10, 1.0) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([1.5], 1.0)

    @given(angle_lists)
    @settings(max_examples=60)
    def test_bounded(self, vals):
        assert 0.0 <= ks_statistic(vals) <= 1.0


class TestSectorCounts:
    def test_point_mass(self):
        assert sector_counts([0.0] * 5, 4) == [5, 0, 0, 0]

    def test_exact_balance(self):
        m = 7
        vals = (np.arange(4 * m) * TWO_PI / (4 * m)).tolist()
        assert sector_counts(vals, 4) == [m, m, m, m]

    def test_single_sector(self):
        assert sector_counts([0.1, 2.0, 6.1], 1) == [3]

    @given(angle_lists, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60)
    def test_conservation(self, vals, k):
        assert sum(sector_counts(vals, k)) == len(vals)

    @given(angle_lists, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_refinement_consistency(self, vals, k):
        fine = sector_counts(vals, 2 * k)
        coarse = sector_counts(vals, k)
        merged = [fine[2 * j] + fine[2 * j + 1] for j in range(k)]
        assert merged == coarse

    def test_sector_object(self):
        sector = Sector(0.0, math.pi)
        assert sector.width == pytest.approx(math.pi)
        assert sector.contains(0.0) and not sector.contains(math.pi)
        assert sector.count([0.5, 3.5, AngleSample(p=5, theta=1.0, raw_arg=0.2)]) == 2
        with pytest.raises(ValueError):
            Sector(3.0, 2.0)


class TestPrefixStatistics:
    @given(st.lists(st.floats(min_value=0.0, max_value=math.pi / 4, exclude_max=True),
                    min_size=1, max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_per_prefix_calls(self, vals, data):
        quarter = math.pi / 4
        grid = data.draw(st.lists(st.integers(1, len(vals)), min_size=1, max_size=20))
        stats = prefix_statistics(vals, grid, quarter)
        for row, m in zip(stats.tolist(), grid):
            expected = [ks_statistic(vals[:m], quarter)]
            expected += [weyl_sum(vals[:m], j, quarter) for j in range(1, 6)]
            assert row == expected

    def test_prefix_length_validation(self):
        with pytest.raises(ValueError):
            prefix_statistics([0.1, 0.2], [0], 1.0)
        with pytest.raises(ValueError):
            prefix_statistics([0.1, 0.2], [3], 1.0)
        with pytest.raises(ValueError):
            prefix_statistics([0.1, 0.2], [1], 0.0)


class TestSampleAngles:
    def test_matches_per_prime_computation(self):
        form = QuadraticForm(1, 0, 1)
        samples = sample_angles(form, x_limit=200)
        by_hand = []
        for p in sieve_range(2, 200).tolist():
            for rep in canonical_pairs(form, p):
                by_hand.append(hecke_angle(rep, 4))
        assert samples == by_hand

    def test_class_restriction(self):
        form = QuadraticForm(1, 0, 1)
        samples = sample_angles(form, cls=CongruenceClass(5, 8), x_limit=500)
        assert all(s.p % 8 == 5 for s in samples)

    def test_max_count_truncates(self):
        form = QuadraticForm(1, 0, 1)
        samples = sample_angles(form, x_limit=2000, max_count=10)
        assert len(samples) == 10

    def test_conjugates_interleaved(self):
        form = QuadraticForm(1, 0, 1)
        pairs = sample_angles(form, x_limit=100, include_conjugates=True)
        assert len(pairs) % 2 == 0
        for principal, conj in zip(pairs[::2], pairs[1::2]):
            assert conj == conjugate_sample(principal)

    def test_needs_some_bound(self):
        with pytest.raises(ValueError):
            sample_angles(QuadraticForm(1, 0, 1))

    def test_reuses_table(self):
        form = QuadraticForm(1, 0, 1)
        table = representation_table(form, sieve_range(2, 300))
        assert sample_angles(form, rep_table=table) == sample_angles(form, x_limit=300)
