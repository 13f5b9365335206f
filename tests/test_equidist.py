import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias.arith import squarefree_part
from qfbias.equidist import (
    angle_arrays,
    angle_pass,
    ks_statistic,
    mirrored,
    prefix_statistics,
    root_count_for_form,
    sector_counts,
    weyl_sum,
)
from qfbias.errors import ComputationError
from qfbias.forms import QuadraticForm, RepTable, representation_table
from qfbias.primes import CongruenceClass, sieve_range

from oracles import canonical_pairs, in_class, sample_angles, table_to

TWO_PI = 2 * math.pi

angle_lists = st.lists(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), min_size=1, max_size=200
)


def one_row(p, x, y):
    """A one-row table for x^2 + y^2 holding the pair (x, y) of p."""
    cols = (np.array([v], dtype=np.int64) for v in (p, x, y))
    return RepTable(QuadraticForm(1, 0, 1), *cols, p)


class TestHeckeAngle:
    def test_axis_sample(self):
        raw, theta = angle_arrays(one_row(2, 1, 0), 4)
        assert raw.tolist() == [0.0] and theta.tolist() == [0.0]

    def test_diagonal_sample(self):
        _, theta = angle_arrays(one_row(2, 1, 1), 4)
        assert theta[0] == pytest.approx(math.pi)

    def test_two_one_sample(self):
        raw, theta = angle_arrays(one_row(5, 2, 1), 4)
        assert theta[0] == pytest.approx(1.854590436003, abs=1e-9)
        assert raw[0] == math.atan2(1, 2)

    def test_winding_validation(self):
        with pytest.raises(ValueError):
            angle_arrays(one_row(5, 2, 1), 0)

    def test_conjugate_mirrors_theta(self):
        _, theta = angle_arrays(one_row(5, 2, 1), 4)
        both = mirrored(theta)
        assert both.size == 2 and both[0] == theta[0]
        assert both[1] == pytest.approx(TWO_PI - theta[0])
        assert mirrored(np.array([0.0])).tolist() == [0.0, 0.0]
        assert not np.signbit(mirrored(np.array([0.0]))[1])

    def test_default_winding(self):
        assert root_count_for_form(QuadraticForm(1, 0, 1)) == 4
        assert root_count_for_form(QuadraticForm(1, 1, 1)) == 6
        assert root_count_for_form(QuadraticForm(1, 0, 5)) == 2

    def test_winding_matches_squarefree_part_rule(self):
        # reference: the field Q(sqrt d), d the squarefree part of disc, has
        # 4 roots of unity for d = -1, 6 for d = -3 and 2 otherwise
        def by_squarefree_part(form):
            return {-1: 4, -3: 6}.get(squarefree_part(form.disc), 2)

        grid = [
            QuadraticForm(a, b, c)
            for a in range(1, 41) for b in range(-a, a + 1) for c in range(a, 60)
            if math.gcd(a, b, c) == 1
        ]
        assert len(grid) == 45_847
        big = [QuadraticForm(1, 0, 999999937), QuadraticForm(1, 1, 999999999)]
        for form in grid + big:
            assert root_count_for_form(form) == by_squarefree_part(form), form


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

    @given(angle_lists, st.sampled_from([TWO_PI, 7.0, 100.0]))
    @settings(max_examples=60)
    def test_bits_of_the_whole_array_expressions(self, vals, interval):
        cdf = np.sort(np.asarray(vals, dtype=np.float64)) / interval
        steps = np.arange(cdf.size, dtype=np.float64)
        want = max(float(np.max(cdf - steps / cdf.size)),
                   float(np.max((steps + 1.0) / cdf.size - cdf)))
        assert ks_statistic(vals, interval) == want

    def test_holds_two_copies_of_its_samples(self):
        # a sorted copy and one work array; the whole-array expressions held
        # about four copies at once
        vals = np.random.default_rng(7).random(1_000_000) * (2 * math.pi)
        ks_statistic(vals[:10])
        tracemalloc.start()
        try:
            ks_statistic(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * vals.nbytes


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
        cases = [
            (QuadraticForm(1, 0, 1), CongruenceClass(1, 8), 40),
            (QuadraticForm(1, 1, 1), CongruenceClass(1, 12), 30),
            (QuadraticForm(2, 1, 3), CongruenceClass(1, 4), 12),
            (QuadraticForm(2, -1, 3), CongruenceClass(3, 4), 12),
        ]
        for form, cls, count in cases:
            w = root_count_for_form(form)
            rows = [
                (rep.p, rep.x, rep.y)
                for p in sieve_range(2, 3000).tolist() if in_class(cls, p)
                for rep in sorted(canonical_pairs(form, p), key=lambda r: (r.x, r.y))
            ]
            assert len(rows) > count, form
            rows = rows[:count]
            table, raw, theta = sample_angles(table_to(form, 3000), cls, max_count=count)
            assert list(zip(table.p.tolist(), table.x.tolist(), table.y.tolist())) == rows
            by_hand = [math.atan2(y, x) for _, x, y in rows]
            assert raw.tolist() == by_hand
            assert theta.tolist() == [(w * r) % TWO_PI for r in by_hand]

    def test_class_restriction(self):
        form = QuadraticForm(1, 0, 1)
        table, raw, theta = sample_angles(table_to(form, 500), cls=CongruenceClass(5, 8))
        assert len(table) > 0 and np.all(table.p % 8 == 5)
        assert raw.size == theta.size == len(table)

    def test_max_count_truncates(self):
        form = QuadraticForm(1, 0, 1)
        table, raw, theta = sample_angles(table_to(form, 2000), max_count=10)
        assert len(table) == raw.size == theta.size == 10

    def test_mirrored_appends_conjugates(self):
        form = QuadraticForm(1, 0, 1)
        _, _, theta = sample_angles(table_to(form, 100))
        both = mirrored(theta)
        assert both.size == 2 * theta.size
        assert both[: theta.size].tolist() == theta.tolist()
        assert both[theta.size:].tolist() == [(-t) % TWO_PI for t in theta.tolist()]

    def test_reuses_table(self):
        # every row of the table is read, as if sliced to its limit
        form = QuadraticForm(1, 0, 1)
        table = representation_table(form, sieve_range(2, 300))
        got, want = sample_angles(table), sample_angles(table_to(form, 1000).slice_below(300))
        assert got[0].p.tolist() == want[0].p.tolist()
        for a, b in zip(got[1:], want[1:]):
            assert a.tolist() == b.tolist()


class TestAnglePass:
    @given(form=st.sampled_from([QuadraticForm(1, 0, 1), QuadraticForm(2, -1, 3)]),
           limit=st.integers(2, 30_000), mod=st.sampled_from([1, 3, 4, 8, 12]),
           w=st.integers(1, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_cut_of_the_rows_equals_the_whole_table_oracle(self, form, limit, mod, w,
                                                               data):
        cls = CongruenceClass(
            data.draw(st.sampled_from([r for r in range(mod) if math.gcd(r, mod) == 1])), mod)
        table = table_to(form, limit)
        in_cls = len(table.slice_class(cls))
        max_count = data.draw(st.none() | st.integers(1, in_cls + 5))
        # cut points with repeats, so some blocks are empty
        cuts = sorted(data.draw(st.lists(st.integers(0, len(table)), max_size=8)))
        edges = [0, *cuts, len(table)]
        blocks = [RepTable(form, table.p[i:j], table.x[i:j], table.y[i:j], table.limit)
                  for i, j in zip(edges, edges[1:])]
        written, owed_at_pull = [], []

        def stream():
            for block in blocks:
                owed_at_pull.append(
                    None if max_count is None else max_count - sum(len(c[0]) for c in written))
                yield block

        rows, raw, theta = sample_angles(table, cls, max_count, w)
        if len(rows) == 0:
            with pytest.raises(ComputationError, match="no canonical representations"):
                angle_pass(stream(), cls, w, max_count, lambda *c: written.append(c))
            return
        got_raw, got_theta = angle_pass(stream(), cls, w, max_count,
                                        lambda *c: written.append(c))
        # one write per block pulled, and none pulled once the count is met
        assert len(written) == len(owed_at_pull)
        assert all(owed is None or owed > 0 for owed in owed_at_pull)
        if len(owed_at_pull) < len(blocks):
            assert sum(len(c[0]) for c in written) == max_count
        cols = [np.concatenate(c).tolist() for c in zip(*written)]
        assert cols == [rows.p.tolist(), rows.x.tolist(), rows.y.tolist(), raw.tolist(),
                        theta.tolist()]
        assert got_raw.tolist() == raw.tolist() and got_theta.tolist() == theta.tolist()
