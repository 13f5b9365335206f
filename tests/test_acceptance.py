"""Acceptance suite: every criterion with its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The heavyweight fixtures are session-scoped, so the suite shares
one representation table across the convergence, sign-change, and
equidistribution checks.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from qfbias.cli import main as cli_main
from qfbias.counting import (
    FieldSplitting,
    a_coefficient,
    d_functions,
    density_check,
)
from qfbias.equidist import ks_statistic, mirrored, sector_counts, weyl_sum
from qfbias.forms import (
    QuadraticForm,
    brute_force_representations,
    canonical_filter,
    representation_table,
)
from qfbias.limits import beta, limit_ratio_moment, limit_ratio_poly
from qfbias.polynomials import parse_polynomial
from qfbias.primes import CongruenceClass, sieve_range
from qfbias.series import bias_series, sign_changes

from conftest import trial_division_primes
from oracles import (
    canonical_pairs,
    class_series,
    d_race_rows,
    moment_sum,
    negative_bias_fraction,
    sample_angles,
    table_rows,
)

SILVER = 1.0 + math.sqrt(2.0)
Q11 = QuadraticForm(1, 0, 1)
Q111 = QuadraticForm(1, 1, 1)


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_01_closed_form_limits():
    runner = CliRunner()
    t0 = time.perf_counter()
    r1 = runner.invoke(cli_main, ["limit", "--form", "1,0,1", "--k", "1"],
                       catch_exceptions=False)
    r2 = runner.invoke(cli_main, ["limit", "--form", "1,0,1", "--k", "2"],
                       catch_exceptions=False)
    elapsed = time.perf_counter() - t0
    v1, v2 = float(r1.stdout), float(r2.stdout)
    assert abs(v1 - SILVER) < 1e-10
    assert abs(v2 - (math.pi + 2) / (math.pi - 2)) < 1e-10
    assert elapsed < 1.0
    report(1, f"limit k=1 -> {v1:.12f}, k=2 -> {v2:.12f} in {elapsed:.2f}s")


def test_criterion_02_beta_values():
    cases = [
        (Q11, math.pi / 4),
        (Q111, math.pi / 6),
        (QuadraticForm(2, -1, 1), math.pi / 2),
    ]
    for form, expected in cases:
        assert abs(beta(form) - expected) < 1e-12
    report(2, "beta = pi/4, pi/6, pi/2 for the three reference forms (1e-12)")


def test_criterion_03_moment_poly_consistency():
    worst = 0.0
    for form in (Q11, Q111):
        for k in (1, 2, 3):
            via_poly = limit_ratio_poly(
                form, parse_polynomial(f"x^{k}"), parse_polynomial(f"y^{k}")
            )
            via_moment = limit_ratio_moment(form, k)
            worst = max(worst, abs(via_poly - via_moment))
    assert worst < 1e-10
    report(3, f"poly/moment agreement for k in 1..3, both forms (worst {worst:.2e})")


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    primes = trial_division_primes(2, 10**5 - 1)
    mismatches = 0
    checked = 0
    for coeffs in [(1, 0, 1), (1, 0, 2), (1, 0, 3)]:
        form = QuadraticForm(*coeffs)
        for p in primes:
            fast = [(r.x, r.y) for r in canonical_pairs(form, p)]
            slow = canonical_filter(brute_force_representations(form, p))
            checked += 1
            if fast != slow:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    report(4, f"{checked} prime/form pairs, 0 mismatches in {elapsed:.1f}s")


def test_criterion_05_empirical_convergence(rep_table_full):
    t0 = time.perf_counter()
    bounds = {100_000: 0.05, 500_000: 0.02}
    lines = []
    for m, modulus in [(1, 4), (1, 8), (5, 8)]:
        cls = CongruenceClass(m, modulus)
        ser = bias_series(rep_table_full, cls, 500_000, stride=100_000)
        for n, f in zip(ser.points[:, 0].tolist(), ser.F.tolist()):
            if n in bounds:
                err = abs(f - SILVER)
                assert err < bounds[n], (m, modulus, n, err)
                if n == 500_000:
                    lines.append(f"F(5e5;{modulus},{m}) off by {err:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, "; ".join(lines) + f" (bounds 0.05/0.02, {elapsed:.1f}s)")


def test_criterion_06_sign_changes(rep_table_full):
    s1 = bias_series(rep_table_full, CongruenceClass(1, 8), 100_000, stride=100)
    s5 = bias_series(rep_table_full, CongruenceClass(5, 8), 100_000, stride=100)
    count, crossings = sign_changes(s1, s5)
    assert count >= 1
    report(6, f"{count} sign changes of F(N;8,1)-F(N;8,5) up to N=1e5, "
              f"first at N={crossings[0]}")


def test_criterion_07_counting_differences(rep_table_full):
    # the endpoint rows D2(6) = -1, D2(14) = 0 and D1(18) = -1, from the
    # per-prime oracle and from d_race's columns
    for row in ((6, 0, -1), (14, 0, 0), (18, -1, 0)):
        assert d_race_rows(row[0])[-1] == row
        assert tuple(c[-1] for c in d_functions(rep_table_full, row[0])) == row
    columns = d_functions(rep_table_full, 10**5)
    assert list(zip(*(c.tolist() for c in columns))) == d_race_rows(10**5)

    d1, d2 = class_series(*d_functions(rep_table_full, 10**6))
    f1 = negative_bias_fraction(d1)
    f2 = negative_bias_fraction(d2)
    note = ""
    if not (f1.negative > 0.5 and f2.negative > 0.5):
        note = " [soft expectation >0.5 NOT met]"
    report(7, f"prefixes exact; negative fractions to 1e6: "
              f"D1 {f1.negative:.3f}, D2 {f2.negative:.3f}"
              f" (soft expectation > 0.5){note}")


def test_criterion_08_a_coefficients():
    t0 = time.perf_counter()
    gauss = FieldSplitting(-1)
    values = {m: a_coefficient(gauss, CongruenceClass(m, 8)) for m in (1, 3, 5, 7)}
    assert values == {1: 2, 5: 2, 3: 0, 7: 0}

    from qfbias.arith import euler_phi

    for delta in (-1, -2, -3, -7, -11):
        fs = FieldSplitting(delta)
        for modulus in range(1, 201):
            if modulus == 1:
                total = a_coefficient(fs, CongruenceClass.trivial())
            else:
                total = sum(
                    a_coefficient(fs, CongruenceClass(m, modulus))
                    for m in range(modulus)
                    if math.gcd(m, modulus) == 1
                )
            assert total == euler_phi(modulus), (delta, modulus)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"A(1,8)=A(5,8)=2, A(3,8)=A(7,8)=0; sum identity for M<=200 x "
              f"5 fields in {elapsed:.1f}s")


def test_criterion_09_density():
    t0 = time.perf_counter()
    gauss = FieldSplitting(-1)
    ratios = []
    for m in (1, 5):
        [empirical], [predicted] = density_check(gauss, CongruenceClass(m, 8), [10**7])
        ratio = empirical / predicted
        assert 0.95 <= ratio <= 1.05, (m, empirical, predicted)
        ratios.append(f"(m={m}) {ratio:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(9, f"ideal-count ratios at 1e7: {', '.join(ratios)} in {elapsed:.1f}s")


def test_criterion_10_equidistribution(rep_table_full):
    quarter = math.pi / 4
    for m in (1, 5):
        cls = CongruenceClass(m, 8)
        samples, raw, theta = sample_angles(rep_table_full, cls=cls, max_count=100_000)
        assert len(samples) == 100_000
        ks = ks_statistic(raw, quarter)
        assert ks < 0.02, (m, ks)
        # decay: the statistic shrinks as the sample grows, decade by decade
        ks_by_decade = [ks_statistic(raw[:n], quarter) for n in (1000, 10_000)] + [ks]
        assert ks_by_decade[0] > ks_by_decade[1] > ks_by_decade[2]
        for n in range(1, 6):
            w = weyl_sum(raw, n, quarter)
            assert w < 0.02, (m, n, w)
        doubled = mirrored(theta)
        counts = sector_counts(doubled, 8)
        target = len(doubled) / 8
        rel = max(abs(c - target) / target for c in counts)
        assert rel < 0.05, (m, counts)
    report(10, f"KS, Weyl 1..5 < 0.02 and 8-sector deviation < 5% for both "
               f"classes at 1e5 samples (last KS {ks:.4f}, sector dev {rel:.4f})")


def test_criterion_11_performance(tmp_path):
    t0 = time.perf_counter()
    primes_1e8 = sieve_range(2, 10**8)
    sieve_time = time.perf_counter() - t0
    assert len(primes_1e8) == 5761455
    assert sieve_time < 10.0

    t0 = time.perf_counter()
    mask = primes_1e8 <= 10**7
    table = representation_table(Q11, primes_1e8[mask])
    rep_time = time.perf_counter() - t0
    expected = int(np.count_nonzero(primes_1e8[mask] % 4 == 1))
    assert len(table) == expected
    assert rep_time < 60.0

    runner = CliRunner()
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    common = ["series", "--form", "1,0,1", "--mod", "4", "--res", "1",
              "--nmax", "5000", "--stride", "1000"]
    runner.invoke(cli_main, common + ["-o", str(out1), "--threads", "1"],
                  catch_exceptions=False)
    runner.invoke(cli_main, common + ["-o", str(out2), "--threads", "2"],
                  catch_exceptions=False)
    assert out1.read_bytes() == out2.read_bytes()
    report(11, f"sieve to 1e8 in {sieve_time:.1f}s; {len(table)} representations "
               f"to 1e7 in {rep_time:.1f}s; CSVs byte-identical "
               f"across thread counts")


def test_criterion_12_exact_bookkeeping(rep_table_full):
    limit = 10**6
    table = rep_table_full.slice_below(limit)
    for modulus in (4, 8, 12):
        total_a = total_b = 0
        for m in range(modulus):
            if math.gcd(m, modulus) != 1:
                continue
            ms = moment_sum(table, CongruenceClass(m, modulus), 1, limit)
            total_a += ms.sum_a
            total_b += ms.sum_b
        whole = moment_sum(table, CongruenceClass.trivial(), 1, limit)
        div_a = sum(x for p, x, _ in table_rows(table) if modulus % p == 0)
        div_b = sum(y for p, _, y in table_rows(table) if modulus % p == 0)
        assert total_a == whole.sum_a - div_a
        assert total_b == whole.sum_b - div_b
    report(12, "class additivity of first-moment sums exact for M in {4, 8, 12} at 1e6")
