"""The five accumulators read the table they are given and never build one."""

import pytest

from qfbias import forms
from qfbias.counting import d_functions
from qfbias.forms import QuadraticForm
from qfbias.polynomials import parse_polynomial
from qfbias.primes import CongruenceClass
from qfbias.series import bias_series

from oracles import moment_sum, nth_prime, poly_sum, sample_angles, table_to

Q11 = QuadraticForm(1, 0, 1)
C14 = CongruenceClass(1, 4)
X = parse_polynomial("x")

# each accumulator run at a bound, as a function of (table, bound)
ACCUMULATORS = {
    "moment_sum": lambda t, b: moment_sum(t, C14, 1, b),
    "poly_sum": lambda t, b: poly_sum(t, C14, X, b),
    "d_functions": lambda t, b: d_functions(t, b + 1),  # counts p < x_max
    "sample_angles": lambda t, b: sample_angles(t.slice_below(b), C14),
}


@pytest.fixture(scope="module")
def table_to_1000():
    return table_to(Q11, 1000)


@pytest.mark.parametrize("name", sorted(ACCUMULATORS))
def test_table_short_of_the_bound_is_refused(table_to_1000, name):
    run = ACCUMULATORS[name]
    run(table_to_1000, 1000)
    with pytest.raises(ValueError, match="covers primes to 1000, not 1001"):
        run(table_to_1000, 1001)


def test_bias_series_table_short_of_the_series_limit_is_refused():
    n_max, stride = 200, 100
    bound = nth_prime(n_max)  # Pr(N) at the last grid point
    assert bound == 1223
    bias_series(table_to(Q11, bound), C14, n_max, stride)
    with pytest.raises(ValueError, match=f"covers primes to {bound - 1}, not {bound}"):
        bias_series(table_to(Q11, bound - 1), C14, n_max, stride)


def test_d_functions_refuses_other_forms():
    with pytest.raises(ValueError, match="x\\^2 \\+ y\\^2"):
        d_functions(table_to(QuadraticForm(1, 1, 1), 100), 100)


def test_accumulators_never_build_a_table(rep_table_full, monkeypatch):
    def refuse(form, primes):
        raise AssertionError("an accumulator built a representation table")

    monkeypatch.setattr(forms, "representation_table", refuse)
    bound = 10**6
    for run in ACCUMULATORS.values():
        run(rep_table_full, bound)
    bias_series(rep_table_full, C14, 500_000, stride=100)
    with pytest.raises(AssertionError, match="built"):
        list(forms.row_blocks(rep_table_full, rep_table_full.limit + 100))
