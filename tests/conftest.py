import math

import pytest
from hypothesis import Phase, settings

from qfbias.forms import QuadraticForm, representation_table
from qfbias.primes import sieve_range

from oracles import nth_prime

# for the properties that run a whole stream per example over a patched
# segment size: a failure is reported as found, since each shrink step would
# run the stream again (minutes for one failure)
UNSHRUNK = settings(deadline=None, phases=[p for p in Phase if p is not Phase.shrink])


def trial_division_primes(lo: int, hi: int) -> list[int]:
    """Independent slow oracle for prime enumeration."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


@pytest.fixture(scope="session")
def sum_squares_form() -> QuadraticForm:
    return QuadraticForm(1, 0, 1)


@pytest.fixture(scope="session")
def rep_table_full(sum_squares_form):
    """Representations of x^2 + y^2 for all primes up to the 500000th prime.

    Shared by the convergence, sign-change, counting and equidistribution
    tests; building it once keeps the suite fast.
    """
    bound = nth_prime(500_000)
    return representation_table(sum_squares_form, sieve_range(2, bound))
