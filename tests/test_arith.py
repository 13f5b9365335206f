import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias import arith
from qfbias.arith import distinct_prime_factors, euler_phi, squarefree_part


def brute_factorisation(n: int) -> dict[int, int]:
    """{prime: exponent} of |n|, dividing out every d = 2, 3, 4, ... in turn."""
    m, out, d = abs(n), {}, 2
    while m > 1:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    return out


nonzero = st.integers(1, 10**5).flatmap(lambda n: st.sampled_from([n, -n]))


class TestFactorisationHelpers:
    @given(n=nonzero)
    @settings(max_examples=300, deadline=None)
    def test_against_brute_force_factorisation(self, n):
        f = brute_factorisation(n)
        assert distinct_prime_factors(n) == sorted(f)
        # the sign of n is kept, and n over its squarefree part is a square
        sf = squarefree_part(n)
        assert sf == (-1 if n < 0 else 1) * math.prod(p for p, e in f.items() if e % 2)
        assert n % sf == 0 and math.isqrt(n // sf) ** 2 == n // sf
        if n > 0:
            assert euler_phi(n) == n * math.prod(p - 1 for p in f) // math.prod(f)

    @pytest.mark.parametrize("n", [1, 2, 12, 36, 97, 720, 1001])
    def test_euler_phi_counts_the_units(self, n):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_hand_values(self):
        assert squarefree_part(-4) == -1 and squarefree_part(-12) == -3
        assert squarefree_part(1) == 1 and squarefree_part(-1) == -1
        assert distinct_prime_factors(-360) == [2, 3, 5] and distinct_prime_factors(1) == []
        assert euler_phi(1) == 1

    @pytest.mark.parametrize("call", [
        lambda: euler_phi(0),
        lambda: euler_phi(-5),
        lambda: squarefree_part(0),
        lambda: distinct_prime_factors(0),
    ])
    def test_undefined_inputs_raise(self, call):
        with pytest.raises(ValueError):
            call()


def test_kronecker_array_is_the_one_kronecker_evaluation():
    # the scalar walk is the tests' independent reference (tests/oracles.py)
    assert not hasattr(arith, "kronecker")
