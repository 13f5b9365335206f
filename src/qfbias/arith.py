"""Small exact-arithmetic helpers used across modules; `kronecker_array` is
the package's one evaluation of the Kronecker symbol (the field character of
`counting`)."""

import numpy as np


def _factor(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) of every prime dividing |n|, ascending, by trial
    division; ValueError for n = 0."""
    if n == 0:
        raise ValueError("0 has no prime factorisation")
    m = abs(n)
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient, from the factorisation of n."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    for p, _ in _factor(n):
        result -= result // p
    return result


def _split_twos(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(odd part, exponent of 2) of each positive int64 entry."""
    twos = np.frexp(v & -v)[1] - 1  # the lowest set bit is 2**twos
    return v >> twos, twos


def kronecker_array(a: int, n: np.ndarray) -> np.ndarray:
    """Kronecker symbols (a|n) for an int64 a and array of n >= 0, as int64.

    The package's one Kronecker evaluation, run on every entry at once:
    (a|0) is 1 for a = +-1 and 0 otherwise; each factor 2 of n gives 0 for
    even a and -1 for a = 3, 5 (mod 8); the odd part of n then runs the
    Jacobi reciprocity loop on the entries still active.
    """
    if not -(2**63) <= a < 2**63:
        raise ValueError(f"kronecker_array needs a inside int64, got {a}")
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("kronecker_array needs n >= 0")
    out = np.where(n == 0, int(a in (1, -1)), 1)
    m, twos = _split_twos(np.where(n == 0, 1, n))
    if a % 2 == 0:
        out[twos > 0] = 0
    elif a % 8 in (3, 5):
        out[twos & 1 == 1] *= -1
    # now m is odd and positive: Jacobi (a mod m | m) with reciprocity
    r = a % m
    live = np.flatnonzero(r)
    r, m_live = r[live], m[live]
    while live.size:
        r, twos = _split_twos(r)
        flip = (twos & 1 == 1) & ((m_live & 7 == 3) | (m_live & 7 == 5))
        flip ^= (r & 3 == 3) & (m_live & 3 == 3)
        out[live[flip]] *= -1
        r, m_live = m_live % r, r
        done = r == 0
        m[live[done]] = m_live[done]
        keep = ~done
        live, r, m_live = live[keep], r[keep], m_live[keep]
    return np.where(m == 1, out, 0)


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor pattern: n / (largest square dividing n).

    Sign is preserved: squarefree_part(-4) = -1, squarefree_part(-12) = -3.
    ValueError for n = 0.
    """
    out = -1 if n < 0 else 1
    for p, e in _factor(n):
        if e % 2 == 1:
            out *= p
    return out


def distinct_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending; ValueError for n = 0."""
    return [p for p, _ in _factor(n)]
