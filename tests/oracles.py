"""Oracles the tests check the package's bulk routes against.

`canonical_pairs` finds the canonical representations of one prime: by
Cornacchia's remainder chain for forms x^2 + c*y^2 (as in Cox, *Primes of
the form x^2 + ny^2*), by the exhaustive ellipse walk
`qfbias.forms.brute_force_representations` otherwise. `splitting_type`
decides how one rational prime decomposes in an imaginary quadratic field,
by `kronecker`, the scalar Kronecker symbol walk. None of them shares code
with the lattice enumeration, `qfbias.arith.kronecker_array` or the
sieve-wide counts they check.

`_simple_prime_flags`, the plain sieve of Eratosthenes, is the reference for
the segmented sieve, and `first_primes` and `nth_prime` read it too, so the
series fold's cut of `primes.segments` at Pr(N) is checked against a sieve
it does not share. `moment_sum` and `poly_sum` sum Python ints and Fractions
row by row, against the int64 prefix sums of the series fold, and
`d_race_rows` steps the D1/D2 race one prime at a time, each prime's
a^2 + 4b^2 found by its own loop over b, against `counting.d_race` and the
`dfunc` CSV; `class_series` splits D1/D2 columns into one `CountSeries` per
class, and `negative_bias_fraction` counts a whole series, against the
fractions that `d_race` tallies as it streams. `table_rows`, `in_class` and `value_at` are
the tests' per-row, class-membership and at-x lookups, which no command runs.
`table_to` builds the tests' tables in one `representation_table` call over
one `sieve_range`, independent of the `row_blocks` stream the commands read,
and `sample_angles` selects a whole table's rows in a class, capped at a
count, with their angles: the reference for `equidist.angle_pass`, which
takes the same rows block by block, and for the `equidist` CSV.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from qfbias.counting import BiasFractions, FieldSplitting
from qfbias.equidist import angle_arrays, root_count_for_form
from qfbias.forms import (
    DEFAULT_ORACLE_BOUND,
    QuadraticForm,
    RepTable,
    brute_force_representations,
    canonical_filter,
    empty_table,
    representation_table,
)
from qfbias.polynomials import BivariatePolynomial
from qfbias.primes import CongruenceClass, check_capacity, nth_prime_bound, sieve_range

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class Representation:
    """A prime p together with integers (x, y) solving Q(x, y) = p."""

    p: int
    x: int
    y: int


def sqrt_mod(n: int, p: int) -> int | None:
    """Smallest square root of n modulo an odd prime p, or None.

    Tonelli-Shanks with a deterministic nonresidue search, so results are
    reproducible. Returns 0 for n = 0 (mod p).
    """
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def cornacchia(d: int, p: int) -> tuple[int, int] | None:
    """A solution (x, y) of x^2 + d*y^2 = p with x > 0, y > 0, or None.

    Classical remainder-chain method: starting from the root r of -d (mod p)
    lying in (p/2, p), descend a = p, b = r by Euclidean remainders until the
    remainder drops to sqrt(p), then test the candidate. Deterministic.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if p == 2:
        return (1, 1) if d == 1 else None
    if math.gcd(d, p) != 1:
        raise ValueError(f"cornacchia requires gcd(d, p) = 1, got d={d}, p={p}")
    t = sqrt_mod((-d) % p, p)
    if t is None:
        return None
    r = p - t if t < p - t else t
    a, b = p, r
    lim = math.isqrt(p)
    while b > lim:
        a, b = b, a % b
    if b == 0:
        return None
    cc, rem = divmod(p - b * b, d)
    if rem != 0:
        return None
    y = math.isqrt(cc)
    if y == 0 or y * y != cc:
        return None
    return b, y


def _fast_pairs(c: int, p: int) -> list[tuple[int, int]]:
    """Candidate solutions of x^2 + c*y^2 = p from the remainder chain.

    Returns the positive-quadrant candidates (plus the swap for c = 1); signs
    are restored by the caller's filter. Relies on the representation being
    unique up to symmetry. It serves canonical_pairs, the per-prime route
    the tests use as an oracle; bulk tables come from the lattice enumeration.
    """
    sol = cornacchia(c, p)
    if sol is None:
        return []
    x0, y0 = sol
    cands = {(x0, y0)}
    if c == 1:
        cands.add((y0, x0))
    return sorted(cands)


def canonical_pairs(
    form: QuadraticForm, p: int, oracle_bound: int = DEFAULT_ORACLE_BOUND
) -> list[Representation]:
    """All representations of p surviving the canonical filter.

    Uses the remainder-chain fast path for forms x^2 + c*y^2 (odd p coprime
    to c) and the enumeration oracle otherwise. Empty when p has no
    qualifying representation.
    """
    if form.a == 1 and form.b == 0 and p > 2 and form.c % p != 0:
        kept = canonical_filter(_fast_pairs(form.c, p))
    else:
        kept = canonical_filter(brute_force_representations(form, p, oracle_bound))
    reps = []
    for x, y in kept:
        if form.evaluate(x, y) != p:  # soundness check on every construction
            raise ArithmeticError(f"representation ({x},{y}) fails Q(x,y)={p}")
        reps.append(Representation(p=p, x=x, y=y))
    return reps


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of Jacobi/Legendre.

    Handles n = 0, negative n, and even n with the standard conventions:
    (a|0) = 1 iff a = +-1, (a|-1) = sign(a) with (0|-1) = 1, and
    (a|2) = 0 for even a, +1 for a = +-1 (mod 8), -1 otherwise.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # strip factors of 2 from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # now n is odd and positive: Jacobi with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def splitting_type(fs: FieldSplitting, p: int) -> str:
    """How the rational prime p decomposes: split, inert, or ramified."""
    d = fs.field_discriminant
    if d % p == 0:
        return RAMIFIED
    return SPLIT if kronecker(d, p) == 1 else INERT


def _simple_prime_flags(n: int) -> np.ndarray:
    """Boolean array f with f[i] = (i prime), for 0 <= i <= n."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def first_primes(n: int) -> np.ndarray:
    """The first n primes, ascending, as int64, from the plain sieve.

    It sieves to `nth_prime_bound(n)` and refuses what the package's sieve
    refuses, before allocating any flags.
    """
    if n < 1:
        raise ValueError("prime index must be >= 1")
    bound = nth_prime_bound(n)
    check_capacity(bound)
    return np.flatnonzero(_simple_prime_flags(bound))[:n].astype(np.int64)


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed (n=1 gives 2)."""
    return int(first_primes(n)[-1])


MAX_MOMENT_POWER = 8


@dataclass(frozen=True)
class MomentSums:
    """Exact sums of x^k and y^k over canonical pairs in a congruence class."""

    cls: CongruenceClass
    k: int
    sum_a: int
    sum_b: int
    count: int


def moment_sum(table: RepTable, cls: CongruenceClass, k: int, x_limit: int) -> MomentSums:
    """Exact sums of x^k and y^k over the table's pairs with p <= x_limit in cls.

    Each canonical pair of a prime contributes one term (general forms can
    contribute several pairs per prime). ValueError if the table does not
    cover x_limit.
    """
    if k < 0 or k > MAX_MOMENT_POWER:
        raise ValueError(f"moment power {k} outside supported range 0..{MAX_MOMENT_POWER}")
    table = table.slice_below(x_limit).slice_class(cls)
    sum_a = sum(int(v) ** k for v in table.x.tolist())
    sum_b = sum(int(v) ** k for v in table.y.tolist())
    return MomentSums(cls=cls, k=k, sum_a=sum_a, sum_b=sum_b, count=len(table))


def poly_sum(
    table: RepTable, cls: CongruenceClass, poly: BivariatePolynomial, x_limit: int
) -> Fraction:
    """Exact sum of poly(x, y) over the table's pairs with p <= x_limit in cls.

    ValueError if the table does not cover x_limit.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial rejected")
    table = table.slice_below(x_limit).slice_class(cls)
    total = Fraction(0)
    for _, x, y in table_rows(table):
        total += poly.evaluate(x, y)
    return total


@dataclass(frozen=True)
class CountSeries:
    """A running integer count sampled at its event grid, as int64 arrays.

    Grid entries hold the value after the event at that point; evaluate(x)
    returns the count over events strictly below x, at a scalar or an array
    of points.
    """

    x_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_grid", np.asarray(self.x_grid, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))

    def evaluate(self, x):
        # events strictly below x; the final grid entry is a plain endpoint
        return np.concatenate(([0], self.values))[np.searchsorted(self.x_grid, x)]


def class_series(x, d1, d2) -> tuple[CountSeries, CountSeries]:
    """D1 and D2 columns as one CountSeries each: the rows of the class's
    primes, 1 and 5 (mod 8), then the endpoint row."""
    x = np.asarray(x)
    out = []
    for residue, d in ((1, d1), (5, d2)):
        keep = x % 8 == residue
        keep[-1] = True
        out.append(CountSeries(x_grid=x[keep], values=np.asarray(d)[keep]))
    return out[0], out[1]


@functools.cache
def _race_step(p: int) -> int:
    """+1 if a > 2b, else -1, for the one p = a^2 + 4b^2 with a, b >= 1."""
    pairs = []
    for b in range(1, math.isqrt(p // 4) + 1):
        a = math.isqrt(p - 4 * b * b)
        if a * a + 4 * b * b == p:
            pairs.append((a, b))
    # a prime p = 1 (mod 4) is a sum of two squares in one way, and one of
    # them is even; a is odd because p is
    [(a, b)] = pairs
    return 1 if a > 2 * b else -1


def d_race_rows(x_max: int) -> list[tuple[int, int, int]]:
    """Rows (x, D1, D2) of the D1/D2 race below x_max, in Python ints.

    One row per prime p < x_max with p = 1 (mod 8) (D1 steps) or 5 (mod 8)
    (D2 steps), from the plain sieve, then the x_max endpoint: the rows of
    the `dfunc` CSV.
    """
    d = [0, 0]
    rows = []
    for p in np.flatnonzero(_simple_prime_flags(max(x_max - 1, 1))).tolist():
        if p % 8 in (1, 5):
            i = 0 if p % 8 == 1 else 1
            d[i] += _race_step(p)
            rows.append((p, *d))
    rows.append((x_max, *d))
    return rows


def negative_bias_fraction(series: CountSeries) -> BiasFractions:
    """Fraction of grid points with value < 0, and with value <= 0."""
    vals = series.values
    n = vals.size
    if n == 0:
        raise ValueError("empty count series")
    return BiasFractions(
        negative=float(np.count_nonzero(vals < 0)) / n,
        nonpositive=float(np.count_nonzero(vals <= 0)) / n,
    )


def table_to(form: QuadraticForm, limit: int) -> RepTable:
    """The table of form covering every prime <= limit."""
    table = representation_table(form, sieve_range(2, limit)) if limit >= 2 else empty_table(form)
    return replace(table, limit=limit)


def sample_angles(
    table: RepTable,
    cls: CongruenceClass | None = None,
    max_count: int | None = None,
    w: int | None = None,
) -> tuple[RepTable, np.ndarray, np.ndarray]:
    """A table's canonical representations of primes in a class, with angles.

    Returns (rows, raw, theta): the table's rows in the class, capped at the
    first max_count by prime, and their angle_arrays. w defaults to the
    field's root count.
    """
    if w is None:
        w = root_count_for_form(table.form)
    if cls is not None:
        table = table.slice_class(cls)
    if max_count is not None:
        table = table.slice_first(max_count)
    return (table, *angle_arrays(table, w))


def table_rows(table: RepTable):
    """The table's rows as (p, x, y) tuples of Python ints."""
    return zip(table.p.tolist(), table.x.tolist(), table.y.tolist())


def in_class(cls: CongruenceClass, n: int) -> bool:
    """Whether n lies in the residue class cls."""
    return n % cls.modulus == cls.residue


def value_at(series: CountSeries, x):
    """The running count including any event at x itself."""
    return np.concatenate(([0], series.values))[np.searchsorted(series.x_grid, x, "right")]
