"""Primitive positive-definite binary quadratic forms and prime representations.

Bulk tables come from one lattice enumeration: every canonical point (x, y)
whose value Q(x, y) lies in the range of the given primes is visited one
value window at a time, all rows of a window at once, in exact int64
arithmetic, and kept when the value is one of those primes. The kept points
are compressed through one index array and sorted by p alone; only a window
where a prime has several canonical pairs is re-sorted by (p, x, y).
The per-prime routes stay as independent oracles for tests: a remainder-chain
solver (`cornacchia`) for forms x^2 + c*y^2, and an exhaustive ellipse walk
(`brute_force_representations`) that solves the remaining quadratic in y.

The canonical filter keeps pairs with x > y, x > 0, y >= 0; for x^2 + y^2
this picks the unique representation with x > y > 0 of each p = 1 (mod 4).
Pairs with negative y never count (documented convention; the source material
for the ordering never fixes signs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleBoundError, TableBoundError
from .primes import DEFAULT_CAPACITY, CongruenceClass, PrimeStream

DEFAULT_ORACLE_BOUND = 10**6
# values per lattice window: its prime flags take WINDOW bytes and its
# candidate points (~0.2 * WINDOW for x^2 + y^2) a few int64 arrays each
WINDOW = 1 << 18


@dataclass(frozen=True)
class QuadraticForm:
    """ax^2 + bxy + cy^2 with gcd(a,b,c) = 1, a > 0 and negative discriminant."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise ValueError(f"form ({self.a},{self.b},{self.c}) is not primitive")
        if self.disc >= 0 or self.a <= 0:
            raise ValueError(
                f"form ({self.a},{self.b},{self.c}) is not positive definite"
            )

    @property
    def disc(self) -> int:
        """Discriminant b^2 - 4ac (negative for valid forms)."""
        return self.b * self.b - 4 * self.a * self.c

    @property
    def D(self) -> int:
        """The positive quantity 4ac - b^2 = -disc."""
        return -self.disc

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"


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


def _x_extent(form: QuadraticForm, p: int) -> int:
    """Upper bound on |x| over the ellipse Q(x, y) = p: 2*sqrt(c*p/D)."""
    return math.isqrt(4 * form.c * p // form.D) + 1


def brute_force_representations(
    form: QuadraticForm, p: int, bound: int = DEFAULT_ORACLE_BOUND
) -> set[tuple[int, int]]:
    """The complete set of integer pairs (x, y) with Q(x, y) = p.

    Exhaustive and exact: x runs over the ellipse extent and the quadratic in
    y is solved with a perfect-square discriminant test. Serves as the
    reference oracle for the fast path, so it must stay independent of it.
    """
    if p > bound:
        raise OracleBoundError(
            f"oracle enumeration requested for p={p} above bound {bound}"
        )
    a, b, c = form.a, form.b, form.c
    disc = form.disc
    out: set[tuple[int, int]] = set()
    four_cp = 4 * c * p
    for x in range(0, _x_extent(form, p) + 1):
        dd = disc * x * x + four_cp
        if dd < 0:
            continue
        s = math.isqrt(dd)
        if s * s != dd:
            continue
        for root in {(-b * x + s), (-b * x - s)}:
            yq, rem = divmod(root, 2 * c)
            if rem == 0 and form.evaluate(x, yq) == p:
                out.add((x, yq))
                out.add((-x, -yq))
    return out


def canonical_filter(pairs) -> list[tuple[int, int]]:
    """Keep pairs with x > y, x > 0, y >= 0, sorted for determinism."""
    return sorted((x, y) for x, y in pairs if x > y and x > 0 and y >= 0)


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


# ---------------------------------------------------------------------------
# bulk tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepTable:
    """Canonical representations for all primes up to a bound, one row per pair.

    Rows are sorted by (p, x, y); a prime with several canonical pairs (only
    possible for general forms) occupies several rows. `limit` records the
    bound the table was computed to: every prime <= limit was processed, so
    gaps really mean "no canonical pair".
    """

    form: QuadraticForm
    p: np.ndarray  # int64
    x: np.ndarray  # int64
    y: np.ndarray  # int64
    limit: int

    def __len__(self) -> int:
        return int(self.p.size)

    @property
    def max_prime(self) -> int:
        return int(self.p[-1]) if self.p.size else 0

    def slice_class(self, cls: CongruenceClass) -> "RepTable":
        if cls.is_trivial:
            return self
        rows = np.flatnonzero(self.p % cls.modulus == cls.residue)
        return RepTable(self.form, self.p[rows], self.x[rows], self.y[rows], self.limit)

    def slice_below(self, limit: int) -> "RepTable":
        """Rows with p <= limit; ValueError if the table does not cover limit."""
        if limit > self.limit:
            raise ValueError(f"representation table covers primes to {self.limit}, not {limit}")
        hi = int(np.searchsorted(self.p, limit, side="right"))
        return RepTable(self.form, self.p[:hi], self.x[:hi], self.y[:hi], limit)

    def slice_first(self, count: int) -> "RepTable":
        """The first count rows (smallest primes first); count must be >= 0."""
        if count < 0:
            raise ValueError(f"row count must be nonnegative, got {count}")
        return RepTable(
            self.form, self.p[:count], self.x[:count], self.y[:count], self.limit
        )

    def rows(self):
        return zip(self.p.tolist(), self.x.tolist(), self.y.tolist())


def _empty_table(form: QuadraticForm, limit: int = 0) -> RepTable:
    z = np.empty(0, dtype=np.int64)
    return RepTable(form, z, z.copy(), z.copy(), limit)


def _check_capacity(limit: int) -> None:
    if limit > DEFAULT_CAPACITY:
        raise TableBoundError(
            f"representation table to {limit} exceeds capacity {DEFAULT_CAPACITY}"
        )


def _isqrt(s: np.ndarray) -> np.ndarray:
    """Exact floor square roots of nonnegative int64 values below 2**62.

    The float estimate is off by at most one there, so one fix-up step in
    each direction makes it exact.
    """
    r = np.sqrt(s.astype(np.float64)).astype(np.int64)
    r -= r * r > s
    r += (r + 1) * (r + 1) <= s
    return r


def _window_rows(
    form: QuadraticForm, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (p, x, y) rows, sorted, for ascending primes in one window.

    The window is [lo, hi] with lo and hi its first and last prime. Every
    row y >= 0 contributes the x > y stretch of the annulus lo <= Q(x, y) <=
    hi; its ends follow exactly from 4a*Q = (2ax + by)^2 + D*y^2, for all
    rows at once. Since Q = x*(a + b*y) + c*y (mod 2), rows with a + b*y odd
    need only the x of one parity, and rows where Q is always even are
    skipped, unless the window holds 2. The hits are taken by one index
    array and ordered by p; only a window where a prime has several pairs
    orders them by (x, y) with np.lexsort. The caller has checked that
    every intermediate fits int64.
    """
    lo, hi = int(primes[0]), int(primes[-1])
    a, b, c, D = form.a, form.b, form.c, form.D
    y_top = min(math.isqrt(4 * a * hi // D), _x_extent(form, hi) - 1)
    if y_top == 0:
        b = c = D = 0  # they only multiply y = 0 here, and may not fit int64
    y = np.arange(y_top + 1, dtype=np.int64)
    dy2 = D * y * y
    r_out = _isqrt(4 * a * hi - dy2)
    s_in = 4 * a * lo - dy2
    r_in = np.where(s_in > 0, _isqrt(np.maximum(s_in - 1, 0)) + 1, 0)
    # t = 2ax + by runs over [r_in, r_out] and [-r_out, -max(r_in, 1)]
    y = np.concatenate((y, y))
    t_lo = np.concatenate((r_in, -r_out)) - b * y
    t_hi = np.concatenate((r_out, -np.maximum(r_in, 1))) - b * y
    x_lo = np.maximum(-(-t_lo // (2 * a)), y + 1)
    x_hi = t_hi // (2 * a)
    step = np.ones_like(y)
    if lo > 2:
        odd_coef = (a + b * y) & 1 == 1
        keep = odd_coef | ((c * y) & 1 == 1)
        x_lo += np.where(odd_coef, (1 + c * y - x_lo) & 1, 0)  # the x parity giving odd Q
        step[odd_coef] = 2
        x_hi = np.where(keep, x_hi, x_lo - 1)
    n = np.maximum((x_hi - x_lo) // step + 1, 0)
    # one ragged enumeration of every row's stretch
    x = np.arange(int(n.sum()), dtype=np.int64)
    x -= np.repeat(np.cumsum(n) - n, n)
    x *= np.repeat(step, n)
    x += np.repeat(x_lo, n)
    y = np.repeat(y, n)
    q = (a * x + b * y) * x + c * y * y
    flags = np.zeros(hi - lo + 1, dtype=bool)
    flags[primes - lo] = True
    rows = np.flatnonzero(flags[q - lo])
    rows = rows[np.argsort(q[rows])]
    p = q[rows]
    if np.any(p[1:] == p[:-1]):
        # a prime with several canonical pairs (some b < 0 forms): by (x, y) too
        rows = rows[np.lexsort((y[rows], x[rows], p))]
        p = q[rows]
    return p, x[rows], y[rows]


def _stack(form: QuadraticForm, parts: list, limit: int) -> RepTable:
    """One table from row blocks in ascending p, emptying the list as it goes.

    Each column is joined and its blocks dropped before the next, so the
    peak is the blocks plus one column rather than two whole tables.
    """
    if not parts:
        return _empty_table(form, limit)
    columns = [list(col) for col in zip(*parts)]
    parts.clear()
    joined = []
    for col in columns:
        joined.append(np.concatenate(col))
        col.clear()
    return RepTable(form, *joined, limit)


def representation_table(form: QuadraticForm, primes: np.ndarray) -> RepTable:
    """Canonical representation rows for every prime in the given array.

    One lattice enumeration serves every form. The ascending primes are cut
    into windows spanning at most WINDOW values, and each window enumerates
    its stretch of the lattice against its own prime flags (`_window_rows`),
    so memory follows the window, not the range. Primes missing from the
    array get no rows, so class-masked arrays and extension windows work as
    they are. The table's coverage limit is the array's last prime.

    Raises TableBoundError past the sieve capacity or when an int64
    intermediate could overflow.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if primes.size == 0:
        return _empty_table(form)
    hi = int(primes[-1])
    _check_capacity(hi)
    a, b, c, D = form.a, form.b, form.c, form.D
    y_max = math.isqrt(4 * a * hi // D)
    x_max = _x_extent(form, hi)
    if max(a * x_max**2, abs(b) * x_max * y_max, c * y_max**2, 4 * a * hi) >= 1 << 62:
        raise TableBoundError(f"form ({form}) to {hi} exceeds the int64 range")
    parts = []
    start = 0
    while start < primes.size:
        stop = int(np.searchsorted(primes, primes[start] + WINDOW, side="left"))
        parts.append(_window_rows(form, primes[start:stop]))
        start = stop
    return _stack(form, parts, hi)


def ensure_table(form: QuadraticForm, limit: int, table: RepTable | None = None) -> RepTable:
    """A table of form covering every prime <= limit: table grown if short, else built.

    The one routine that builds or grows a table. Only the primes above the
    table's coverage are processed, one sieve segment at a time, so no prime
    array of the whole range is ever held; every prime <= limit is covered,
    so asking for limit again sieves nothing.
    """
    if table is None:
        table = _empty_table(form)
    elif table.form != form:
        raise ValueError("representation table computed for a different form")
    if limit <= table.limit:
        return table
    _check_capacity(limit)
    parts = [(table.p, table.x, table.y)]
    for seg in PrimeStream(limit).segments(table.limit + 1):
        if seg.size:
            extra = representation_table(form, seg)
            parts.append((extra.p, extra.x, extra.y))
    return _stack(form, parts, limit)
