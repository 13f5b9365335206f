"""Primitive positive-definite binary quadratic forms and prime representations.

Bulk tables come from one lattice enumeration: every canonical point (x, y)
whose value Q(x, y) lies in the range of the given primes is visited one
value window at a time, all rows of a window at once, in exact int64
arithmetic, and kept when the value is one of those primes. The kept points
are compressed through one index array and sorted by p alone; only a window
where a prime has several canonical pairs is re-sorted by (p, x, y).
One per-prime route stays as the reference the tables are checked against:
an exhaustive ellipse walk (`brute_force_representations`) that solves the
quadratic in y, kept with `canonical_filter` because the benchmark's output
checks import both from here. The other oracles live in tests/oracles.py.

The canonical filter keeps pairs with x > y, x > 0, y >= 0; for x^2 + y^2
this picks the unique representation with x > y > 0 of each p = 1 (mod 4).
Pairs with negative y never count (documented convention; the source material
for the ordering never fixes signs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import OracleBoundError, TableBoundError
from .primes import CongruenceClass, _windows, check_capacity, segments
from .qform import QuadraticForm

DEFAULT_ORACLE_BOUND = 10**6
# values per lattice window: its prime flags take WINDOW bytes and its
# candidate points (~0.2 * WINDOW for x^2 + y^2) a few int64 arrays each
WINDOW = 1 << 18


def _x_extent(form: QuadraticForm, p: int) -> int:
    """Upper bound on |x| over the ellipse Q(x, y) = p: 2*sqrt(c*p/D)."""
    return math.isqrt(4 * form.c * p // form.D) + 1


def _extents(form: QuadraticForm, hi: int) -> tuple[int, int]:
    """Bounds (x_max, y_max) on x and y where Q(x, y) <= hi; TableBoundError
    unless each term of Q within them, and 4a * hi, stays below 2**62."""
    a, b, c, D = form.a, form.b, form.c, form.D
    y_max = math.isqrt(4 * a * hi // D)  # 4a*Q = (2ax + by)^2 + D y^2
    x_max = _x_extent(form, hi)
    if max(a * x_max**2, abs(b) * x_max * y_max, c * y_max**2, 4 * a * hi) >= 1 << 62:
        raise TableBoundError(f"form ({form}) to {hi} exceeds the int64 range")
    return x_max, y_max


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


def empty_table(form: QuadraticForm, limit: int = 0) -> RepTable:
    """A table of form without rows, covering primes to limit."""
    z = np.empty(0, dtype=np.int64)
    return RepTable(form, z, z.copy(), z.copy(), limit)


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
    if 2 * a + b >= 0:
        # t = 2ax + by > (2a + b)y >= 0 on the x > y >= 0 sector
        t_lo, t_hi = r_in - b * y, r_out - b * y
    else:
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
        return empty_table(form, limit)
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
    array get no rows, and the table's coverage limit is the array's last
    prime. So a table of a class-masked array claims primes it never saw,
    and must not seed `series.fold_series` or `row_blocks`.

    Raises SieveCapacityError for a prime past the sieve capacity
    (`primes.check_capacity`), and TableBoundError when an int64
    intermediate could overflow.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if primes.size == 0:
        return empty_table(form)
    hi = int(primes[-1])
    check_capacity(hi)
    _extents(form, hi)
    parts = []
    start = 0
    while start < primes.size:
        stop = int(np.searchsorted(primes, primes[start] + WINDOW, side="left"))
        parts.append(_window_rows(form, primes[start:stop]))
        start = stop
    return _stack(form, parts, hi)


def segment_rows(seed: RepTable, primes: np.ndarray) -> RepTable:
    """Rows of one segment: primes, every prime of a range in ascending order.

    A segment the seed covers is a view of the seed's rows, and any other is
    enumerated whole (`representation_table`); the block covers the
    segment's last prime. Every stream cuts its segments at the seed's
    limit, so no prime the seed holds is enumerated again.
    """
    top = int(primes[-1])
    if top > seed.limit:
        return representation_table(seed.form, primes)
    lo, hi = np.searchsorted(seed.p, (primes[0] - 1, top), side="right").tolist()
    return RepTable(seed.form, seed.p[lo:hi], seed.x[lo:hi], seed.y[lo:hi], top)


def row_blocks(seed: RepTable, limit: int) -> Iterator[RepTable]:
    """The rows of every prime <= limit, as blocks in ascending p.

    The seed's rows come first, cut at the sieve-segment edges, then one
    `segment_rows` block per sieve segment above the seed's limit, so a
    consumer holds one block at a time. The stream is lazy, but its
    `primes.segments` stream is made at the call, so a limit past the sieve
    capacity is refused there, before any sieving.
    """
    tops = [b for _, b in _windows(2, min(limit, seed.limit))]
    ends = np.searchsorted(seed.p, tops, side="right").tolist()
    held = (
        RepTable(seed.form, seed.p[i:j], seed.x[i:j], seed.y[i:j], top)
        for i, j, top in zip([0, *ends], ends, tops)
    )
    grown = (segment_rows(seed, seg) for seg in segments(seed.limit + 1, limit))
    return itertools.chain(held, grown)


def ensure_table(form: QuadraticForm, limit: int) -> RepTable:
    """A table of form covering every prime <= limit, built by stacking `row_blocks`.

    The primes are processed one sieve segment at a time, so no prime array
    of the whole range is ever held.
    """
    return _stack(form, [(b.p, b.x, b.y) for b in row_blocks(empty_table(form), limit)], limit)
