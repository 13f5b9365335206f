"""Primitive positive-definite binary quadratic forms and prime representations.

Bulk tables come from one lattice enumeration: every canonical point (x, y)
whose value Q(x, y) lies in the range of the given primes is visited one
value window at a time, all rows of a window at once, and kept when the
value is one of those primes. Each row's ends come from exact int64 square
roots, the points themselves from exact uint32 arithmetic modulo 2**32 on
their offsets Q - lo into the window, and a window spans more values the
more rows it visits (`_window_span`). The kept points are compressed
through one index array and sorted by p alone; only a window where a prime
has several canonical pairs is re-sorted by (p, x, y).
`representation_table` builds the rows of a given prime array, and the
commands stream them as `row_blocks`, one sieve segment at a time: a whole
table is held only when read from a cache, or as repro's fig4 seed, which
is one segment. One per-prime route stays as the reference the tables are
checked against: an exhaustive ellipse walk (`brute_force_representations`)
that solves the quadratic in y, kept with `canonical_filter` because the
benchmark's output checks import both from here. The other oracles live in
tests/oracles.py.

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
# fewest values per lattice window (`_window_span`): its prime flags take a
# byte per value and its candidate points (~0.2 per value for x^2 + y^2) a
# few uint32 lanes each
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


def _y_top(form: QuadraticForm, hi: int) -> int:
    """The last row y >= 0 that can hold a canonical point with Q <= hi.

    Rows end where D*y^2 reaches 4a*hi, or x > y leaves the ellipse. When
    2a + b >= 0, Q grows with x on x > y >= 0, so a row's values exceed
    Q(y, y) = (a + b + c)*y^2, and the sector ends sooner.
    """
    a, b, c = form.a, form.b, form.c
    top = min(math.isqrt(4 * a * hi // form.D), _x_extent(form, hi) - 1)
    if 2 * a + b >= 0:
        top = min(top, math.isqrt(hi // (a + b + c)))
    return top


def _window_span(form: QuadraticForm, hi: int) -> int:
    """Values per lattice window for primes up to hi.

    Each window visits every row up to `_y_top`, so high windows spend more
    on their rows than on their points. The span doubles from WINDOW until
    it holds 32 values per row, at most 8 * WINDOW (2**21 values); of 32,
    64 and 128 values per row, 32 ran `represent --limit 1e9` fastest. A
    stream hands over one sieve segment (2**20 numbers) per call, so its
    windows stop there.
    """
    span, rows = WINDOW, _y_top(form, hi) + 1
    while span < 32 * rows and span < 8 * WINDOW:
        span *= 2
    return span


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


def empty_table(form: QuadraticForm) -> RepTable:
    """A table of form without rows, covering no primes."""
    z = np.empty(0, dtype=np.int64)
    return RepTable(form, z, z.copy(), z.copy(), 0)


def _isqrt(s: np.ndarray) -> np.ndarray:
    """Exact floor square roots of nonnegative int64 values below 2**62.

    The float estimate is off by at most one there, so one fix-up step in
    each direction makes it exact.
    """
    r = np.sqrt(s.astype(np.float64)).astype(np.int64)
    r -= r * r > s
    r += (r + 1) * (r + 1) <= s
    return r


def _row_stretches(
    form: QuadraticForm, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(y, x_lo, step, n): row y's candidates for values in [lo, hi] are
    x = x_lo + step*k, k < n, one entry per stretch, all int64. Its
    temporaries are freed before `_window_rows` makes the candidates.

    Every row 0 <= y <= `_y_top` contributes the x > y stretch of the
    annulus lo <= Q(x, y) <= hi; its ends follow exactly from 4a*Q =
    (2ax + by)^2 + D*y^2, for all rows at once. Since Q = x*(a + b*y) + c*y
    (mod 2), rows with a + b*y odd need only the x of one parity, and rows
    where Q is always even are skipped, unless the window holds 2. The
    caller has checked that every intermediate fits int64 (`_extents`).
    """
    a, b, c, D = form.a, form.b, form.c, form.D
    y_top = _y_top(form, hi)
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
    return y, x_lo, step, np.maximum((x_hi - x_lo) // step + 1, 0)


def _window_rows(
    form: QuadraticForm, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (p, x, y) rows, sorted, for ascending primes in one window.

    The window is [lo, hi] with lo and hi its first and last prime, and its
    candidates are the `_row_stretches`, enumerated as one ragged array in
    uint32 lanes: the candidate at overall index i of a row whose n points
    start at index s is x = x_lo + step*(i - s), and Q - lo adds b*y and
    c*y^2 - lo per row, all with the coefficients taken mod 2**32. That
    arithmetic is exact mod 2**32, and every candidate's Q - lo lies in
    [0, hi - lo], so each offset comes out exact, however large hi or an
    intermediate (ax + by for b < 0) gets; a window of at most 2**21
    values has far fewer than 2**32 candidates. The hits are taken by one
    index array and ordered by p; only a window where a prime has several
    pairs orders them by (x, y) with np.lexsort. Only the hits widen back
    to int64, their x and y read from their rows.
    """
    lo, hi = int(primes[0]), int(primes[-1])
    y, x_lo, step, n = _row_stretches(form, lo, hi)
    lane = np.uint32
    A, B, C, L = (lane(v % 2**32) for v in (form.a, form.b, form.c, lo))
    base = x_lo - step * (np.cumsum(n) - n)  # x = base + step*i
    x = np.arange(int(n.sum()), dtype=lane)
    x *= np.repeat(step.astype(lane), n)
    x += np.repeat(base.astype(lane), n)
    y_lane = y.astype(lane)
    q = (x * A + np.repeat(y_lane * B, n)) * x + np.repeat(y_lane * y_lane * C - L, n)
    del x  # freed before the gather below; the hits' x follow from their rows
    flags = np.zeros(hi - lo + 1, dtype=bool)
    flags[primes - lo] = True
    hits = np.flatnonzero(flags.take(q))  # twice as fast as flags[q] on uint32
    hits = hits[np.argsort(q[hits])]
    row = np.repeat(np.arange(n.size, dtype=lane), n)[hits]
    p = q[hits].astype(np.int64) + lo
    x = base[row] + step[row] * hits
    y = y[row]
    if np.any(p[1:] == p[:-1]):
        # a prime with several canonical pairs (some b < 0 forms): by (x, y) too
        order = np.lexsort((y, x, p))
        p, x, y = p[order], x[order], y[order]
    return p, x, y


def representation_table(form: QuadraticForm, primes: np.ndarray) -> RepTable:
    """Canonical representation rows for every prime in the given array.

    One lattice enumeration serves every form. The ascending primes are cut
    into windows spanning at most `_window_span(form, hi)` values, and each
    window enumerates its stretch of the lattice against its own prime
    flags (`_window_rows`), so memory follows the window (at most 2**21
    values), not the range. Primes missing from the
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
    span = _window_span(form, hi)
    parts = []
    start = 0
    while start < primes.size:
        stop = int(np.searchsorted(primes, primes[start] + span, side="left"))
        parts.append(_window_rows(form, primes[start:stop]))
        start = stop
    return RepTable(form, *map(np.concatenate, zip(*parts)), hi)


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
    `primes.segments` stream is made at the call, and a limit past the seed
    checked against the int64 guard there, so a limit past the sieve
    capacity or the guard is refused before any sieving.
    """
    grown = (segment_rows(seed, seg) for seg in segments(seed.limit + 1, limit))
    if limit > seed.limit:
        _extents(seed.form, limit)
    tops = [b for _, b in _windows(2, min(limit, seed.limit))]
    ends = np.searchsorted(seed.p, tops, side="right").tolist()
    held = (
        RepTable(seed.form, seed.p[i:j], seed.x[i:j], seed.y[i:j], top)
        for i, j, top in zip([0, *ends], ends, tops)
    )
    return itertools.chain(held, grown)

