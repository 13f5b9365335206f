"""Angle statistics for represented primes: Weyl sums, KS distance, sectors.

Each canonical representation (x, y) yields a coordinate angle
raw_arg = atan(y/x) and the wound angle theta = w * atan2(y, x) (mod 2pi),
where w is the number of roots of unity of the form's field, read off
D = -disc: 4 when D is a perfect square, 6 when D/3 is, else 2. One
representative per prime covers only the fundamental domain of theta;
`mirrored` appends the conjugate ideals' angles 2pi - theta and fills the
circle.

angle_pass is the `equidist` pass, one function of its row stream: per block
it takes the rows in a class, capped at the count still owed, and writes them
with their angle_arrays. The statistics (weyl_sum, ks_statistic,
sector_counts) take float arrays, converted once with np.asarray; raw_arg is
tested on RAW_ANGLE_INTERVAL, [0, pi/4), the image of the canonical pairs
x > y >= 0 of x^2 + y^2.

prefix_statistics is the `equidist --stats` sweep over growing prefixes. It
computes the phases of each Weyl frequency once for all samples and averages
prefixes of them, so every value equals weyl_sum / ks_statistic on that
prefix bit for bit and the sweep CSV bytes are those of a per-prefix
recomputation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ComputationError
from .forms import QuadraticForm, RepTable
from .primes import CongruenceClass

TWO_PI = 2.0 * math.pi
# the raw angles' uniform reference: atan(y/x) of x^2 + y^2's canonical pairs
RAW_ANGLE_INTERVAL = math.pi / 4


def root_count_for_form(form: QuadraticForm) -> int:
    """Default winding for a form: 4 when D = -disc is a perfect square (the
    field Q(i)), 6 when D/3 is (Q(sqrt -3)), else 2."""
    d = form.D
    if math.isqrt(d) ** 2 == d:
        return 4
    if d % 3 == 0 and math.isqrt(d // 3) ** 2 == d // 3:
        return 6
    return 2


def mirrored(theta: np.ndarray) -> np.ndarray:
    """theta followed by the conjugate ideals' angles 2pi - theta (mod 2pi)."""
    return np.concatenate([theta, np.mod(-theta, TWO_PI)])


def weyl_sum(samples, n: int, interval: float = TWO_PI) -> float:
    """|average of exp(2*pi*i*n*theta/interval)| over the samples, in [0, 1]."""
    if n == 0:
        raise ValueError("Weyl frequency must be nonzero")
    if interval <= 0:
        raise ValueError("interval length must be positive")
    vals = np.asarray(samples, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("empty sample list")
    return float(abs(_phases(vals, n, interval).mean()))


def _phases(vals: np.ndarray, n: int, interval: float) -> np.ndarray:
    """exp(2*pi*i*n*v/interval) per element; shared by weyl_sum and the sweep.

    The steps of that expression, in its order, write into one complex128
    array, so the values are its bits without two temporaries of that size.
    """
    z = np.multiply(2j * math.pi * n, vals)
    np.divide(z, interval, out=z)
    return np.exp(z, out=z)


def ks_statistic(samples, interval: float = TWO_PI) -> float:
    """Sup distance between the empirical CDF and the uniform CDF on [0, L)."""
    if interval <= 0:
        raise ValueError("interval length must be positive")
    vals = np.sort(np.asarray(samples, dtype=np.float64))
    vals /= interval
    n = vals.size
    if n == 0:
        raise ValueError("empty sample list")
    if vals[0] < 0.0 or vals[-1] >= 1.0:
        raise ValueError("samples must lie in [0, interval)")
    # one work array beside the sorted copy, each step written in place
    cdf = np.arange(n, dtype=np.float64)
    cdf /= n
    below = float(np.max(np.subtract(vals, cdf, out=cdf)))
    del cdf  # so that the next one is made after this one is freed
    cdf = np.arange(1.0, n + 1.0)
    cdf /= n
    above = float(np.max(np.subtract(cdf, vals, out=cdf)))
    return max(below, above)


def prefix_statistics(samples, grid, interval: float = TWO_PI) -> np.ndarray:
    """KS distance and Weyl sums 1..5 of each prefix samples[:m], m in grid.

    Row r holds ks_statistic(samples[:m]) and weyl_sum(samples[:m], j) for
    j = 1..5, with m = grid[r], bit for bit. The phases of each frequency are
    computed once for all samples; a prefix's Weyl sum is the mean of the
    first m of them, the same numbers weyl_sum would reduce.
    """
    if interval <= 0:
        raise ValueError("interval length must be positive")
    vals = np.asarray(samples, dtype=np.float64)
    grid = list(grid)
    if any(m < 1 or m > vals.size for m in grid):
        raise ValueError("prefix lengths must lie in 1..len(samples)")
    out = np.empty((len(grid), 6), dtype=np.float64)
    out[:, 0] = [ks_statistic(vals[:m], interval) for m in grid]
    for j in range(1, 6):
        z = _phases(vals, j, interval)
        out[:, j] = [abs(z[:m].mean()) for m in grid]
    return out


def sector_counts(samples, k: int) -> list[int]:
    """Counts of theta values in the k equal sectors [2pi(j-1)/k, 2pi j/k)."""
    if k < 1:
        raise ValueError("sector count must be >= 1")
    vals = np.asarray(samples, dtype=np.float64)
    bins = np.floor(vals * (k / TWO_PI)).astype(np.int64)
    bins = np.clip(bins, 0, k - 1)
    return np.bincount(bins, minlength=k).astype(int).tolist()


def angle_arrays(table: RepTable, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(raw_arg, theta) arrays for every row of a representation table.

    Uses math.atan2 per row: numpy's arctan2 can differ in the last ulp,
    which would change the angle CSV bytes and their recorded digests.
    """
    if w < 1:
        raise ValueError("root count w must be positive")
    raw = np.fromiter(
        map(math.atan2, table.y.tolist(), table.x.tolist()),
        dtype=np.float64, count=len(table),
    )
    theta = np.mod(w * raw, TWO_PI)
    return raw, theta


def angle_pass(blocks, cls: CongruenceClass, w: int, max_count: int | None,
               write) -> tuple[np.ndarray, np.ndarray]:
    """The angle samples of a stream of row blocks in ascending p.

    Each block's rows in cls, capped at the max_count rows still owed (None:
    no cap), go to write(p, x, y, raw_arg, theta) as one block, with their
    angle_arrays at winding w. No block is pulled once max_count rows are
    written, so the stream's sieve stops there. Returns the raw_arg and theta
    arrays of every row written; ComputationError if there is none.
    """
    raws, thetas, left = [], [], max_count
    for block in blocks:
        rows = block.slice_class(cls)
        if left is not None:
            rows = rows.slice_first(left)
            left -= len(rows)
        raw, theta = angle_arrays(rows, w)
        write(rows.p, rows.x, rows.y, raw, theta)
        raws.append(raw)
        thetas.append(theta)
        if left == 0:  # the count is met: the pass ends here
            break
    if not any(raw.size for raw in raws):
        raise ComputationError("no canonical representations in the requested range")
    return np.concatenate(raws), np.concatenate(thetas)
