"""Angle statistics for represented primes: Weyl sums, KS distance, sectors.

Each canonical representation (x, y) yields a coordinate angle
raw_arg = atan(y/x) and the wound angle theta = w * atan2(y, x) (mod 2pi),
where w is the number of roots of unity of the relevant field (4 for
delta = -1, 6 for delta = -3, else 2). One representative per prime covers
only the fundamental domain of theta; `mirrored` appends the conjugate
ideals' angles 2pi - theta and fills the circle.

sample_angles selects rows of the table it is given and returns them with
their raw_arg and theta arrays. The statistics (weyl_sum, ks_statistic,
sector_counts) take float arrays, converted once with np.asarray.

prefix_statistics is the `equidist --stats` sweep over growing prefixes. It
computes the phases of each Weyl frequency once for all samples and averages
prefixes of them, so every value equals weyl_sum / ks_statistic on that
prefix bit for bit and the sweep CSV bytes are those of a per-prefix
recomputation.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import squarefree_part
from .forms import QuadraticForm, RepTable
from .primes import CongruenceClass

TWO_PI = 2.0 * math.pi


def default_root_count(delta: int) -> int:
    """Roots of unity in the field for squarefree delta < 0: 4, 6, or 2."""
    if delta >= 0:
        raise ValueError("delta must be negative")
    if delta == -1:
        return 4
    if delta == -3:
        return 6
    return 2


def root_count_for_form(form: QuadraticForm) -> int:
    """Default winding for a form, from the squarefree part of its discriminant."""
    return default_root_count(squarefree_part(form.disc))


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
    vals = np.sort(np.asarray(samples, dtype=np.float64)) / interval
    n = vals.size
    if n == 0:
        raise ValueError("empty sample list")
    if vals[0] < 0.0 or vals[-1] >= 1.0:
        raise ValueError("samples must lie in [0, interval)")
    steps = np.arange(n, dtype=np.float64)
    below = float(np.max(vals - steps / n))
    above = float(np.max((steps + 1.0) / n - vals))
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
