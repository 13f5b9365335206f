"""Prime generation: segmented odd-only sieve, and congruence classes.

The sieve keeps one byte flag per odd number in the active window, so the
default window of 2**20 numbers costs ~512 KiB of flags and fits in L2 cache.
Each window is filled from a pre-sieved tile of 15015 odd numbers that
already has the multiples of 3..13 struck, and only the base primes from 17
up are struck per window; those are built once per power of two of the
square root and shared by every window of a stream. The base primes are
themselves one window of the same sieve, so this is the package's only
sieve; the plain sieve of Eratosthenes that checks it is a test reference.

`segments(lo, hi)` is the one window loop every prime consumer reads: it
hands over the primes of each window as its own array, so no caller holds
the primes of a whole range; a consumer that wants the first N primes (the
series fold) reads it to `nth_prime_bound(N)` and cuts it at the N-th prime
itself. `sieve_range` joins the windows for callers that want one array.
Numbers are plain Python / numpy int64. Both refuse an interval past
DEFAULT_CAPACITY when they are called (`check_capacity`), so no consumer
repeats the check and a huge request fails before anything is sieved
rather than thrashing the machine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SieveCapacityError

# numbers per sieve window, read at every call so that tests can patch it
DEFAULT_SEGMENT_SIZE = 1 << 20
# generous desk-scale ceiling on the sieve: `check_capacity` is its one reader
DEFAULT_CAPACITY = 4_000_000_000


def check_capacity(hi: int) -> None:
    """SieveCapacityError if sieving to hi would pass DEFAULT_CAPACITY."""
    if hi > DEFAULT_CAPACITY:
        raise SieveCapacityError(f"sieve to {hi} exceeds capacity {DEFAULT_CAPACITY}")


# odd primes struck once into the tile rather than in every segment
_TILE_PRIMES = (3, 5, 7, 11, 13)
_TILE_PERIOD = 3 * 5 * 7 * 11 * 13  # 15015 odd numbers


def _presieved_tile() -> np.ndarray:
    """Flags of the odd numbers 2k + 1, k < 2 * 15015: True where no prime
    3..13 divides them. The pattern repeats every 15015 odd numbers; the
    second period lets any rotation be sliced out whole."""
    tile = np.ones(2 * _TILE_PERIOD, dtype=bool)
    for p in _TILE_PRIMES:
        tile[(p - 1) // 2 :: p] = False  # p divides 2k + 1 iff k = (p - 1)/2 (mod p)
    tile.flags.writeable = False
    return tile


_TILE = _presieved_tile()


@functools.lru_cache(maxsize=None)
def _base_primes(bits: int) -> np.ndarray:
    """The primes 17 <= p < 2**bits, ascending, int64 and read-only.

    Keyed by the bit length of sqrt(hi), so a stream of segments shares one
    array per power of two (at most 32 entries inside int64). The array is
    one `_sieve_window`, whose own base primes reach only sqrt(2**bits), so
    the memo fills bottom-up (16 -> 9 -> 5 -> 3 bits, the last empty).
    """
    top = 1 << bits
    base = _sieve_window(17, top) if top >= 17 else np.empty(0, dtype=np.int64)
    base.flags.writeable = False
    return base


def _windows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Consecutive windows [lo, hi] of DEFAULT_SEGMENT_SIZE numbers covering
    the interval, the size read at call time."""
    span = DEFAULT_SEGMENT_SIZE
    if span < 1:
        raise ValueError("DEFAULT_SEGMENT_SIZE must be >= 1")
    while lo <= hi:
        top = min(lo + span - 1, hi)
        yield lo, top
        lo = top + 1


def _sieve_window(lo: int, hi: int) -> np.ndarray:
    """The primes of one window [lo, hi], 2 <= lo <= hi, ascending, as int64.

    The odd numbers start as a copy of the pre-sieved tile (multiples of
    3..13 already struck), so only the base primes 17..sqrt(hi) are struck,
    from their shared memoised array. The tile primes themselves are put
    back, and 2 added, where the window holds them.
    """
    lo_odd = lo | 1  # first odd candidate
    n_odds = (hi - lo_odd) // 2 + 1  # 0 for the window [2, 2]
    off = (lo_odd // 2) % _TILE_PERIOD  # lo_odd = 2k + 1
    flags = np.resize(_TILE[off : off + _TILE_PERIOD], n_odds)
    for p in _TILE_PRIMES:
        if lo_odd <= p <= hi:
            flags[(p - lo_odd) // 2] = True
    base = _base_primes(math.isqrt(hi).bit_length())
    ps = base[: np.searchsorted(base, math.isqrt(hi), side="right")]
    # each prime's first odd multiple >= max(p*p, lo_odd), as a flag index
    first = np.maximum(ps * ps, (-(-lo_odd // ps) | 1) * ps)
    for p, i in zip(ps.tolist(), ((first - lo_odd) // 2).tolist()):
        flags[i::p] = False
    found = lo_odd + 2 * np.flatnonzero(flags)
    return np.concatenate(([2], found)) if lo == 2 else found


def sieve_range(lo: int, hi: int) -> np.ndarray:
    """All primes in the closed interval [lo, hi], ascending, as int64.

    The interval is sieved one cache-sized window at a time (one 1e8-wide
    window runs ~4x slower) and the windows are joined into one array;
    `segments` hands them over one by one instead. An interval with no
    primes yields an empty array; lo > hi is a contract violation, and hi
    past the capacity a SieveCapacityError.
    """
    if lo > hi:
        raise ValueError(f"empty sieve interval: lo={lo} > hi={hi}")
    check_capacity(hi)
    parts = [_sieve_window(a, b) for a, b in _windows(max(lo, 2), hi)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes of [lo, hi], ascending, as the nonempty arrays of one
    `sieve_range` call per window of DEFAULT_SEGMENT_SIZE numbers.

    Concatenated they equal `sieve_range(lo, hi)`, but only one window is
    held at a time; every prime consumer of the package reads this stream.
    An empty interval (lo > hi) yields nothing. The stream is lazy, but hi
    past the capacity is refused at the call, before any window is sieved.
    """
    check_capacity(hi)
    blocks = (sieve_range(a, b) for a, b in _windows(max(lo, 2), hi))
    return (seg for seg in blocks if seg.size)


@dataclass(frozen=True)
class CongruenceClass:
    """A residue class m (mod M) with gcd(m, M) = 1.

    The residue is normalized into [0, M); modulus 1 gives the trivial class
    containing every integer.
    """

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        m = self.residue % self.modulus
        object.__setattr__(self, "residue", m)
        if math.gcd(m, self.modulus) != 1:
            raise ValueError(
                f"residue {m} is not coprime to modulus {self.modulus}"
            )

    @classmethod
    def trivial(cls) -> "CongruenceClass":
        return cls(0, 1)

    @property
    def is_trivial(self) -> bool:
        return self.modulus == 1

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


def nth_prime_bound(n: int) -> int:
    """Upper bound for the n-th prime: n(ln n + ln ln n) for n >= 6."""
    if n < 6:
        return 13
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1

