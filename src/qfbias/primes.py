"""Prime generation: segmented odd-only sieve, and congruence classes.

The sieve keeps one byte flag per odd number in the active window, so the
default window of 2**20 numbers costs ~512 KiB of flags and fits in L2 cache.
Each window is filled from a pre-sieved tile of 15015 odd numbers that
already has the multiples of 3..13 struck, and only the base primes from 17
up are struck per window; those are built once per power of two of the
square root and shared by every window of a stream. Numbers are plain
Python / numpy int64; capacity checks keep requests within a configured
bound rather than letting a huge sieve thrash the machine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SieveCapacityError

DEFAULT_SEGMENT_SIZE = 1 << 20
# generous desk-scale ceiling; first_primes and table builders refuse past this
DEFAULT_CAPACITY = 4_000_000_000


def _simple_prime_flags(n: int) -> np.ndarray:
    """Boolean array f with f[i] = (i prime), for 0 <= i <= n."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


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
    array per power of two (at most 32 entries inside int64).
    """
    flags = _simple_prime_flags(1 << bits)
    flags[: _TILE_PRIMES[-1] + 1] = False
    base = np.flatnonzero(flags)
    base.flags.writeable = False
    return base


def sieve_range(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes in the closed interval [lo, hi], ascending, as int64.

    Each segment of odd numbers starts as a copy of the pre-sieved tile
    (multiples of 3..13 already struck), so only the base primes 17..sqrt(hi)
    are struck per segment, from their shared memoised array. The tile primes
    themselves are put back, and 2 added, where the range holds them. An empty
    interval (no primes in range) yields an empty array; lo > hi is a
    contract violation.
    """
    if lo > hi:
        raise ValueError(f"empty sieve interval: lo={lo} > hi={hi}")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    if hi < 2:
        return np.empty(0, dtype=np.int64)

    parts = []
    if lo <= 2:
        parts.append(np.array([2], dtype=np.int64))
    base = _base_primes(math.isqrt(hi).bit_length())

    seg_lo = max(lo, 3) | 1  # first odd candidate
    # widen tiny windows to at least one odd number
    span = max(segment_size, 2)
    while seg_lo <= hi:
        seg_hi = min(seg_lo + span - 1, hi)
        n_odds = (seg_hi - seg_lo) // 2 + 1
        off = (seg_lo // 2) % _TILE_PERIOD  # seg_lo = 2k + 1
        flags = np.resize(_TILE[off : off + _TILE_PERIOD], n_odds)
        for p in _TILE_PRIMES:
            if seg_lo <= p <= seg_hi:
                flags[(p - seg_lo) // 2] = True
        ps = base[: np.searchsorted(base, math.isqrt(seg_hi), side="right")]
        # each prime's first odd multiple >= max(p*p, seg_lo), as a flag index
        first = np.maximum(ps * ps, (-(-seg_lo // ps) | 1) * ps)
        for p, i in zip(ps.tolist(), ((first - seg_lo) // 2).tolist()):
            flags[i::p] = False
        found = seg_lo + 2 * np.flatnonzero(flags)
        if found.size:
            parts.append(found)
        seg_lo = (seg_hi + 1) | 1  # next odd beyond the window

    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


@dataclass(frozen=True)
class PrimeStream:
    """Every prime p <= limit, exactly once, in increasing order.

    The segment size only controls the sieving window; the emitted stream is
    identical for any segment_size >= 1.
    """

    limit: int
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self):
        if self.limit < 0:
            raise ValueError("limit must be nonnegative")
        if self.segment_size < 1:
            raise ValueError("segment_size must be >= 1")

    def segments(self, start: int = 2) -> Iterator[np.ndarray]:
        """Primes in consecutive windows from start, ascending; concatenation
        is the stream's part from start on."""
        lo = max(start, 2)
        span = max(self.segment_size, 2)
        while lo <= self.limit:
            hi = min(lo + span - 1, self.limit)
            yield sieve_range(lo, hi, segment_size=span)
            lo = hi + 1

    def __iter__(self) -> Iterator[int]:
        for seg in self.segments():
            yield from seg.tolist()


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

    def contains(self, n: int) -> bool:
        return n % self.modulus == self.residue

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


def nth_prime_bound(n: int) -> int:
    """Upper bound for the n-th prime: n(ln n + ln ln n) for n >= 6."""
    if n < 6:
        return 13
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1


def _capacity_bound(n: int) -> int:
    """nth_prime_bound(n), refused before any sieving past the capacity."""
    bound = nth_prime_bound(n)
    if bound > DEFAULT_CAPACITY:
        raise SieveCapacityError(
            f"prime #{n} needs sieving to ~{bound}, which exceeds capacity {DEFAULT_CAPACITY}"
        )
    return bound


def first_primes(n: int) -> np.ndarray:
    """The first n primes, ascending, as int64."""
    if n < 1:
        raise ValueError("prime index must be >= 1")
    # nth_prime_bound is an upper bound (13 is the 6th prime), so one sieve holds them
    return sieve_range(2, _capacity_bound(n))[:n]


def prime_segments(n: int) -> Iterator[np.ndarray]:
    """The first n primes, as the nonempty segments of one `PrimeStream` pass.

    The pass stops at the n-th prime, truncating the last segment there, and
    holds one segment at a time. SieveCapacityError if the n-th prime may lie
    past the capacity, raised before any sieving.
    """
    if n < 1:
        raise ValueError("prime index must be >= 1")
    bound = _capacity_bound(n)
    left = n
    for seg in PrimeStream(bound).segments():
        if seg.size:
            yield seg[:left]
            left -= min(seg.size, left)
            if left == 0:
                return
    # nth_prime_bound is an upper bound, so unreachable
    raise ArithmeticError(f"fewer than {n} primes below {bound}")


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed (n=1 gives 2)."""
    return int(first_primes(n)[-1])
