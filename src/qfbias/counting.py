"""Counting-function differences and prime-ideal densities by norm class.

Covers three pieces of machinery for an imaginary quadratic field K of
squarefree discriminant input delta < 0:

  * running differences D1/D2 comparing the odd and even parts of p = a^2 +
    (2b)^2 over the two residue classes 1, 5 (mod 8), with the shares of
    their grid points below and at zero tallied as they stream (`DStep`,
    whose x, D1, D2 columns over one whole table `d_functions` returns);
  * prime-ideal counts by norm and norm residue, with splitting decided by
    the Kronecker character of the field discriminant, added up one sieve
    window (`primes.segments`) at a time at every bound at once;
  * the coefficient A(m, M) as the index of the norm-residue subgroup H of
    (Z/MZ)^* when m lies in H and 0 otherwise, H being the kernel of the
    Kronecker character when |d_K| divides M and all of (Z/MZ)^* otherwise.

The last two read the character chi_K through `arith.kronecker_array`, the one
Kronecker evaluation, and only at the residues they need.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import distinct_prime_factors, euler_phi, kronecker_array, squarefree_part
from .errors import ConsistencyError
from .forms import QuadraticForm, RepTable
from .primes import CongruenceClass, segments

_CHI_BLOCK = 1 << 16
_SUM_OF_SQUARES = QuadraticForm(1, 0, 1)


@dataclass(frozen=True)
class FieldSplitting:
    """An imaginary quadratic field given by its squarefree delta < 0."""

    delta: int

    def __post_init__(self):
        if self.delta >= 0:
            raise ValueError("delta must be negative")
        if squarefree_part(self.delta) != self.delta:
            raise ValueError(f"delta {self.delta} is not squarefree")

    @property
    def field_discriminant(self) -> int:
        """delta when delta = 1 (mod 4), else 4*delta."""
        return self.delta if self.delta % 4 == 1 else 4 * self.delta


# ---------------------------------------------------------------------------
# counting differences
# ---------------------------------------------------------------------------


class BiasFractions(NamedTuple):
    """Shares of a count's grid points with value < 0 and with value <= 0."""

    negative: float
    nonpositive: float


class DStep:
    """The D1/D2 race over rows of x^2 + y^2, fed one block at a time.

    For each prime p < x_max with p = 1 (mod 8) (D1) or p = 5 (mod 8) (D2),
    write p = a^2 + 4 b^2 with a odd and positive; the count steps +1 when
    |a| > |2b| and -1 when |a| < |2b| (equality cannot occur). `add` takes
    the next block of rows in ascending p and hands emit one block of the
    union grid: columns x, D1, D2 at every such prime of the block, each
    value counting the events at or below x. `end` emits the x_max endpoint
    row. Only the two running counts and the sign tallies of
    `fractions` are kept between blocks.
    """

    def __init__(self, x_max: int, emit):
        if x_max < 2:
            raise ValueError("x_max must be >= 2")
        self.x_max = x_max
        self.emit = emit
        self.final = np.zeros(2, dtype=np.int64)  # D1, D2 after the last event
        # grid points, negative values and nonpositive values of each series
        self._tally = np.zeros((3, 2), dtype=np.int64)

    def add(self, block: RepTable) -> None:
        if block.form != _SUM_OF_SQUARES:
            raise ValueError(f"D1/D2 read a table of x^2 + y^2, not of ({block.form})")
        # the definition counts p < x strictly
        n = int(np.searchsorted(block.p, self.x_max - 1, side="right"))
        residue = block.p[:n] % 8
        rows = np.flatnonzero((residue == 1) | (residue == 5))
        x, y, residue = block.x[rows], block.y[rows], residue[rows]
        odd_x = x % 2 == 1
        steps = np.where(np.where(odd_x, x, y) > np.where(odd_x, y, x), 1, -1)
        d = np.empty((2, rows.size), dtype=np.int64)
        for i, r in enumerate((1, 5)):
            mine = residue == r
            np.cumsum(np.where(mine, steps, 0), out=d[i])
            d[i] += self.final[i]
            self._count(i, d[i][mine])
        if rows.size:
            self.final = d[:, -1].copy()
        self.emit(block.p[rows], d[0], d[1])

    def end(self) -> None:
        """Emit the x_max endpoint row, which holds the final counts."""
        for i in range(2):
            self._count(i, self.final[i : i + 1])
        self.emit(np.array([self.x_max]), self.final[:1], self.final[1:])

    def _count(self, i: int, values: np.ndarray) -> None:
        self._tally[:, i] += (values.size, np.count_nonzero(values < 0),
                              np.count_nonzero(values <= 0))

    def fractions(self) -> tuple[BiasFractions, BiasFractions]:
        """The BiasFractions of D1 and D2 over the points emitted so far."""
        n, negative, nonpositive = self._tally.tolist()
        return tuple(
            BiasFractions(float(negative[i]) / n[i], float(nonpositive[i]) / n[i])
            for i in range(2)
        )


def d_functions(table: RepTable, x_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns x, D1, D2 that `DStep` emits over a whole x^2 + y^2 table.

    Three int64 arrays holding the rows of the `dfunc` CSV: one per prime
    p < x_max with p = 1, 5 (mod 8), then the x_max endpoint. The table
    covers x_max - 1; ValueError for a table of another form or one that
    falls short.
    """
    blocks = []
    step = DStep(x_max, lambda *columns: blocks.append(columns))
    step.add(table.slice_below(x_max - 1))
    step.end()
    return tuple(np.concatenate(c) for c in zip(*blocks))


# ---------------------------------------------------------------------------
# prime-ideal counts
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _chi_table(d: int, size: int) -> np.ndarray:
    """Kronecker character values of d at the residues 0 <= r < size, as
    int8 (read-only, built once per d and size)."""
    chi = np.empty(size, dtype=np.int8)
    for lo in range(0, size, _CHI_BLOCK):  # blocks bound the builder's temporaries
        hi = min(lo + _CHI_BLOCK, size)
        chi[lo:hi] = kronecker_array(d, np.arange(lo, hi))
    chi.flags.writeable = False
    return chi


def prime_ideal_count(
    fs: FieldSplitting, x: int | np.ndarray, cls: CongruenceClass | None = None
) -> int | np.ndarray:
    """Number of prime ideals with norm <= x, optionally filtered by residue.

    Split rational primes p <= x contribute two ideals of norm p, inert
    primes one ideal of norm p^2, ramified primes one ideal of norm p. x is
    an int, answered with an int, or an array of bounds, answered with an
    int64 array of the counts at each. One `segments` pass to the largest
    bound adds every window's counts at all the bounds, so only one window
    of primes is held; the stream refuses a bound past the sieve capacity
    when it is made, before any sieving or character table. That int8 table
    holds chi_K at min(|d_K|, max x + 1) residues, as p mod |d_K| <= p.
    """
    xs = np.asarray(x)
    top = int(xs.max(initial=1))
    if xs.min(initial=1) < 1:
        raise ValueError("x must be >= 1")
    stream = segments(2, top)  # made first: a bound past capacity builds no table
    d = fs.field_discriminant
    chi = _chi_table(d, min(abs(d), top + 1))
    root = math.isqrt(top)  # an inert p has norm p^2, so only p <= sqrt(top) can count
    counts = np.zeros(xs.shape, dtype=np.int64)
    for primes in stream:
        chi_p = chi[primes % abs(d)]
        inert_p = primes[(chi_p == -1) & (primes <= root)]
        norms = (primes[chi_p == 1], primes[chi_p == 0], inert_p * inert_p)
        if cls is not None and not cls.is_trivial:
            norms = [n[n % cls.modulus == cls.residue] for n in norms]
        split, ramified, inert = (np.searchsorted(n, xs, side="right") for n in norms)
        counts += 2 * split + ramified + inert
    return int(counts) if counts.ndim == 0 else counts


# ---------------------------------------------------------------------------
# norm-residue subgroup and the A coefficient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormResidueSubgroup:
    """The subgroup H of (Z/MZ)^* holding the norms of the field's prime ideals.

    H is the kernel of the field's Kronecker character chi_K when that
    character is defined modulo M (the conductor |d_K| divides M), and all of
    (Z/MZ)^* otherwise: H corresponds to the intersection of K with
    Q(zeta_M), which is K or Q (Cox, *Primes of the form x^2 + ny^2*, the
    class field theory chapters). So the index is 2 or 1, and membership is
    one gcd and, at index 2, one Kronecker symbol.
    """

    modulus: int
    discriminant: int  # d_K

    @property
    def index(self) -> int:
        return 2 if self.modulus % abs(self.discriminant) == 0 else 1

    def contains(self, residue: int) -> bool:
        r = residue % self.modulus
        if math.gcd(r, self.modulus) != 1:
            return False
        # chi_K has period |d_K|, so r mod |d_K| stays inside int64 for any M
        return self.index == 1 or bool(
            kronecker_array(self.discriminant, [r % abs(self.discriminant)])[0] == 1)


def norm_residue_subgroup(fs: FieldSplitting, modulus: int) -> NormResidueSubgroup:
    """The norm-residue subgroup H of (Z/MZ)^* for the field, in closed form."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return NormResidueSubgroup(modulus=modulus, discriminant=fs.field_discriminant)


def a_coefficient(fs: FieldSplitting, cls: CongruenceClass) -> int:
    """The density coefficient A(m, M): the index [(Z/MZ)^* : H] if m is in
    H, else 0."""
    subgroup = norm_residue_subgroup(fs, cls.modulus)
    if subgroup.contains(cls.residue):
        return subgroup.index
    return 0


# ---------------------------------------------------------------------------
# density reports
# ---------------------------------------------------------------------------


def log_integral(x: float) -> float:
    """Offset logarithmic integral: integral from 2 to x of dt / ln t."""
    from .limits import integrate  # only density reports load the quadrature

    if x < 2:
        return 0.0
    return integrate(lambda t: 1.0 / math.log(t), 2.0, float(x), tol=1e-6)


@dataclass(frozen=True)
class DensityReport:
    x: int
    a_coeff: int
    empirical: int
    predicted: float

    @property
    def ratio(self) -> float:
        """empirical / predicted, NaN where the prediction is exactly 0."""
        if self.predicted == 0.0:
            return math.nan
        return self.empirical / self.predicted


def density_check(
    fs: FieldSplitting, cls: CongruenceClass, xs: list[int]
) -> list[DensityReport]:
    """Empirical prime-ideal counts against the leading term A*Li(x)/phi(M).

    One report per checkpoint in xs, every count from one prime_ideal_count
    call. When A = 0 only the finitely many ramified ideals can slip
    through; any larger empirical count at a checkpoint signals a bug and
    raises.
    """
    if min(xs, default=0) < 100:
        raise ValueError("density check needs x >= 100")
    counts = prime_ideal_count(fs, xs, cls).tolist()
    a = a_coefficient(fs, cls)
    if a == 0:
        exceptional = len(distinct_prime_factors(fs.field_discriminant))
        for empirical in counts:
            if empirical > exceptional:
                raise ConsistencyError(
                    f"A=0 for {cls} but {empirical} ideals counted "
                    f"(at most {exceptional} exceptional ideals possible)"
                )
    phi = euler_phi(cls.modulus)
    return [
        DensityReport(x, a, n, predicted=a * log_integral(x) / phi if a else 0.0)
        for x, n in zip(xs, counts)
    ]
