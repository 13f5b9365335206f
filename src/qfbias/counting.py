"""Counting-function differences and prime-ideal densities by norm class.

Covers three pieces of machinery for an imaginary quadratic field K of
squarefree discriminant input delta < 0:

  * running differences D1/D2 comparing the odd and even parts of p = a^2 +
    (2b)^2 over the two residue classes 1, 5 (mod 8);
  * prime-ideal counts by norm and norm residue, with splitting decided by
    the Kronecker character of the field discriminant;
  * the coefficient A(m, M) as the index of the norm-residue subgroup H of
    (Z/MZ)^* when m lies in H and 0 otherwise, H being the kernel of the
    Kronecker character when |d_K| divides M and all of (Z/MZ)^* otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import distinct_prime_factors, euler_phi, kronecker, kronecker_array, squarefree_part
from .errors import ConsistencyError, SieveCapacityError
from .forms import QuadraticForm, RepTable
from .limits import integrate
from .primes import DEFAULT_CAPACITY, CongruenceClass, sieve_range

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

_CHI_BLOCK = 1 << 16


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


def splitting_type(fs: FieldSplitting, p: int) -> str:
    """How the rational prime p decomposes: split, inert, or ramified."""
    d = fs.field_discriminant
    if d % p == 0:
        return RAMIFIED
    return SPLIT if kronecker(d, p) == 1 else INERT


# ---------------------------------------------------------------------------
# counting differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountSeries:
    """A running integer count sampled at its event grid, as int64 arrays.

    Grid entries hold the value after the event at that point; evaluate(x)
    returns the count over events strictly below x. Both lookups take a
    scalar or an array of points.
    """

    x_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_grid", np.asarray(self.x_grid, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))

    def evaluate(self, x):
        # events strictly below x; the final grid entry is a plain endpoint
        return np.concatenate(([0], self.values))[np.searchsorted(self.x_grid, x)]

    def value_at(self, x):
        """Running value including any event at x itself."""
        return np.concatenate(([0], self.values))[np.searchsorted(self.x_grid, x, "right")]


class BiasFractions(NamedTuple):
    negative: float
    nonpositive: float


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


def d_functions(table: RepTable, x_max: int) -> tuple[CountSeries, CountSeries]:
    """Running differences of odd-vs-even dominance for p = a^2 + (2b)^2.

    For each prime p < x_max with p = 1 (mod 8) (first series) or p = 5
    (mod 8) (second), write p = a^2 + 4 b^2 with a odd and positive; count +1
    when |a| > |2b| and -1 when |a| < |2b| (equality cannot occur). Each
    series carries one grid point per contributing prime plus the endpoint.
    The pairs come from an x^2 + y^2 table covering x_max - 1; ValueError for
    a table of another form or one that falls short.
    """
    if x_max < 2:
        raise ValueError("x_max must be >= 2")
    if table.form != QuadraticForm(1, 0, 1):
        raise ValueError(f"D1/D2 read a table of x^2 + y^2, not of ({table.form})")
    # the definition counts p < x strictly
    table = table.slice_below(x_max - 1)

    p = table.p
    x = table.x
    y = table.y
    odd = np.where(x % 2 == 1, x, y)
    even = np.where(x % 2 == 1, y, x)
    steps = np.where(odd > even, 1, -1).astype(np.int64)

    out = []
    for residue in (1, 5):
        rows = np.flatnonzero(p % 8 == residue)
        vals = np.cumsum(steps[rows])
        vals = np.append(vals, vals[-1] if vals.size else 0)
        out.append(CountSeries(x_grid=np.append(p[rows], x_max), values=vals))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# prime-ideal counts
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _chi_table(d: int) -> np.ndarray:
    """Kronecker character values of d indexed by residue mod |d| (read-only,
    built once per d)."""
    mod = abs(d)
    chi = np.empty(mod, dtype=np.int64)
    for lo in range(0, mod, _CHI_BLOCK):  # blocks bound the builder's temporaries
        hi = min(lo + _CHI_BLOCK, mod)
        chi[lo:hi] = kronecker_array(d, np.arange(lo, hi))
    chi.flags.writeable = False
    return chi


def check_capacity(x: int) -> None:
    """Refuse a prime-ideal count to x before anything is sieved."""
    if x > DEFAULT_CAPACITY:
        raise SieveCapacityError(
            f"prime-ideal count to {x} exceeds capacity {DEFAULT_CAPACITY}"
        )


def prime_ideal_count(
    fs: FieldSplitting, x: int, cls: CongruenceClass | None = None
) -> int:
    """Number of prime ideals with norm <= x, optionally filtered by residue.

    Split rational primes p <= x contribute two ideals of norm p, inert
    primes one ideal of norm p^2, ramified primes one ideal of norm p.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    check_capacity(x)
    d = fs.field_discriminant
    chi = _chi_table(d)

    def in_class(norms: np.ndarray):
        """True for the whole field, else the mask of norms in the class."""
        if cls is None or cls.is_trivial:
            return True
        return norms % cls.modulus == cls.residue

    total = 0
    if x >= 2:
        primes = sieve_range(2, x)
        chi_p = chi[primes % abs(d)]
        mask = in_class(primes)
        total += 2 * np.count_nonzero((chi_p == 1) & mask)  # split
        total += np.count_nonzero((chi_p == 0) & mask)  # ramified
    root = math.isqrt(x)
    if root >= 2:
        small = sieve_range(2, root)
        total += np.count_nonzero((chi[small % abs(d)] == -1) & in_class(small**2))  # inert
    return int(total)


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
    one gcd and one Kronecker symbol.
    """

    modulus: int
    delta: int

    @property
    def _discriminant(self) -> int:
        return FieldSplitting(self.delta).field_discriminant

    @property
    def index(self) -> int:
        return 2 if self.modulus % abs(self._discriminant) == 0 else 1

    def contains(self, residue: int) -> bool:
        r = residue % self.modulus
        if math.gcd(r, self.modulus) != 1:
            return False
        return self.index == 1 or kronecker(self._discriminant, r) == 1

    @property
    def subgroup(self) -> tuple[int, ...]:
        """The elements of H in [0, M), enumerated on demand; (0,) for M = 1."""
        return tuple(r for r in range(self.modulus) if self.contains(r))


def norm_residue_subgroup(fs: FieldSplitting, modulus: int) -> NormResidueSubgroup:
    """The norm-residue subgroup H of (Z/MZ)^* for the field, in closed form."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return NormResidueSubgroup(modulus=modulus, delta=fs.delta)


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


def density_check(fs: FieldSplitting, cls: CongruenceClass, x: int) -> DensityReport:
    """Empirical prime-ideal count against the leading term A*Li(x)/phi(M).

    When A = 0 only the finitely many ramified ideals can slip through; any
    larger empirical count signals a bug and raises.
    """
    if x < 100:
        raise ValueError("density check needs x >= 100")
    a = a_coefficient(fs, cls)
    empirical = prime_ideal_count(fs, x, cls)
    if a == 0:
        exceptional = len(distinct_prime_factors(fs.field_discriminant))
        if empirical > exceptional:
            raise ConsistencyError(
                f"A=0 for {cls} but {empirical} ideals counted "
                f"(at most {exceptional} exceptional ideals possible)"
            )
        return DensityReport(x=x, a_coeff=0, empirical=empirical, predicted=0.0)
    predicted = a * log_integral(x) / euler_phi(cls.modulus)
    return DensityReport(x=x, a_coeff=a, empirical=empirical, predicted=predicted)
