"""Counting-function differences and prime-ideal densities by norm class.

Covers three pieces of machinery for an imaginary quadratic field K of
squarefree discriminant input delta < 0:

  * running differences D1/D2 comparing the odd and even parts of p = a^2 +
    (2b)^2 over the two residue classes 1, 5 (mod 8);
  * prime-ideal counts by norm and norm residue, with splitting decided by
    the Kronecker character of the field discriminant;
  * the coefficient A(m, M) as the index of the norm-residue subgroup H of
    (Z/MZ)^* when m lies in H and 0 otherwise, with an empirical generator
    scan cross-checked against the closed-form Kronecker kernel.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import distinct_prime_factors, euler_phi, kronecker, kronecker_array, squarefree_part
from .errors import ConsistencyError, SieveCapacityError, StabilizationWarning
from .forms import QuadraticForm, RepTable, ensure_table
from .limits import integrate
from .primes import DEFAULT_CAPACITY, CongruenceClass, sieve_range

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

DEFAULT_PRIME_BUDGET = 10_000
_CHI_BLOCK = 1 << 16
STABILIZATION_WINDOW = 100


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


def d_functions(
    x_max: int,
    rep_table: RepTable | None = None,
) -> tuple[CountSeries, CountSeries]:
    """Running differences of odd-vs-even dominance for p = a^2 + (2b)^2.

    For each prime p < x_max with p = 1 (mod 8) (first series) or p = 5
    (mod 8) (second), write p = a^2 + 4 b^2 with a odd and positive; count +1
    when |a| > |2b| and -1 when |a| < |2b| (equality cannot occur). Each
    series carries one grid point per contributing prime plus the endpoint.
    """
    if x_max < 2:
        raise ValueError("x_max must be >= 2")
    form = QuadraticForm(1, 0, 1)
    table = ensure_table(form, x_max, rep_table)
    table = table.slice_below(x_max)
    # drop p = x_max itself: the definition counts p < x strictly
    if table.p.size and int(table.p[-1]) == x_max:
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
    """Multiplicative closure of prime-ideal norms in (Z/MZ)^*."""

    modulus: int
    delta: int
    generators_seen: frozenset[int]
    subgroup: tuple[int, ...]
    stabilized: bool

    @property
    def index(self) -> int:
        if self.modulus == 1:
            return 1
        return euler_phi(self.modulus) // len(self.subgroup)

    def contains(self, residue: int) -> bool:
        return residue % self.modulus in set(self.subgroup)


def _closure(modulus: int, generators) -> set[int]:
    """Subgroup of (Z/MZ)^* generated by the given residues."""
    group = {1 % modulus} | {g % modulus for g in generators}
    changed = True
    while changed:
        changed = False
        for a in list(group):
            for b in list(group):
                ab = a * b % modulus
                if ab not in group:
                    group.add(ab)
                    changed = True
    return group


def kronecker_kernel_subgroup(fs: FieldSplitting, modulus: int) -> tuple[int, ...]:
    """Closed form for the norm-residue subgroup H.

    H is the kernel in (Z/MZ)^* of the field's Kronecker character when that
    character is defined modulo M (conductor |d_K| divides M), and the whole
    unit group otherwise.
    """
    if modulus == 1:
        return (0,)
    d = fs.field_discriminant
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    if modulus % abs(d) == 0:
        return tuple(r for r in units if kronecker(d, r) == 1)
    return tuple(units)


def norm_residue_subgroup(
    fs: FieldSplitting,
    modulus: int,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> NormResidueSubgroup:
    """Scan prime norms to build H, flagging whether the scan stabilized.

    Split primes coprime to M contribute p mod M, inert primes p^2 mod M;
    the finitely many ramified primes are exceptions and contribute nothing.
    The scan certifies only membership, so the result is cross-checked
    against the closed-form kernel; disagreement after stabilization is an
    error.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus == 1:
        return NormResidueSubgroup(
            modulus=1,
            delta=fs.delta,
            generators_seen=frozenset({0}),
            subgroup=(0,),
            stabilized=True,
        )
    if prime_budget < 2:
        raise ValueError(f"prime budget must be at least 2, got {prime_budget}")
    d = fs.field_discriminant
    group = {1}
    generators: set[int] = set()
    since_change = 0
    scanned = 0
    for p in sieve_range(2, prime_budget).tolist():
        if math.gcd(p, modulus) != 1 or d % p == 0:
            continue
        norm = p % modulus if kronecker(d, p) == 1 else p * p % modulus
        scanned += 1
        generators.add(norm)
        if norm in group:
            since_change += 1
            continue
        group = _closure(modulus, generators)
        since_change = 0
    stabilized = scanned >= STABILIZATION_WINDOW and since_change >= STABILIZATION_WINDOW
    if not stabilized:
        warnings.warn(
            f"norm-residue scan for delta={fs.delta}, M={modulus} did not "
            f"stabilize within prime budget {prime_budget}",
            StabilizationWarning,
            stacklevel=2,
        )
    closed = set(kronecker_kernel_subgroup(fs, modulus))
    if not group <= closed:
        raise ConsistencyError(
            f"scanned norm residues {sorted(group - closed)} escape the "
            f"closed-form subgroup for delta={fs.delta}, M={modulus}"
        )
    if stabilized and group != closed:
        raise ConsistencyError(
            f"stabilized scan found H={sorted(group)} but the closed form "
            f"gives {sorted(closed)} for delta={fs.delta}, M={modulus}"
        )
    return NormResidueSubgroup(
        modulus=modulus,
        delta=fs.delta,
        generators_seen=frozenset(generators),
        subgroup=tuple(sorted(closed if stabilized else group)),
        stabilized=stabilized,
    )


def a_coefficient(
    fs: FieldSplitting,
    cls: CongruenceClass,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
    subgroup: NormResidueSubgroup | None = None,
) -> int:
    """The density coefficient A(m, M): the index [(Z/MZ)^* : H] if m is in
    H, else 0."""
    if subgroup is None:
        subgroup = norm_residue_subgroup(fs, cls.modulus, prime_budget)
    elif subgroup.modulus != cls.modulus or subgroup.delta != fs.delta:
        raise ValueError("subgroup belongs to a different modulus or field")
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


def density_check(
    fs: FieldSplitting,
    cls: CongruenceClass,
    x: int,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
    subgroup: NormResidueSubgroup | None = None,
) -> DensityReport:
    """Empirical prime-ideal count against the leading term A*Li(x)/phi(M).

    When A = 0 only the finitely many ramified ideals can slip through; any
    larger empirical count signals a bug and raises.
    """
    if x < 100:
        raise ValueError("density check needs x >= 100")
    a = a_coefficient(fs, cls, prime_budget, subgroup)
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
