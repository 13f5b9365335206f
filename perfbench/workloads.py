"""Workload definitions: the qfbias command lines each workload runs.

A workload is a list of set-up ops and a list of timed ops. One op is one
`qfbias` invocation, given as its argument list; every path in it is relative
to the run's work directory, so the argument list also names the op in the
recorded digest table. The seed picks the inputs; qfbias only receives them.
Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# Classes m mod M whose primes include p = 1 (mod 4), each holding a quarter
# of all primes among the represented ones, so every seed samples as many
# angles, prefix sums and ideal counts as every other.
SUM_OF_SQUARES_CLASSES = ((8, 1), (8, 5), (12, 1), (12, 5), (3, 1), (3, 2), (6, 1), (6, 5))
# equal-degree (f, g) pairs with a nonvanishing denominator integral for x^2 + y^2
POLY_PAIRS = (
    ("x", "y"),
    ("x^2", "y^2"),
    ("x^2 + xy", "y^2"),
    ("x^3", "y^3"),
    ("x^3 + y^3", "xy^2"),
    ("x^4", "x^2y^2"),
    ("x^2 - y^2", "xy"),
    ("x^5", "y^5"),
)
DEFAULT_GENERAL_FORMS = ((1, 1, 1), (2, 1, 3), (1, -1, 2), (3, -2, 5))


@dataclass(frozen=True)
class Op:
    """One qfbias invocation and the prime count it covers."""

    argv: tuple[str, ...]
    covers: int = 0

    def opt(self, name: str, default: str | None = None) -> str | None:
        """Value of a `--name value` option in argv."""
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    setup: tuple[Op, ...]
    timed: tuple[Op, ...]
    setup_reps: int

    @property
    def covered_primes(self) -> int:
        """Fixed count of primes the timed ops cover, the base of primes_per_s."""
        return sum(op.covers for op in self.timed)


def prime_flags(n: int) -> np.ndarray:
    """Boolean array f with f[i] = (i prime), 0 <= i <= n; independent of qfbias."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def prime_count(n: int) -> int:
    return int(np.count_nonzero(prime_flags(n)))


def nth_prime_bound(n: int) -> int:
    """n(ln n + ln ln n), an upper bound for the n-th prime when n >= 6."""
    if n < 6:
        return 13
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1


def _form_arg(form) -> str:
    return ",".join(str(v) for v in form)


def repro(seed: int, scale: float = 1.0) -> Workload:
    """`qfbias repro` at desk scale, one thread. The inputs do not depend on the seed."""
    del seed

    def scaled(n, minimum=1000):  # mirrors repro's own --scale rule
        return max(int(n * scale), minimum)

    covers = 2 * scaled(500_000) + scaled(100_000) + prime_count(scaled(1_000_000, 10_000))
    argv = ("repro", "--outdir", "repro_out", "--scale", repr(scale), "--threads", "1")
    return Workload("repro", 1, (), (Op(argv, covers),), setup_reps=9)


def cache_analysis(seed: int, scale: float = 1.0) -> Workload:
    """Commands that read one x^2 + y^2 cache written in set-up."""
    rng = random.Random(seed)
    picks = [rng.choice(SUM_OF_SQUARES_CLASSES) for _ in range(4)]
    k = rng.randint(1, 8)
    f, g = rng.choice(POLY_PAIRS)
    return _cache_analysis_ops(picks, k, f, g, scale)


def _cache_analysis_ops(picks, k, f, g, scale) -> Workload:
    limit = int(10_000_000 * scale)
    nmax = max(100, int(500_000 * scale) // 100 * 100)
    pi_limit = prime_count(limit)
    cache = ("--cache", "reps.qfr", "--threads", "2")
    (sm, sr), (rm, rr), (em, er), (dm, dr) = picks
    sos = ("--form", "1,0,1")
    timed = (
        Op(("series", *sos, "--mod", str(sm), "--res", str(sr), "--nmax", str(nmax),
            "--stride", "100", "-o", "series.csv", *cache), nmax),
        Op(("ratio", *sos, "--mod", str(rm), "--res", str(rr), "--nmax", str(nmax),
            "--stride", "100", "-o", "ratio.csv", *cache), nmax),
        Op(("dfunc", "--xmax", str(limit), "-o", "dfunc.csv", *cache), pi_limit),
        Op(("equidist", *sos, "--mod", str(em), "--res", str(er), "--limit", str(limit),
            "-o", "angles.csv", "--stats", "stats.csv", "--sectors", "8", "--conjugates",
            *cache), pi_limit),
        Op(("density", "--delta", "-1", "--mod", str(dm), "--res", str(dr), "--x", str(limit),
            "-o", "density.csv"), pi_limit),
        Op(("limit", *sos, "--k", str(k))),
        Op(("limit", *sos, "--f", f, "--g", g)),
    )
    setup = (Op(("represent", *sos, "--limit", str(limit), "--cache", "reps.qfr",
                 "--threads", "2"), pi_limit),)
    return Workload("cache-analysis", 2, setup, timed, setup_reps=3)


def cache_analysis_variants(scale: float = 1.0) -> list[Workload]:
    """Workloads that together run every input any seed can pick.

    There are 8 classes, 8 moment powers and 8 polynomial pairs, so variant i
    takes the i-th of each.
    """
    return [
        _cache_analysis_ops([cls] * 4, i + 1, *POLY_PAIRS[i], scale)
        for i, cls in enumerate(SUM_OF_SQUARES_CLASSES)
    ]


def _general_form_pool():
    """Primitive non-diagonal forms with |b| <= a <= c <= 6; never a = 1, b = 0."""
    pool = []
    for a in range(1, 4):
        for b in range(-a, a + 1):
            for c in range(a, 7):
                if b != 0 and math.gcd(math.gcd(a, b), c) == 1:
                    pool.append((a, b, c))
    return pool


def general_forms(seed: int, scale: float = 1.0) -> Workload:
    """Write a cache for each of four non-diagonal forms, then run a series over it."""
    if seed == DEFAULT_SEED:
        forms = DEFAULT_GENERAL_FORMS
    else:
        rng = random.Random(seed)
        pool = _general_form_pool()
        negative = [fm for fm in pool if fm[1] < 0]
        first = rng.choice(negative)
        rest = rng.sample([fm for fm in pool if fm != first], 3)
        forms = (first, *rest)
    limit = int(500_000 * scale)
    # largest stride multiple whose prime-index bound the cache still covers
    nmax = 100
    while nth_prime_bound(nmax + 100) <= 0.92 * limit:
        nmax += 100
    pi_limit = prime_count(limit)
    timed = []
    for fm in forms:
        tag = "f" + "_".join(str(v) for v in fm)
        timed.append(Op(("represent", "--form", _form_arg(fm), "--limit", str(limit),
                         "--cache", f"{tag}.qfr", "--threads", "2"), pi_limit))
        timed.append(Op(("series", "--form", _form_arg(fm), "--nmax", str(nmax),
                         "--stride", "100", "-o", f"{tag}_series.csv",
                         "--cache", f"{tag}.qfr", "--threads", "2"), nmax))
    return Workload("general-forms", 2, (), tuple(timed), setup_reps=9)


WORKLOADS = {"repro": repro, "cache-analysis": cache_analysis, "general-forms": general_forms}
