"""Output checks. Each returns a list of problems; an empty list means correct.

Every op is checked after its timed sequence, outside the timed region:

  * the SHA-256 of its stdout and of every file it wrote, against the table in
    digests.json recorded at the baseline commit, when the table holds the op;
  * for any seed, recomputations from first principles: cache rows satisfy
    Q(x, y) = p with x > y >= 0, p prime, rows sorted, and a seeded sample of
    primes agrees with `brute_force_representations`; series, ratio, D1/D2,
    angle and ideal-count outputs agree with numpy recomputations from the
    cache rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from pathlib import Path

import numpy as np

from workloads import Op, nth_prime_bound, prime_flags

DIGESTS_PATH = Path(__file__).with_name("digests.json")
_HEADER = struct.Struct("<qqqQ")
_RECORD = np.dtype([("p", "<u8"), ("x", "<i8"), ("y", "<i8")])
ORACLE_SAMPLE = 24


def load_digests() -> dict[str, str]:
    if DIGESTS_PATH.exists():
        return json.loads(DIGESTS_PATH.read_text())
    return {}


def digest_key(workload: str, op: Op, what: str) -> str:
    return f"{workload} | {' '.join(op.argv)} | {what}"


def output_files(op: Op) -> list[str]:
    """Relative paths of the files an op writes."""
    if op.command == "repro":
        out = op.opt("--outdir")
        names = ["fig1_class1mod8.csv", "fig1_class5mod8.csv", "fig2_class1mod12.csv",
                 "fig2_class7mod12.csv", "fig3_ratio1mod8.csv", "fig3_ratio5mod8.csv",
                 "fig4_dfunctions.csv"]
        return [f"{out}/{n}" for n in names]
    if op.command == "represent":
        return [op.opt("--cache")]
    return [op.opt(o) for o in ("-o", "--stats") if op.opt(o)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks op outputs in one work directory; memoizes the reference sieve."""

    def __init__(self, workload: str, work: Path, seed: int, digests: dict[str, str]):
        self.workload = workload
        self.work = work
        self.seed = seed
        self.digests = digests
        self._flags = np.zeros(0, dtype=bool)

    def flags(self, n: int) -> np.ndarray:
        if self._flags.size <= n:
            self._flags = prime_flags(max(n, 2 * self._flags.size))
        return self._flags[: n + 1]

    def check(self, op: Op, stdout: str) -> list[str]:
        problems = []
        files = output_files(op)
        for rel in files:
            if not (self.work / rel).is_file():
                problems.append(f"missing output {rel}")
        if problems:
            return problems
        for what, actual in [("stdout", hashlib.sha256(stdout.encode()).hexdigest())] + [
            (rel, sha256(self.work / rel)) for rel in files
        ]:
            want = self.digests.get(digest_key(self.workload, op, what))
            if want is not None and want != actual:
                problems.append(f"{what}: sha256 {actual[:12]} != recorded {want[:12]}")
        kind = getattr(self, "_check_" + op.command, None)
        if kind is not None:
            try:
                problems += kind(op, stdout.strip())
            except (ValueError, IndexError, KeyError, OSError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        return problems

    # -- caches ------------------------------------------------------------

    def read_rows(self, rel: str):
        """(form, p, x, y) from a QFR1 file, parsed without qfbias."""
        blob = (self.work / rel).read_bytes()
        if blob[:4] != b"QFR1":
            raise ValueError(f"{rel}: bad magic")
        a, b, c, count = _HEADER.unpack_from(blob, 4)
        body = blob[4 + _HEADER.size :]
        if len(body) != count * _RECORD.itemsize:
            raise ValueError(f"{rel}: payload size does not match {count} records")
        rec = np.frombuffer(body, dtype=_RECORD)
        return (a, b, c), rec["p"].astype(np.int64), rec["x"].copy(), rec["y"].copy()

    def _check_represent(self, op: Op, stdout: str) -> list[str]:
        from qfbias.forms import QuadraticForm, brute_force_representations, canonical_filter

        form, p, x, y = self.read_rows(op.opt("--cache"))
        a, b, c = form
        limit = int(op.opt("--limit"))
        problems = []
        if ",".join(map(str, form)) != op.opt("--form"):
            problems.append(f"cache header holds form {form}")
        if stdout != str(p.size):
            problems.append(f"stdout {stdout!r} is not the row count {p.size}")
        if p.size:
            if p.min() < 2 or p.max() > limit:
                return problems + ["cache primes outside [2, limit]"]
            if not np.array_equal(a * x * x + b * x * y + c * y * y, p):
                problems.append("a row fails Q(x, y) = p")
            if not (np.all(x > y) and np.all(y >= 0)):
                problems.append("a row is not canonical (x > y >= 0)")
            if not self.flags(limit)[p].all():
                problems.append("a row holds a composite p")
            order = np.lexsort((y, x, p))
            if not np.array_equal(order, np.arange(p.size)):
                problems.append("rows are not sorted by (p, x, y)")
        # seeded sample: half from all primes up to the limit, half from the rows
        rng = random.Random(self.seed * 7919 + limit)
        primes = np.flatnonzero(self.flags(limit))
        picks = rng.sample(range(primes.size), min(ORACLE_SAMPLE // 2, primes.size))
        sample = {int(primes[i]) for i in picks}
        if p.size:
            sample |= {int(p[rng.randrange(p.size)]) for _ in range(ORACLE_SAMPLE // 2)}
        qf = QuadraticForm(a, b, c)
        for q in sorted(sample):
            lo, hi = np.searchsorted(p, q, "left"), np.searchsorted(p, q, "right")
            got = list(zip(x[lo:hi].tolist(), y[lo:hi].tolist()))
            want = canonical_filter(brute_force_representations(qf, q, bound=q))
            if got != want:
                problems.append(f"p={q}: cache rows {got} != oracle {want}")
        return problems

    # -- series ------------------------------------------------------------

    def _series_points(self, op: Op, residue_mod: tuple[int, int] | None):
        """Exact (N, PrN, sum_a, sum_b) per grid point, recomputed from the cache."""
        _, p, x, y = self.read_rows(op.opt("--cache"))
        nmax, stride = int(op.opt("--nmax")), int(op.opt("--stride"))
        primes = np.flatnonzero(self.flags(nth_prime_bound(nmax)))
        grid = np.arange(stride, nmax + 1, stride)
        pr_n = primes[grid - 1]
        if residue_mod is not None:
            m, M = residue_mod
            keep = p % M == m
            p, x, y = p[keep], x[keep], y[keep]
        idx = np.searchsorted(p, pr_n, side="right")
        cx = np.concatenate([[0], np.cumsum(x)])[idx]
        cy = np.concatenate([[0], np.cumsum(y)])[idx]
        return [(int(n), int(q), int(sa), int(sb)) for n, q, sa, sb in zip(grid, pr_n, cx, cy)]

    @staticmethod
    def _class(op: Op) -> tuple[int, int] | None:
        M = int(op.opt("--mod", "1"))
        return None if M == 1 else (int(op.opt("--res")) % M, M)

    def _check_series(self, op: Op, stdout: str) -> list[str]:
        pts = self._series_points(op, self._class(op))
        lines = ["N,PrN,sum_a,sum_b,F"] + [
            f"{n},{q},{sa},{sb},{_fmt_opt(_ratio(sa, sb))}" for n, q, sa, sb in pts
        ]
        final = _ratio(pts[-1][2], pts[-1][3])
        return _compare_text(self.work / op.opt("-o"), lines) + _compare_stdout(
            stdout, _fmt_final(final)
        )

    def _check_ratio(self, op: Op, stdout: str) -> list[str]:
        cls = self._series_points(op, self._class(op))
        every = self._series_points(op, None)
        rs = []
        for (n, _, sa, sb), (_, _, ta, tb) in zip(cls, every):
            fc, fa = _ratio(sa, sb), _ratio(ta, tb)
            rs.append((n, None if fc is None or fa is None or fa == 0.0 else fc / fa))
        lines = ["N,R"] + [f"{n},{_fmt_opt(r)}" for n, r in rs]
        return _compare_text(self.work / op.opt("-o"), lines) + _compare_stdout(
            stdout, _fmt_final(rs[-1][1])
        )

    # -- counting ----------------------------------------------------------

    def _check_dfunc(self, op: Op, stdout: str) -> list[str]:
        _, p, x, y = self.read_rows(op.opt("--cache"))
        xmax = int(op.opt("--xmax"))
        keep = p < xmax
        p, x, y = p[keep], x[keep], y[keep]
        odd_x = x % 2 == 1
        step = np.where(np.where(odd_x, x, y) > np.where(odd_x, y, x), 1, -1)
        finals, grid = [], {xmax}
        for r in (1, 5):
            m = p % 8 == r
            finals.append(int(step[m].sum()))
            grid |= set(p[m].tolist())
        problems = _compare_stdout(stdout, f"{finals[0]} {finals[1]}")
        rows = (self.work / op.opt("-o")).read_bytes().count(b"\n") - 1
        if rows != len(grid):
            problems.append(f"dfunc CSV has {rows} rows, expected {len(grid)}")
        return problems

    def _check_density(self, op: Op, stdout: str) -> list[str]:
        if op.opt("--delta") != "-1":
            return []
        x_max = int(op.opt("--x"))
        M = int(op.opt("--mod", "1"))
        m = int(op.opt("--res", "0")) % M
        primes = np.flatnonzero(self.flags(x_max))
        in_cls = primes % M == m
        # Z[i]: p = 1 (mod 4) splits into two ideals of norm p, 2 ramifies,
        # p = 3 (mod 4) stays inert with norm p^2
        empirical = 2 * int(np.count_nonzero(in_cls & (primes % 4 == 1)))
        empirical += int(np.count_nonzero(in_cls & (primes == 2)))
        inert = primes[(primes % 4 == 3) & (primes <= math.isqrt(x_max))]
        empirical += int(np.count_nonzero(inert * inert % M == m))
        rows = (self.work / op.opt("-o")).read_text().splitlines()
        last = rows[-1].split(",")
        problems = []
        if last[0] != str(x_max) or last[1] != str(empirical):
            problems.append(f"density row {rows[-1]!r}: expected x={x_max}, empirical={empirical}")
        if last[3] != stdout:
            problems.append(f"stdout {stdout!r} is not the final ratio {last[3]!r}")
        return problems

    # -- angles and limits ---------------------------------------------------

    def _check_equidist(self, op: Op, stdout: str) -> list[str]:
        _, p, x, y = self.read_rows(op.opt("--cache"))
        m, M = self._class(op) or (0, 1)
        keep = (p <= int(op.opt("--limit"))) & (p % M == m)
        raw = np.sort(np.arctan2(y[keep], x[keep])) / (math.pi / 4)
        n = raw.size
        steps = np.arange(n, dtype=np.float64)
        ks = max(float(np.max(raw - steps / n)), float(np.max((steps + 1.0) / n - raw)))
        problems = []
        if abs(float(stdout) - ks) > 1e-9:
            problems.append(f"KS {stdout} differs from recomputed {ks:.12f}")
        rows = (self.work / op.opt("-o")).read_bytes().count(b"\n") - 1
        if rows != n:
            problems.append(f"angle CSV has {rows} rows, expected {n}")
        if op.opt("--stats"):
            stride = max(1, n // 20)
            want = len(range(stride, n + 1, stride)) + (n % stride != 0)
            got = (self.work / op.opt("--stats")).read_bytes().count(b"\n") - 1
            if got != want:
                problems.append(f"stats CSV has {got} rows, expected {want}")
        return problems

    def _check_limit(self, op: Op, stdout: str) -> list[str]:
        value = float(stdout)
        if not (math.isfinite(value) and value > 0):
            return [f"limit {stdout!r} is not a positive number"]
        return []

    def _check_repro(self, op: Op, stdout: str) -> list[str]:
        problems = _compare_stdout(stdout, op.opt("--outdir"))
        for rel in output_files(op):
            lines = (self.work / rel).read_bytes().count(b"\n")
            if lines < 2:
                problems.append(f"{rel} holds no rows")
        return problems


def _ratio(a: int, b: int) -> float | None:
    return None if b == 0 else a / b


def _fmt_opt(v: float | None) -> str:
    return "" if v is None else f"{v:.12f}"


def _fmt_final(v: float | None) -> str:
    """The final value as `series` and `ratio` print it."""
    return "undefined" if v is None else _fmt_opt(v)


def _compare_stdout(stdout: str, want: str) -> list[str]:
    return [] if stdout == want else [f"stdout {stdout!r} != expected {want!r}"]


def _compare_text(path: Path, lines: list[str]) -> list[str]:
    got = path.read_text().splitlines()
    if got == lines:
        return []
    for i, (g, w) in enumerate(zip(got, lines)):
        if g != w:
            return [f"{path.name} line {i + 1}: {g!r} != recomputed {w!r}"]
    return [f"{path.name}: {len(got)} lines, recomputed {len(lines)}"]
