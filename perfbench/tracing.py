"""Per-layer tracing of qfbias from outside the package.

The traced run imports qfbias from the checkout and wraps each function in
LAYER_FUNCS in every qfbias module namespace that holds a reference to it
(for example both `qfbias.series.bias_series` and `qfbias.cli.bias_series`),
plus the click callbacks of the commands the workloads run. It then calls
`qfbias.cli.main(argv, standalone_mode=False)` in this process. Spans (name,
start, end, parent) stay in memory until the run ends; nothing in `src/`
changes. A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import prime_flags

LAYER_FUNCS = {
    "primes": ("sieve_range",),
    "forms": ("representation_table",),
    "series": ("bias_series", "ratio_series", "sign_changes"),
    "counting": ("d_functions", "prime_ideal_count", "density_check", "norm_residue_subgroup"),
    "equidist": ("angle_arrays", "weyl_sum", "ks_statistic", "sector_counts"),
    "limits": ("integrate",),
    "cache": ("read_cache", "write_cache"),
}
# click commands some workload runs; `sieve` and `acoeff` run in none
CLI_COMMANDS = ("repro", "represent", "series", "ratio", "dfunc", "equidist", "density", "limit")

_EXTRA = {
    "primes": (("primes.sieved", "count"), ("primes.sieve_useful_ratio", "ratio")),
    "forms": (
        ("forms.primes_in", "count"),
        ("forms.rows_out", "count"),
        ("forms.rows_per_s", "1/s"),
        ("forms.hit_ratio", "ratio"),
        ("forms.worker_cpu_s", "s"),
        ("forms.fast.self_s", "s"),
        ("forms.oracle.self_s", "s"),
    ),
    "series": (("series.points_out", "count"),),
    "equidist": (("equidist.samples_scanned", "count"),),
    "cache": (("cache.bytes_read", "B"), ("cache.bytes_written", "B")),
}


def _per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    for layer, names in LAYER_FUNCS.items():
        for f in names:
            spec += [(f"{layer}.{f}.calls", "count"), (f"{layer}.{f}.self_s", "s")]
        spec += _EXTRA.get(layer, ())
    spec += [(f"cli.{c}.self_s", "s") for c in CLI_COMMANDS]
    return spec + [
        ("cli.bytes_out", "B"),
        ("cli.startup_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.uncovered_frac", "ratio"),
    ]


# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = _per_layer_spec()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory spans plus the counts recorded at the same boundaries."""

    def __init__(self):
        # [name, start, end, parent index, tag, RUSAGE_CHILDREN cpu delta]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sieve_ranges: list[tuple[int, int]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        cpu0 = _children_cpu()
        try:
            yield rec
        finally:
            rec[5] = _children_cpu() - cpu0
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def top_level_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": par, "tag": tag}
            for n, t0, t1, par, tag, _ in self.spans
        ]


# Hooks run after a call with its bound arguments and result; they add counts
# and may return a tag stored on the span.


def _sieve(tr, a, r):
    tr.counts["primes.sieved"] += r.size
    tr.sieve_ranges.append((int(a["lo"]), int(a["hi"])))


def _table(tr, a, r):
    tr.counts["forms.primes_in"] += len(a["primes"])
    tr.counts["forms.rows_out"] += len(r)
    form = a["form"]
    return "fast" if form.a == 1 and form.b == 0 else "oracle"


def _count(metric, size):
    def hook(tr, a, r):
        tr.counts[metric] += size(a, r)

    return hook


HOOKS = {
    "primes.sieve_range": _sieve,
    "forms.representation_table": _table,
    "series.bias_series": _count("series.points_out", lambda a, r: len(r.points)),
    "series.ratio_series": _count("series.points_out", lambda a, r: len(r)),
    "equidist.angle_arrays": _count("equidist.samples_scanned", lambda a, r: len(a["table"])),
    "equidist.weyl_sum": _count("equidist.samples_scanned", lambda a, r: len(a["samples"])),
    "equidist.ks_statistic": _count("equidist.samples_scanned", lambda a, r: len(a["samples"])),
    "equidist.sector_counts": _count("equidist.samples_scanned", lambda a, r: len(a["samples"])),
    "cache.read_cache": _count("cache.bytes_read", lambda a, r: os.path.getsize(a["path"])),
    "cache.write_cache": _count("cache.bytes_written", lambda a, r: os.path.getsize(a["path"])),
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if hook:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec[4] = hook(tracer, bound.arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions and callbacks; restore the originals on exit."""
    cli = sys.modules["qfbias.cli"]
    mods = [m for n, m in list(sys.modules.items()) if n == "qfbias" or n.startswith("qfbias.")]
    patches = []
    for layer, names in LAYER_FUNCS.items():
        home = sys.modules[f"qfbias.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            wrapped = _wrap(tracer, f"{layer}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
    for cmd in CLI_COMMANDS:
        command = cli.main.commands[cmd]
        patches.append((command, "callback", command.callback))
        command.callback = _wrap(tracer, f"cli.{cmd}", command.callback)
    try:
        yield
    finally:
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)


def _distinct_primes(ranges: list[tuple[int, int]]) -> int:
    """Primes in the union of closed ranges, counted with the reference sieve."""
    if not ranges:
        return 0
    flags = prime_flags(max(hi for _, hi in ranges))
    covered = np.zeros(flags.size, dtype=bool)
    for lo, hi in ranges:
        covered[max(lo, 0) : hi + 1] = True
    return int(np.count_nonzero(flags & covered))


def layer_metrics(
    tracer: Tracer, traced_wall: float, untraced_wall: float, startup_s: float, bytes_out: int
) -> dict[str, float]:
    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    table_seconds = 0.0
    for (name, t0, t1, _, tag, cpu), own in zip(tracer.spans, tracer.self_times()):
        m[f"{name}.self_s"] += own
        if not name.startswith("cli."):
            m[f"{name}.calls"] += 1
        if name == "forms.representation_table":
            m[f"forms.{tag}.self_s"] += own
            m["forms.worker_cpu_s"] += cpu
            table_seconds += t1 - t0
    m.update(tracer.counts)
    sieved = m["primes.sieved"]
    m["primes.sieve_useful_ratio"] = _distinct_primes(tracer.sieve_ranges) / sieved if sieved else 0.0
    if m["forms.primes_in"]:
        m["forms.hit_ratio"] = m["forms.rows_out"] / m["forms.primes_in"]
    if table_seconds:
        m["forms.rows_per_s"] = m["forms.rows_out"] / table_seconds
    m["cli.bytes_out"] = float(bytes_out)
    m["cli.startup_s"] = startup_s
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    m["trace.uncovered_frac"] = 1.0 - tracer.top_level_seconds() / traced_wall
    return m
