"""Benchmark for qfbias: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload repro --seed 0 --seconds 40 --trace 0

One closed-loop client runs the workload's command sequence, each command in
its own `qfbias` process, until the next sequence would end after --seconds.
Every output is checked after its sequence, outside the timed region. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the sequence runs in this process untraced, traced (see
tracing.py) and untraced again, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # every run ends within 180 s, builds included
STARTUP_SAMPLES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primes_per_s", "1/s"),
)

# the console script `qfbias` is exactly this entry point
CLI = "import sys; from qfbias.cli import main; sys.exit(main(prog_name='qfbias'))"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qfbias.cli; "
    "d = time.perf_counter() - t; print(qfbias.cli.__file__); print(repr(d))"
)


@dataclass
class OpResult:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


class Runner:
    """Starts each command in its own process group and reaps it with wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "QFBIAS_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(SRC)

    def python(self, code: str, *argv: str) -> OpResult:
        out, err = self.work / ".stdout", self.work / ".stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", code, *argv], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, start_new_session=True,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            _kill_group(proc.pid)  # leftover pool workers of a failed command
        return OpResult(rc, out.read_text(errors="replace"), err.read_text(errors="replace"),
                        wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)

    def cli(self, argv) -> OpResult:
        return self.python(CLI, *argv)


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


class Tally:
    """Attempted and failed ops; one op is one qfbias invocation."""

    def __init__(self, checker: checks.Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def record(self, op: workloads.Op, rc: int, stdout: str, stderr: str = "") -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {stderr.strip()[-400:]}"]
        else:
            problems = self.checker.check(op, stdout)
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(op.argv)}", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)


def set_up(runner: Runner, wl: workloads.Workload, tally: Tally, reps: int) -> list[float]:
    """Run the warm-up import and the set-up ops `reps` times; return each rep's seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        probe = runner.python(IMPORT_PROBE)
        if probe.rc != 0 or not probe.stdout.startswith(str(SRC)):
            raise SystemExit(f"cannot import qfbias from {SRC}: {probe.stderr.strip()[-400:]}")
        results = [runner.cli(op.argv) for op in wl.setup]
        times.append(time.perf_counter() - t0)
        for op, r in zip(wl.setup, results):
            tally.record(op, r.rc, r.stdout, r.stderr)
    return times


def timed_runs(runner: Runner, wl: workloads.Workload, tally: Tally, seconds: float) -> dict:
    """Repeat the timed sequence while the next one is expected to end within `seconds`."""
    walls, cpus, rss, rounds = [], [], [], []
    t_start = time.monotonic()
    while True:
        r0 = time.monotonic()
        results = [runner.cli(op.argv) for op in wl.timed]
        walls.append(sum(r.wall for r in results))
        cpus.append(sum(r.cpu for r in results))
        rss.append(max(r.maxrss_kb for r in results))
        for op, r in zip(wl.timed, results):
            tally.record(op, r.rc, r.stdout, r.stderr)
        now = time.monotonic()
        rounds.append(now - r0)
        expected = statistics.fmean(rounds)
        if now - t_start + expected > seconds or now + expected > runner.deadline:
            break
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss) / 1024.0,
        "primes_per_s": wl.covered_primes / wall,
        "samples": len(walls),
        "wall_s_all": walls,
    }


def run_in_process(ops, work: Path) -> tuple[float, list[tuple[workloads.Op, int, str, str]]]:
    """Call qfbias.cli.main for each op in this process; return total seconds and results."""
    import click
    from qfbias.cli import main

    results, total = [], 0.0
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            rc = 0
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    main(list(op.argv), prog_name="qfbias", standalone_mode=False)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except click.ClickException as exc:
                    rc = exc.exit_code
                    err.write(exc.format_message())
                except Exception:  # a crashing op is a failed op, the run goes on
                    rc = 1
                    err.write(traceback.format_exc())
            total += time.perf_counter() - t0
            results.append((op, rc, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(cwd)
    return total, results


def traced_run(runner: Runner, wl: workloads.Workload, tally: Tally, spans_path: Path) -> dict:
    startups = []
    for _ in range(STARTUP_SAMPLES):
        probe = runner.python(IMPORT_PROBE)
        startups.append(float(probe.stdout.split()[-1]))
    before, _ = run_in_process(wl.timed, runner.work)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_wall, results = run_in_process(wl.timed, runner.work)
    bytes_out = 0
    for op, rc, out, err in results:
        tally.record(op, rc, out, err)
        bytes_out += len(out.encode())
        if op.command != "represent":
            bytes_out += sum((runner.work / f).stat().st_size
                             for f in checks.output_files(op) if (runner.work / f).is_file())
    # untraced passes on both sides of the traced one, so that a drift in
    # machine speed does not read as tracing overhead
    after, _ = run_in_process(wl.timed, runner.work)
    spans_path.write_text(json.dumps({"workload": wl.name, "spans": tracer.as_records()}))
    return tracing.layer_metrics(tracer, traced_wall, (before + after) / 2,
                                 statistics.median(startups), bytes_out)


def run_metadata(args, wl: workloads.Workload) -> dict:
    cpu_model, cache_kb = "unknown", "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            if key.strip() == "model name" and cpu_model == "unknown":
                cpu_model = val.strip()
            if key.strip() == "cache size" and cache_kb == "unknown":
                cache_kb = val.strip()
    levels = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                levels[f"L{level}"] = (idx / "size").read_text().strip()
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "threads": wl.threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cpuinfo_cache_size": cache_kb,
        "cache_sizes": levels,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "commit": commit,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every bound (the self-check runs tiny sizes)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfbias" / "cli.py").is_file():
        print(f"no qfbias sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks call the oracle, the traced run calls main
    t_begin = time.monotonic()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, t_begin + RUN_LIMIT_S)
        checker = checks.Checker(wl.name, work, args.seed, checks.load_digests())
        tally = Tally(checker)
        setup_times = set_up(runner, wl, tally, 1 if args.trace else wl.setup_reps)
        meta = run_metadata(args, wl)
        if args.trace:
            spans = ROOT / ".perfbench_work" / f"spans-{wl.name}-seed{args.seed}.json"
            values = traced_run(runner, wl, tally, spans)
            units = tracing.PER_LAYER
        else:
            values = timed_runs(runner, wl, tally, args.seconds)
            values["setup_s"] = statistics.median(setup_times)
            meta["samples"] = values["samples"]
            meta["wall_s_all"] = values["wall_s_all"]
            meta["setup_s_all"] = setup_times
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_frac = tally.failed / tally.attempted
    meta["failed_frac"] = failed_frac
    for name, unit in units:
        print(f"{wl.name} {name} = {values[name]:.6g} {unit}")
    print(f"{wl.name} failed_frac = {failed_frac:.6g} ratio ({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
