"""Self-check of the benchmark at tiny sizes; exits non-zero on the first failure.

    python3 perfbench/selfcheck.py

  * every workload, untraced and traced, prints a last line of JSON with
    exactly the keys and metric names that BENCHMARK.json declares, and
    counts no failed op;
  * a corrupted copy of a cache, and of a CSV, counts as a failed op, and so
    does an output whose digest differs from the recorded one;
  * in a directory holding only BENCHMARK.json and the benchmark, the run
    fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import checks
import run
import workloads

SCALE = "0.02"


def fail(msg: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {msg}")


def bench(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def check_outputs(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--scale", SCALE)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{workload} trace={trace}: {result['failed']} failed ops\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ")
            print(f"ok {workload} trace={trace}: {len(got)} metrics")


def check_corruption() -> None:
    sys.path.insert(0, str(run.SRC))
    wl = workloads.cache_analysis(0, float(SCALE))
    represent, series = wl.setup[0], wl.timed[0]
    work = run.ROOT / ".perfbench_work" / "selfcheck-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner(work, time.monotonic() + 120)
        results = {op: runner.cli(op.argv) for op in (represent, series)}
        if any(r.rc for r in results.values()):
            fail("tiny cache-analysis ops did not run")

        def failed_count(op, digests=None) -> int:
            tally = run.Tally(checks.Checker(wl.name, work, 0, digests or {}))
            with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED report
                tally.record(op, 0, results[op].stdout)
            return tally.failed

        if failed_count(represent) or failed_count(series):
            fail("clean outputs fail their checks")
        csv = work / series.opt("-o")
        clean = csv.read_bytes()
        lines = clean.decode().splitlines()
        n, prn, sa, sb, f = lines[-1].split(",")
        lines[-1] = ",".join((n, prn, str(int(sa) + 1), sb, f))
        csv.write_text("\n".join(lines) + "\n")
        if failed_count(series) != 1:
            fail("a corrupted series CSV passed")
        csv.write_bytes(clean)
        cache = work / represent.opt("--cache")
        blob = bytearray(cache.read_bytes())
        blob[-16] ^= 1  # low bit of x in the last record
        cache.write_bytes(bytes(blob))
        if failed_count(represent) != 1:
            fail("a corrupted cache passed")
        key = checks.digest_key(wl.name, series, series.opt("-o"))
        if failed_count(series, {key: "0" * 64}) != 1:
            fail("a digest mismatch passed")
        print("ok corrupted cache, CSV and digest count as failed ops")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "repro", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("the benchmark ran without the qfbias sources")
        print("ok without sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_outputs(spec)
    check_corruption()
    check_bare_directory()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
