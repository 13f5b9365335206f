"""Record digests.json: SHA-256 of the stdout and output files of every op.

Run from the root of a checkout of the commit whose outputs are the
reference; a later commit must reproduce these bytes:

    python3 perfbench/record_digests.py

It covers the default seed of every workload and, for cache-analysis, every
class, moment and polynomial pair any seed can pick. Ops run once each, in
their own process, and must also pass the seed-independent checks.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests: dict[str, str] = {}
    failed = 0
    for name, build in workloads.WORKLOADS.items():
        variants = [build(workloads.DEFAULT_SEED)]
        if name == "cache-analysis":
            variants += workloads.cache_analysis_variants()
        work = run.ROOT / ".perfbench_work" / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = run.Runner(work, time.monotonic() + 3600)
        checker = checks.Checker(name, work, workloads.DEFAULT_SEED, {})
        done = set()
        try:
            for wl in variants:
                for op in wl.setup + wl.timed:
                    if op.argv in done:
                        continue
                    done.add(op.argv)
                    r = runner.cli(op.argv)
                    problems = [f"exit code {r.rc}"] if r.rc else checker.check(op, r.stdout)
                    if problems:
                        failed += 1
                        print(f"FAILED {' '.join(op.argv)}: {problems}", file=sys.stderr)
                        continue
                    key = checks.digest_key(name, op, "stdout")
                    digests[key] = hashlib.sha256(r.stdout.encode()).hexdigest()
                    for rel in checks.output_files(op):
                        digests[checks.digest_key(name, op, rel)] = checks.sha256(work / rel)
                    print(f"ok {name}: {' '.join(op.argv)}", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if failed:
        return 1
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
