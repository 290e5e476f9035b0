"""Record expected.json: output digests of every pool input set, from this checkout.

Usage, from the root of a checkout: python3 perfbench/record.py

Runs each operation of each workload once per pool index and keeps the
digests of its stdout and written files, but only when the operation exits
0 without a traceback and passes the workload's identities: a broken
output is never recorded as expected. An operation left unrecorded is
listed and counts as failed in every run until it is fixed. Re-record only
in a change that redefines the benchmark, never to absorb a changed output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, Gate, run_round, set_up
from workloads import POOL, WORKLOADS

JOBS = 2  # pool indexes recorded at once; recording is not timed


def record_one(workload: str, index: int) -> tuple[str, int, dict, list[str]]:
    wl = WORKLOADS[workload](index)
    work = HERE / ".work" / f"record-{workload}-{index}-{os.getpid()}"
    try:
        set_up(wl, work)
        results = run_round(wl, work, Gate(work, {}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests = {r.name: r.digests for r in results if r.status == "ok"}
    skipped = [f"{workload}[{index}] {r.name}: {'; '.join(r.problems)}" for r in results if r.status != "ok"]
    return workload, index, digests, skipped


def main() -> int:
    tasks = [(w, i) for w in WORKLOADS for i in range(POOL)]
    digests: dict = {w: {} for w in WORKLOADS}
    unrecorded: list[str] = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for workload, index, found, skipped in pool.map(lambda t: record_one(*t), tasks):
            digests[workload][str(index)] = found
            unrecorded += skipped
    out = {"pool": POOL, "unrecorded": sorted(unrecorded), "digests": digests}
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write("\n".join(unrecorded) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
