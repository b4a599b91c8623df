#!/usr/bin/env python3
"""Record the benchmark's reference outputs into ``perfbench/reference.json``.

Usage (from the repository root):

    python3 perfbench/record.py

Runs every job of every workload once under the tracer and stores its exit
code, output digest and work units (logged steps plus grid nodes, counted
by the tracer).  The seeded ``custom_plant`` jobs are recorded for seeds
``0 .. RECORDED_SEEDS-1``, the range every ``--seed`` is folded into.
Refuses to write when an exit code differs from the published behaviour
below.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# every job not listed exits 0
EXPECTED_EXITS = {
    "closed_loop/pendulum/compare": 2,
    "closed_loop/bicycle/compare": 2,
    "closed_loop/pendulum/simulate/hocbf": 2,  # input blow-up at t ~ 0.327 s
    "closed_loop/bicycle/simulate/backstepping": 2,  # input blow-up at t ~ 4.294 s
    "validate/pendulum/hocbf": 3,
    "validate/bicycle/abc": 3,
}


def record_jobs(jobs, workdir) -> dict:
    """Exit code, digest and traced work units of each job, run once.

    Each job gets its own tracer, so that spans never pile up over the
    thousands of seeded jobs."""
    import harness
    from tracing import Tracer

    entries = {}
    for job in jobs:
        with Tracer() as tracer:
            outcome = harness.execute(job, workdir)
        if outcome.error is not None:
            raise RuntimeError(f"{job.key} raised:\n{outcome.error}")
        entries[job.key] = {"exit": outcome.exit, "digest": outcome.digest, "units": tracer.units()}
    return entries


def main() -> int:
    import harness

    harness.load_program(ROOT)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = {}
    for workload in harness.WORKLOADS:
        seeds = range(harness.RECORDED_SEEDS) if workload == "custom_plant" else (0,)
        for seed in seeds:
            for job in harness.build_jobs(workload, seed):
                jobs.setdefault(job.key, job)
    with tempfile.TemporaryDirectory(prefix="record-", dir=out_dir) as workdir:
        entries = record_jobs(list(jobs.values()), workdir)
    wrong = {
        key: entry["exit"]
        for key, entry in entries.items()
        if entry["exit"] != EXPECTED_EXITS.get(key, 0)
    }
    if wrong:
        print(f"unexpected exit codes, nothing written: {wrong}", file=sys.stderr)
        return 1
    data = {"environment": harness.environment(), "jobs": entries}
    with open(harness.REFERENCE_PATH, "w") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {harness.REFERENCE_PATH}: {len(entries)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
