#!/usr/bin/env python3
"""cbftk benchmark: one workload per invocation, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads: scan, validate, closed_loop, custom_plant (see ``harness.py``).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (set-up time, per-plant throughput, peak memory);
with ``--trace 1`` it carries the per-layer metrics of a traced pass that
follows the untraced measurement.  Lines before it are a readable summary.
Throughput is corrected to the reference host speed with a probe that runs
between every two timed jobs (see ``calibration.py``); the summary also
shows it as measured.
The full record, with the environment block and per-job medians, is
written to ``.perfbench_out/`` in the repository root, next to the span
file of a traced run.

The program is imported from ``src/`` of the same checkout; the command
fails with exit code 2 when that is missing.  Record the reference
outputs with ``perfbench/record.py``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import harness

    try:
        harness.load_program(ROOT)
        reference = harness.Reference.load()
    except (ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), reference, out_dir
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(record, handle, indent=1)

    print("environment:", json.dumps(record["environment"], sort_keys=True))
    for job in record["jobs"]:
        median = job["median_s"]
        shown = "failed" if median is None else f"{median:.4f} s x{job['runs']}"
        print(f"  {job['key']:<52} {shown}")
    for key, reason in record["failures"]:
        print(f"FAILED {key}: {reason.strip().splitlines()[-1]}")
    if record["absent_targets"]:
        print("absent trace targets:", ", ".join(record["absent_targets"]))
    metrics = {"fail_ratio": {"value": record["fail_ratio"], "unit": "ratio"}}
    metrics.update(record["metrics"])
    print(f"{record['failed']} of {record['attempted']} job runs failed")
    measured = ", ".join(f"{plant} {value!r}" for plant, value in record["measured_tput"].items())
    print(f"host probe {record['probe_s']!r} s (median); measured states/s: {measured}")
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
