"""digstack benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload campus_search --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, starts the real servers
in-process on 127.0.0.1, measures for --seconds, checks every reply, and
prints a record of the run (seed, sizes, mixes, machine, paper checks,
error rate) followed, as the last line, by
``{"correct", "attempted", "failed", "metrics"}``.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  A human-readable table
goes to stderr.  `correct` is false when any check failed.  Exits 1 when
`correct` is false and 2 when the program under test cannot be imported.

Besides the workloads that BENCHMARK.json names, --workload accepts
publish_churn: a writer publishing directory deltas beside a reader.  It
is left out of BENCHMARK.json because the program's FilterCache race makes
some of its reader replies wrong at random (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["publish_churn"]


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform(),
            "commit": commit()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (the smoke test uses a small one)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import the program under test: {err}", file=sys.stderr)
        return 2

    metrics, run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, ROOT)
    record = run.record
    record["machine"] = machine()
    wanted = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in BENCHMARK[wanted]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        run.checks.check(False, f"metrics not measured: {missing}")
    for name in names:
        print(f"{name:40s} {metrics.get(name, float('nan')):14.4f} {UNITS[name]}", file=sys.stderr)
    for name in ("fresh_p50_ms", "fresh_p90_ms"):
        if "writer" in record:
            print(f"{name:40s} {record['writer'][name]:14.4f} ms (record only)", file=sys.stderr)
    rate = record["error_rate"]
    print(f"{'error_rate':40s} {rate['value']:14.6f} ratio ({rate['failed']} of {rate['attempted']})", file=sys.stderr)
    for problem in run.checks.problems + run.outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = run.totals()
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": run.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names if n in metrics},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
