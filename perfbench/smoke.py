"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload (those BENCHMARK.json names, and publish_churn) with
--trace 0 and --trace 1 on a small corpus for one second and checks that
the last line carries every metric that BENCHMARK.json names, each with
its unit and a finite value; that every check passed; that two runs with
one seed sent the same requests; and that without the program's sources
the benchmark exits non-zero without printing a result.  Exits 0 when all
of that holds.  publish_churn can fail at random through the program's
FilterCache race (see NOTES.md); at this size that is rare.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE, SECONDS, SEED = "0.03", "1", "7"


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    digests: dict[str, list] = {}
    for workload in [w["name"] for w in bench["workloads"]] + ["publish_churn"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(["--workload", workload, "--seed", SEED, "--seconds", SECONDS, "--trace", trace,
                        "--scale", SCALE], ROOT)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} {record['problems']}")
            for metric in bench[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or not in {metric['unit']}: {got}")
                elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    problems.append(f"{label}: {metric['name']} = {got['value']!r}")
            digests.setdefault(workload, []).append(record["request_digest"])
            print(f"ok  {label}: {len(result['metrics'])} metrics, {result['attempted']} checked, "
                  f"{result['failed']} failed ({record['problems'][:2]})")
    for workload, seen in digests.items():
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append(f"{workload}: one seed sent different requests {seen}")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", bench["workloads"][0]["name"], "--seed", SEED, "--seconds", SECONDS], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok  without the program: exit {proc.returncode}, no result")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
