"""Smoke test of the benchmark: every workload on tiny inputs, both modes.

    python3 bench/smoke.py

Checks that each run exits 0 with a correct result, that its last line has
exactly the keys correct/attempted/failed/metrics, and that the metric names
and units match BENCHMARK.json: `end_to_end` with --trace 0, `per_layer`
with --trace 1. Last, it checks that the command fails, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark's
files. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid-default", "wide-sparse", "rank-online")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"not a correct run: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            problems.append(f"{name} is not a number: {m['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print(f"FAIL workloads in BENCHMARK.json: {spec['workloads']}")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")

    bare = BENCH / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout
    bare_ok = proc.returncode != 0 and not printed_result
    failures += not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} fails without a result when only the benchmark is present")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
