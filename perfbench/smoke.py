"""Smoke test of the benchmark at a tiny corpus size.

    python3 perfbench/smoke.py

Runs every workload with `--tiny`, untraced and traced, and checks that the
last output line is the result object, that the run was correct, and that
it carries exactly the metrics BENCHMARK.json declares for that mode, each
with its declared unit and a finite number as value.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, declared: dict) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, declared {unit!r}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for entry in declared["workloads"]:
        for trace in (0, 1):
            found = check(entry["name"], trace, declared)
            print(f"{entry['name']:<8} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
