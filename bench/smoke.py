"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root::

    python3 bench/smoke.py

For each workload, with tracing off and on, it runs ``run.py --size tiny``
for a few rounds and checks that the run exits 0, that the last line holds
exactly the result keys, that every metric named in ``BENCHMARK.json`` for
that mode is printed with its unit and no other, that no round failed
(``round_fail_frac`` is 0), and that the traced sim workloads repeat their
per-layer counts exactly. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SIM_WORKLOADS = ("testbed", "client_groups")


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if info["round_fail_frac"] != 0:
        problems.append(f"round_fail_frac {info['round_fail_frac']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        problems.append(f"metrics missing {missing} extra {extra} unit mismatch {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            problems.append(f"{name} value {m['value']!r}")
    if trace and workload in SIM_WORKLOADS and info["counts_stable"] is not True:
        problems.append("per-layer counts differ between two traced runs")
    if workload == "tcp_relay" and info.get("network") != "loopback":
        problems.append(f"tcp_relay network {info.get('network')!r}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            problems = check_run(workload, trace, declared)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}", flush=True)
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
