#!/usr/bin/env python3
"""Short-run self-test of the benchmark's output schema and gates.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json:

* a 1-second run with --trace 0 and one with --trace 1 must exit 0 and
  end with a JSON line holding exactly correct/attempted/failed/metrics,
  every end-to-end (resp. per-layer) metric of BENCHMARK.json with its
  unit and a finite value, end-to-end values above 0, correct == true
  and failed == 0;
* a run whose correctness reference is deliberately perturbed must
  report correct == false with failed > 0, so each gate is shown to bite.

Exits 1 on the first violation.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_schema(workload, trace, result):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        sys.exit(f"FAIL {where}: attempted/failed {result}")
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in specs}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        sys.exit(f"FAIL {where}: metrics differ: "
                 f"{sorted(set(metrics) ^ set(expected))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric["unit"] != expected[name]:
            sys.exit(f"FAIL {where}: metric {name} = {metric}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"FAIL {where}: metric {name} value {value}")
        if trace == "0" and value <= 0:
            sys.exit(f"FAIL {where}: end-to-end metric {name} is {value}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in ("0", "1"):
            result = run(workload, trace)
            check_schema(workload, trace, result)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"FAIL {workload} trace={trace}: gates failed "
                         f"({result['failed']} of {result['attempted']})")
            print(f"ok   {workload} trace={trace}: "
                  f"{result['attempted']} operations, 0 failed")
        broken = run(workload, "0", "--corrupt-reference")
        check_schema(workload, "0", broken)
        if broken["correct"] or broken["failed"] == 0:
            sys.exit(f"FAIL {workload}: a perturbed reference passed the gates")
        print(f"ok   {workload}: perturbed reference fails "
              f"{broken['failed']} gate(s)")
    print("selftest passed")


if __name__ == "__main__":
    main()
