#!/usr/bin/env python3
"""Self-test of the benchmark harness, on shrunken jobs (about a minute).

    python3 perfbench/selftest.py

1. Smoke: every workload, traced and untraced, prints every metric named in
   BENCHMARK.json with its unit, and every job passes its oracle.
2. The oracles can fail: a corrupted output (a cocycle entry, an expansion
   value, an error name) drives the failure ratio above 0.
3. Counts from the traced run repeat exactly across two runs.

Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _edit(text: str, change) -> str:
    report = json.loads(text)
    change(report)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _bump_cocycle(report):
    row = report["result"]["cocycle"]["generators"][0]
    row[0] = row[0] + "1"       # "3/2" -> "3/21"


def _bump_component(report):
    comp = report["result"]["components"]["1"]
    comp["values"][0] = "1/1" if comp["values"][0] != "1/1" else "2/1"


def _rename_error(report):
    report["error"]["name"] = "SomethingElse"


CORRUPTIONS = [
    ("window-decompose", "varadhan", _bump_cocycle),
    ("subset-expand", "expand", _bump_component),
    ("small-batch", "project-form-not-ordinary", _rename_error),
]


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"SELFTEST FAILED: {message}")
    print(f"ok: {message}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the harness workloads")

    for workload in names:
        counts = []
        for trace in (0, 1, 1):
            result = run.run(workload, 1, 0.2, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name, unit in got.items():
                print(f"  {workload} trace={trace} {name} [{unit}] = "
                      f"{result['metrics'][name]['value']}")
            expect(got == want[trace],
                   f"{workload} trace={trace} reports every metric with "
                   "its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace} passes its oracles")
            if trace:
                counts.append({k: v["value"]
                               for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
        expect(counts[0] == counts[1],
               f"{workload} per-layer counts repeat across two runs")

    for workload, prefix, change in CORRUPTIONS:
        def corrupt(job, text, prefix=prefix, change=change):
            return _edit(text, change) if job.name.startswith(prefix) else text
        result = run.run(workload, 1, 0.2, 0, tiny=True, corrupt=corrupt)
        ratio = result["failed"] / result["attempted"]
        expect(ratio > 0 and not result["correct"],
               f"{workload}: corrupted {prefix} output gives fail_ratio "
               f"{ratio:.3f} > 0")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
