"""Smoke test of the benchmark itself, at a seconds-long size per workload.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --scale tiny`` untraced and traced and
checks that:

* the last stdout line names exactly the metrics of ``BENCHMARK.json`` (the
  end-to-end ones untraced, the per-layer ones traced), each with its unit;
* every output check passed;
* the untraced run saw no wrapper on any rhmlab attribute, and after the
  traced run every rhmlab attribute is the original object again;
* the traced self times plus ``unattributed_ms`` add up to the traced wall
  time, and ``unattributed_ms`` is below 20% of it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def check(workload: str, trace: int) -> list[str]:
    detail, result = run(workload, trace)
    problems = []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"wrong unit {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    if not all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in result["metrics"].values()):
        problems.append("a metric value is not a finite number")
    if not result["correct"] or result["failed"]:
        problems.append(f"output checks failed: {result['failed']} of {result['attempted']}")
    if any(detail["wrappers_seen"].values()):
        problems.append(f"wrappers seen: {detail['wrappers_seen']}")
    if any(detail["attributes_changed"].values()):
        problems.append(f"attributes not restored: {detail['attributes_changed']}")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(v for k, v in m.items() if k.endswith(".self_ms")) + m["unattributed_ms"]
        wall = detail["metrics"]["traced_wall_ms_per_pass"]
        if abs(total - wall) > 1e-6 * wall:
            problems.append(f"self times + unattributed = {total} ms, traced wall {wall} ms")
        if m["unattributed_ms"] >= 0.2 * wall:
            problems.append(f"unattributed {m['unattributed_ms']} ms of {wall} ms")
    return problems


def main() -> int:
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            try:
                problems = check(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
                problems = [str(exc)]
            ok &= not problems
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
