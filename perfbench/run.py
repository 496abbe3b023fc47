"""rhmlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {sweep,corpus,denoise,population} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/rhmlab``; the package is
imported from that source tree. Each workload runs in fresh child processes
with BLAS/OpenMP threads pinned to 1 and no worker pool:

* ``--trace 0``: several set-up-only children give the median ``setup_s``;
  one more child runs timed passes for ``--seconds`` and checks every output.
  ``wall_s`` is the median pass; every end-to-end time is in reference
  seconds (see ``hostspeed.py``), and the raw times are on the detail line.
* ``--trace 1``: one untraced child and one traced child (every public rhmlab
  function wrapped from outside the package) run the same passes for half
  of ``--seconds`` each; the traced one gives per-layer calls, self times
  and counters per pass.

Human-readable detail goes to earlier stdout lines; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The run
exits 1 without that line when a child fails or times out, and 2 when the
checkout has no rhmlab sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "corpus", "denoise", "population")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads, here and in every child

import hostspeed  # noqa: E402

SETUP_SAMPLES = 7  # set-up-only children per run
DEADLINE_S = 170.0  # every child is done (or killed) by then


class ChildError(RuntimeError):
    pass


def _machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "git_sha": sha or "unknown (not a git checkout)", "pinned_threads": PINNED}


def _child(args, mode: str, tag: str, deadline: float, seconds: float = 0.0,
           spans: Path | None = None):
    """Run child.py once; returns (its result dict, monotonic spawn time)."""
    work = OUT / f"work-{os.getpid()}-{tag}"
    result = OUT / f"result-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--scale", args.scale,
           "--mode", mode, "--work", str(work), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["RHMLAB_THREADS"] = "1"
    spawned = time.monotonic()
    try:
        # Child output goes to stderr so that stdout ends with our result line.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise ChildError(f"{mode} child exited with code {proc.returncode}")
        return json.loads(result.read_text()), spawned
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child did not finish in time") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result.unlink(missing_ok=True)


def _percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, math.ceil(q * len(xs)) - 1)]


def _end_to_end(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    setups, factors = [], []
    for k in range(SETUP_SAMPLES):
        before = hostspeed.probe()
        res, spawned = _child(args, "setup", f"setup{k}", deadline)
        setups.append(res["ready_at"] - spawned)
        factors.append(hostspeed.factor(before + hostspeed.probe()))
    res, _ = _child(args, "plain", "plain", deadline, args.seconds)
    wall = statistics.median(res["scaled_walls"])
    rate = res["items_per_pass"] / wall
    metrics = {
        "setup_s": (statistics.median(s * f for s, f in zip(setups, factors)), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (rate, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = {
        res["rate_name"]: rate,
        "item": res["item"],
        "passes": len(res["walls"]),
        "pass_walls_s": res["scaled_walls"],
        "raw_pass_walls_s": res["walls"],
        "raw_wall_s": statistics.median(res["walls"]),
        "setup_samples_s": [s * f for s, f in zip(setups, factors)],
        "raw_setup_samples_s": setups,
        "host_speed": {"median_burst_s": res["median_burst_s"],
                       "ticks_per_pass": res["ticks_per_pass"],
                       "setup_factors": factors},
        "fail_frac": res["failed"] / res["attempted"],
    }
    lat = res["latencies_ms"]
    if lat:
        detail.update(latency_p50_ms=statistics.median(lat),
                      latency_p99_ms=_percentile(lat, 0.99), latency_samples=len(lat))
    return metrics, detail, [res]


def _per_layer(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    # The untraced child only gives the tracing overhead, so the run's time
    # is split between the two children.
    plain, _ = _child(args, "plain", "plain", deadline, args.seconds / 2)
    spans = OUT / f"spans-{args.workload}.jsonl"
    traced, _ = _child(args, "trace", "trace", deadline, args.seconds / 2, spans=spans)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = statistics.median(traced["walls"]) / statistics.median(plain["walls"]) - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    traced_wall_ms = 1e3 * sum(traced["walls"]) / len(traced["walls"])
    detail = {
        "traced_wall_ms_per_pass": traced_wall_ms,
        "unattributed_share": metrics["unattributed_ms"][0] / traced_wall_ms,
        "traced_passes": len(traced["walls"]),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, detail, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke-test size")
    args = ap.parse_args()
    if not (ROOT / "src" / "rhmlab" / "__init__.py").is_file():
        print(f"no rhmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, detail, results = measure(args, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    first = results[0]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "machine": dict(_machine(), **first["versions"]),
        "metrics": detail, "outputs": first["outputs"],
        "wrappers_seen": {r["mode"]: r["wrappers_seen"] for r in results},
        "attributes_changed": {r["mode"]: r["attributes_changed"] for r in results},
    }))
    for line in first["notes"] + [m for r in results for m in r["messages"]][:50]:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
