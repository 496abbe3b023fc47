"""One workload in a fresh process: set-up, timed passes, output checks.

Started by ``run.py``; writes one JSON result file and prints nothing on
stdout. Modes:

* ``setup``: build the workload's inputs, record when that finished, exit;
* ``plain``: then run timed passes with no wrapper installed;
* ``trace``: the same passes with the tracer's wrappers installed, which are
  removed again before the result is written.

``ready_at`` is ``time.monotonic()``, a system-wide clock on Linux, so the
parent can subtract its own spawn time from it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_passes(wl, seconds: float, tr) -> dict:
    """Timed passes until the next one would end after ``seconds`` (at least
    one). Untraced, a host-speed sampler runs throughout; each pass's wall
    leaves its handler time out and is also given in reference seconds."""
    walls: list[float] = []
    scaled: list[float] = []
    attempted = failed = 0
    messages: list[str] = []
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        smp = stack.enter_context(hostspeed.Sampler()) if tr is None else None
        while True:
            if tr is None:
                t0 = time.perf_counter()
                out = wl.run_unit()
                raw, ref = smp.scaled(t0, time.perf_counter())
                walls.append(raw)
                scaled.append(ref)
            else:
                out, wall = tr.root(wl.run_unit)
                walls.append(wall)
            fails = wl.check(out)
            attempted += wl.ops
            failed += len({op for op, _ in fails})
            messages += [f"{wl.name} [{op}]: {msg}" for op, msg in fails]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    return {"walls": walls, "scaled_walls": scaled, "attempted": attempted,
            "failed": failed, "messages": messages,
            "ticks": smp.n if smp is not None else 0,
            "median_bursts": smp.median_bursts() if smp is not None else {}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for outputs")
    ap.add_argument("--result", required=True, help="JSON result file to write")
    ap.add_argument("--spans", help="JSONL file for the traced spans")
    args = ap.parse_args()

    import rhmlab

    src = (ROOT / "src").resolve()
    if src not in Path(rhmlab.__file__).resolve().parents:
        raise SystemExit(f"rhmlab was imported from {rhmlab.__file__}, not from {src}")
    import tracer as tracing
    from workloads import WORKLOADS

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.scale, work)
    result: dict = {"ready_at": time.monotonic()}
    if args.mode != "setup":
        tr = tracing.Tracer() if args.mode == "trace" else None
        before = tracing.snapshot()
        wrappers = tracing.installed_wrappers()
        if tr is not None:
            tr.install()
        try:
            passes = run_passes(wl, args.seconds, tr)
        finally:
            if tr is not None:
                tr.uninstall()
        # No wrapper may be in place before the passes or after them, and a
        # traced run must leave every rhmlab attribute as it found it.
        wrappers = sorted(set(wrappers + tracing.installed_wrappers()))
        changed = tracing.changed_since(before)
        failed, messages = passes["failed"], passes["messages"]
        if wrappers or changed:
            failed += 1
            messages.append(f"{wl.name}: wrappers left {wrappers}, attributes changed {changed}")
        extra_ops, fails = wl.finish()
        attempted = passes["attempted"] + extra_ops
        failed += len({op for op, _ in fails})
        messages += [f"{wl.name} [{op}]: {msg}" for op, msg in fails]
        result.update(
            mode=args.mode,
            walls=passes["walls"],
            scaled_walls=passes["scaled_walls"],
            ticks_per_pass=passes["ticks"] / len(passes["walls"]),
            median_burst_s=passes["median_bursts"],
            items_per_pass=wl.items,
            item=wl.item,
            rate_name=wl.rate_name,
            attempted=attempted,
            failed=failed,
            messages=messages,
            notes=wl.notes,
            outputs=wl.outputs,
            latencies_ms=wl.latencies_ms() if tr is None else [],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            wrappers_seen=wrappers,
            attributes_changed=changed,
            versions=_versions(),
        )
        if tr is not None:
            result["layers"] = tr.metrics(len(passes["walls"]))
            if args.spans:
                tr.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
