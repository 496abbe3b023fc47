"""Span recorder that times rhmlab's layers from outside the package.

``Tracer.install`` replaces every public function listed in ``LAYERS`` with a
wrapper, in every ``rhmlab`` module that holds a reference to it (the caller
looks the name up in its own module, so ``rhmlab.cli.learn_grammar`` and
``rhmlab.learner.learn_grammar`` are both replaced). Methods are replaced on
their class. Each wrapper records a span (id, parent id, name, start, end),
counts the call and feeds the counters in ``_HOOKS`` from its arguments and
return value. ``Tracer.uninstall`` puts every original object back.

Self time of a span is its duration minus the durations of its direct child
spans. The benchmark opens one root span per workload pass, so the self times
of all spans add up to the traced wall time exactly, and the root's self time
is the part no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# Layer (= rhmlab module) -> wrapped public functions; "Class.method" names
# are replaced on the class.
LAYERS = {
    "grammar": ("generate_rules", "sample_dataset", "sample_distinct_dataset",
                "parse_batch", "enumerate_all"),
    "corruption": ("corrupt", "leaf_likelihoods"),
    "bp": ("bp_marginals", "bp_posterior_sample_batch", "denoise_expectation"),
    "stats": ("TokenCovarianceAccumulator.update",
              "TokenCovarianceAccumulator.report", "token_tuple_correlation",
              "population_token_tuple_correlation",
              "correlation_recursion_check", "ensemble_correlation_std"),
    "kmeans": ("kmeans_fit",),
    "learner": ("learn_grammar", "build_context_stats", "cluster_tuples",
                "generate_from_learned", "population_context_collision",
                "measure_sample_complexity"),
    "onestep": ("one_step_gd", "synonym_column_cosine"),
    "io": ("save_dataset", "load_dataset", "write_csv"),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Counters reported next to the per-span calls and self times, with units.
COUNTERS = {
    "grammar.rows_sampled": "count",
    "grammar.rows_parsed": "count",
    "grammar.rows_enumerated": "count",
    "grammar.distinct_accept_ratio": "ratio",
    "grammar.enumerate_all.cap_errors": "count",
    "corruption.tokens": "count",
    "bp.posterior_draws": "count",
    "bp.impossible_evidence": "count",
    "stats.rows_accumulated": "count",
    "kmeans.points": "count",
    "kmeans.restarts": "count",
    "kmeans.best_n_iter": "count",
    "learner.partial_ratio": "ratio",
    "learner.grammar_redraws": "count",
    "learner.collision_checks_skipped": "count",
    "io.bytes_written": "count",
    "io.bytes_read": "count",
}

ROOT = "unit"
_MARK = "__perfbench_original__"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(path) -> int:
    return os.path.getsize(os.fspath(path))


def _on_sample(tr, args, kwargs, ds):
    tr.count["grammar.rows_sampled"] += ds.n_rows
    if tr.parent_name() == "grammar.sample_distinct_dataset":
        tr.count["_distinct_drawn"] += ds.n_rows


def _on_distinct(tr, args, kwargs, ds):
    tr.count["_distinct_kept"] += ds.n_rows


def _on_parse(tr, args, kwargs, result):
    tr.count["grammar.rows_parsed"] += len(result[0])


def _on_enumerate(tr, args, kwargs, ds):
    tr.count["grammar.rows_enumerated"] += ds.n_rows


def _on_corrupt(tr, args, kwargs, result):
    tr.count["corruption.tokens"] += result[0].size


def _on_posterior(tr, args, kwargs, draws):
    tr.count["bp.posterior_draws"] += draws.shape[0]


def _on_update(tr, args, kwargs, acc):
    tr.count["stats.rows_accumulated"] += len(_arg(args, kwargs, 1, "seqs"))


def _on_kmeans(tr, args, kwargs, fit):
    tr.count["kmeans.points"] += len(_arg(args, kwargs, 0, "points"))
    tr.count["kmeans.restarts"] += _arg(args, kwargs, 3, "n_restarts", 16)
    tr.count["kmeans.best_n_iter"] += fit.n_iter


def _on_cluster(tr, args, kwargs, part):
    tr.count["_partitions"] += 1
    tr.count["_partial"] += int(part.partial)


def _on_sweep(tr, args, kwargs, res):
    # Every record of one (m, trial) cell carries that cell's redraw count.
    cells = {(r.m, r.trial): r.collisions_resampled for r in res.records}
    tr.count["learner.grammar_redraws"] += sum(cells.values())


def _on_write(tr, args, kwargs, result):
    tr.count["io.bytes_written"] += _size(_arg(args, kwargs, 1, "path"))


def _on_csv(tr, args, kwargs, result):
    tr.count["io.bytes_written"] += _size(_arg(args, kwargs, 0, "path"))


def _on_load(tr, args, kwargs, result):
    tr.count["io.bytes_read"] += _size(_arg(args, kwargs, 0, "path"))


_HOOKS = {
    "grammar.sample_dataset": _on_sample,
    "grammar.sample_distinct_dataset": _on_distinct,
    "grammar.parse_batch": _on_parse,
    "grammar.enumerate_all": _on_enumerate,
    "corruption.corrupt": _on_corrupt,
    "bp.bp_posterior_sample_batch": _on_posterior,
    "stats.TokenCovarianceAccumulator.update": _on_update,
    "kmeans.kmeans_fit": _on_kmeans,
    "learner.cluster_tuples": _on_cluster,
    "learner.measure_sample_complexity": _on_sweep,
    "io.save_dataset": _on_write,
    "io.write_csv": _on_csv,
    "io.load_dataset": _on_load,
}

# Exceptions counted where they leave a span: (span, exception class) -> counter.
# Each exception object is counted once per counter, at the innermost span.
_ERRORS = {
    ("grammar.enumerate_all", "EnumerationCapError"): "grammar.enumerate_all.cap_errors",
    ("learner.population_context_collision", "EnumerationCapError"):
        "learner.collision_checks_skipped",
    ("bp.bp_marginals", "ImpossibleEvidenceError"): "bp.impossible_evidence",
    ("bp.bp_posterior_sample_batch", "ImpossibleEvidenceError"): "bp.impossible_evidence",
    ("bp.denoise_expectation", "ImpossibleEvidenceError"): "bp.impossible_evidence",
}


def rhmlab_namespaces() -> list:
    """Every loaded rhmlab module and every class defined in one."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "rhmlab" or name.startswith("rhmlab.")):
            continue
        out.append(mod)
        out.extend(v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == name)
    return out


def snapshot() -> dict:
    """Identity snapshot of every attribute of every rhmlab namespace."""
    return {id(ns): (ns, dict(vars(ns))) for ns in rhmlab_namespaces()}


def changed_since(snap: dict) -> list[str]:
    """Attributes that differ (by identity) from ``snap``, as dotted names."""
    bad = []
    for ns in rhmlab_namespaces():
        owner = getattr(ns, "__name__", repr(ns))
        before = snap.get(id(ns), (None, {}))[1]
        now = vars(ns)
        for key in set(before) | set(now):
            if before.get(key, _MARK) is not now.get(key, _MARK):
                bad.append(f"{owner}.{key}")
    return sorted(bad)


def installed_wrappers() -> list[str]:
    """Dotted names of rhmlab attributes that are tracer wrappers."""
    return sorted(
        f"{getattr(ns, '__name__', repr(ns))}.{key}"
        for ns in rhmlab_namespaces()
        for key, value in vars(ns).items()
        if hasattr(value, _MARK)
    )


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.self_s[frame[1]] += dur - frame[2]
        self.calls[frame[1]] += 1
        self.spans.append((frame[0], parent[0] if parent else -1, frame[1], start, end))

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside a root span; returns (result, seconds)."""
        frame = self._enter(ROOT)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._exit(frame, start, end)
        return result, end - start

    def _count_error(self, name: str, exc: BaseException) -> None:
        counter = _ERRORS.get((name, type(exc).__name__))
        if counter is None:
            return
        seen = getattr(exc, "_perfbench_counted", set())
        if counter not in seen:
            self.count[counter] += 1
            exc._perfbench_counted = seen | {counter}

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(name, exc)
                raise
            finally:
                self._exit(frame, start, time.perf_counter())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        namespaces = rhmlab_namespaces()
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"rhmlab.{layer}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = vars(owner)[attr]
                wrapper = self._wrap(f"{layer}.{qual}", orig)
                targets = [owner] if owner_name else namespaces
                for ns in targets:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self._patched.append((ns, key, orig))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            ns, key, orig = self._patched.pop()
            setattr(ns, key, orig)

    def metrics(self, n_units: int) -> dict[str, tuple[float, str]]:
        """Per-pass calls, self times and counters, plus unattributed time."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / n_units, "count")
            out[f"{name}.self_ms"] = (1e3 * self.self_s[name] / n_units, "ms")
        c = self.count
        c["grammar.distinct_accept_ratio"] = (
            c["_distinct_kept"] / c["_distinct_drawn"] if c["_distinct_drawn"] else 0.0
        )
        c["learner.partial_ratio"] = (
            c["_partial"] / c["_partitions"] if c["_partitions"] else 0.0
        )
        for name, unit in COUNTERS.items():
            value = c[name] if unit == "ratio" else c[name] / n_units
            out[name] = (value, unit)
        out["unattributed_ms"] = (1e3 * self.self_s[ROOT] / n_units, "ms")
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span; ``parent`` is -1 for root spans."""
        keys = ("id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
