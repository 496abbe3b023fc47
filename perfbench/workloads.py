"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``__init__`` (the
set-up that ``setup_s`` times), then ``run_unit`` performs one pass of timed
work, and ``check`` verifies that pass's outputs outside the timed region.
``check`` returns ``(operation, message)`` pairs, one per failed check; an
operation fails once however many of its checks fail. Every pass of one seed
repeats identical work, so passes are compared with the first pass as well as
with the reference recorded for the default seed.

Calls into rhmlab go through module attributes (``grammar.parse_batch``, not a
name imported at load time) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

import hostspeed
from rhmlab import bp, cli, corruption, grammar, learner, stats

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
DEFAULT_SEED = REFERENCE["default_seed"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _unit_interval(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _non_increasing(xs) -> bool:
    return all(b <= a for a, b in zip(xs, xs[1:]))


class Workload:
    name = ""
    item = ""  # what one unit of items_per_s is
    rate_name = ""  # the workload's own name for items_per_s
    items = 0  # items per pass
    ops = 0  # checked operations per pass

    def __init__(self, seed: int, scale: str, work: Path):
        self.seed = seed
        self.work = work
        self.notes: list[str] = []
        self.outputs: dict = {}  # first pass's outputs
        if seed == DEFAULT_SEED and scale == "full":
            self.ref = REFERENCE["workloads"][self.name]
        else:
            self.ref = None
            self.notes.append(
                f"{self.name}: reference check not run: it is recorded for seed "
                f"{DEFAULT_SEED} at full scale; invariants checked instead"
            )

    def compare(self, op_of, outputs: dict) -> list[tuple[str, str]]:
        """Failures of ``outputs`` against pass 1 and, if recorded, the
        reference; ``op_of(key)`` names the operation that produced a key."""
        if not self.outputs:
            self.outputs = outputs
        fails = [(op_of(k), f"{k} differs from pass 1")
                 for k, v in outputs.items() if v != self.outputs[k]]
        if self.ref is not None:
            fails += [(op_of(k), f"{k} = {v!r}, reference {self.ref.get(k)!r}")
                      for k, v in outputs.items()
                      if k not in self.ref or not self._matches(k, v)]
        return fails

    def _matches(self, key, value) -> bool:
        return value == self.ref[key]

    def finish(self) -> tuple[int, list[tuple[str, str]]]:
        """Checks made once after all passes: (operations, failures)."""
        return 0, []

    def latencies_ms(self) -> list[float]:
        return []


class Sweep(Workload):
    """``rhmlab sweep --threads 1`` on the criterion-6 depth-2 grid."""

    name = "sweep"
    rate_name = "cells_per_s"
    item = "(m, trial) cells"
    ops = 1
    FILES = ("sweep_summary.csv", "sweep_trials.csv")

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        cfg = {"depth": 2, "branching": 2, "vocab_size": 16,
               "m_list": [2, 3, 4, 6, 8], "trials": 5, "seed": seed}
        if scale == "tiny":
            cfg.update(m_list=[2, 3], trials=2, grid_span=2.0)
        self.items = len(cfg["m_list"]) * cfg["trials"]
        self.config = work / "sweep.json"
        self.config.write_text(json.dumps({"sweep": cfg}))
        self.out = work / "sweep-out"

    def run_unit(self):
        return cli.run(["sweep", "--config", str(self.config), "--out", str(self.out),
                        "--threads", "1"])

    def check(self, code):
        if code != 0:
            return [("sweep", f"exit code {code}")]
        fails = self.compare(lambda k: "sweep",
                             {f: _sha256(self.out / f) for f in self.FILES})
        curves: dict[tuple, list[tuple[int, float]]] = {}
        for r in _rows(self.out / "sweep_trials.csv"):
            rec, acc, lvl = float(r["recovery"]), float(r["accuracy"]), int(r["level"])
            # The last level has no clustering stage, so its recovery is NaN.
            if not (_unit_interval(rec) or (math.isnan(rec) and lvl == 2)):
                fails.append(("sweep", f"recovery {rec} outside [0, 1]"))
            if not _unit_interval(acc):
                fails.append(("sweep", f"accuracy {acc} outside [0, 1]"))
            curves.setdefault((r["m"], r["n_samples"], r["trial"]), []).append((lvl, acc))
        fails += [("sweep", f"accuracy rises with level at (m, P, trial) = {key}")
                  for key, pts in curves.items()
                  if not _non_increasing([a for _, a in sorted(pts)])]
        return fails


def _every_token_follows_first_tuple(rs) -> bool:
    """Whether every symbol can appear at leaf ``branching``, the token that
    follows the first s-tuple: follow the tree path from the root down."""
    p = rs.params
    syms = np.arange(p.vocab_size)
    for level in range(p.depth, 0, -1):
        child = (p.branching // p.branching ** (level - 1)) % p.branching
        syms = np.unique(rs.rules_at(level)[syms][:, :, child])
    return syms.size == p.vocab_size


class Corpus(Workload):
    """The README CLI pipeline on one depth-5 grammar: sample (about 1e5 text
    rows, ``distinct`` left at ``auto``), then stats, learn and onestep, each
    loading the dataset file."""

    name = "corpus"
    rate_name = "rows_per_s"
    item = "corpus rows"
    ops = 4
    FILES = {"sample": ("dataset.txt",), "stats": ("correlations.csv", "theory.csv"),
             "learn": ("learn_summary.csv", "accuracy.csv"), "onestep": ("onestep.csv",)}

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        depth, self.items = (5, 100_000) if scale == "full" else (3, 2_000)
        # onestep exits 2 by design when some token never follows the first
        # tuple (the one-step model is undefined then), so grammar seeds are
        # drawn until every token can occur there.
        for attempt in itertools.count():
            gseed = seed if attempt == 0 else int(
                np.random.default_rng([seed, 3, attempt]).integers(2**63))
            params = grammar.GrammarParams(depth, 2, 16, 4, seed=gseed)
            if _every_token_follows_first_tuple(grammar.generate_rules(params)):
                break
        if attempt:
            self.notes.append(f"corpus: grammar seed {gseed} after {attempt} redraws "
                              "(one-step training needs every token after the first tuple)")
        g = {"grammar": {"depth": depth, "branching": 2, "vocab_size": 16,
                         "n_synonyms": 4, "seed": gseed}}
        configs = {"grammar-cfg": g, "sample": {"n_samples": self.items},
                   "learn": {"learn": {}}, "onestep": {}}
        for stem, cfg in configs.items():
            (work / f"{stem}.json").write_text(json.dumps(cfg))
        code = cli.run(["gen-grammar", "--config", str(work / "grammar-cfg.json"),
                        "--out", str(work)])
        if code != 0:
            raise RuntimeError(f"corpus: gen-grammar exited with code {code}")
        common = ["--grammar", str(work / "grammar.json"), "--seed", str(seed)]
        data = ["--data", str(work / "sample" / "dataset.txt")]
        self.steps = {
            "sample": common + ["--config", str(work / "sample.json")],
            "stats": common + data,
            "learn": common + data + ["--config", str(work / "learn.json")],
            "onestep": common + data + ["--config", str(work / "onestep.json")],
        }

    def run_unit(self):
        return {step: cli.run([step, *args, "--out", str(self.work / step)])
                for step, args in self.steps.items()}

    def check(self, codes):
        fails = [(step, f"exit code {code}") for step, code in codes.items() if code]
        if fails:
            return fails
        fails = self.compare(lambda k: k.split("/")[0], {
            f"{step}/{f}": _sha256(self.work / step / f)
            for step, files in self.FILES.items() for f in files})
        learn, onestep = self.work / "learn", self.work / "onestep"
        fails += [("learn", f"recovery {r['recovery']} outside [0, 1]")
                  for r in _rows(learn / "learn_summary.csv")
                  if not _unit_interval(float(r["recovery"]))]
        accs = [float(r["accuracy"]) for r in _rows(learn / "accuracy.csv")]
        if not (all(map(_unit_interval, accs)) and _non_increasing(accs)):
            fails.append(("learn", f"accuracy by level {accs} not in [0, 1] and non-increasing"))
        fails += [("onestep", f"one-step identity deviation {r['max_identity_dev']} > 1e-10")
                  for r in _rows(onestep / "onestep.csv")
                  if float(r["max_identity_dev"]) > 1e-10]
        fails += [("stats", "C_empirical is not finite")
                  for r in _rows(self.work / "stats" / "theory.csv")
                  if not math.isfinite(float(r["C_empirical"]))]
        return fails


class Denoise(Workload):
    """Exact Bayes denoising of one depth-4 grammar's strings, corrupted by the
    masking and the uniform kernel at several ``beta_bar`` levels."""

    name = "denoise"
    rate_name = "strings_per_s"
    item = "noisy strings"
    KINDS = ("masking", "uniform")
    BETAS = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        n_clean, self.n_draws = (200, 32) if scale == "full" else (10, 8)
        self.rs = grammar.generate_rules(grammar.GrammarParams(4, 2, 16, 4, seed=seed))
        self.clean = grammar.sample_dataset(
            self.rs, n_clean, np.random.default_rng([seed, 0]), with_latents=False
        ).sequences
        self.roots = grammar.parse_batch(self.rs, self.clean)[1][-1][:, 0]
        self.specs = [corruption.NoiseSpec(kind=k, beta_bar=b)
                      for k in self.KINDS for b in self.BETAS]
        self.items = self.ops = len(self.specs) * n_clean
        self.latency: list[float] = []

    def run_unit(self):
        rs, v, depth = self.rs, self.rs.params.vocab_size, self.rs.params.depth
        rng = np.random.default_rng([self.seed, 1])
        noisy = np.empty((self.items, self.clean.shape[1]), dtype=self.clean.dtype)
        row_dev = np.empty(self.items)
        draws_ok = np.empty(self.items, dtype=bool)
        root_changed = np.empty(self.items)
        argmax_level = np.empty(self.items, dtype=np.int64)
        clock = time.perf_counter
        j = 0
        for spec in self.specs:
            for i, x in enumerate(self.clean):
                t0, h0 = clock(), hostspeed.handler_total_s
                noisy[j] = corruption.corrupt(x, spec, v, rng)[0]
                marg = bp.denoise_expectation(rs, noisy[j], spec)
                lik = corruption.leaf_likelihoods(noisy[j], spec, v)
                draws = bp.bp_posterior_sample_batch(rs, lik, self.n_draws, rng)
                levels, latents, _ = grammar.parse_batch(
                    rs, np.vstack([draws, marg.argmax(axis=1)]))
                self.latency.append(clock() - t0 - (hostspeed.handler_total_s - h0))
                row_dev[j] = np.abs(marg.sum(axis=1) - 1.0).max()
                draws_ok[j] = bool((levels[:-1] == depth).all())
                root_changed[j] = np.mean(latents[-1][:-1, 0] != self.roots[i])
                argmax_level[j] = levels[-1]
                j += 1
        return noisy, row_dev, draws_ok, root_changed, argmax_level

    def check(self, result):
        noisy, row_dev, draws_ok, root_changed, argmax_level = result
        self.noisy = noisy
        fails = [(str(j), f"marginal rows sum to 1 +- {row_dev[j]:.2e}")
                 for j in np.flatnonzero(row_dev > 1e-12)]
        fails += [(str(j), "a posterior draw does not parse fully")
                  for j in np.flatnonzero(~draws_ok)]
        n = len(self.clean)
        per_level = {}
        for k, spec in enumerate(self.specs):
            block = slice(k * n, (k + 1) * n)
            per_level[f"{spec.kind}@{spec.beta_bar}"] = {
                "root_class_change": float(root_changed[block].mean()),
                "argmax_grammatical_by_level": [
                    float(np.mean(argmax_level[block] >= lvl))
                    for lvl in range(1, self.rs.params.depth + 1)],
            }
        if not self.outputs:
            self.outputs = {"per_level": per_level}
        elif per_level != self.outputs["per_level"]:
            fails.append(("pass", "per-level results differ from pass 1"))
        return fails

    def finish(self):
        """Summed exact log evidence of pass 1's noisy strings: within 1e-9
        per string (criterion 1's tolerance) of the reference, and each
        string's log evidence finite and at most 0."""
        n = len(self.clean)
        log_ev = []
        for k, spec in enumerate(self.specs):
            for x in self.noisy[k * n:(k + 1) * n]:
                lik = corruption.leaf_likelihoods(x, spec, self.rs.params.vocab_size)
                log_ev.append(bp.bp_marginals(self.rs, lik).log_evidence)
        total = math.fsum(log_ev)
        self.outputs["log_evidence_sum"] = total
        fails = [("log-evidence", f"string {j} has log evidence {x}")
                 for j, x in enumerate(log_ev) if not (math.isfinite(x) and x <= 1e-12)]
        if self.ref is not None:
            want = self.ref.get("log_evidence_sum")
            if want is None or abs(total - want) > 1e-9 * len(log_ev):
                fails.append(("log-evidence", f"summed log evidence {total!r}, reference {want!r}"))
        return 1, fails

    def latencies_ms(self):
        return [1e3 * t for t in self.latency]


class Population(Workload):
    """Exact, enumeration-based statistics over many grammar draws."""

    name = "population"
    rate_name = "draws_per_s"
    item = "grammar draws"
    COLLISION_M = (2, 3, 4, 6)  # depth 3, v=16: m=6 exceeds the enumeration cap

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.n_rec, self.n_ens = (500, 200) if scale == "full" else (60, 30)
        ms = self.COLLISION_M if scale == "full" else (2, 6)
        rng = np.random.default_rng([seed, 2])
        self.grammars = {
            m: grammar.generate_rules(grammar.GrammarParams(
                3, 2, 16, m, seed=int(rng.integers(2**63))))
            for m in ms}
        self.items = self.n_rec + self.n_ens + len(ms)
        self.ops = 2 + len(ms)
        self.theory = stats.theory_prediction(
            grammar.GrammarParams(2, 2, 16, 4), 2).corr_magnitude

    def run_unit(self):
        rec = stats.correlation_recursion_check(
            8, 2, 2, level=2, n_grammars=self.n_rec, seed=self.seed)
        ens = stats.ensemble_correlation_std(
            16, 2, 4, level=2, n_grammars=self.n_ens, seed=self.seed)
        collisions = {}
        for m, rs in self.grammars.items():
            try:
                collisions[m] = learner.population_context_collision(rs)
            except grammar.EnumerationCapError:
                collisions[m] = "cap exceeded"
        return rec.empirical_ratio / rec.predicted_ratio, ens / self.theory, collisions

    def check(self, result):
        rec_ratio, ens_ratio, collisions = result
        fails = []
        if abs(rec_ratio - 1) > 0.15:
            fails.append(("recursion_ratio", f"{rec_ratio} is not within 0.15 of 1 (criterion 3)"))
        if not 0.5 <= ens_ratio <= 2.0:
            fails.append(("ensemble_ratio", f"{ens_ratio} is not in [0.5, 2] (criterion 4)"))
        outputs = {"recursion_ratio": rec_ratio, "ensemble_ratio": ens_ratio}
        for m, hit in collisions.items():
            key = f"collision m={m}"
            outputs[key] = hit
            n = grammar.GrammarParams(3, 2, 16, m).n_derivations
            too_big = n > grammar.DEFAULT_ENUMERATION_CAP
            if (hit == "cap exceeded") != too_big:
                fails.append((key, f"gave {hit!r}"))
        return fails + self.compare(lambda k: k, outputs)

    def _matches(self, key, value):
        # Ratios are floating-point results: equal to the reference up to
        # summation-order changes, not bit for bit.
        if key.endswith("_ratio"):
            return abs(value - self.ref[key]) <= 1e-9 * abs(self.ref[key])
        return value == self.ref[key]


WORKLOADS = {w.name: w for w in (Sweep, Corpus, Denoise, Population)}
