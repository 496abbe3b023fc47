"""Experiment harness: subcommands, JSON configs, seeds, manifests, CSV output.

Every experiment is a pure function of (config, master seed): outputs are
byte-identical across re-runs, trial seeds are derived statelessly, and each
run writes a manifest recording the config hash, artifact versions, per-trial
seeds, and a SHA-256 of every output file. Every config is checked against
``config_schema.json`` (:mod:`rhmlab.config`) before any work starts; invalid
configs exit 2 with one machine-readable JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bp import bp_marginals
from .config import _canonical_json, _config_schema, _schema_errors
from .corruption import NoiseSpec, corrupt, cumulative_keep_prob, leaf_likelihoods
from .grammar import (
    Dataset,
    GrammarParams,
    RuleSet,
    _parse_levels,
    generate_rules,
    sample_dataset,
    sample_distinct_dataset,
)
from .io import load_dataset, load_grammar, save_dataset, save_grammar, write_csv
from .learner import (
    SweepConfig,
    _learning_step,
    measure_sample_complexity,
    true_tuple_classes,
)
from .onestep import one_step_gradient, synonym_column_cosine, tuple_next_token_pairs
from .seeding import derive_seed
from .stats import (
    theory_prediction,
    token_token_correlation,
    token_tuple_correlation,
)


class ConfigError(ValueError):
    pass


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_config(path: str | None) -> dict:
    """The config at ``path`` (``{}`` when none), checked against
    ``config_schema.json`` before any work starts."""
    cfg = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(p.read_text(), parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = next(_schema_errors(cfg, _config_schema()), None)
    if error is not None:
        raise ConfigError(error)
    return cfg


def _required(cfg: dict, key: str):
    """``cfg[key]`` for a key this experiment cannot run without."""
    if key not in cfg:
        raise ConfigError(f"this experiment needs the config key '{key}'")
    return cfg[key]


def _grammar_params(cfg: dict, seed: int) -> GrammarParams:
    grammar = {"seed": seed, **_required(cfg, "grammar")}
    try:
        return GrammarParams(**grammar)
    except ValueError as exc:
        raise ConfigError(f"config key 'grammar' is invalid: {exc}") from exc


def _require_grammar(args, cfg: dict, seed: int) -> RuleSet:
    if args.grammar:
        if not Path(args.grammar).exists():
            raise ConfigError(f"grammar file not found: {args.grammar}")
        return load_grammar(args.grammar)
    return generate_rules(_grammar_params(cfg, seed))


def _require_data(args, rs: RuleSet, allow_masked: bool = False) -> np.ndarray:
    """Rows of ``--data``, whose header must match the grammar's shape and
    carry its content hash or ``-`` (no recorded provenance). Masked tokens
    (``vocab_size``) are refused unless ``allow_masked``."""
    if not args.data:
        raise ConfigError("this experiment needs --data")
    if not Path(args.data).exists():
        raise ConfigError(f"data file not found: {args.data}")
    seqs, header = load_dataset(args.data)
    p = rs.params
    if (header["seq_len"], header["vocab_size"]) != (p.seq_len, p.vocab_size):
        raise ConfigError(
            f"data file {args.data} has seq_len {header['seq_len']} and "
            f"vocab_size {header['vocab_size']}; the grammar needs "
            f"{p.seq_len} and {p.vocab_size}"
        )
    if header["grammar_hash"] not in ("-", rs.content_hash()):
        raise ConfigError(
            f"data file {args.data} was sampled under grammar "
            f"{header['grammar_hash']}, not this one ({rs.content_hash()})"
        )
    if not allow_masked and (seqs == p.vocab_size).any():
        raise ConfigError(
            f"data file {args.data} holds masked tokens ({p.vocab_size}); "
            f"only 'corrupt' with masking noise reads masked rows"
        )
    return seqs


def _write_manifest(
    out_dir: Path,
    cfg: dict,
    seed: int,
    seeds: dict,
    grammar_hash: str | None,
    t0: float,
) -> None:
    outputs = {}
    for f in sorted(out_dir.iterdir()):
        if f.name == "manifest.json" or not f.is_file():
            continue
        outputs[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    manifest = {
        "config_hash": hashlib.sha256(_canonical_json(cfg).encode()).hexdigest(),
        "master_seed": seed,
        "seeds": seeds,
        "grammar_hash": grammar_hash,
        "versions": {
            "rhmlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_clock_s": time.time() - t0,
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def _run_gen_grammar(args, cfg, out_dir, seed):
    rs = generate_rules(_grammar_params(cfg, seed))
    save_grammar(rs, out_dir / "grammar.json")
    return rs.content_hash(), {}


def _run_sample(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    n = _required(cfg, "n_samples")
    distinct = cfg.get("distinct", "auto")
    if distinct == "auto":
        # Distinct rows when feasible without long rejection runs.
        distinct = n <= rs.params.n_derivations // 2
    rng = np.random.default_rng(derive_seed(seed, 0, "sample"))
    sampler = sample_distinct_dataset if distinct else sample_dataset
    ds = sampler(rs, n, rng, with_latents=False)
    save_dataset(ds, out_dir / "dataset.txt")
    return rs.content_hash(), {"distinct": distinct}


def _run_corrupt(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    spec = NoiseSpec(**_required(cfg, "noise"))
    seqs = _require_data(args, rs, allow_masked=spec.kind == "masking")
    rng = np.random.default_rng(derive_seed(seed, 0, "corrupt"))
    noisy, hits = corrupt(seqs, spec, rs.params.vocab_size, rng)
    ds = Dataset(sequences=noisy, params=rs.params,
                 meta={"grammar_hash": rs.content_hash()})
    save_dataset(ds, out_dir / "corrupted.txt")
    rows, cols = np.nonzero(hits)
    write_csv(out_dir / "hits.csv", ["row", "position"],
              list(zip(rows.tolist(), cols.tolist())))
    return rs.content_hash(), {"keep_prob": cumulative_keep_prob(spec)}


def _run_bp(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    tokens = _required(cfg, "sequence").split()
    p = rs.params
    if len(tokens) != p.seq_len:
        raise ConfigError(f"config key 'sequence' must have {p.seq_len} tokens")
    # '?' is the mask token, whose likelihood row is all ones at any beta_bar.
    symbols = {str(sym): sym for sym in range(p.vocab_size)} | {"?": p.vocab_size}
    for i, tok in enumerate(tokens):
        if tok not in symbols:
            raise ConfigError(f"config key 'sequence': token {tok!r} at position "
                              f"{i} is neither '?' nor a symbol 0..{p.vocab_size - 1}")
    lik = leaf_likelihoods(np.array([symbols[tok] for tok in tokens]),
                           NoiseSpec(kind="masking", beta_bar=1.0), p.vocab_size)
    state = bp_marginals(rs, lik)
    rows = []
    for pos in range(p.seq_len):
        for sym in range(p.vocab_size):
            rows.append((pos, sym, float(state.marginals[0][pos, sym])))
    write_csv(out_dir / "marginals.csv", ["position", "symbol", "probability"], rows)
    return rs.content_hash(), {"log_evidence": state.log_evidence}


def _run_stats(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    p = rs.params
    if args.level is not None:
        level, name = args.level, "--level"
    else:
        level, name = cfg.get("level", 2), "config key 'level'"
    if not 2 <= level <= p.depth:
        raise ConfigError(f"{name} is {level}; it must be in 2..{p.depth} "
                          "(the grammar's depth)")
    seqs = _require_data(args, rs)
    rep = token_token_correlation(seqs, p.branching, p.depth, p.vocab_size)
    write_csv(
        out_dir / "correlations.csv",
        ["distance", "norm", "n_pairs", "floor"],
        [
            (int(d), float(v), int(k), rep.noise_floor)
            for d, v, k in zip(rep.distances, rep.values, rep.n_pairs)
        ],
    )
    tuple_syms = None
    for lvl, (parents, _, valid) in enumerate(_parse_levels(rs, seqs), 1):
        if lvl == level - 2:
            tuple_syms = parents
    # The manifest counts the rows that do not parse fully: any one of them
    # leaves C_empirical NaN.
    ungrammatical = int(np.count_nonzero(~valid))
    rows = []
    if not ungrammatical:
        # The levels below the one read are not kept.
        latents = None if level == 2 else [None] * (level - 3) + [tuple_syms]
        ds = Dataset(sequences=seqs, params=p, latents=latents)
        emp = token_tuple_correlation(ds, level)
        c_emp = emp.rms
    else:
        c_emp = float("nan")  # corrupted/ungrammatical rows have no latents
    th = theory_prediction(p, level, n_samples=seqs.shape[0])
    rows.append((level, th.corr_magnitude, c_emp, th.sample_complexity))
    write_csv(
        out_dir / "theory.csv",
        ["level", "C_theory", "C_empirical", "P_level"],
        rows,
    )
    return rs.content_hash(), {"level": level, "ungrammatical_rows": ungrammatical}


def _training_rows(args, cfg: dict, rs: RuleSet, seed: int) -> np.ndarray:
    """Rows of ``--data``, else ``n_samples`` rows drawn under the
    experiment's own seed tag."""
    if args.data:
        return _require_data(args, rs)
    if "n_samples" not in cfg:
        raise ConfigError("this experiment needs --data or the config key 'n_samples'")
    rng = np.random.default_rng(derive_seed(seed, 0, f"{args.experiment}-data"))
    return sample_dataset(rs, cfg["n_samples"], rng, with_latents=False).sequences


def _run_learn(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    options = cfg.get("learn", {})
    n_eval = options.get("n_eval", 1024)
    seqs = _training_rows(args, cfg, rs, seed)
    model, acc = _learning_step(rs, seqs, options.get("variant", "single_token"),
                                derive_seed(seed, 0, "learn"),
                                derive_seed(seed, 0, "learn-eval"), n_eval)
    # Every observed code is clustered, so n_fallback is always 0; the column
    # stays so that the file format does not change.
    write_csv(
        out_dir / "learn_summary.csv",
        ["stage", "recovery", "n_codes", "partial", "n_fallback"],
        [
            (stage, model.recovery[stage - 1], int(part.codes.size), int(part.partial), 0)
            for stage, part in enumerate(model.levels, 1)
        ],
    )
    write_csv(out_dir / "accuracy.csv", ["level", "accuracy"], list(enumerate(acc, 1)))
    # What the learner decided at each stage: the winning k-means restart,
    # its Lloyd iterations and inertia, and how many distinct restarts ran.
    keys = ("restart", "n_iter", "inertia", "restarts_run", "partial")
    stages = {
        f"stage={stage}": {key: getattr(part, key) for key in keys}
        for stage, part in enumerate(model.levels, 1)
    }
    return rs.content_hash(), {
        "n_rows": int(seqs.shape[0]), "n_eval": n_eval, "stages": stages,
    }


def _run_onestep(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    p = rs.params
    seqs = _training_rows(args, cfg, rs, seed)
    codes, labels = tuple_next_token_pairs(seqs, p.branching, p.vocab_size)
    grad = one_step_gradient(codes, labels, p.vocab_size)
    classes = true_tuple_classes(rs, 1, grad.tuple_codes)
    rows = []
    for eta in cfg.get("eta", [0.1, 1.0, 10.0]):
        model = grad.step(eta)
        dev = float(np.abs(model.delta - model.eta * model.empirical_corr).max())
        rows.append((model.eta, dev, synonym_column_cosine(model, classes)))
    write_csv(
        out_dir / "onestep.csv",
        ["eta", "max_identity_dev", "mean_synonym_cosine"],
        rows,
    )
    return rs.content_hash(), {"n_rows": int(seqs.shape[0])}


def _run_sweep(args, cfg, out_dir, seed):
    sweep = {"seed": seed, **_required(cfg, "sweep")}
    grids = sweep.get("p_grid")
    if grids is not None:
        # JSON object keys are strings: look each m's grid up by its decimal name.
        names = {str(m): m for m in sweep["m_list"]}
        for name in grids:
            if name not in names:
                raise ConfigError(f"config key 'sweep.p_grid.{name}' names no m in sweep.m_list")
        sweep["p_grid"] = {names[name]: grid for name, grid in grids.items()}
    try:
        sc = SweepConfig(**sweep)
    except ValueError as exc:
        raise ConfigError(f"config key 'sweep' is invalid: {exc}") from exc
    res = measure_sample_complexity(sc, n_workers=args.threads)
    rows = []
    for r in res.records:
        for lvl in range(1, sc.depth + 1):
            rec = r.recovery[lvl - 1] if lvl < sc.depth else float("nan")
            rows.append(
                (r.m, r.n_samples, r.trial, lvl, rec, r.accuracy[lvl - 1])
            )
    write_csv(
        out_dir / "sweep_trials.csv",
        ["m", "n_samples", "trial", "level", "recovery", "accuracy"],
        rows,
    )
    srows = []
    for s in res.summaries:
        srows.append(
            (
                s.m,
                -1 if s.p_star_cluster is None else s.p_star_cluster,
                -1 if s.p_star_accuracy is None else s.p_star_accuracy,
                float("nan") if res.slope_cluster is None else res.slope_cluster,
                float("nan") if res.slope_cluster_stderr is None else res.slope_cluster_stderr,
                float("nan") if res.slope_accuracy is None else res.slope_accuracy,
                float("nan") if res.slope_accuracy_stderr is None else res.slope_accuracy_stderr,
            )
        )
    write_csv(
        out_dir / "sweep_summary.csv",
        [
            "m",
            "p_star_cluster",
            "p_star_accuracy",
            "slope_cluster",
            "slope_cluster_stderr",
            "slope_accuracy",
            "slope_accuracy_stderr",
        ],
        srows,
    )
    # One entry per (m, trial) cell: its grammar seed, how often the grammar
    # was redrawn after a context collision, and whether that check ran.
    seeds = {
        f"m={r.m},trial={r.trial}": {
            "grammar_seed": r.grammar_seed,
            "grammar_redraws": r.collisions_resampled,
            "collision_check": "ran" if r.collision_checked else "skipped above cap",
        }
        for r in res.records
    }
    return None, seeds


# Each experiment's runner and the input-file flags it reads.
_RUNNERS = {
    "gen-grammar": (_run_gen_grammar, ()),
    "sample": (_run_sample, ("grammar",)),
    "corrupt": (_run_corrupt, ("grammar", "data")),
    "bp": (_run_bp, ("grammar",)),
    "stats": (_run_stats, ("grammar", "data")),
    "learn": (_run_learn, ("grammar", "data")),
    "onestep": (_run_onestep, ("grammar", "data")),
    "sweep": (_run_sweep, ()),
}
EXPERIMENTS = tuple(_RUNNERS)


def _default_threads() -> int:
    env = os.environ.get("RHMLAB_THREADS")
    if env is None:
        return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"RHMLAB_THREADS must be a positive integer, not {env!r}")
    return int(env)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ConfigError`, so
    that they exit 2 with one JSON line like every other bad input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhmlab",
        description="Random-hierarchy-grammar experiments; CSV columns are "
        "documented per subcommand in the README and config_schema.json.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, files) in _RUNNERS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        sp.add_argument("--out", default=None, help="output directory (default: key 'out')")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes (default: RHMLAB_THREADS or CPU count)",
        )
        if "grammar" in files:
            sp.add_argument("--grammar", default=None, help="grammar JSON file")
        if "data" in files:
            sp.add_argument("--data", default=None, help="dataset file")
        if name == "stats":
            sp.add_argument("--level", type=int, default=None,
                            help="token-tuple correlation level (default 2)")
    return parser


def run(argv: list[str] | None = None) -> int:
    t0 = time.time()
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"rhmlab {args.experiment}: unrecognized "
                              f"arguments: {' '.join(extra)}")
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if not 0 <= seed < 2**64:
            raise ConfigError("--seed must fit in 64 bits")
        if args.threads is None:
            args.threads = _default_threads()
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, not {args.threads}")
        out_dir = Path(args.out if args.out is not None else cfg.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        grammar_hash, seeds = _RUNNERS[args.experiment][0](args, cfg, out_dir, seed)
        _write_manifest(out_dir, cfg, seed, seeds, grammar_hash, t0)
    except (ConfigError, ValueError, OSError, MemoryError, OverflowError) as exc:
        # numpy raises a MemoryError subclass; report the builtin name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
