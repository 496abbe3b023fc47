"""Experiment harness: subcommands, JSON configs, seeds, manifests, CSV output.

Every experiment is a pure function of (config, master seed): outputs are
byte-identical across re-runs, trial seeds are derived statelessly, and each
run writes a manifest recording the config hash, artifact versions, per-trial
seeds, and a SHA-256 of every output file. Invalid configs exit 2 with one
machine-readable JSON error line on stderr. See ``config_schema.json`` next to
this module for the config keys.
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
from .corruption import NoiseSpec, corrupt, cumulative_keep_prob
from .grammar import (
    Dataset,
    GrammarParams,
    RuleSet,
    accuracy,
    generate_rules,
    parse_batch,
    sample_dataset,
    sample_distinct_dataset,
)
from .io import load_dataset, load_grammar, save_dataset, save_grammar, write_csv
from .learner import (
    SweepConfig,
    generate_from_learned,
    learn_grammar,
    measure_sample_complexity,
    true_tuple_classes,
)
from .onestep import one_step_gd, synonym_column_cosine, tuple_next_token_pairs
from .seeding import derive_seed
from .stats import (
    theory_prediction,
    token_token_correlation,
    token_tuple_correlation,
)

EXPERIMENTS = (
    "gen-grammar",
    "sample",
    "corrupt",
    "bp",
    "stats",
    "learn",
    "onestep",
    "sweep",
)


class ConfigError(ValueError):
    pass


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _config_value(cfg: dict, key: str, convert, default):
    """``convert(cfg.get(key, default))``; a value of the wrong type or form
    is a :class:`ConfigError`."""
    try:
        return convert(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value for '{key}': {exc}") from exc


def _float_list(value) -> list[float]:
    """A number or a list of numbers, as a list of floats."""
    if isinstance(value, (int, float)):
        return [float(value)]
    return [float(x) for x in value]


def _grammar_params(cfg: dict, seed: int) -> GrammarParams:
    g = cfg.get("grammar")
    if not isinstance(g, dict):
        raise ConfigError("config needs a 'grammar' object")
    try:
        return GrammarParams(
            depth=int(g["depth"]),
            branching=int(g["branching"]),
            vocab_size=int(g["vocab_size"]),
            n_synonyms=int(g["n_synonyms"]),
            seed=int(g.get("seed", seed)),
        )
    except KeyError as exc:
        raise ConfigError(f"grammar config missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grammar parameters: {exc}") from exc


def _noise_spec(cfg: dict) -> NoiseSpec:
    n = cfg.get("noise")
    if not isinstance(n, dict):
        raise ConfigError("config needs a 'noise' object")
    kind = n.get("kind")
    try:
        if "schedule" in n:
            sched = n["schedule"]
            if isinstance(sched, dict):
                if sched.get("type") != "linear":
                    raise ConfigError("only the 'linear' named schedule exists")
                steps = sched.get("n_steps", sched.get("T"))
                if steps is None:
                    raise ConfigError("linear schedule needs 'n_steps' (alias 'T')")
                return NoiseSpec.linear_schedule(kind, int(steps))
            return NoiseSpec(kind=kind, schedule=tuple(float(b) for b in sched))
        return NoiseSpec(kind=kind, beta_bar=float(n["beta_bar"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise spec: {exc}") from exc


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
    n = _config_value(cfg, "n_samples", int, 0)
    if n <= 0:
        raise ConfigError("config needs a positive 'n_samples'")
    distinct = cfg.get("distinct", "auto")
    if distinct == "auto":
        # Distinct rows when feasible without long rejection runs.
        distinct = n <= rs.params.n_derivations // 2
    rng = np.random.default_rng(derive_seed(seed, 0, "sample"))
    sampler = sample_distinct_dataset if distinct else sample_dataset
    ds = sampler(rs, n, rng, with_latents=False)
    save_dataset(ds, out_dir / "dataset.txt", binary=bool(cfg.get("binary", False)))
    return rs.content_hash(), {"distinct": bool(distinct)}


def _run_corrupt(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    spec = _noise_spec(cfg)
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
    raw = cfg.get("sequence")
    if not isinstance(raw, str):
        raise ConfigError("config needs a 'sequence' string ('?' masks a token)")
    tokens = raw.split()
    p = rs.params
    if len(tokens) != p.seq_len:
        raise ConfigError(f"sequence must have {p.seq_len} tokens")
    lik = np.zeros((p.seq_len, p.vocab_size))
    for i, tok in enumerate(tokens):
        if tok == "?":
            lik[i] = 1.0
        else:
            val = int(tok)
            if not 0 <= val < p.vocab_size:
                raise ConfigError(f"token {val} out of range at position {i}")
            lik[i, val] = 1.0
    state = bp_marginals(rs, lik)
    rows = []
    for pos in range(p.seq_len):
        for sym in range(p.vocab_size):
            rows.append((pos, sym, float(state.marginals[0][pos, sym])))
    write_csv(out_dir / "marginals.csv", ["position", "symbol", "probability"], rows)
    return rs.content_hash(), {"log_evidence": state.log_evidence}


def _run_stats(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    seqs = _require_data(args, rs)
    p = rs.params
    rep = token_token_correlation(seqs, p.branching, p.depth, p.vocab_size)
    write_csv(
        out_dir / "correlations.csv",
        ["distance", "norm", "n_pairs", "floor"],
        [
            (int(d), float(v), int(k), rep.noise_floor)
            for d, v, k in zip(rep.distances, rep.values, rep.n_pairs)
        ],
    )
    level = args.level
    if level is None:
        level = _config_value(cfg, "level", int, 2)
    max_levels, latents, choices = parse_batch(rs, seqs)
    rows = []
    if np.all(max_levels == p.depth):
        ds = Dataset(sequences=seqs, params=p, latents=latents, choices=choices)
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
    return rs.content_hash(), {"level": level}


def _run_learn(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    p = rs.params
    lcfg = cfg.get("learn", {})
    if not isinstance(lcfg, dict):
        raise ConfigError("config 'learn' must be a JSON object")
    if args.data:
        seqs = _require_data(args, rs)
    else:
        n = _config_value(cfg, "n_samples", int, 0)
        if n <= 0:
            raise ConfigError("config needs 'n_samples' or --data")
        rng = np.random.default_rng(derive_seed(seed, 0, "learn-data"))
        seqs = sample_dataset(rs, n, rng, with_latents=False).sequences
    model = learn_grammar(
        seqs,
        p.depth,
        p.branching,
        p.vocab_size,
        variant=lcfg.get("variant", "single_token"),
        pooled=bool(lcfg.get("pooled", True)),
        seed=derive_seed(seed, 0, "learn"),
        truth=rs,
    )
    write_csv(
        out_dir / "learn_summary.csv",
        ["stage", "recovery", "n_codes", "partial", "n_fallback"],
        [
            (lv.stage, model.recovery[i], int(lv.codes.size),
             int(lv.partial), lv.n_fallback)
            for i, lv in enumerate(model.levels)
        ],
    )
    n_eval = _config_value(lcfg, "n_eval", int, 1024)
    gen = generate_from_learned(
        model, n_eval, np.random.default_rng(derive_seed(seed, 0, "learn-eval"))
    )
    write_csv(
        out_dir / "accuracy.csv",
        ["level", "accuracy"],
        [(lvl, accuracy(rs, gen, lvl)) for lvl in range(1, p.depth + 1)],
    )
    return rs.content_hash(), {"n_rows": int(seqs.shape[0]), "n_eval": n_eval}


def _run_onestep(args, cfg, out_dir, seed):
    rs = _require_grammar(args, cfg, seed)
    p = rs.params
    if args.data:
        seqs = _require_data(args, rs)
    else:
        n = _config_value(cfg, "n_samples", int, 0)
        if n <= 0:
            raise ConfigError("config needs 'n_samples' or --data")
        rng = np.random.default_rng(derive_seed(seed, 0, "onestep-data"))
        seqs = sample_dataset(rs, n, rng, with_latents=False).sequences
    etas = _config_value(cfg, "eta", _float_list, [0.1, 1.0, 10.0])
    codes, labels = tuple_next_token_pairs(seqs, p.branching, p.vocab_size)
    rows = []
    for eta in etas:
        model = one_step_gd(codes, labels, p.vocab_size, eta)
        dev = float(np.abs(model.delta - eta * model.empirical_corr).max())
        classes = true_tuple_classes(rs, 1, model.tuple_codes)
        rows.append((float(eta), dev, synonym_column_cosine(model, classes)))
    write_csv(
        out_dir / "onestep.csv",
        ["eta", "max_identity_dev", "mean_synonym_cosine"],
        rows,
    )
    return rs.content_hash(), {"n_rows": int(seqs.shape[0])}


def _sweep_config(cfg: dict, seed: int) -> SweepConfig:
    s = cfg.get("sweep")
    if not isinstance(s, dict):
        raise ConfigError("config needs a 'sweep' object")

    def pick(*names, default=None):
        for name in names:
            if name in s:
                return s[name]
        return default

    try:
        m_list = tuple(int(m) for m in s["m_list"])
        grid = pick("p_grid", "P_grid")
        sc = SweepConfig(
            depth=int(pick("depth", "L")),
            branching=int(pick("branching", "s", default=2)),
            vocab_size=int(pick("vocab_size", "v", default=16)),
            m_list=m_list,
            trials=int(s.get("trials", 5)),
            variant=s.get("variant", "single_token"),
            pooled=bool(s.get("pooled", True)),
            cluster_threshold=float(pick("cluster_threshold", "threshold",
                                         default=0.95)),
            accuracy_threshold=float(s.get("accuracy_threshold", 0.5)),
            p_grid=(
                {int(k): tuple(int(p) for p in v) for k, v in grid.items()}
                if grid is not None
                else None
            ),
            grid_span=float(s.get("grid_span", 8.0)),
            n_eval=int(s.get("n_eval", 1024)),
            seed=int(s.get("seed", seed)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc
    if not m_list:
        raise ConfigError("sweep m_list must be non-empty")
    for m in m_list:
        # Reject infeasible cells up front: f >= 1 has no finite threshold.
        if m >= sc.vocab_size ** (sc.branching - 1):
            raise ConfigError(
                f"sweep m={m} gives rule density >= 1; thresholds diverge"
            )
    return sc


def _run_sweep(args, cfg, out_dir, seed):
    sc = _sweep_config(cfg, seed)
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


_RUNNERS = {
    "gen-grammar": _run_gen_grammar,
    "sample": _run_sample,
    "corrupt": _run_corrupt,
    "bp": _run_bp,
    "stats": _run_stats,
    "learn": _run_learn,
    "onestep": _run_onestep,
    "sweep": _run_sweep,
}


def _default_threads() -> int:
    env = os.environ.get("RHMLAB_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhmlab",
        description="Random-hierarchy-grammar experiments; CSV columns are "
        "documented per subcommand in the README and config_schema.json.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes (default: RHMLAB_THREADS or CPU count)",
        )
        sp.add_argument("--grammar", default=None, help="grammar JSON file")
        sp.add_argument("--data", default=None, help="dataset file")
        if name == "stats":
            sp.add_argument("--level", type=int, default=None,
                            help="token-tuple correlation level (default 2)")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        cfg = _load_config(args.config)
        seed = args.seed
        if seed is None:
            seed = _config_value(cfg, "seed", int, 0)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if args.threads is None:
            args.threads = _default_threads()
        out = args.out if args.out != "." else cfg.get("out", ".")
        if not isinstance(out, str):
            raise ConfigError("config 'out' must be a path string")
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        grammar_hash, seeds = _RUNNERS[args.experiment](args, cfg, out_dir, seed)
        _write_manifest(out_dir, cfg, seed, seeds, grammar_hash, t0)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        # numpy raises a MemoryError subclass; report the builtin name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
