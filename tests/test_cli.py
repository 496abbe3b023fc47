import contextlib
import copy
import dataclasses
import functools
import inspect
import io
import json
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhmlab
from rhmlab import (
    Dataset,
    GrammarParams,
    TokenCovarianceAccumulator,
    derive_seed,
    generate_rules,
    sample_dataset,
    theory_prediction,
    token_tuple_correlation,
)
from rhmlab import cli
from rhmlab.cli import run
from rhmlab.io import load_dataset, load_grammar, save_dataset, save_grammar, write_csv
from oracles import parse_rows_oracle, token_pair_counts_oracle


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 3, "x") == derive_seed(5, 3, "x")

    def test_tag_and_index_both_matter(self):
        assert derive_seed(5, 3, "x") != derive_seed(5, 3, "y")
        assert derive_seed(5, 3, "x") != derive_seed(5, 4, "x")
        assert derive_seed(5, 3, "x") != derive_seed(6, 3, "x")

    def test_no_collisions_over_a_million_indices(self):
        seeds = {derive_seed(17, i, "trial") for i in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_range_checks(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0, "x")
        with pytest.raises(ValueError):
            derive_seed(0, 2**64, "x")

    def test_numpy_integers_hash_as_ints(self):
        want = derive_seed(5, 3, "x")
        assert derive_seed(np.int64(5), np.uint8(3), "x") == want
        assert derive_seed(np.uint64(5), 3, "x") == want
        assert type(derive_seed(np.int64(5), 3, "x")) is int

    @pytest.mark.parametrize("args, named", [
        ((True, 3, "x"), "master seed"), ((5.0, 3, "x"), "master seed"),
        (("5", 3, "x"), "master seed"),
        ((5, False, "x"), "index"), ((5, 3.0, "x"), "index"),
        ((5, 3, b"x"), "tag must be a str"), ((5, 3, 7), "tag must be a str"),
    ])
    def test_bad_arguments_are_refused_by_name(self, args, named):
        with pytest.raises(ValueError, match=named):
            derive_seed(*args)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _config_error(capsys) -> str:
    """The message of the one ``ConfigError`` JSON line on stderr."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    return err["message"]


GRAMMAR_CFG = {"grammar": {"depth": 2, "branching": 2, "vocab_size": 8,
                           "n_synonyms": 2, "seed": 3}}


@pytest.fixture()
def grammar_file(tmp_path):
    rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=8,
                                      n_synonyms=2, seed=3))
    path = tmp_path / "grammar.json"
    save_grammar(rs, path)
    return rs, path


@pytest.fixture()
def data_file(tmp_path, grammar_file):
    rs, _ = grammar_file
    ds = sample_dataset(rs, 400, np.random.default_rng(1), with_latents=False)
    path = tmp_path / "data.txt"
    save_dataset(ds, path)
    return path


class TestSubcommands:
    def test_gen_grammar(self, tmp_path):
        cfg = _write(tmp_path / "c.json", GRAMMAR_CFG)
        out = tmp_path / "out"
        assert run(["gen-grammar", "--config", cfg, "--out", str(out)]) == 0
        rs = load_grammar(out / "grammar.json")
        assert rs.params.vocab_size == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grammar_hash"] == rs.content_hash()
        assert "grammar.json" in manifest["outputs"]

    def test_sample_auto_distinct(self, tmp_path, grammar_file):
        rs, gpath = grammar_file
        cfg = _write(tmp_path / "c.json", {"n_samples": 30})
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out), "--seed", "1"]) == 0
        seqs, header = load_dataset(out / "dataset.txt")
        assert seqs.shape == (30, 4)
        assert header["grammar_hash"] == rs.content_hash()
        # 30 <= 64 strings / 2, so auto mode deduplicates
        assert np.unique(seqs, axis=0).shape[0] == 30

    def test_sample_binary(self, tmp_path, grammar_file):
        _, gpath = grammar_file
        cfg = _write(tmp_path / "c.json", {"n_samples": 10, "binary": True,
                                           "distinct": False})
        out = tmp_path / "out"
        assert run(["sample", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out), "--seed", "2"]) == 0
        # the file is named by its layout
        assert (out / "dataset.bin").read_bytes()[:5] == b"RHMD1"
        assert not (out / "dataset.txt").exists()
        seqs, _ = load_dataset(out / "dataset.bin")
        assert seqs.shape == (10, 4)

    def test_corrupt(self, tmp_path, grammar_file, data_file):
        _, gpath = grammar_file
        cfg = _write(tmp_path / "c.json",
                     {"noise": {"kind": "masking", "beta_bar": 0.4}})
        out = tmp_path / "out"
        assert run(["corrupt", "--config", cfg, "--grammar", str(gpath),
                    "--data", str(data_file), "--out", str(out), "--seed", "3"]) == 0
        noisy, _ = load_dataset(out / "corrupted.txt")
        hits = (out / "hits.csv").read_text().splitlines()
        assert hits[0] == "row,position"
        assert (noisy == 8).sum() == len(hits) - 1

    def test_bp_clean_sample_is_one_hot(self, tmp_path, grammar_file):
        rs, gpath = grammar_file
        row = sample_dataset(rs, 1, np.random.default_rng(2)).sequences[0]
        cfg = _write(tmp_path / "c.json", {"sequence": " ".join(map(str, row))})
        out = tmp_path / "out"
        assert run(["bp", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out)]) == 0
        lines = (out / "marginals.csv").read_text().splitlines()
        assert lines[0] == "position,symbol,probability"
        probs = {}
        for line in lines[1:]:
            pos, sym, prob = line.split(",")
            probs[(int(pos), int(sym))] = float(prob)
        for pos, sym in enumerate(row):
            assert probs[(pos, int(sym))] == 1.0
        assert sum(probs.values()) == pytest.approx(4.0)

    def test_bp_masked(self, tmp_path, grammar_file):
        rs, gpath = grammar_file
        row = sample_dataset(rs, 1, np.random.default_rng(3)).sequences[0]
        tokens = [str(t) for t in row]
        tokens[2] = "?"
        cfg = _write(tmp_path / "c.json", {"sequence": " ".join(tokens)})
        out = tmp_path / "out"
        assert run(["bp", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out)]) == 0

    def test_stats(self, tmp_path, grammar_file, data_file):
        _, gpath = grammar_file
        cfg = _write(tmp_path / "c.json", {"level": 2})
        out = tmp_path / "out"
        assert run(["stats", "--config", cfg, "--grammar", str(gpath),
                    "--data", str(data_file), "--out", str(out)]) == 0
        corr = (out / "correlations.csv").read_text().splitlines()
        assert corr[0] == "distance,norm,n_pairs,floor"
        assert len(corr) == 3  # two tree-distance classes
        theory = (out / "theory.csv").read_text().splitlines()
        assert theory[0] == "level,C_theory,C_empirical,P_level"
        assert theory[1].split(",")[2] != "nan"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"level": 2, "ungrammatical_rows": 0}

    def test_stats_on_ungrammatical_rows_writes_nan_empirical_correlation(
            self, tmp_path, grammar_file, data_file):
        # Uniform noise leaves rows with no parse, so no latents to correlate;
        # the manifest counts the rows that do not parse fully.
        rs, gpath = grammar_file
        noise = _write(tmp_path / "n.json", {"noise": {"kind": "uniform", "beta_bar": 1.0}})
        noisy = tmp_path / "noisy"
        assert run(["corrupt", "--config", noise, "--grammar", str(gpath),
                    "--data", str(data_file), "--out", str(noisy)]) == 0
        out = tmp_path / "out"
        assert run(["stats", "--grammar", str(gpath), "--data",
                    str(noisy / "corrupted.txt"), "--out", str(out)]) == 0
        theory = (out / "theory.csv").read_text().splitlines()
        assert len(theory) == 2
        level, c_theory, c_empirical, _ = theory[1].split(",")
        assert (level, c_empirical) == ("2", "nan")
        assert float(c_theory) > 0
        max_levels, _, _ = parse_rows_oracle(rs, load_dataset(noisy / "corrupted.txt")[0])
        ungrammatical = int(np.count_nonzero(max_levels < rs.params.depth))
        assert ungrammatical > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"]["ungrammatical_rows"] == ungrammatical

    def test_learn(self, tmp_path, grammar_file):
        _, gpath = grammar_file
        cfg = _write(tmp_path / "c.json",
                     {"n_samples": 3000, "learn": {"n_eval": 256}})
        out = tmp_path / "out"
        assert run(["learn", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out), "--seed", "4"]) == 0
        summary = (out / "learn_summary.csv").read_text().splitlines()
        assert summary[0] == "stage,recovery,n_codes,partial,n_fallback"
        acc = (out / "accuracy.csv").read_text().splitlines()
        assert acc[0] == "level,accuracy"
        assert len(acc) == 3

    def test_learn_manifest_records_each_stage_fit(self, tmp_path):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=3))
        gpath = tmp_path / "g3.json"
        save_grammar(rs, gpath)
        cfg = _write(tmp_path / "c.json",
                     {"n_samples": 3000, "learn": {"n_eval": 256}})
        out = tmp_path / "out"
        assert run(["learn", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out), "--seed", "4"]) == 0
        stages = json.loads((out / "manifest.json").read_text())["seeds"]["stages"]
        assert sorted(stages) == ["stage=1", "stage=2"]
        for entry in stages.values():
            assert list(entry) == ["restart", "n_iter", "inertia", "restarts_run",
                                   "partial"]
            assert entry["partial"] is False
            assert 1 <= entry["restarts_run"] <= 16
            assert 0 <= entry["restart"] < 16
            assert 1 <= entry["n_iter"] <= 200
            assert entry["inertia"] >= 0.0
        # the record is the learner's own: same seed, same stage fits
        model = rhmlab.learn_grammar(
            sample_dataset(rs, 3000, np.random.default_rng(derive_seed(4, 0, "learn-data")),
                           with_latents=False).sequences,
            3, 2, 8, seed=derive_seed(4, 0, "learn"), truth=rs,
        )
        for stage, part in enumerate(model.levels, 1):
            assert stages[f"stage={stage}"] == {
                "restart": part.restart, "n_iter": part.n_iter, "inertia": part.inertia,
                "restarts_run": part.restarts_run, "partial": part.partial,
            }

    @pytest.mark.parametrize("variant", ["single_token", "full_tuple"])
    def test_learn_runs_the_configured_variant(self, tmp_path, variant):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=3))
        gpath = tmp_path / "g3.json"
        save_grammar(rs, gpath)
        cfg = _write(tmp_path / "c.json",
                     {"n_samples": 2000, "learn": {"variant": variant, "n_eval": 128}})
        out = tmp_path / "out"
        assert run(["learn", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out), "--seed", "4"]) == 0
        rows = sample_dataset(rs, 2000, np.random.default_rng(derive_seed(4, 0, "learn-data")),
                              with_latents=False).sequences
        model = rhmlab.learn_grammar(rows, 3, 2, 8, variant=variant,
                                     seed=derive_seed(4, 0, "learn"), truth=rs)
        gen = rhmlab.generate_from_learned(
            model, 128, np.random.default_rng(derive_seed(4, 0, "learn-eval")))
        stages = json.loads((out / "manifest.json").read_text())["seeds"]["stages"]
        assert [stages[f"stage={k}"]["inertia"] for k in (1, 2)] == \
            [part.inertia for part in model.levels]
        acc = (out / "accuracy.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[1]) for line in acc] == list(rhmlab.accuracy(rs, gen))

    def test_onestep(self, tmp_path):
        # grammar seed 2 puts every symbol in the next-token support, so the
        # log-marginal initialization exists
        rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=2))
        gpath = tmp_path / "g2.json"
        save_grammar(rs, gpath)
        cfg = _write(tmp_path / "c.json", {"n_samples": 2000, "eta": [0.1, 1.0]})
        out = tmp_path / "out"
        assert run(["onestep", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(out), "--seed", "5"]) == 0
        lines = (out / "onestep.csv").read_text().splitlines()
        assert lines[0] == "eta,max_identity_dev,mean_synonym_cosine"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.split(",")[1]) <= 1e-10

    def test_sweep(self, tmp_path):
        cfg = _write(
            tmp_path / "c.json",
            {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                       "trials": 2, "p_grid": {"2": [64, 256, 1024]},
                       "n_eval": 128, "seed": 6}},
        )
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--threads", "1"]) == 0
        trials = (out / "sweep_trials.csv").read_text().splitlines()
        assert trials[0] == "m,n_samples,trial,level,recovery,accuracy"
        assert len(trials) == 1 + 2 * 3 * 2  # trials x grid x levels
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("m,p_star_cluster,p_star_accuracy,slope_cluster")


    def test_sweep_manifest_records_collision_checks(self, tmp_path, monkeypatch):
        from rhmlab import grammar

        cfg = _write(
            tmp_path / "c.json",
            {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                       "trials": 2, "p_grid": {"2": [64, 256]},
                       "n_eval": 128, "seed": 6}},
        )
        n_derivations = GrammarParams(2, 2, 8, 2).n_derivations
        outs = {}
        for check, cap in (("ran", n_derivations), ("skipped above cap", n_derivations - 1)):
            monkeypatch.setattr(grammar, "DEFAULT_ENUMERATION_CAP", cap)
            out = outs[check] = tmp_path / check.split()[0]
            assert run(["sweep", "--config", cfg, "--out", str(out),
                        "--threads", "1"]) == 0
            cells = json.loads((out / "manifest.json").read_text())["seeds"]
            assert sorted(cells) == ["m=2,trial=0", "m=2,trial=1"]
            for cell in cells.values():
                assert cell["collision_check"] == check
                assert cell["grammar_redraws"] == 0
                assert isinstance(cell["grammar_seed"], int)
        # no redraw either way, so the skipped check leaves the CSVs as they were
        for fname in ("sweep_trials.csv", "sweep_summary.csv"):
            assert ((outs["ran"] / fname).read_bytes()
                    == (outs["skipped above cap"] / fname).read_bytes())


class TestThreads:
    def test_env_var_fallback(self, monkeypatch, tmp_path, capsys):
        from rhmlab.cli import _default_threads

        monkeypatch.setenv("RHMLAB_THREADS", "3")
        assert _default_threads() == 3
        monkeypatch.setenv("RHMLAB_THREADS", "junk")
        cfg = _write(tmp_path / "c.json", GRAMMAR_CFG)
        assert run(["gen-grammar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "RHMLAB_THREADS" in _config_error(capsys)
        monkeypatch.delenv("RHMLAB_THREADS")
        assert _default_threads() >= 1

    @pytest.mark.parametrize("env, flag", [
        ("0", None), ("-3", None), ("2.5", None), ("", None),
        (None, "0"), (None, "-3"),
    ])
    def test_bad_thread_count_exits_two_with_json_line(
        self, monkeypatch, tmp_path, capsys, env, flag
    ):
        if env is None:
            monkeypatch.delenv("RHMLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("RHMLAB_THREADS", env)
        argv = ["gen-grammar", "--config", _write(tmp_path / "c.json", GRAMMAR_CFG),
                "--out", str(tmp_path / "o")]
        if flag is not None:
            argv += ["--threads", flag]
        assert run(argv) == 2
        assert ("--threads" if flag else "RHMLAB_THREADS") in _config_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_sweep_worker_count_does_not_change_results(self):
        from rhmlab import SweepConfig, measure_sample_complexity

        cfg = SweepConfig(depth=2, vocab_size=8, m_list=(2,), trials=2,
                          p_grid={2: (128, 512)}, n_eval=64, seed=44)
        seq = measure_sample_complexity(cfg, n_workers=1)
        par = measure_sample_complexity(cfg, n_workers=2)
        assert seq.records == par.records
        assert seq.summaries == par.summaries


# (experiment, config, key path the error must name)
BAD_VALUES = [
    ("sample", {"n_samples": [1]}, "n_samples"),
    ("sample", {"n_samples": 5, "seed": [1]}, "seed"),
    ("sample", {"n_samples": 5, "out": ["o"]}, "out"),
    ("learn", {"n_samples": 50, "learn": "x"}, "learn"),
    ("learn", {"n_samples": 50, "learn": {"n_eval": {"n": 1}}}, "learn.n_eval"),
    ("onestep", {"n_samples": 50, "eta": [[0.1]]}, "eta[0]"),
    ("gen-grammar", {"grammar": {"depth": [2], "branching": 2,
                                 "vocab_size": 8, "n_synonyms": 2}}, "grammar.depth"),
    # values the hand parsing used to accept or silently reinterpret
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                         "trials": 0}}, "sweep.trials"),
    ("sample", {"n_samples": 5, "binary": "false"}, "binary"),
    ("sample", {"n_samples": 5, "distinct": "no"}, "distinct"),
    ("corrupt", {"noise": {"kind": "masking", "beta_bar": 0.4,
                           "schedule": [0.1]}}, "noise"),
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2, 2]}},
     "sweep.m_list"),
    ("learn", {"n_samples": 50, "learn": {"n_evals": 5}}, "learn.n_evals"),
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2], "sed": 1}},
     "sweep.sed"),
    # the removed alias spellings
    ("sweep", {"sweep": {"L": 2, "vocab_size": 8, "m_list": [2]}}, "sweep.L"),
    ("sweep", {"sweep": {"depth": 2, "v": 8, "m_list": [2]}}, "sweep.v"),
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                         "threshold": 0.9}}, "sweep.threshold"),
    ("corrupt", {"noise": {"kind": "masking",
                           "schedule": {"type": "linear", "T": 4}}},
     "noise.schedule.T"),
    # booleans and integral floats are not integers; ranges the code needs
    ("sample", {"n_samples": True}, "n_samples"),
    ("sample", {"n_samples": 5, "distinct": 1}, "distinct"),
    ("onestep", {"n_samples": 50, "eta": True}, "eta"),
    ("sample", {"n_samples": 5.0}, "n_samples"),
    ("sample", {"n_samples": 5, "seed": 2**64}, "seed"),
    ("stats", {"level": 1}, "level"),
    ("onestep", {"n_samples": 50, "eta": 0}, "eta"),
    ("onestep", {"n_samples": 50, "eta": []}, "eta"),
    ("corrupt", {"noise": {"kind": "masking",
                           "schedule": {"type": "linear"}}}, "noise.schedule.n_steps"),
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                         "grid_span": 0}}, "sweep.grid_span"),
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                         "p_grid": {"3": [64]}}}, "sweep.p_grid.3"),
    ("bp", {"sequence": "1 2 x 3"}, "sequence"),
    # the removed unpooled learner option is an unknown key like any other
    ("learn", {"n_samples": 50, "learn": {"pooled": True}}, "learn.pooled"),
    ("sweep", {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                         "pooled": False}}, "sweep.pooled"),
]


class TestErrorsAndDeterminism:
    def test_invalid_config_exits_two_with_json_line(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json",
                     {"grammar": {"depth": 1, "branching": 2, "vocab_size": 2,
                                  "n_synonyms": 5}})
        code = run(["gen-grammar", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        parsed = json.loads(err)
        assert parsed["error"] == "ConfigError"

    @pytest.mark.parametrize("experiment, cfg, key", BAD_VALUES, ids=[
        f"{experiment}-cfg{i}" for i, (experiment, _, _) in enumerate(BAD_VALUES)])
    def test_wrong_value_type_exits_two_with_json_line(
        self, tmp_path, grammar_file, capsys, experiment, cfg, key
    ):
        _, gpath = grammar_file
        path = _write(tmp_path / "c.json", cfg)
        argv = [experiment, "--config", path]
        if experiment not in ("gen-grammar", "sweep"):
            argv += ["--grammar", str(gpath)]
        if "out" not in cfg:
            argv += ["--out", str(tmp_path / "o")]
        assert run(argv) == 2
        assert f"'{key}'" in _config_error(capsys)

    def test_non_finite_number_exits_two_with_json_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"noise": {"kind": "masking", "beta_bar": NaN}}')
        assert run(["corrupt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "NaN" in _config_error(capsys)

    @pytest.mark.parametrize("experiment", ["stats", "learn", "onestep", "corrupt"])
    @pytest.mark.parametrize("case, expected", [
        ("empty", "ValueError"),
        ("short-header", "ValueError"),
        ("too-few-rows", "ValueError"),
        ("ragged", "ValueError"),
        ("non-integer-token", "ValueError"),
        ("width-mismatch", "ConfigError"),
        ("vocab-mismatch", "ConfigError"),
        ("foreign-hash", "ConfigError"),
    ])
    def test_bad_data_file_exits_two_with_json_line(
        self, tmp_path, grammar_file, capsys, experiment, case, expected
    ):
        rs, gpath = grammar_file
        h = rs.content_hash()
        text = {
            "empty": "",
            "short-header": "4 8 2\n0 1 2 3\n4 5 6 7\n",
            "too-few-rows": f"4 8 3 {h}\n0 1 2 3\n4 5 6 7\n",
            "ragged": f"4 8 2 {h}\n0 1 2 3\n4 5 6\n",
            "non-integer-token": f"4 8 2 {h}\n0 1 2.5 3\n4 5 6 7\n",
            "width-mismatch": f"3 8 2 {h}\n0 1 2\n4 5 6\n",
            "vocab-mismatch": f"4 9 2 {h}\n0 1 2 3\n4 5 6 7\n",
            "foreign-hash": "4 8 2 " + "0" * 64 + "\n0 1 2 3\n4 5 6 7\n",
        }[case]
        data = tmp_path / "d.txt"
        data.write_text(text)
        cfg = _write(tmp_path / "c.json",
                     {"noise": {"kind": "masking", "beta_bar": 0.4}})
        assert run([experiment, "--config", cfg, "--grammar", str(gpath),
                    "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == expected

    def test_data_without_provenance_and_masked_data_are_accepted(
        self, tmp_path, grammar_file, data_file
    ):
        from argparse import Namespace

        from rhmlab.cli import _require_data

        rs, gpath = grammar_file
        lines = data_file.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:3] + ["-"])
        anonymous = tmp_path / "anon.txt"
        anonymous.write_text("\n".join(lines) + "\n")
        assert run(["stats", "--grammar", str(gpath), "--data", str(anonymous),
                    "--out", str(tmp_path / "s")]) == 0
        cfg = _write(tmp_path / "c.json",
                     {"noise": {"kind": "masking", "beta_bar": 0.4}})
        out = tmp_path / "o"
        assert run(["corrupt", "--config", cfg, "--grammar", str(gpath),
                    "--data", str(anonymous), "--out", str(out)]) == 0
        noisy = _require_data(Namespace(data=str(out / "corrupted.txt")), rs,
                              allow_masked=True)
        assert (noisy == rs.params.vocab_size).any()

    @pytest.fixture()
    def masked_file(self, tmp_path, grammar_file, data_file):
        """The sampled rows with only the first tuple of row 0 masked."""
        rs, _ = grammar_file
        seqs, _ = load_dataset(data_file)
        seqs[0, :2] = rs.params.vocab_size
        path = tmp_path / "masked.txt"
        save_dataset(Dataset(sequences=seqs, params=rs.params,
                             meta={"grammar_hash": rs.content_hash()}), path)
        return path

    @pytest.mark.parametrize("experiment", ["stats", "learn", "onestep"])
    def test_masked_data_exits_two_with_json_line(
        self, tmp_path, grammar_file, masked_file, capsys, experiment
    ):
        _, gpath = grammar_file
        assert run([experiment, "--grammar", str(gpath), "--data", str(masked_file),
                    "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert "masked tokens" in err["message"]

    def test_corrupt_keeps_masked_input_masked(
        self, tmp_path, grammar_file, masked_file, capsys
    ):
        rs, gpath = grammar_file
        before, _ = load_dataset(masked_file)
        masking = _write(tmp_path / "m.json",
                         {"noise": {"kind": "masking", "beta_bar": 0.4}})
        out = tmp_path / "o"
        assert run(["corrupt", "--config", masking, "--grammar", str(gpath),
                    "--data", str(masked_file), "--out", str(out)]) == 0
        after, _ = load_dataset(out / "corrupted.txt")
        mask = before == rs.params.vocab_size
        assert np.all(after[mask] == rs.params.vocab_size)
        assert np.all((after == before) | (after == rs.params.vocab_size))
        uniform = _write(tmp_path / "u.json",
                         {"noise": {"kind": "uniform", "beta_bar": 0.4}})
        assert run(["corrupt", "--config", uniform, "--grammar", str(gpath),
                    "--data", str(masked_file), "--out", str(tmp_path / "u")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "masked tokens" in json.loads(lines[0])["message"]

    def test_unallocatable_sample_count_exits_two_with_json_line(
        self, tmp_path, grammar_file, capsys
    ):
        # 1e13 rows: far beyond any machine, so the allocator refuses at once
        _, gpath = grammar_file
        cfg = _write(tmp_path / "c.json", {"n_samples": 10**13})
        assert run(["sample", "--config", cfg, "--grammar", str(gpath),
                    "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "MemoryError"

    def test_unreachable_distinct_count_exits_two_with_json_line(self, tmp_path, capsys):
        # every one of the grammar's 98,304 strings: 1000 batches cannot
        # collect them all
        cfg = _write(tmp_path / "c.json",
                     {"grammar": {"depth": 4, "branching": 2, "vocab_size": 3,
                                  "n_synonyms": 2},
                      "n_samples": 98_304, "distinct": True})
        assert run(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "fewer than 98304 distinct strings" in err["message"]
        assert "1000 batches" in err["message"]

    @pytest.mark.parametrize("experiment", ["learn", "stats"])
    def test_empty_data_file_exits_two_with_json_line(
        self, tmp_path, grammar_file, capsys, experiment
    ):
        rs, gpath = grammar_file
        data = tmp_path / "d.txt"
        data.write_text(f"4 8 0 {rs.content_hash()}\n")
        assert run([experiment, "--grammar", str(gpath), "--data", str(data),
                    "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert "0 rows" in err["message"] and "zero-size" not in err["message"]

    def test_overflowing_grid_span_exits_two_with_json_line(self, tmp_path, capsys):
        # a 1e308 span is in range but overflows the geometric grid
        cfg = _write(tmp_path / "c.json",
                     {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                                "grid_span": 1e308}})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--threads", "1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OverflowError"

    @pytest.mark.parametrize("experiment, text, message", [
        # JSON 1e400 parses to inf: the onestep run used to write the row
        # inf,nan,nan and the sweep to fail with OverflowError
        ("onestep", '{"grammar": {"depth": 2, "branching": 2, "vocab_size": 8, '
                    '"n_synonyms": 2}, "n_samples": 100, "eta": [1e400, 1.0]}',
         r"config key 'eta\[0\]' is inf; it must be finite"),
        ("onestep", '{"grammar": {"depth": 2, "branching": 2, "vocab_size": 8, '
                    '"n_synonyms": 2}, "n_samples": 100, "eta": 1e400}',
         "config key 'eta' is inf; it must be finite"),
        ("sweep", '{"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2], '
                  '"grid_span": 1e400}}',
         "^config key 'sweep.grid_span' is inf; it must be finite$"),
    ])
    def test_overflowing_number_exits_two_naming_the_key(self, tmp_path, capsys,
                                                          experiment, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run([experiment, "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--threads", "1"]) == 2
        assert re.search(message, _config_error(capsys))
        assert not (tmp_path / "o" / "onestep.csv").exists()

    def test_sweep_with_rule_density_one_exits_two_before_any_cell(
            self, tmp_path, capsys):
        # m = 8 = vocab_size**(branching-1): f = 1 has no finite threshold
        cfg = _write(tmp_path / "c.json",
                     {"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2, 8],
                                "p_grid": {"8": [64]}}})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--threads", "1"]) == 2
        message = _config_error(capsys)
        assert message.startswith("config key 'sweep' is invalid: m=8")
        assert not (tmp_path / "o" / "sweep_trials.csv").exists()

    @pytest.mark.parametrize("experiment", ["gen-grammar", "sweep"])
    def test_huge_depth_exits_two_at_once(self, tmp_path, capsys, experiment):
        # branching**depth far beyond int64: refused before any level loop
        section = ({"grammar": {"depth": 10**20, "branching": 2, "vocab_size": 8,
                                "n_synonyms": 2}}
                   if experiment == "gen-grammar"
                   else {"sweep": {"depth": 10**20, "m_list": [2]}})
        cfg = _write(tmp_path / "c.json", section)
        t0 = time.monotonic()
        assert run([experiment, "--config", cfg, "--out", str(tmp_path / "o"),
                    "--threads", "2"]) == 2
        assert time.monotonic() - t0 < 1.0
        assert "int64" in _config_error(capsys)

    @pytest.mark.parametrize("path, value, named", [
        (["params"], None, "'params'"),
        (["rules"], None, "'rules'"),
        ([], None, "JSON object"),  # the document wrapped in an array
        (["params", "depth"], "2", "'params.depth'"),
        (["params", "depth"], 2.0, "'params.depth'"),
        (["params", "n_synonyms"], 2.0, "'params.n_synonyms'"),
        (["params", "seed"], None, "'params.seed'"),
        (["params", "seed"], ..., "'params.seed' is required"),  # ... deletes the key
        (["params", "n_synonyms"], True, "'params.n_synonyms'"),
        (["params", "bogus"], 1, "'params.bogus' is unknown"),
        (["rules", 0, 0, 0, 0], 0.5, "'rules' level 1"),
        (["rules", 1, 0, 1], [3], "'rules' level 2"),  # a ragged table
        (None, None, "nests too deep"),  # 1e5 nested brackets, not the document
    ], ids=["no-params", "no-rules", "array", "depth-string", "depth-float",
            "synonyms-float", "seed-null", "no-seed", "synonyms-bool", "unknown-param",
            "rule-float", "ragged", "deep"])
    def test_malformed_grammar_file_exits_two_with_json_line(
        self, tmp_path, grammar_file, capsys, path, value, named
    ):
        rs, _ = grammar_file
        doc = rs.to_jsonable()  # no content hash: only the shape is checked
        if path == []:
            doc = [doc]
        elif path is not None and len(path) == 1:
            del doc[path[0]]
        elif path is not None:
            *parents, last = path
            node = doc
            for key in parents:
                node = node[key]
            if value is ...:
                del node[last]
            else:
                node[last] = value
        gpath = tmp_path / "g.json"
        gpath.write_text("[" * 100_000 + "]" * 100_000 if path is None else json.dumps(doc))
        cfg = _write(tmp_path / "c.json", {"n_samples": 5})
        assert run(["sample", "--grammar", str(gpath), "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert named in err["message"]

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--grammar", "/nonexistent.json", "--data", "/nonexistent.txt"],
         "--grammar /nonexistent.json --data /nonexistent.txt"),
        (["gen-grammar", "--grammar", "g.json"], "--grammar"),
        (["sample", "--data", "d.txt"], "--data"),
        (["bp", "--data", "d.txt"], "--data"),
        (["learn", "--level", "2"], "--level"),
        (["stats", "--bogus"], "--bogus"),
        (["stats", "--seed", "x"], "--seed"),
        (["sweep", "--threads", "1.5"], "--threads"),
        (["stats", "--level", "two"], "--level"),
        (["nope"], "nope"),
        ([], "experiment"),
    ], ids=["sweep-files", "gen-grammar-grammar", "sample-data", "bp-data",
            "learn-level", "unknown-flag", "seed", "threads", "level",
            "experiment", "none"])
    def test_argument_error_exits_two_with_json_line(self, capsys, argv, named):
        assert run(argv) == 2
        assert named in _config_error(capsys)

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["stats", "-h"])
        assert exc.value.code == 0
        assert "--level" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, cfg, named", [
        (["--level", "9"], {}, "--level is 9"),
        (["--level", "1"], {}, "--level is 1"),
        ([], {"level": 7}, "config key 'level' is 7"),
    ])
    def test_stats_level_beyond_the_grammar_exits_two_before_reading_data(
        self, tmp_path, capsys, flag, cfg, named
    ):
        grammar = {"depth": 3, "branching": 2, "vocab_size": 8, "n_synonyms": 2}
        path = _write(tmp_path / "c.json", {"grammar": grammar, **cfg})
        # The data file is never read, so its absence is not what is reported.
        argv = ["stats", "--config", path, "--data", str(tmp_path / "absent.txt"),
                "--out", str(tmp_path / "o"), *flag]
        assert run(argv) == 2
        message = _config_error(capsys)
        assert named in message and "2..3" in message

    def test_missing_data_flag(self, tmp_path, grammar_file, capsys):
        _, gpath = grammar_file
        code = run(["stats", "--grammar", str(gpath), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    def test_rerun_is_byte_identical(self, tmp_path, grammar_file):
        _, gpath = grammar_file
        cfg = _write(tmp_path / "c.json",
                     {"n_samples": 500, "learn": {"n_eval": 128}})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["learn", "--config", cfg, "--grammar", str(gpath),
                        "--out", str(out), "--seed", "7"]) == 0
            outs.append(out)
        for fname in ("learn_summary.csv", "accuracy.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        ma, mb = (json.loads((o / "manifest.json").read_text()) for o in outs)
        assert ma["outputs"] == mb["outputs"]
        assert ma["config_hash"] == mb["config_hash"]


class TestStatsStep:
    """The stats step parses level by level and keeps only what it reads: the
    root level's validity and the level-(level-2) symbols."""

    @staticmethod
    def _expected(rs, seqs, level, tmp_path):
        """correlations.csv and theory.csv bytes and the ungrammatical row
        count, from per-pair counts and a full dict-lookup parse."""
        p = rs.params
        acc = TokenCovarianceAccumulator(p.branching, p.depth, p.vocab_size)
        acc.counts = token_pair_counts_oracle(seqs, p.branching, p.depth, p.vocab_size)
        acc.n_rows = seqs.shape[0]
        rep = acc.report()
        write_csv(tmp_path / "corr.csv", ["distance", "norm", "n_pairs", "floor"],
                  [(int(d), float(v), int(k), rep.noise_floor)
                   for d, v, k in zip(rep.distances, rep.values, rep.n_pairs)])
        max_levels, latents, _ = parse_rows_oracle(rs, seqs)
        ungrammatical = int(np.count_nonzero(max_levels < p.depth))
        c_emp = float("nan")
        if not ungrammatical:
            ds = Dataset(sequences=seqs, params=p, latents=latents)
            c_emp = token_tuple_correlation(ds, level).rms
        th = theory_prediction(p, level, n_samples=seqs.shape[0])
        write_csv(tmp_path / "theory.csv", ["level", "C_theory", "C_empirical", "P_level"],
                  [(level, th.corr_magnitude, c_emp, th.sample_complexity)])
        return ((tmp_path / "corr.csv").read_bytes(),
                (tmp_path / "theory.csv").read_bytes(), ungrammatical)

    @pytest.mark.parametrize("noise", [None, 0.2])
    def test_outputs_equal_a_full_parse_at_every_level(self, tmp_path, noise):
        rs = generate_rules(GrammarParams(depth=4, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=3))
        gpath = tmp_path / "grammar.json"
        save_grammar(rs, gpath)
        data = tmp_path / "data.txt"
        save_dataset(sample_dataset(rs, 300, np.random.default_rng(1),
                                    with_latents=False), data)
        if noise is not None:
            cfg = _write(tmp_path / "n.json",
                         {"noise": {"kind": "uniform", "beta_bar": noise}})
            assert run(["corrupt", "--config", cfg, "--grammar", str(gpath),
                        "--data", str(data), "--out", str(tmp_path / "noisy")]) == 0
            data = tmp_path / "noisy" / "corrupted.txt"
        seqs = load_dataset(data)[0]
        for level in (2, 3, 4):
            out = tmp_path / f"out{level}"
            assert run(["stats", "--grammar", str(gpath), "--data", str(data),
                        "--level", str(level), "--out", str(out)]) == 0
            corr, theory, ungrammatical = self._expected(rs, seqs, level, tmp_path)
            assert (out / "correlations.csv").read_bytes() == corr
            assert (out / "theory.csv").read_bytes() == theory
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seeds"] == {"level": level,
                                         "ungrammatical_rows": ungrammatical}
            # the noisy rows mix rows that parse with rows that do not
            assert (ungrammatical > 0) == (noise is not None) and ungrammatical < 300
            assert (b",nan," in theory) == (noise is not None)

    def test_peak_memory_is_a_bounded_multiple_of_the_rows(self, tmp_path, monkeypatch):
        # 2e4 depth-5 rows: 0.64 MB of uint8, 2.56 MB as int32, the size the
        # bound multiplies. The loader hands over a fresh copy of the rows, so
        # the text reader's own buffers are left out. The pair counts and
        # their uint16 token rows peak at 1.26x the int32 size (2.05x with
        # int32 rows); a full parse_batch of int32 rows, with every level's
        # latents and choices, at 3.30x.
        rs = generate_rules(GrammarParams(depth=5, branching=2, vocab_size=16,
                                          n_synonyms=4, seed=3))
        gpath, data = tmp_path / "grammar.json", tmp_path / "data.txt"
        save_grammar(rs, gpath)
        save_dataset(sample_dataset(rs, 20_000, np.random.default_rng(4),
                                    with_latents=False), data)
        rows, header = load_dataset(data)
        assert rows.dtype == np.uint8 and rows.nbytes == 640_000
        monkeypatch.setattr(cli, "load_dataset", lambda path: (rows.copy(), header))
        argv = ["stats", "--grammar", str(gpath), "--data", str(data), "--level", "5"]
        assert run(argv + ["--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run(argv + ["--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.45 * rows.size * 4


SCHEMA = json.loads((Path(rhmlab.__file__).parent / "config_schema.json").read_text())

# One valid config per form an experiment takes, each with a top-level seed so
# every config has a ranged number. Every value the schema checks is present
# somewhere; the test below runs each config to exit 0.
VALID_CONFIGS = [
    ("gen-grammar", {"seed": 5, "grammar": {"depth": 2, "branching": 2, "vocab_size": 8,
                                            "n_synonyms": 2, "seed": 3}}),
    ("sample", {"seed": 1, "n_samples": 30, "distinct": "auto", "binary": False}),
    ("corrupt", {"seed": 1, "noise": {"kind": "masking", "beta_bar": 0.4}}),
    ("corrupt", {"seed": 1, "noise": {"kind": "uniform",
                                      "schedule": {"type": "linear", "n_steps": 3}}}),
    ("corrupt", {"seed": 1, "noise": {"kind": "uniform", "schedule": [0.1, 0.2]}}),
    ("bp", {"seed": 1, "sequence": "? ? ? ?"}),
    ("stats", {"seed": 1, "level": 2}),
    ("learn", {"seed": 1, "n_samples": 300,
               "learn": {"variant": "full_tuple", "n_eval": 16}}),
    ("onestep", {"seed": 1, "n_samples": 300, "eta": [0.1, 1.0]}),
    ("sweep", {"seed": 1, "sweep": {
        "depth": 2, "branching": 2, "vocab_size": 8, "m_list": [2], "trials": 1,
        "variant": "single_token", "cluster_threshold": 0.9,
        "accuracy_threshold": 0.5, "p_grid": {"2": [64]}, "grid_span": 2.0,
        "n_eval": 16, "seed": 1}}),
]
# Top-level keys without which an experiment cannot run (given the flags below).
NEEDED = {"gen-grammar": ("grammar",), "sample": ("n_samples",), "corrupt": ("noise",),
          "bp": ("sequence",), "learn": ("n_samples",), "onestep": ("n_samples",),
          "sweep": ("sweep",)}
# Values of a JSON type that no key holding the original's type accepts.
WRONG_TYPES = {dict: [None, True, "x", 1.5], list: [None, True, "x", {"k": 1}],
               bool: [None, 1, 0, "true", [True]], int: [None, True, 1.5, "3", [1]],
               float: [None, True, "0.5", [0.5]], str: [None, 1, ["x"], {"k": "x"}]}


def _argv(experiment, files, config_path, out):
    argv = [experiment, "--config", str(config_path), "--out", str(out)]
    if experiment not in ("gen-grammar", "sweep"):
        argv += ["--grammar", str(files["grammar"])]
    if experiment in ("corrupt", "stats"):
        argv += ["--data", str(files["data"])]
    return argv + ["--threads", "1"]


def _paths(value, path=()):
    """Every key path in a config, containers included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _get(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _schema_at(cfg, path):
    """The schema of the value at ``path``, the ``oneOf`` form its type picks."""
    schema, value = SCHEMA, cfg
    for key in (*path, None):
        if "oneOf" in schema and "type" not in schema:
            schema = next(alt for alt in schema["oneOf"]
                          if alt["type"] == {dict: "object", list: "array"}.get(
                              type(value), "number"))
        if key is None:
            return schema
        schema = (schema["items"] if isinstance(value, list)
                  else schema.get("properties", {}).get(key, schema.get("additionalProperties")))
        value = value[key]


@st.composite
def invalid_configs(draw):
    """One mutation of a valid config: wrong type, unknown key, dropped needed
    key or out-of-range number."""
    experiment, cfg = draw(st.sampled_from(VALID_CONFIGS))
    cfg = copy.deepcopy(cfg)
    paths = list(_paths(cfg))
    dicts = [p for p in paths if isinstance(_get(cfg, p), dict)]
    dropped = [(k,) for k in NEEDED.get(experiment, ())]
    for p in dicts:
        schema = _schema_at(cfg, p)
        alts = [alt.get("required", []) for alt in schema.get("oneOf", ())]
        dropped += [p + (k,) for k in (*schema.get("required", ()), *sum(alts, []))
                    if k in _get(cfg, p)]
    ranged = [p for p in paths if p and type(_get(cfg, p)) in (int, float)
              and {"minimum", "maximum", "exclusiveMinimum"} & set(_schema_at(cfg, p))]
    kinds = ["wrong type", "unknown key", "out of range"] + ["dropped key"] * bool(dropped)
    kind = draw(st.sampled_from(kinds))
    if kind == "dropped key":
        path = draw(st.sampled_from(dropped))
        del _get(cfg, path[:-1])[path[-1]]
    elif kind == "unknown key":
        path = draw(st.sampled_from(dicts))
        _get(cfg, path)["x_" + draw(st.text(max_size=5))] = draw(
            st.sampled_from([1, "x", [64]]))
    elif kind == "wrong type":
        path = draw(st.sampled_from([p for p in paths if p]))
        _get(cfg, path[:-1])[path[-1]] = draw(
            st.sampled_from(WRONG_TYPES[type(_get(cfg, path))]))
    else:
        path = draw(st.sampled_from(ranged))
        schema = _schema_at(cfg, path)
        numbers = st.integers if schema["type"] == "integer" else functools.partial(
            st.floats, allow_nan=False, allow_infinity=False)
        bounds = []
        if "minimum" in schema:
            bounds.append(numbers(max_value=schema["minimum"] - 1)
                          if schema["type"] == "integer" else
                          numbers(max_value=schema["minimum"], exclude_max=True))
        if "exclusiveMinimum" in schema:
            bounds.append(numbers(max_value=schema["exclusiveMinimum"]))
        if "maximum" in schema:
            bounds.append(numbers(min_value=schema["maximum"] + 1)
                          if schema["type"] == "integer" else
                          numbers(min_value=schema["maximum"], exclude_min=True))
        _get(cfg, path[:-1])[path[-1]] = draw(st.one_of(bounds))
    return experiment, cfg, kind, path


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli-files")
    rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=8,
                                      n_synonyms=2, seed=2))
    save_grammar(rs, work / "grammar.json")
    save_dataset(sample_dataset(rs, 400, np.random.default_rng(1), with_latents=False),
                 work / "data.txt")
    return {"grammar": work / "grammar.json", "data": work / "data.txt", "work": work}


class TestConfigSchema:
    @pytest.mark.parametrize("experiment, cfg", VALID_CONFIGS)
    def test_valid_configs_run(self, tmp_path, cli_files, experiment, cfg):
        path = _write(tmp_path / "c.json", cfg)
        assert run(_argv(experiment, cli_files, path, tmp_path / "o")) == 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=invalid_configs())
    def test_every_mutated_config_exits_two_with_one_json_line(self, cli_files, case):
        experiment, cfg, kind, path = case
        work = Path(tempfile.mkdtemp(dir=cli_files["work"]))
        config_path = _write(work / "c.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(_argv(experiment, cli_files, config_path, work / "o"))
        assert code == 2, (kind, path, cfg)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "ConfigError", lines[0]

    def test_schema_sections_match_the_code(self):
        from rhmlab import corruption, learner

        props = SCHEMA["properties"]
        # Each record checks its fields against its section, so the two agree.
        for section, record in (("grammar", GrammarParams), ("sweep", learner.SweepConfig),
                                ("noise", corruption.NoiseSpec)):
            fields = {f.name for f in dataclasses.fields(record)}
            assert set(props[section]["properties"]) == fields, section
        # The linear-schedule object is the CLI's; NoiseSpec stores its betas.
        forms = props["noise"]["properties"]["schedule"]["oneOf"]
        assert [form["type"] for form in forms] == ["array", "object"]
        assert forms[1]["properties"]["type"]["enum"] == ["linear"]
        # The CLI passes the rows, the grammar shape, seed and truth itself.
        params = inspect.signature(learner.learn_grammar).parameters
        free = {name for name, p in params.items()
                if p.default is not inspect.Parameter.empty} - {"seed", "truth"}
        assert set(props["learn"]["properties"]) - {"n_eval"} <= free
        for section in ("learn", "sweep"):
            variants = props[section]["properties"]["variant"]["enum"]
            assert variants == list(learner.VARIANTS)

    def test_unsupported_schema_keyword_raises(self):
        from rhmlab.config import _check_schema, _config_schema

        assert _config_schema() == SCHEMA
        with pytest.raises(ValueError, match="pattern"):
            _check_schema({"type": "object",
                           "properties": {"a": {"type": "string", "pattern": "x"}}})
        with pytest.raises(ValueError, match="format"):
            _check_schema({"oneOf": [{"type": "array", "items": {"format": "date"}}]})
        with pytest.raises(ValueError, match="null"):
            _check_schema({"type": "null"})
