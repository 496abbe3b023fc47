import json
from pathlib import Path

import numpy as np
import pytest

from rhmlab import GrammarParams, derive_seed, generate_rules, sample_dataset
from rhmlab.cli import run
from rhmlab.io import load_dataset, load_grammar, save_dataset, save_grammar


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


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


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
        assert (out / "dataset.txt").read_bytes()[:5] == b"RHMD1"
        seqs, _ = load_dataset(out / "dataset.txt")
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


class TestThreads:
    def test_env_var_fallback(self, monkeypatch):
        from rhmlab.cli import _default_threads

        monkeypatch.setenv("RHMLAB_THREADS", "3")
        assert _default_threads() == 3
        monkeypatch.setenv("RHMLAB_THREADS", "junk")
        assert _default_threads() == 1
        monkeypatch.delenv("RHMLAB_THREADS")
        assert _default_threads() >= 1

    def test_sweep_worker_count_does_not_change_results(self):
        from rhmlab import SweepConfig, measure_sample_complexity

        cfg = SweepConfig(depth=2, vocab_size=8, m_list=(2,), trials=2,
                          p_grid={2: (128, 512)}, n_eval=64, seed=44)
        seq = measure_sample_complexity(cfg, n_workers=1)
        par = measure_sample_complexity(cfg, n_workers=2)
        assert seq.records == par.records
        assert seq.summaries == par.summaries


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

    @pytest.mark.parametrize("experiment, cfg", [
        ("sample", {"n_samples": [1]}),
        ("sample", {"n_samples": 5, "seed": [1]}),
        ("sample", {"n_samples": 5, "out": ["o"]}),
        ("learn", {"n_samples": 50, "learn": "x"}),
        ("learn", {"n_samples": 50, "learn": {"n_eval": {"n": 1}}}),
        ("onestep", {"n_samples": 50, "eta": [[0.1]]}),
        ("gen-grammar", {"grammar": {"depth": [2], "branching": 2,
                                     "vocab_size": 8, "n_synonyms": 2}}),
    ])
    def test_wrong_value_type_exits_two_with_json_line(
        self, tmp_path, grammar_file, capsys, experiment, cfg
    ):
        _, gpath = grammar_file
        path = _write(tmp_path / "c.json", cfg)
        argv = [experiment, "--config", path, "--grammar", str(gpath)]
        if "out" not in cfg:
            argv += ["--out", str(tmp_path / "o")]
        assert run(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

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
        noisy = _require_data(Namespace(data=str(out / "corrupted.txt")), rs)
        assert (noisy == rs.params.vocab_size).any()

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
