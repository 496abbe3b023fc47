"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with ``-s`` or
``-rP``) and asserts the tolerance plus its runtime budget. Budgets are
wall-clock on one CPU; every criterion currently runs orders of magnitude
below its budget.
"""

import json
import time
from pathlib import Path

import numpy as np

import rhmlab as rl
from rhmlab import derive_seed
from rhmlab.cli import run as cli_run
from oracles import enumeration_conditionals, sample_draws_oracle


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s/" \
           f"{budget:.0f}s) {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_bp_oracle_equivalence(rs_small, rs_deep):
    t0 = time.time()
    worst = 0.0
    ds = rl.sample_dataset(rs_small, 1, np.random.default_rng(1))
    x = ds.sequences[0]
    for pattern in range(16):
        lik = np.eye(4)[x]
        for i in range(4):
            if pattern >> i & 1:
                lik[i] = 1.0
        state = rl.bp_marginals(rs_small, lik)
        want, logz = enumeration_conditionals(rs_small, lik)
        for lvl in range(3):
            worst = max(worst, float(np.abs(state.marginals[lvl] - want[lvl]).max()))
        worst = max(worst, abs(state.log_evidence - logz))
    rng = np.random.default_rng(2)
    for _ in range(100):
        lik = rng.random((8, 3)) + 1e-4
        state = rl.bp_marginals(rs_deep, lik)
        want, logz = enumeration_conditionals(rs_deep, lik)
        for lvl in range(4):
            worst = max(worst, float(np.abs(state.marginals[lvl] - want[lvl]).max()))
        worst = max(worst, abs(state.log_evidence - logz))
    _report(1, worst <= 1e-9,
            f"max |BP - enumeration| = {worst:.2e} over 16 masks + 100 noisy inputs",
            time.time() - t0, 60)


def test_criterion_2_one_step_identity():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(50):
        v = int(rng.integers(2, 12))
        n_tuples = int(rng.integers(2, 40))
        n = int(rng.integers(5 * v, 600))
        codes = rng.integers(0, n_tuples, size=n)
        labels = np.concatenate([np.arange(v), rng.integers(0, v, size=n - v)])
        for eta in (0.1, 1.0, 10.0):
            model = rl.one_step_gd(codes, labels, v, eta)
            worst = max(
                worst,
                float(np.abs(model.delta - eta * model.empirical_corr).max()),
            )
    _report(2, worst <= 1e-10,
            f"max |dW - eta*C_P| = {worst:.2e} over 50 datasets x 3 learning rates",
            time.time() - t0, 60)


def test_criterion_3_correlation_recursion():
    t0 = time.time()
    chk = rl.correlation_recursion_check(8, 2, 2, level=2, n_grammars=500, seed=77)
    rel = abs(chk.empirical_ratio / chk.predicted_ratio - 1)
    _report(3, rel <= 0.15,
            f"Var(C3)/Var(C2) = {chk.empirical_ratio:.4f} vs "
            f"{chk.predicted_ratio:.4f} (rel err {rel:.3f}, 500 draws)",
            time.time() - t0, 600)


def test_criterion_4_correlation_magnitude():
    t0 = time.time()
    params = rl.GrammarParams(depth=2, branching=2, vocab_size=16, n_synonyms=4)
    want = rl.theory_prediction(params, 2).corr_magnitude
    got = rl.ensemble_correlation_std(16, 2, 4, level=2, n_grammars=200, seed=78)
    ratio = got / want
    _report(4, 0.5 <= ratio <= 2.0,
            f"std(C2) = {got:.3e} vs sqrt((1-f)/(v^3 m^4)) = {want:.3e} "
            f"(ratio {ratio:.3f}, 200 draws)",
            time.time() - t0, 600)


def test_criterion_5_noise_floors():
    t0 = time.time()
    v, n = 16, 2**16
    rng = np.random.default_rng(79)
    seqs = rng.integers(0, v, size=(n, 4))
    rep = rl.token_token_correlation(seqs, 2, 2, v)
    ratios = rep.values / rep.noise_floor
    floor_ok = bool(np.all(np.abs(ratios - 1) <= 0.20))

    rs = rl.generate_rules(
        rl.GrammarParams(depth=2, branching=2, vocab_size=16, n_synonyms=4, seed=80)
    )
    pop = rl.population_token_tuple_correlation(rs, 2)
    sizes, rmses = [], []
    for k in range(10, 17):
        p = 2**k
        ds = rl.sample_dataset(rs, p, np.random.default_rng(derive_seed(80, k, "noise")),
                               with_latents=False)
        emp = rl.token_tuple_correlation(ds, 2)
        resid = emp.matrix - pop.matrix[:, emp.codes]
        sizes.append(p)
        rmses.append(float(np.sqrt(np.mean(resid**2))))
    slope, _ = rl.fit_loglog_slope(sizes, rmses)
    slope_ok = abs(slope + 0.5) <= 0.05
    _report(5, floor_ok and slope_ok,
            f"i.i.d. floor ratios {np.round(ratios, 3).tolist()} (within 20%); "
            f"token-tuple noise exponent {slope:.3f} (within -0.5 +- 0.05)",
            time.time() - t0, 300)


def test_criterion_6_sample_complexity_scaling():
    t0 = time.time()
    cfg2 = rl.SweepConfig(depth=2, branching=2, vocab_size=16,
                          m_list=(2, 3, 4, 6, 8), trials=5, seed=20)
    res2 = rl.measure_sample_complexity(cfg2)
    cfg3 = rl.SweepConfig(depth=3, branching=2, vocab_size=16,
                          m_list=(2, 3, 4, 6), trials=5, seed=21)
    res3 = rl.measure_sample_complexity(cfg3)
    ok2 = res2.slope_cluster is not None and abs(res2.slope_cluster - 3) <= 0.6
    ok3 = res3.slope_cluster is not None and abs(res3.slope_cluster - 4) <= 0.8
    stars2 = [(s.m, s.p_star_cluster) for s in res2.summaries]
    stars3 = [(s.m, s.p_star_cluster) for s in res3.summaries]
    _report(6, ok2 and ok3,
            f"L=2 slope {res2.slope_cluster:.2f} (3 +- 0.6), "
            f"L=3 slope {res3.slope_cluster:.2f} (4 +- 0.8); "
            f"P* L=2 {stars2}, L=3 {stars3}",
            time.time() - t0, 7200)


def test_criterion_7_staged_learning_window():
    t0 = time.time()
    params = rl.GrammarParams(depth=2, branching=2, vocab_size=16, n_synonyms=4)
    p2 = rl.theory_prediction(params, 2).sample_complexity
    p3 = rl.theory_prediction(params, 3).sample_complexity
    lo, hi = 0.3 * p2, 3 * p3
    grid = tuple(
        int(round(512 * 2 ** (k / 2))) for k in range(11)
    )  # 512 .. 16384, inside [0.3 P2, 3 P3]
    assert lo <= grid[0] and grid[-1] <= hi
    cfg = rl.SweepConfig(depth=2, branching=2, vocab_size=16, m_list=(4,),
                         trials=5, p_grid={4: grid}, n_eval=1024, seed=22)
    res = rl.measure_sample_complexity(cfg)
    med_a1, med_a2 = {}, {}
    for p in grid:
        rows = [r for r in res.records if r.n_samples == p]
        med_a1[p] = float(np.median([r.accuracy[0] for r in rows]))
        med_a2[p] = float(np.median([r.accuracy[1] for r in rows]))
    window = [p for p in grid if med_a1[p] >= 0.9 and med_a2[p] <= 0.5]
    closes = [p for p in grid if med_a2[p] > 0.5]
    ok = bool(window) and bool(closes) and med_a2[grid[-1]] > 0.5
    _report(7, ok,
            f"window points with A1>=0.9 & A2<=0.5: {window} in "
            f"[{lo:.0f}, {hi:.0f}]; A2 crosses 1/2 at {min(closes) if closes else None}",
            time.time() - t0, 1800)


def test_criterion_8_correlation_range_growth():
    t0 = time.time()
    params = rl.GrammarParams(depth=2, branching=2, vocab_size=16, n_synonyms=4)
    p2 = rl.theory_prediction(params, 2).sample_complexity
    p3 = rl.theory_prediction(params, 3).sample_complexity
    n_gen = 2**13
    floor = 1 / (16 * np.sqrt(n_gen))
    grid = [512, 1024, 2048, 4096, 8192, 16384, 32768]
    curves = {"c_short": [], "c_long": [], "a2": []}
    for g in range(5):
        gp = rl.GrammarParams(2, 2, 16, 4, seed=derive_seed(808, g, "corr-growth-grammar"))
        rs = rl.generate_rules(gp)
        c2r, c4r, a2r = [], [], []
        for p in grid:
            ds = rl.sample_dataset(
                rs, p, np.random.default_rng(derive_seed(808, g, f"data {p}")),
                with_latents=False,
            )
            model = rl.learn_grammar(ds.sequences, 2, 2, 16,
                                     seed=derive_seed(808, g, f"learn {p}"), truth=rs)
            gen = rl.generate_from_learned(
                model, n_gen, np.random.default_rng(derive_seed(808, g, f"gen {p}"))
            )
            rep = rl.token_token_correlation(gen, 2, 2, 16)
            c2r.append(rep.values[0])
            c4r.append(rep.values[1])
            a2r.append(rl.accuracy(rs, gen)[1])
        curves["c_short"].append(c2r)
        curves["c_long"].append(c4r)
        curves["a2"].append(a2r)
    c_short = np.median(curves["c_short"], axis=0)
    c_long = np.median(curves["c_long"], axis=0)
    thr = 2 * floor
    # stable crossing: smallest grid P from which the curve stays above 2x floor
    p_long = None
    for i in range(len(grid) - 1, -1, -1):
        if c_long[i] <= thr:
            break
        p_long = grid[i]
    short_always = bool(np.all(c_short > thr))
    dip = bool(np.any(c_long <= thr))
    ok = (
        short_always
        and dip
        and p_long is not None
        and p_long > grid[0]
        and 0.3 * p2 <= p_long <= 3 * p3
    )
    _report(8, ok,
            f"short-range/(2*floor) min {float(np.min(c_short/thr)):.2f} at all P; "
            f"long-range silent at some window P (min ratio "
            f"{float(np.min(c_long/thr)):.2f}) and stably above only from "
            f"P = {p_long} in [{0.3*p2:.0f}, {3*p3:.0f}]",
            time.time() - t0, 1800)


def test_criterion_9_structural_properties(rs_deep):
    t0 = time.time()
    p = rs_deep.params
    n_formula = p.vocab_size * p.n_synonyms ** (
        (p.branching**p.depth - 1) // (p.branching - 1)
    )
    enum = rl.enumerate_all(rs_deep)
    count_ok = enum.n_rows == n_formula == 384

    ds = rl.sample_dataset(rs_deep, 100_000, np.random.default_rng(90))
    _, drawn = sample_draws_oracle(p, 100_000, np.random.default_rng(90))
    levels, latents, choices = rl.parse_batch(rs_deep, ds.sequences)
    roundtrip_ok = bool(np.all(levels == p.depth)) and all(
        np.array_equal(a, b) for a, b in zip(latents, ds.latents)
    ) and all(np.array_equal(a, b) for a, b in zip(choices, drawn))

    rng = np.random.default_rng(91)
    monotone_ok = True
    for kind in ("uniform", "masking"):
        for beta in (0.1, 0.3, 0.6, 0.9):
            spec = rl.NoiseSpec(kind=kind, beta_bar=beta)
            noisy, _ = rl.corrupt(ds.sequences[:20_000], spec, p.vocab_size, rng)
            accs = [1.0, *rl.accuracy(rs_deep, noisy)]
            monotone_ok &= all(a >= b for a, b in zip(accs, accs[1:]))

    resample_ok = True
    for level in range(1, p.depth + 1):
        out = rl.resample_below(rs_deep, ds.sequences[:200], level, rng)
        levels, latents, _ = rl.parse_batch(rs_deep, out)
        for lvl in range(level, p.depth + 1):
            resample_ok &= bool(np.array_equal(latents[lvl - 1],
                                               ds.latents[lvl - 1][:200]))
        resample_ok &= bool(np.all(levels == p.depth))

    ok = count_ok and roundtrip_ok and monotone_ok and resample_ok
    _report(9, ok,
            f"enumeration count {enum.n_rows} = formula; 1e5-row parse round-trip "
            f"exact; accuracy monotone under 8 corruption settings; "
            f"synonym-resampling preserves latents at/above every level",
            time.time() - t0, 300)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    gdir = tmp_path / "g"
    gcfg = tmp_path / "gen.json"
    gcfg.write_text(json.dumps(
        {"grammar": {"depth": 2, "branching": 2, "vocab_size": 8,
                     "n_synonyms": 2, "seed": 2}}
    ))
    assert cli_run(["gen-grammar", "--config", str(gcfg), "--out", str(gdir)]) == 0
    grammar = str(gdir / "grammar.json")

    ddir = tmp_path / "d"
    scfg = tmp_path / "sample.json"
    scfg.write_text(json.dumps({"n_samples": 300, "distinct": False}))
    assert cli_run(["sample", "--config", str(scfg), "--grammar", grammar,
                    "--out", str(ddir), "--seed", "4"]) == 0
    data = str(ddir / "dataset.txt")

    configs = {
        "gen-grammar": (str(gcfg), []),
        "sample": (str(scfg), ["--grammar", grammar]),
        "corrupt": (
            json.dumps({"noise": {"kind": "uniform", "beta_bar": 0.3}}),
            ["--grammar", grammar, "--data", data],
        ),
        "bp": (json.dumps({"sequence": "? ? ? ?"}), ["--grammar", grammar]),
        "stats": (json.dumps({"level": 2}), ["--grammar", grammar, "--data", data]),
        "learn": (
            json.dumps({"n_samples": 400, "learn": {"n_eval": 128}}),
            ["--grammar", grammar],
        ),
        "onestep": (json.dumps({"n_samples": 500, "eta": [1.0]}),
                    ["--grammar", grammar]),
        "sweep": (
            json.dumps({"sweep": {"depth": 2, "vocab_size": 8, "m_list": [2],
                                  "trials": 2, "p_grid": {"2": [64, 256]},
                                  "n_eval": 64, "seed": 5}}),
            [],
        ),
    }
    all_ok = True
    details = []
    for name, (cfg, extra) in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        if cfg.endswith(".json"):
            cfg_path = Path(cfg)
        else:
            cfg_path.write_text(cfg)
        outs = []
        for rep in ("r1", "r2"):
            out = tmp_path / f"{name}-{rep}"
            code = cli_run([name, "--config", str(cfg_path), "--out", str(out),
                            "--seed", "9", "--threads", "1", *extra])
            assert code == 0, name
            outs.append(out)
        files_a = sorted(
            f.name for f in outs[0].iterdir() if f.name != "manifest.json"
        )
        files_b = sorted(
            f.name for f in outs[1].iterdir() if f.name != "manifest.json"
        )
        same = files_a == files_b and all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in files_a
        )
        ma = json.loads((outs[0] / "manifest.json").read_text())
        mb = json.loads((outs[1] / "manifest.json").read_text())
        same &= ma["outputs"] == mb["outputs"]
        all_ok &= same
        details.append(f"{name}:{'ok' if same else 'DIFF'}")
    _report(10, all_ok, "byte-identical reruns: " + ", ".join(details),
            time.time() - t0, 600)
