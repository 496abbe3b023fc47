import numpy as np
import pytest

from oracles import generate_from_learned_oracle
from rhmlab import (
    GrammarParams,
    RuleSet,
    accuracy,
    build_context_stats,
    cluster_tuples,
    derive_seed,
    encode_tuples,
    enumerate_all,
    fit_loglog_slope,
    generate_from_learned,
    generate_rules,
    kmeans_fit,
    learn_grammar,
    measure_sample_complexity,
    pair_agreement_score,
    parse_batch,
    population_context_collision,
    sample_dataset,
    theory_prediction,
    true_tuple_classes,
    SweepConfig,
)


def _recovery(part, rs, level):
    """Pair agreement of a partition of observed codes with the true classes."""
    return pair_agreement_score(part.labels, true_tuple_classes(rs, level, part.codes))


class TestKMeans:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 5))
        a = kmeans_fit(pts, 4, seed=3)
        b = kmeans_fit(pts, 4, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_separates_coincident_groups_exactly(self):
        # synonym-style input: 12 points taking only 4 distinct values
        base = np.eye(4)
        pts = np.repeat(base, 3, axis=0)
        fit = kmeans_fit(pts, 4, seed=0)
        assert fit.inertia == 0.0
        for val in range(4):
            labs = fit.labels[val * 3 : (val + 1) * 3]
            assert len(set(labs.tolist())) == 1
        assert len(set(fit.labels.tolist())) == 4

    def test_recovers_well_separated_blobs(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(scale=20, size=(5, 3))
        pts = np.concatenate([c + rng.normal(scale=0.1, size=(30, 3)) for c in centers])
        fit = kmeans_fit(pts, 5, seed=2)
        truth = np.repeat(np.arange(5), 30)
        assert pair_agreement_score(fit.labels, truth) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((0, 2)), 1, seed=0)


class TestContextStats:
    def test_fixed_context_gives_one_hot_vector(self):
        # block value (1, 1) always sits next to a block starting with 2
        labels = np.array([[2, 0, 1, 1]] * 50)
        stats = build_context_stats(labels, labels, 4, 2)
        idx = list(stats.codes).index(1 * 4 + 1)
        assert stats.vectors[idx] == pytest.approx([0, 0, 1, 0])

    def test_population_synonym_vectors_coincide(self, rs_small):
        enum = enumerate_all(rs_small)
        stats = build_context_stats(enum.sequences, enum.sequences, 4, 2)
        classes = true_tuple_classes(rs_small, 1, stats.codes)
        for cls in np.unique(classes):
            vecs = stats.vectors[classes == cls]
            assert np.abs(vecs - vecs[0]).max() < 1e-15

    def test_full_tuple_blocks_are_distributions(self, rs_medium):
        ds = sample_dataset(rs_medium, 500, np.random.default_rng(2))
        stats = build_context_stats(
            ds.sequences, ds.sequences, 16, 2, variant="full_tuple"
        )
        assert stats.vectors.shape[1] == 2 * 16
        for block in (stats.vectors[:, :16], stats.vectors[:, 16:]):
            assert block.sum(axis=1) == pytest.approx(np.ones(len(stats.codes)))

    def test_counts_track_events(self):
        labels = np.array([[0, 1, 2, 3]] * 7)
        stats = build_context_stats(labels, labels, 4, 2)
        # two blocks, both pooled targets, 7 rows each
        assert stats.counts.sum() == 14

    def test_too_short_sequences_rejected(self):
        with pytest.raises(ValueError):
            build_context_stats(np.zeros((3, 2), dtype=int), np.zeros((3, 2), dtype=int), 4, 2)

    @pytest.mark.parametrize("token", [-1, 4])
    def test_out_of_range_context_rejected(self, token):
        # a context token outside [0, v) would land in another code's counts
        visible = np.zeros((3, 4), dtype=int)
        visible[1, 2] = token
        with pytest.raises(ValueError, match="context tokens"):
            build_context_stats(np.zeros((3, 4), dtype=int), visible, 4, 2)

    def test_merge_matches_whole_and_is_order_insensitive(self, rs_medium):
        ds = sample_dataset(rs_medium, 900, np.random.default_rng(3))
        whole = build_context_stats(ds.sequences, ds.sequences, 16, 2)
        parts = [
            build_context_stats(ds.sequences[i::3], ds.sequences[i::3], 16, 2)
            for i in range(3)
        ]
        ab = parts[0].merge(parts[1]).merge(parts[2])
        ba = parts[2].merge(parts[1].merge(parts[0]))
        assert np.array_equal(ab.codes, whole.codes)
        assert np.abs(ab.vectors - whole.vectors).max() < 1e-10
        assert np.abs(ba.vectors - ab.vectors).max() < 1e-10
        assert np.array_equal(ab.counts, whole.counts)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_context_stats(np.zeros((2, 4), dtype=int),
                                np.zeros((2, 4), dtype=int), 4, 2, variant="cbow")


class TestClusterTuples:
    def test_population_vectors_recover_exactly(self, rs_medium):
        enum = enumerate_all(rs_medium)
        stats = build_context_stats(enum.sequences, enum.sequences, 16, 2)
        part = cluster_tuples(stats, seed=0)
        assert _recovery(part, rs_medium, 1) == 1.0

    def test_single_synonym_is_trivial(self):
        rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=8,
                                          n_synonyms=1, seed=5))
        enum = enumerate_all(rs)
        stats = build_context_stats(enum.sequences, enum.sequences, 8, 2)
        part = cluster_tuples(stats, seed=0)
        assert _recovery(part, rs, 1) == 1.0

    def test_fewer_codes_than_clusters_goes_partial(self):
        labels = np.array([[0, 1, 2, 3]] * 5)
        stats = build_context_stats(labels, labels, 4, 2)
        part = cluster_tuples(stats, seed=0)
        assert part.partial
        assert np.array_equal(part.labels, [0, 1])
        assert part.n_iter is None and part.restart is None

    def test_partition_records_winning_kmeans_run(self, rs_medium):
        enum = enumerate_all(rs_medium)
        stats = build_context_stats(enum.sequences, enum.sequences, 16, 2)
        part = cluster_tuples(stats, seed=3)
        fit = kmeans_fit(stats.vectors, 16, seed=3)
        assert (part.n_iter, part.restart) == (fit.n_iter, fit.restart)
        assert part.restarts_run == fit.restarts_run
        assert part.n_iter >= 1 and 0 <= part.restart < 16

    def test_minimal_inventory_recovers_only_at_chance(self, rs_medium):
        # one observation per tuple type on average: vectors exist, but the
        # partition is no better than the random-join baseline (~0.896)
        scores = []
        for trial in range(10):
            ds = sample_dataset(rs_medium, 64, np.random.default_rng(trial),
                                with_latents=False)
            stats = build_context_stats(ds.sequences, ds.sequences, 16, 2)
            part = cluster_tuples(stats, seed=trial)
            scores.append(_recovery(part, rs_medium, 1))
        assert max(scores) < 0.95
        assert np.mean(scores) == pytest.approx(0.896, abs=0.03)

    def test_ten_times_threshold_succeeds_in_most_trials(self):
        # at P = 10 * v m^3 / (1-f) the partition is near-perfect in >= 80%
        # of seeded trials
        p2 = theory_prediction(
            GrammarParams(depth=2, branching=2, vocab_size=16, n_synonyms=4), 2
        ).sample_complexity
        wins = 0
        for trial in range(20):
            rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=16,
                                              n_synonyms=4, seed=1000 + trial))
            ds = sample_dataset(rs, int(10 * p2), np.random.default_rng(trial),
                                with_latents=False)
            stats = build_context_stats(ds.sequences, ds.sequences, 16, 2)
            part = cluster_tuples(stats, seed=trial)
            wins += _recovery(part, rs, 1) >= 0.95
        assert wins >= 16


class TestRecoveryScore:
    def test_truth_scores_one(self, rs_medium):
        codes = np.flatnonzero(rs_medium.inverse_at(1) >= 0)
        from rhmlab.learner import Partition

        part = Partition(codes=codes, labels=true_tuple_classes(rs_medium, 1, codes),
                         partial=False, inertia=0.0)
        assert _recovery(part, rs_medium, 1) == 1.0

    def test_single_cluster_exact_value(self, rs_medium):
        # 64 tuples in 16 classes of 4: joined pairs correct only within class
        codes = np.flatnonzero(rs_medium.inverse_at(1) >= 0)
        from rhmlab.learner import Partition

        part = Partition(codes=codes, labels=np.zeros(64, dtype=int),
                         partial=False, inertia=0.0)
        want = (16 * 6) / (64 * 63 / 2)
        assert _recovery(part, rs_medium, 1) == pytest.approx(want)

    @pytest.mark.parametrize("code", [-1, 16])
    def test_codes_out_of_range_rejected(self, code):
        # -1 used to wrap around to code 15, and 16 to raise IndexError
        rs = generate_rules(GrammarParams(2, 2, 4, 2, seed=2))
        assert true_tuple_classes(rs, 1, [15]).tolist() == [3]
        with pytest.raises(ValueError, match="tuple codes"):
            true_tuple_classes(rs, 1, [code])

    def test_random_partition_near_chance_baseline(self, rs_medium):
        codes = np.flatnonzero(rs_medium.inverse_at(1) >= 0)
        truth = true_tuple_classes(rs_medium, 1, codes)
        p_joined = 96 / 2016  # same-class pair fraction
        q = 1 / 16  # random-partition join probability
        baseline = p_joined * q + (1 - p_joined) * (1 - q)
        rng = np.random.default_rng(6)
        scores = [
            pair_agreement_score(rng.integers(0, 16, size=64), truth)
            for _ in range(200)
        ]
        assert np.mean(scores) == pytest.approx(baseline, abs=0.01)


class TestLearnGrammar:
    def test_large_sample_full_recovery(self, rs_medium):
        ds = sample_dataset(rs_medium, 40_000, np.random.default_rng(7),
                            with_latents=False)
        model = learn_grammar(ds.sequences, 2, 2, 16, seed=1, truth=rs_medium)
        assert model.recovery == [1.0]
        gen = generate_from_learned(model, 4096, np.random.default_rng(8))
        assert accuracy(rs_medium, gen)[1] >= 0.99
        # every label's member codes are exactly one true synonym class
        part = model.levels[0]
        for lab in np.unique(part.labels):
            classes = true_tuple_classes(rs_medium, 1, part.codes[part.labels == lab])
            assert len(set(classes.tolist())) == 1
            assert classes.size == 4

    def test_single_synonym_recovers_from_few_rows(self):
        rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=8,
                                          n_synonyms=1, seed=9))
        ds = sample_dataset(rs, 64, np.random.default_rng(10), with_latents=False)
        model = learn_grammar(ds.sequences, 2, 2, 8, seed=2, truth=rs)
        assert model.recovery == [1.0]
        gen = generate_from_learned(model, 512, np.random.default_rng(11))
        assert accuracy(rs, gen)[1] == 1.0

    def test_staged_learning_at_depth_three(self):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=16,
                                          n_synonyms=4, seed=12))
        p2 = theory_prediction(rs.params, 2).sample_complexity
        ds = sample_dataset(rs, int(3 * p2), np.random.default_rng(13),
                            with_latents=False)
        model = learn_grammar(ds.sequences, 3, 2, 16, seed=3, truth=rs)
        assert model.recovery[0] >= 0.95  # first-level synonyms found
        assert model.recovery[1] < 0.95  # second level still unresolved
        gen = generate_from_learned(model, 2048, np.random.default_rng(14))
        _, a2, a3 = accuracy(rs, gen)
        assert a2 >= 0.9
        assert a3 <= 0.5

    def test_true_partition_injection_gives_perfect_accuracy(self, rs_medium):
        ds = sample_dataset(rs_medium, 2000, np.random.default_rng(15),
                            with_latents=False)

        def oracle(stage, codes):
            return true_tuple_classes(rs_medium, stage, codes)

        model = learn_grammar(ds.sequences, 2, 2, 16, seed=4, truth=rs_medium,
                              partition_fn=oracle)
        assert model.recovery == [1.0]
        gen = generate_from_learned(model, 2048, np.random.default_rng(16))
        assert accuracy(rs_medium, gen) == (1.0, 1.0)

    def test_true_partition_injection_every_level_depth_three(self):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=16,
                                          n_synonyms=4, seed=12))
        ds = sample_dataset(rs, 3000, np.random.default_rng(25),
                            with_latents=False)

        def oracle(stage, codes):
            return true_tuple_classes(rs, stage, codes)

        model = learn_grammar(ds.sequences, 3, 2, 16, seed=10, truth=rs,
                              partition_fn=oracle)
        assert model.recovery == [1.0, 1.0]
        gen = generate_from_learned(model, 2048, np.random.default_rng(26))
        assert accuracy(rs, gen) == (1.0, 1.0, 1.0)

    def test_random_top_merges_drop_to_chance(self, rs_medium):
        ds = sample_dataset(rs_medium, 40_000, np.random.default_rng(17),
                            with_latents=False)
        rng = np.random.default_rng(18)

        def scrambled(stage, codes):
            return rng.integers(0, 16, size=codes.size)

        model = learn_grammar(ds.sequences, 2, 2, 16, seed=5, truth=rs_medium,
                              partition_fn=scrambled)
        gen = generate_from_learned(model, 8192, np.random.default_rng(19))
        a1, a2 = accuracy(rs_medium, gen)
        assert a1 == 1.0
        chance = rs_medium.params.rule_density  # valid fraction of label pairs
        assert 0.3 * chance < a2 < 3 * chance

    def test_collapse_with_truth_equals_retained_latents(self, rs_deep):
        ds = sample_dataset(rs_deep, 400, np.random.default_rng(20))
        seqs = ds.sequences
        codes = encode_tuples(seqs.reshape(-1, 4, 2), 3)
        entries = rs_deep.inverse_at(1)[codes]
        collapsed = (entries // 2).astype(np.int64)
        assert np.array_equal(collapsed, ds.level_symbols(1))
        a = build_context_stats(collapsed, seqs, 3, 2, level=2)
        b = build_context_stats(ds.level_symbols(1), seqs, 3, 2, level=2)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rows_must_parse_under_truth(self, rs_small):
        bad = np.zeros((5, 4), dtype=int)
        if rs_small.inverse_at(1)[0] >= 0:  # (0, 0) is a production
            bad[:, 1] = 3
        with pytest.raises(ValueError):
            learn_grammar(bad, 2, 2, 4, truth=rs_small)

    def test_learner_is_deterministic(self, rs_medium):
        ds = sample_dataset(rs_medium, 3000, np.random.default_rng(22),
                            with_latents=False)
        a = learn_grammar(ds.sequences, 2, 2, 16, seed=7)
        b = learn_grammar(ds.sequences, 2, 2, 16, seed=7)
        assert np.array_equal(a.top_tuples, b.top_tuples)
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.labels, lb.labels)


def _reference_learn(seqs, depth, branching, vocab_size, seed, truth,
                     partition_fn=None):
    """The staged collapse with sorted code lists: np.unique for the observed
    codes and top tuples, searchsorted for every code lookup. Pooled
    single-token contexts, so the clustering stats see every observed code."""
    _, latents, _ = parse_batch(truth, seqs)
    labels = seqs.astype(np.int64)
    stages = []
    for stage in range(1, depth):
        n, width = labels.shape
        block_codes = encode_tuples(
            labels.reshape(n, width // branching, branching), vocab_size
        )
        observed = np.unique(block_codes)
        if partition_fn is not None:
            label_of = np.asarray(partition_fn(stage, observed))
        else:
            stats = build_context_stats(labels, seqs, vocab_size, branching,
                                        level=stage)
            assert np.array_equal(stats.codes, observed)
            label_of = cluster_tuples(stats, seed=derive_seed(seed, stage, "kmeans")).labels
        idx = np.searchsorted(observed, block_codes.ravel())
        counts = np.zeros((observed.size, vocab_size), dtype=np.int64)
        np.add.at(counts, (idx, latents[stage - 1].ravel()), 1)
        recovery = pair_agreement_score(label_of, counts.argmax(axis=1))
        stages.append((observed, label_of, recovery))
        labels = label_of[np.searchsorted(observed, block_codes)]
    return stages, np.unique(labels, axis=0)


class TestLearnGrammarCodeTables:
    """learn_grammar's dense code tables against a sorted-list reference."""

    def _check(self, seqs, rs, seed, partition_fn=None):
        p = rs.params
        model = learn_grammar(seqs, p.depth, p.branching, p.vocab_size,
                              seed=seed, truth=rs, partition_fn=partition_fn)
        stages, top = _reference_learn(seqs, p.depth, p.branching,
                                       p.vocab_size, seed, rs, partition_fn)
        assert len(model.levels) == len(stages)
        for level, (codes, labels, recovery), score in zip(
            model.levels, stages, model.recovery
        ):
            assert np.array_equal(level.codes, codes)
            assert level.codes.dtype == codes.dtype
            assert np.array_equal(level.labels, labels)
            assert score == recovery
        assert np.array_equal(model.top_tuples, top)
        # generation reads each stage's partition exactly as the oracle does
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_from_learned(model, 64, rng_a)
        want = generate_from_learned_oracle(model, 64, rng_b)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        return model

    @pytest.mark.parametrize("n_rows", [200, 3000])
    def test_kmeans_path(self, rs_medium, n_rows):
        ds = sample_dataset(rs_medium, n_rows, np.random.default_rng(n_rows),
                            with_latents=False)
        self._check(ds.sequences, rs_medium, seed=11)

    @pytest.mark.parametrize("n_rows", [1, 3, 50, 2000])
    def test_depth_three_with_partial_partitions(self, n_rows):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=4))
        ds = sample_dataset(rs, n_rows, np.random.default_rng(n_rows),
                            with_latents=False)
        model = self._check(ds.sequences, rs, seed=12)
        if n_rows == 1:
            assert model.levels[0].partial and model.levels[1].partial

    def test_partition_labels_beyond_vocab_size(self):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=4))
        ds = sample_dataset(rs, 500, np.random.default_rng(5), with_latents=False)

        def labels_past_v(stage, codes):
            if stage == 1:
                return true_tuple_classes(rs, 1, codes)
            return codes + 8  # one label per code, all >= vocab_size

        model = self._check(ds.sequences, rs, seed=13, partition_fn=labels_past_v)
        assert model.top_tuples.min() >= 8

    @pytest.mark.parametrize("bad_stage, offset, message", [
        (1, 8, r"stage 1 must be in \[0, 8\)"),
        (1, -100, r"stage 1 must be in \[0, 8\)"),
        (2, -100, "stage 2 must be non-negative"),
    ], ids=["past-v-below-top", "negative-below-top", "negative-at-top"])
    def test_partition_labels_out_of_range_rejected(self, bad_stage, offset, message):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=4))
        ds = sample_dataset(rs, 500, np.random.default_rng(5), with_latents=False)

        def shifted(stage, codes):
            labels = true_tuple_classes(rs, stage, codes)
            return labels + offset if stage == bad_stage else labels

        with pytest.raises(ValueError, match=message):
            learn_grammar(ds.sequences, 3, 2, 8, partition_fn=shifted)


class TestGenerateFromLearned:
    def test_empty_model_rejected(self, rs_medium):
        ds = sample_dataset(rs_medium, 200, np.random.default_rng(23),
                            with_latents=False)
        model = learn_grammar(ds.sequences, 2, 2, 16, seed=8)
        model.top_tuples = model.top_tuples[:0]
        with pytest.raises(ValueError):
            generate_from_learned(model, 10, np.random.default_rng(0))

    def test_output_shape_and_alphabet(self, rs_medium):
        ds = sample_dataset(rs_medium, 2000, np.random.default_rng(24),
                            with_latents=False)
        model = learn_grammar(ds.sequences, 2, 2, 16, seed=9)
        gen = generate_from_learned(model, 257, np.random.default_rng(1))
        assert gen.shape == (257, 4)
        assert gen.min() >= 0 and gen.max() < 16


class TestCollisionCheck:
    def test_healthy_instances_pass(self, rs_small, rs_medium):
        assert not population_context_collision(rs_small)
        assert not population_context_collision(rs_medium)

    def test_degenerate_construction_detected(self):
        # top-level rules that make the sibling parent independent of the
        # target parent: every tuple then shares one context vector
        params = GrammarParams(depth=2, branching=2, vocab_size=2,
                               n_synonyms=2, seed=0)
        level1 = np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]])
        level2 = np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]])
        rs = RuleSet(params, [level1, level2])
        assert population_context_collision(rs)


class TestSweep:
    def test_fit_loglog_slope_exact(self):
        xs = [2, 4, 8]
        ys = [12 * x**3 for x in xs]
        slope, se = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(3.0)
        assert se == pytest.approx(0.0, abs=1e-12)
        slope2, se2 = fit_loglog_slope([2, 4], [10, 80])
        assert slope2 == pytest.approx(3.0)
        assert se2 is None

    def test_tiny_sweep_structure(self):
        cfg = SweepConfig(depth=2, vocab_size=8, m_list=(2,), trials=2,
                          p_grid={2: (64, 256, 1024)}, n_eval=256, seed=31)
        res = measure_sample_complexity(cfg)
        assert len(res.records) == 6
        assert res.summaries[0].p_star_cluster in (64, 256, 1024, None)
        assert res.slope_cluster is None  # one m value cannot fix a slope

    def test_collision_check_recorded_per_cell(self, monkeypatch):
        from rhmlab import grammar

        cfg = SweepConfig(depth=2, vocab_size=8, m_list=(2,), trials=2,
                          p_grid={2: (64, 256)}, n_eval=64, seed=31)
        n_derivations = GrammarParams(2, 2, 8, 2).n_derivations
        ran = measure_sample_complexity(cfg)
        monkeypatch.setattr(grammar, "DEFAULT_ENUMERATION_CAP", n_derivations - 1)
        skipped = measure_sample_complexity(cfg)
        assert all(r.collision_checked for r in ran.records)
        assert not any(r.collision_checked for r in skipped.records)
        assert all(r.collisions_resampled == 0 for r in skipped.records)

    def test_censored_cells_excluded(self):
        cfg = SweepConfig(depth=2, vocab_size=16, m_list=(4,), trials=2,
                          p_grid={4: (16, 32)}, n_eval=128, seed=32)
        res = measure_sample_complexity(cfg)
        assert res.summaries[0].p_star_cluster is None

    def test_single_synonym_saturates_and_is_excluded_from_fit(self):
        cfg = SweepConfig(depth=2, vocab_size=8, m_list=(1, 2, 4), trials=2,
                          p_grid={1: (32, 64), 2: (64, 256, 1024),
                                  4: (512, 2048, 8192)},
                          n_eval=256, seed=34)
        res = measure_sample_complexity(cfg)
        by_m = {s.m: s for s in res.summaries}
        assert by_m[1].p_star_cluster is not None
        assert by_m[1].p_star_cluster <= 64  # saturates at O(v) rows
        from rhmlab import fit_loglog_slope as fit

        want, _ = fit([2, 4], [by_m[2].p_star_cluster, by_m[4].p_star_cluster])
        assert res.slope_cluster == pytest.approx(want)

    def test_sweep_deterministic(self):
        cfg = SweepConfig(depth=2, vocab_size=8, m_list=(2,), trials=2,
                          p_grid={2: (128, 512)}, n_eval=128, seed=33)
        a = measure_sample_complexity(cfg)
        b = measure_sample_complexity(cfg)
        assert a.records == b.records
