import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    context_counts_oracle,
    generate_from_learned_oracle,
    learn_grammar_oracle,
    pair_agreement_loop,
    population_context_collision_oracle,
    production_index,
)
from rhmlab import (
    EnumerationCapError,
    GrammarParams,
    Partition,
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
    token_dtype,
    true_tuple_classes,
    SweepConfig,
)
from rhmlab.learner import _block_codes, _learning_step


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
        codes = np.flatnonzero(production_index(rs_medium, 1) >= 0)
        from rhmlab.learner import Partition

        part = Partition(codes=codes, labels=true_tuple_classes(rs_medium, 1, codes),
                         partial=False, inertia=0.0)
        assert _recovery(part, rs_medium, 1) == 1.0

    def test_single_cluster_exact_value(self, rs_medium):
        # 64 tuples in 16 classes of 4: joined pairs correct only within class
        codes = np.flatnonzero(production_index(rs_medium, 1) >= 0)
        from rhmlab.learner import Partition

        part = Partition(codes=codes, labels=np.zeros(64, dtype=int),
                         partial=False, inertia=0.0)
        want = (16 * 6) / (64 * 63 / 2)
        assert _recovery(part, rs_medium, 1) == pytest.approx(want)

    @pytest.mark.parametrize("code", [-1, 16, 15.0, True])
    def test_codes_out_of_range_rejected(self, code):
        # -1 used to wrap around to code 15, and 16 to raise IndexError;
        # 15.0 was decoded as 15, and True as 1
        rs = generate_rules(GrammarParams(2, 2, 4, 2, seed=2))
        assert true_tuple_classes(rs, 1, [15]).tolist() == [3]
        with pytest.raises(ValueError, match="tuple codes must"):
            true_tuple_classes(rs, 1, [code])

    def test_random_partition_near_chance_baseline(self, rs_medium):
        codes = np.flatnonzero(production_index(rs_medium, 1) >= 0)
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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
    def test_matches_the_pair_loop(self, n):
        rng = np.random.default_rng(n)
        for k_a, k_b in [(1, 1), (2, 5), (n + 1, 3), (4, 4)]:
            labels = rng.integers(0, k_a, size=n)
            reference = rng.integers(0, k_b, size=n) * 1000  # sparse labels
            assert pair_agreement_score(labels, reference) == pair_agreement_loop(labels, reference)
            assert pair_agreement_score(labels, labels) == 1.0

    @pytest.mark.parametrize("bad, message", [
        (np.zeros(3), "^labels must hold integer tokens"),
        (np.zeros(3, dtype=bool), "^labels must hold integer tokens"),
        (np.array([0, -1, 0]), "^labels must be nonnegative, found -1"),
    ])
    def test_refuses_non_integer_or_negative_labels_by_name(self, bad, message):
        # float labels used to be compared as they were
        with pytest.raises(ValueError, match=message):
            pair_agreement_score(bad, np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match=message.replace("labels", "reference")):
            pair_agreement_score(np.zeros(3, dtype=int), bad)


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

    @pytest.mark.parametrize("n", [-1, 2.0, True, np.bool_(True), "3", None])
    def test_generation_rejects_a_bad_draw_count_before_any_draw(self, rs_medium, n):
        ds = sample_dataset(rs_medium, 2000, np.random.default_rng(7),
                            with_latents=False)
        model = learn_grammar(ds.sequences, 2, 2, 16, seed=1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            generate_from_learned(model, n, rng)
        assert rng.bit_generator.state == state

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
        entries = production_index(rs_deep, 1)[codes]
        collapsed = (entries // 2).astype(np.int64)
        assert np.array_equal(collapsed, ds.level_symbols(1))
        a = build_context_stats(collapsed, seqs, 3, 2, level=2)
        b = build_context_stats(ds.level_symbols(1), seqs, 3, 2, level=2)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("field, value", [("depth", 3), ("branching", 3),
                                              ("vocab_size", 8)])
    def test_truth_must_have_the_given_shape(self, rs_medium, field, value):
        # rs_medium is (depth 2, branching 2, vocab_size 16)
        shape = {"depth": 2, "branching": 2, "vocab_size": 16, field: value}
        seqs = np.zeros((4, shape["branching"] ** shape["depth"]), dtype=np.int32)
        own = getattr(rs_medium.params, field)
        with pytest.raises(ValueError, match=f"truth grammar has {field} {own}, "
                                             f"not {value}"):
            learn_grammar(seqs, shape["depth"], shape["branching"],
                          shape["vocab_size"], truth=rs_medium)

    def test_truth_of_a_larger_alphabet_is_refused_not_aliased(self, rs_medium):
        # Rows of the v=16 grammar whose tokens all lie below 8 would pass the
        # token check of a v=8 learner; the majority keys code * 8 + parent
        # would then alias for parents >= 8.
        ds = sample_dataset(rs_medium, 20_000, np.random.default_rng(3),
                            with_latents=False)
        seqs = ds.sequences[(ds.sequences < 8).all(axis=1)]
        assert seqs.shape[0] > 100
        with pytest.raises(ValueError, match="truth grammar has vocab_size 16, not 8"):
            learn_grammar(seqs, 2, 2, 8, truth=rs_medium)

    def test_rows_must_parse_under_truth(self, rs_small):
        bad = np.zeros((5, 4), dtype=int)
        if production_index(rs_small, 1)[0] >= 0:  # (0, 0) is a production
            bad[:, 1] = 3
        with pytest.raises(ValueError):
            learn_grammar(bad, 2, 2, 4, truth=rs_small)

    def test_non_integer_rows_rejected(self, rs_small):
        seqs = enumerate_all(rs_small).sequences.astype(np.float64)
        with pytest.raises(ValueError, match="integer tokens, not float64"):
            learn_grammar(seqs, 2, 2, 4)

    @pytest.mark.parametrize("with_truth, bound", [(True, 1.65), (False, 1.35)])
    def test_peak_memory_is_a_bounded_multiple_of_the_input(self, with_truth, bound):
        # 2e4 depth-4 rows: 0.32 MB of uint8, 1.28 MB as int32, the size the
        # bound multiplies. One uint8 copy of the rows by position, uint8
        # block codes, ranks and labels, and with truth every level of true
        # parents in uint8, peak at 1.41x the int32 size with truth and 1.16x
        # without, both during the stage-1 k-means (1.53x and 1.28x with
        # k-means blocks of k centres). int64 block codes and int32 labels
        # measured 2.10x and 1.84x; a full parse held for the whole call and
        # int64 labels, 5.4x and 2.5x.
        rs = generate_rules(GrammarParams(depth=4, branching=2, vocab_size=16,
                                          n_synonyms=4, seed=3))
        seqs = sample_dataset(rs, 20_000, np.random.default_rng(4),
                              with_latents=False).sequences
        assert seqs.dtype == np.uint8 and seqs.nbytes == 320_000
        int32_size = seqs.size * 4
        # one-time allocations (k-means' first call imports numpy.ma) are
        # not the learner's
        learn_grammar(seqs[:100], 4, 2, 16, seed=1, truth=rs if with_truth else None)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            learn_grammar(seqs, 4, 2, 16, seed=1, truth=rs if with_truth else None)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound * int32_size

    def test_kmeans_blocks_stay_within_their_element_budget(self):
        # 10 depth-3 rows at v=64, s=3, full_tuple: k-means clusters 69 codes
        # of 192 coordinates into 64. Difference blocks of k centres, (69, 64,
        # 192) float64, took the peak to 21.4 MB; blocks of 2^15 elements
        # measured 8.3 MB, most of it k-means' lockstep restart arrays.
        rs = generate_rules(GrammarParams(depth=3, branching=3, vocab_size=64,
                                          n_synonyms=4, seed=1))
        seqs = sample_dataset(rs, 10, np.random.default_rng(2),
                              with_latents=False).sequences
        learn_grammar(seqs, 3, 3, 64, variant="full_tuple", seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model = learn_grammar(seqs, 3, 3, 64, variant="full_tuple", seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not model.levels[0].partial and model.levels[0].codes.size == 69
        assert peak < 10_000_000

    def test_learner_is_deterministic(self, rs_medium):
        ds = sample_dataset(rs_medium, 3000, np.random.default_rng(22),
                            with_latents=False)
        a = learn_grammar(ds.sequences, 2, 2, 16, seed=7)
        b = learn_grammar(ds.sequences, 2, 2, 16, seed=7)
        assert np.array_equal(a.top_tuples, b.top_tuples)
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.labels, lb.labels)

    @pytest.mark.parametrize("variant", ["single_token", "full_tuple"])
    @pytest.mark.parametrize("n_rows", [3, 600])
    def test_learning_step_is_the_explicit_chain(self, rs_deep, variant, n_rows):
        # learn -> generate -> score, as the sweep and `rhmlab learn` ran it
        rows = sample_dataset(rs_deep, n_rows, np.random.default_rng(5),
                              with_latents=False).sequences
        model, acc = _learning_step(rs_deep, rows, variant, 17, 23, 300)
        want = learn_grammar(rows, 3, 2, 3, variant=variant, seed=17, truth=rs_deep)
        gen = generate_from_learned(want, 300, np.random.default_rng(23))
        _assert_same_model(model, want)
        want_acc = accuracy(rs_deep, gen)
        assert type(acc) is tuple
        assert np.array(acc).tobytes() == np.array(want_acc).tobytes()


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
        counts = np.bincount(idx * vocab_size + latents[stage - 1].ravel(),
                             minlength=observed.size * vocab_size
                             ).reshape(observed.size, vocab_size)
        recovery = pair_agreement_score(label_of, counts.argmax(axis=1))
        stages.append((observed, label_of, recovery))
        labels = label_of[np.searchsorted(observed, block_codes)]
    return stages, np.unique(labels, axis=0)


class TestLearnGrammarCodeTables:
    """learn_grammar's code ranks and lookups against a sorted-list reference."""

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
        assert got.dtype == token_dtype(p.vocab_size) and np.array_equal(got, want)
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

    @pytest.mark.parametrize("bad_stage, offset, message", [
        (1, 8, r"stage 1 must lie in \[0, 8\)"),
        (1, -100, r"stage 1 must lie in \[0, 8\)"),
        (2, 8, r"stage 2 must lie in \[0, 8\)"),
        (2, -100, r"stage 2 must lie in \[0, 8\)"),
        # 0.7 used to be truncated away, so these labels learned the true classes
        (1, 0.7, r"stage 1 must hold integer tokens, not float64"),
        (2, 0.7, r"stage 2 must hold integer tokens, not float64"),
    ], ids=["past-v-below-top", "negative-below-top", "past-v-at-top", "negative-at-top",
            "float-below-top", "float-at-top"])
    def test_partition_labels_out_of_range_rejected(self, bad_stage, offset, message):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=4))
        ds = sample_dataset(rs, 500, np.random.default_rng(5), with_latents=False)

        def shifted(stage, codes):
            labels = true_tuple_classes(rs, stage, codes).astype(np.int64)
            return labels + offset if stage == bad_stage else labels

        with pytest.raises(ValueError, match=message):
            learn_grammar(ds.sequences, 3, 2, 8, partition_fn=shifted)

    def test_boolean_partition_labels_rejected(self):
        # bools used to be cast to the labels 0 and 1
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=4))
        ds = sample_dataset(rs, 500, np.random.default_rng(5), with_latents=False)
        with pytest.raises(ValueError, match="stage 1 must hold integer tokens, not bool"):
            learn_grammar(ds.sequences, 3, 2, 8,
                          partition_fn=lambda stage, codes: codes % 2 == 1)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(depth=st.integers(2, 4), branching=st.sampled_from([2, 3]),
       v=st.integers(3, 8), m=st.integers(1, 8), n_rows=st.integers(1, 300),
       variant=st.sampled_from(["single_token", "full_tuple"]),
       with_truth=st.booleans(), dtype=st.sampled_from([np.int32, np.int64]),
       injected=st.booleans(), seed=st.integers(0, 2**32))
def test_learn_grammar_matches_stage_loop_oracle(depth, branching, v, m, n_rows, variant,
                                                 with_truth, dtype, injected, seed):
    rs = generate_rules(GrammarParams(depth, branching, v, min(m, v), seed=seed))
    seqs = sample_dataset(rs, n_rows, np.random.default_rng(seed),
                          with_latents=False).sequences.astype(dtype)

    def partition_fn(stage, codes):
        return np.random.default_rng([seed, stage]).integers(0, v, size=codes.size)

    kwargs = dict(variant=variant, seed=seed, truth=rs if with_truth else None,
                  partition_fn=partition_fn if injected else None)
    got = learn_grammar(seqs, depth, branching, v, **kwargs)
    want = learn_grammar_oracle(seqs, depth, branching, v, **kwargs)
    assert len(got.levels) == depth - 1
    _assert_same_model(got, want)


def _assert_same_model(got, want):
    """Every stage's partition, the top tuples and the recovery, bit for bit;
    the labels and top tuples are symbols, in the token dtype."""
    symbols = token_dtype(got.vocab_size)
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        for field in dataclasses.fields(Partition):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == (symbols if field.name == "labels" else y.dtype)
                assert np.array_equal(x, y)
            else:
                assert x == y or (x != x and y != y)  # inertia is nan when injected
    assert got.top_tuples.dtype == symbols
    assert np.array_equal(got.top_tuples, want.top_tuples)
    assert got.recovery == want.recovery


class TestNarrowCodes:
    """Block codes, their ranks and the stage labels are kept narrow, and
    widened to intp only inside count keys. The shapes here fill the code
    type exactly: v**s - 1 is 255 in uint8 at v=16, s=2 and 65535 in uint16
    at v=256, s=2, and the observed codes outnumber v, so a rank times v
    overflows the narrow type."""

    @pytest.mark.parametrize("v, dtype", [(16, np.uint8), (256, np.uint16)])
    def test_block_codes_fill_their_narrow_type(self, v, dtype):
        labels = np.full((4, 3), v - 1, dtype=np.min_scalar_type(v - 1))
        codes = _block_codes(labels, v, 2)
        assert codes.dtype == dtype and codes.shape == (2, 3)
        assert (codes == v * v - 1).all()

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_uint8_codes_equal_the_oracle(self, with_truth):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=16,
                                          n_synonyms=4, seed=5))
        seqs = sample_dataset(rs, 3000, np.random.default_rng(6),
                              with_latents=False).sequences
        kwargs = dict(seed=7, truth=rs if with_truth else None)
        got = learn_grammar(seqs, 3, 2, 16, **kwargs)
        want = learn_grammar_oracle(seqs, 3, 2, 16, **kwargs)
        assert got.levels[0].codes.size == 64 and got.levels[1].codes.size > 16
        _assert_same_model(got, want)

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_uint16_codes_equal_the_oracle(self, with_truth):
        # k-means with k = 256 over 512 codes of 256 coordinates would need
        # gigabytes, so a fixed partition onto all 256 labels stands in.
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=256,
                                          n_synonyms=2, seed=5))
        seqs = sample_dataset(rs, 3000, np.random.default_rng(6),
                              with_latents=False).sequences

        def partition_fn(stage, codes):
            return (codes * 7 + stage) % 256

        kwargs = dict(seed=7, truth=rs if with_truth else None,
                      partition_fn=partition_fn)
        got = learn_grammar(seqs, 3, 2, 256, **kwargs)
        want = learn_grammar_oracle(seqs, 3, 2, 256, **kwargs)
        assert got.levels[0].codes.size > 256 and got.levels[1].codes.size > 256
        _assert_same_model(got, want)

    @pytest.mark.parametrize("variant", ["single_token", "full_tuple"])
    def test_uint16_context_counts_equal_the_oracle(self, variant):
        rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=256,
                                          n_synonyms=2, seed=5))
        seqs = sample_dataset(rs, 3000, np.random.default_rng(6),
                              with_latents=False).sequences
        stats = build_context_stats(seqs, seqs, 256, 2, variant)
        codes, triples = context_counts_oracle(seqs, seqs, 256, 2, variant)
        assert len(codes) > 256
        want_codes = np.array(sorted(codes), dtype=np.int64)
        assert np.array_equal(stats.codes, want_codes)
        assert np.array_equal(stats.counts, [codes[c] for c in want_codes])
        want = np.zeros_like(stats.vectors)
        for (code, t, x), count in triples.items():
            want[np.searchsorted(want_codes, code), t * 256 + x] = count / codes[code]
        assert np.array_equal(stats.vectors, want)


def _traced_peak(fn) -> int:
    """Tracemalloc peak of ``fn()`` above the memory held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestCodeSpaceMemory:
    """Context and majority counts are kept per observed code, so a few rows
    over a large code space need no table of v**s counts."""

    def test_learner_counts_need_no_dense_tables(self):
        # 10 depth-3 rows at v=64, s=3: 262,144 codes. The dense int64
        # tables peaked at 538 MB; the one code-space lookup is 1 MB of
        # uint32. A fixed partition stands in for k-means, whose own
        # (points, k, coordinates) blocks are not the learner's tables.
        rs = generate_rules(GrammarParams(depth=3, branching=3, vocab_size=64,
                                          n_synonyms=4, seed=1))
        seqs = sample_dataset(rs, 10, np.random.default_rng(0),
                              with_latents=False).sequences

        def learn():
            learn_grammar(seqs, 3, 3, 64, variant="full_tuple", truth=rs,
                          partition_fn=lambda stage, codes: codes % 64)

        learn()
        assert _traced_peak(learn) < 4_000_000

    def test_context_stats_need_no_dense_tables(self):
        # 10 depth-2 rows at v=32, s=3: the dense tables peaked at 17 MB.
        rs = generate_rules(GrammarParams(depth=2, branching=3, vocab_size=32,
                                          n_synonyms=4, seed=1))
        seqs = sample_dataset(rs, 10, np.random.default_rng(0),
                              with_latents=False).sequences
        assert _traced_peak(lambda: build_context_stats(seqs, seqs, 32, 3)) < 500_000


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

    def test_degenerate_construction_detected_three_children(self):
        # A -> (A, x, 0): slot 0's sibling x and slot 2's sibling x are
        # uniform, slot 1's sibling is the uniform root, whatever the symbol
        params = GrammarParams(depth=2, branching=3, vocab_size=2,
                               n_synonyms=2, seed=0)
        level1 = np.array([[[0, 0, 0], [0, 0, 1]], [[1, 1, 0], [1, 1, 1]]])
        level2 = np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
        rs = RuleSet(params, [level1, level2])
        for variant in ("single_token", "full_tuple"):
            assert population_context_collision(rs, variant)
            assert population_context_collision_oracle(rs, variant)

    @pytest.mark.parametrize("params", [
        GrammarParams(2, 2, 4, 3, seed=14),  # the colliding rows differ by 2.8e-17
        GrammarParams(2, 3, 2, 3, seed=3),  # and here by 1.1e-16
    ], ids=["s2-v4-m3", "s3-v2-m3"])
    def test_collision_within_the_tolerance_detected(self, params):
        # the shared vector comes out of differently ordered sums, so an exact
        # comparison would miss this collision
        rs = generate_rules(params)
        assert population_context_collision(rs)
        assert population_context_collision_oracle(rs)

    def test_matches_enumeration_oracle(self):
        # One fixed-seed grammar per shape: depth 2-4, s 2-3, v 2-6 and every
        # m up to 2e5 derivations (the oracle enumerates them, twice).
        answers = []
        for depth, s, v in itertools.product((2, 3, 4), (2, 3), range(2, 7)):
            for m in range(1, v ** (s - 1) + 1):
                if GrammarParams(depth, s, v, m).n_derivations > 200_000:
                    break
                seed = derive_seed(0, depth * 100 + s * 10 + v, f"collision m={m}")
                rs = generate_rules(GrammarParams(depth, s, v, m, seed=seed))
                for variant in ("single_token", "full_tuple"):
                    want = population_context_collision_oracle(rs, variant)
                    assert population_context_collision(rs, variant) == want, (
                        depth, s, v, m, variant)
                    answers.append(want)
        assert len(answers) == 232
        assert 0 < sum(answers) < len(answers)  # collisions and clean grammars

    @pytest.mark.parametrize("v, m_list, n_seeds", [(32, (1, 2, 3), 6), (300, (2,), 2)],
                             ids=["v32-uint8", "v300-uint16"])
    def test_matches_enumeration_oracle_past_the_table_dtype(self, v, m_list, n_seeds):
        # The joint's key a * v + b reaches v**2 - 1, past a uint8 table from
        # v = 17 and past a uint16 one from v = 257: formed in the table's
        # dtype it wraps, and these answers move.
        answers = []
        for m, k in itertools.product(m_list, range(n_seeds)):
            seed = derive_seed(0, v, f"wide key m={m} {k}")
            rs = generate_rules(GrammarParams(2, 2, v, m, seed=seed))
            assert rs.rules_at(2).dtype == token_dtype(v)
            for variant in ("single_token", "full_tuple"):
                want = population_context_collision_oracle(rs, variant)
                assert population_context_collision(rs, variant) == want, (m, k, variant)
                answers.append(want)
        assert 0 < sum(answers) < len(answers)

    def test_enumerates_nothing(self, rs_medium, monkeypatch):
        from rhmlab import grammar, learner

        def refuse(*args, **kwargs):
            raise AssertionError("the collision check must not enumerate")

        for module in (grammar, learner):
            for name in ("enumerate_all", "build_context_stats", "_count_contexts"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for variant in ("single_token", "full_tuple"):
            assert not population_context_collision(rs_medium, variant)

    def test_cap_error_iff_derivations_exceed_the_cap(self, rs_deep, monkeypatch):
        from rhmlab import grammar

        n = rs_deep.params.n_derivations
        monkeypatch.setattr(grammar, "DEFAULT_ENUMERATION_CAP", n)
        population_context_collision(rs_deep)
        assert enumerate_all(rs_deep).n_rows == n
        monkeypatch.setattr(grammar, "DEFAULT_ENUMERATION_CAP", n - 1)
        message = f"^{n} derivations exceed cap {n - 1}$"
        for check in (population_context_collision, enumerate_all):
            with pytest.raises(EnumerationCapError, match=message):
                check(rs_deep)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_unknown_variant_refused_before_any_work(self, depth):
        # depth 3, v=16, m=6 has 16 * 6**7 (4.5e6) derivations: past the cap
        rs = generate_rules(GrammarParams(depth, 2, 16, 6, seed=1))
        with pytest.raises(ValueError, match="'bogus'"):
            population_context_collision(rs, "bogus")


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

    @pytest.mark.parametrize("xs, ys", [([2, 4], [0, 8]), ([2, 4], [-1, 8]),
                                        ([0, 4], [1, 8]), ([2, 4], [np.nan, 8]),
                                        ([3, 3, 3], [1, 2, 4])])
    def test_fit_loglog_slope_refuses_bad_points(self, xs, ys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(ValueError, match="positive|not all equal"):
                fit_loglog_slope(xs, ys)

    @pytest.mark.parametrize("change, named", [
        ({"trials": 0}, "trials"), ({"n_eval": 0}, "n_eval"),
        ({"m_list": ()}, "m_list"), ({"m_list": (2, 2)}, "m_list"),
        ({"m_list": (0, 2)}, r"field 'm_list\[0\]' is 0, below its minimum 1"),
        ({"m_list": (2, 8)}, "m=8"),
        ({"m_list": (9,)}, "m=9"), ({"grid_span": 0.5}, "grid_span"),
        ({"grid_span": float("nan")}, "grid_span"),
        ({"cluster_threshold": 1.5}, "cluster_threshold"),
        ({"accuracy_threshold": -0.1}, "accuracy_threshold"),
        # each of these used to be truncated, ignored or to fail once cells ran
        ({"m_list": (2,), "p_grid": {2: (1.5, 64)}},
         r"field 'p_grid\.2\[0\]' must be of type integer, not 1\.5"),
        ({"m_list": (2,), "p_grid": {2: (0, 64)}},
         r"field 'p_grid\.2\[0\]' is 0, below its minimum 1"),
        ({"m_list": (2,), "p_grid": {2: (-5,)}},
         r"field 'p_grid\.2\[0\]' is -5, below its minimum 1"),
        ({"m_list": (2,), "p_grid": {2: ()}}, r"field 'p_grid\.2' has 0 items"),
        ({"m_list": (2,), "p_grid": {2: (True, 64)}},
         r"field 'p_grid\.2\[0\]' must be of type integer, not true"),
        ({"m_list": (2,), "p_grid": {9: (64,)}}, "p_grid names m=9"),
        ({"trials": True}, "trials"), ({"trials": 2.5}, "trials"),
        ({"n_eval": 1.5}, "n_eval"), ({"n_eval": True}, "n_eval"),
        ({"m_list": (2.5,)}, r"field 'm_list\[0\]' must be of type integer, not 2\.5"),
        ({"m_list": (True, 2)}, r"field 'm_list\[0\]' must be of type integer, not true"),
    ])
    def test_sweep_config_refuses_bad_fields(self, change, named):
        # vocab_size 8, branching 2: m = 8 has rule density 1
        kwargs = dict(depth=2, vocab_size=8, m_list=(2,), p_grid={8: (64,)})
        with pytest.raises(ValueError, match=named):
            SweepConfig(**{**kwargs, **change})

    @pytest.mark.parametrize("seed, message", [
        (True, "^SweepConfig field 'seed' must be of type integer"),
        (3.0, "^SweepConfig field 'seed' must be of type integer"),
        ("3", "^SweepConfig field 'seed' must be of type integer"),
        (-1, "^SweepConfig field 'seed' is -1, below its minimum 0"),
        (2**64, "^SweepConfig field 'seed' is 18446744073709551616, above its maximum"),
    ])
    def test_sweep_config_refuses_bad_seeds(self, seed, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(depth=2, m_list=(2,), trials=1, p_grid={2: (16,)}, seed=seed)

    def test_numpy_integer_seed_sweeps_as_the_int_seed(self):
        kwargs = dict(depth=2, vocab_size=8, m_list=(2,), trials=1,
                      p_grid={2: (16,)}, n_eval=32)
        a = measure_sample_complexity(SweepConfig(**kwargs, seed=np.int64(3)))
        b = measure_sample_complexity(SweepConfig(**kwargs, seed=3))
        assert a.records == b.records

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


class TestTokenChecks:
    """Tokens outside [0, vocab_size) are refused wherever they sit; unsigned
    rows learn exactly what signed rows do."""

    @pytest.mark.parametrize("token", [-1, 4, 7])
    def test_out_of_range_later_slot_rejected(self, token):
        # (0, 4) would alias code 4 = (1, 0); (3, 7) would pass the v**s table
        rows = np.random.default_rng(5).integers(0, 4, size=(50, 4))
        rows[:, 1] = token
        with pytest.raises(ValueError, match=rf"tokens must lie in \[0, 4\), found {token}"):
            learn_grammar(rows, 2, 2, 4)

    @pytest.mark.parametrize("token", [-1, 4])
    def test_context_stats_reject_out_of_range_labels(self, token):
        labels = np.zeros((3, 4), dtype=int)
        labels[2, 1] = token
        with pytest.raises(ValueError, match=rf"labels must lie in \[0, 4\), found {token}"):
            build_context_stats(labels, np.zeros((3, 4), dtype=int), 4, 2)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
    @pytest.mark.parametrize("variant", ["single_token", "full_tuple"])
    def test_unsigned_rows_learn_the_same_partitions(self, dtype, variant):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=6))
        seqs = sample_dataset(rs, 1500, np.random.default_rng(6),
                              with_latents=False).sequences.astype(np.int32)
        want = learn_grammar(seqs, 3, 2, 8, variant=variant, seed=3, truth=rs)
        got = learn_grammar(seqs.astype(dtype), 3, 2, 8, variant=variant, seed=3,
                            truth=rs)
        assert len(got.levels) == len(want.levels) == 2
        for a, b in zip(got.levels, want.levels):
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.labels, b.labels)
            assert (a.partial, a.inertia, a.n_iter, a.restart, a.restarts_run) == (
                b.partial, b.inertia, b.n_iter, b.restart, b.restarts_run)
        assert np.array_equal(got.top_tuples, want.top_tuples)
        assert got.recovery == want.recovery
        stats = build_context_stats(seqs.astype(dtype), seqs.astype(dtype), 8, 2,
                                    variant=variant)
        ref = build_context_stats(seqs, seqs, 8, 2, variant=variant)
        assert np.array_equal(stats.codes, ref.codes)
        assert np.array_equal(stats.vectors, ref.vectors)
