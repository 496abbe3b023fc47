import numpy as np
import pytest

from rhmlab import (
    Dataset,
    GrammarParams,
    TokenCovarianceAccumulator,
    correlation_recursion_check,
    enumerate_all,
    ensemble_correlation_std,
    generate_rules,
    joint_correlation,
    population_token_tuple_correlation,
    recursion_prefactor,
    resample_below,
    sample_dataset,
    theory_prediction,
    token_token_correlation,
    token_tuple_correlation,
    true_tuple_classes,
)
from oracles import pair_joint_dp, token_pair_counts_oracle


class TestTokenTokenCorrelation:
    def test_iid_uniform_sits_on_noise_floor(self):
        rng = np.random.default_rng(0)
        v, n = 16, 2**15
        seqs = rng.integers(0, v, size=(n, 4))
        rep = token_token_correlation(seqs, 2, 2, v)
        assert rep.noise_floor == pytest.approx(1 / (v * np.sqrt(n)))
        assert np.all(rep.values / rep.noise_floor > 0.8)
        assert np.all(rep.values / rep.noise_floor < 1.2)

    def test_constant_dataset_is_exactly_zero(self):
        seqs = np.full((500, 4), 3)
        rep = token_token_correlation(seqs, 2, 2, 4)
        assert np.all(rep.values == 0.0)

    def test_population_matches_transfer_matrix_oracle(self, rs_small):
        enum = enumerate_all(rs_small)
        rep = token_token_correlation(enum.sequences, 2, 2, 4)
        # rebuild the per-class means from the independent DP oracle
        by_class = {1: [], 2: []}
        for i in range(4):
            for j in range(i + 1, 4):
                lca = 1 if i // 2 == j // 2 else 2
                joint = pair_joint_dp(rs_small, i, j)
                cov = joint - np.outer(joint.sum(1), joint.sum(0))
                by_class[lca].append(np.linalg.norm(cov) / 4)
        for dist, lca in ((2, 1), (4, 2)):
            want = np.mean(by_class[lca])
            got = rep.values[list(rep.distances).index(dist)]
            assert abs(got - want) <= 1e-9

    def test_row_shuffle_invariance(self, rs_small):
        ds = sample_dataset(rs_small, 400, np.random.default_rng(1), with_latents=False)
        rep_a = token_token_correlation(ds.sequences, 2, 2, 4)
        perm = np.random.default_rng(2).permutation(400)
        rep_b = token_token_correlation(ds.sequences[perm], 2, 2, 4)
        assert np.array_equal(rep_a.values, rep_b.values)

    def test_accumulator_merge_is_associative(self, rs_small):
        ds = sample_dataset(rs_small, 900, np.random.default_rng(3), with_latents=False)
        whole = token_token_correlation(ds.sequences, 2, 2, 4)
        shards = [
            TokenCovarianceAccumulator(2, 2, 4).update(ds.sequences[i::3])
            for i in range(3)
        ]
        merged_ab = shards[0].merge(shards[1]).merge(shards[2]).report()
        merged_ba = shards[2].merge(shards[0].merge(shards[1])).report()
        assert np.abs(merged_ab.values - whole.values).max() <= 1e-10
        assert np.abs(merged_ba.values - whole.values).max() <= 1e-10

    def test_grammar_samples_beat_floor_at_adjacent_distance(self, rs_medium):
        ds = sample_dataset(rs_medium, 10_000, np.random.default_rng(4),
                            with_latents=False)
        rep = token_token_correlation(ds.sequences, 2, 2, 16)
        near = rep.values[list(rep.distances).index(2)]
        assert near > 2 * rep.noise_floor

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            token_token_correlation(np.zeros((1, 4), dtype=int), 2, 2, 4)

    def test_correlation_decays_with_tree_distance(self):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=8,
                                          n_synonyms=2, seed=6))
        ds = sample_dataset(rs, 30_000, np.random.default_rng(9),
                            with_latents=False)
        rep = token_token_correlation(ds.sequences, 2, 3, 8)
        assert list(rep.distances) == [2, 4, 8]
        assert rep.values[0] > rep.values[1] > rep.values[2] > rep.noise_floor


class TestTokenCovarianceCounts:
    """Exact pair counts against one strided bincount per position pair, for
    vocabularies on both sides of the uint8/uint16/uint32 code-type limits."""

    @staticmethod
    def _rows(v, n=301, seed=0):
        return np.random.default_rng([seed, v]).integers(0, v, size=(n, 8))

    @pytest.mark.parametrize("v", [2, 16, 17, 256, 257])
    @pytest.mark.parametrize("layout", ["c", "every-other-row", "fortran", "int32"])
    def test_counts_equal_strided_oracle(self, v, layout):
        seqs = self._rows(v)
        seqs = {"c": seqs, "every-other-row": seqs[::2],
                "fortran": np.asfortranarray(seqs),
                "int32": seqs.astype(np.int32)}[layout]
        acc = TokenCovarianceAccumulator(2, 3, v).update(seqs)
        assert acc.counts.dtype == np.int64
        assert np.array_equal(acc.counts, token_pair_counts_oracle(seqs, 2, 3, v))
        assert acc.n_rows == seqs.shape[0]

    @pytest.mark.parametrize("v", [16, 257])
    def test_merged_shards_equal_one_update(self, v):
        seqs = self._rows(v, seed=1)
        whole = TokenCovarianceAccumulator(2, 3, v).update(seqs)
        merged = (TokenCovarianceAccumulator(2, 3, v).update(seqs[:100])
                  .merge(TokenCovarianceAccumulator(2, 3, v).update(seqs[100:])))
        assert np.array_equal(merged.counts, whole.counts)
        assert merged.n_rows == whole.n_rows

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_range_tokens_raise(self, bad):
        seqs = self._rows(16)
        seqs[5, 3] = bad
        with pytest.raises(ValueError):
            TokenCovarianceAccumulator(2, 3, 16).update(seqs)


class TestTokenTupleCorrelation:
    def test_column_sums_vanish(self, rs_medium):
        ds = sample_dataset(rs_medium, 3000, np.random.default_rng(5))
        corr = token_tuple_correlation(ds, 2)
        assert np.abs(corr.matrix.sum(axis=0)).max() < 1e-15

    def test_population_synonym_columns_identical(self, rs_small):
        pop = population_token_tuple_correlation(rs_small, 2)
        classes = true_tuple_classes(
            rs_small, 1, np.flatnonzero(rs_small.inverse_at(1) >= 0)
        )
        valid = np.flatnonzero(rs_small.inverse_at(1) >= 0)
        for cls in range(4):
            cols = pop.matrix[:, valid[classes == cls]]
            assert np.abs(cols - cols[:, :1]).max() < 1e-12

    def test_population_invalid_columns_zero(self, rs_small):
        pop = population_token_tuple_correlation(rs_small, 2)
        invalid = np.flatnonzero(rs_small.inverse_at(1) < 0)
        assert np.abs(pop.matrix[:, invalid]).max() == 0.0

    def test_level_bounds_and_missing_latents(self, rs_deep):
        ds = sample_dataset(rs_deep, 100, np.random.default_rng(6))
        with pytest.raises(ValueError):
            token_tuple_correlation(ds, 1)
        with pytest.raises(ValueError):
            token_tuple_correlation(ds, 4)
        bare = Dataset(sequences=ds.sequences, params=rs_deep.params)
        with pytest.raises(ValueError):
            token_tuple_correlation(bare, 3)

    def test_level_three_uses_latent_tuples(self, rs_deep):
        ds = sample_dataset(rs_deep, 5000, np.random.default_rng(7))
        corr = token_tuple_correlation(ds, 3)
        assert corr.matrix.shape[0] == 3
        assert np.abs(corr.matrix.sum(axis=0)).max() < 1e-15

    def test_joint_correlation_input_checks(self):
        with pytest.raises(ValueError):
            joint_correlation(np.array([0]), np.array([0, 1]), 2, 2)


class TestTheoryPrediction:
    def test_reference_numbers(self):
        params = GrammarParams(depth=3, branching=2, vocab_size=16, n_synonyms=4)
        pred = theory_prediction(params, 3)
        assert pred.rule_density == 0.25
        assert pred.sample_complexity == pytest.approx(16384 / 3)
        assert pred.local_complexity == 64
        pred2 = theory_prediction(params, 2, n_samples=1024)
        assert pred2.sampling_noise == pytest.approx((16**2 * 4 * 1024) ** -0.5)
        assert pred2.corr_magnitude == pytest.approx(
            np.sqrt(0.75 / (16**3 * 4**4))
        )

    def test_single_synonym_degenerate_but_finite(self):
        params = GrammarParams(depth=2, branching=2, vocab_size=4, n_synonyms=1)
        pred = theory_prediction(params, 2)
        f = 1 / 4
        assert pred.corr_magnitude == pytest.approx(np.sqrt((1 - f) / 4**3))
        assert pred.sample_complexity == pytest.approx(4 / (1 - f))

    def test_full_density_diverges(self):
        params = GrammarParams(depth=2, branching=2, vocab_size=4, n_synonyms=4)
        with pytest.raises(ValueError):
            theory_prediction(params, 2)

    def test_level_must_be_at_least_two(self):
        params = GrammarParams(depth=2, branching=2, vocab_size=4, n_synonyms=2)
        with pytest.raises(ValueError):
            theory_prediction(params, 1)


class TestRecursion:
    def test_prefactor_reference_value(self):
        assert recursion_prefactor(8, 2, 2) == pytest.approx(8 * 7 / (2 * 63))

    def test_prefactor_large_v_limit(self):
        assert recursion_prefactor(512, 2, 2) == pytest.approx(1 / 2, rel=2e-3)
        assert recursion_prefactor(512, 2, 4) == pytest.approx(1 / 4, rel=2e-3)

    def test_monte_carlo_agrees(self):
        chk = correlation_recursion_check(8, 2, 2, level=2, n_grammars=80, seed=3)
        assert chk.predicted_ratio == pytest.approx(0.4444, abs=1e-3)
        assert chk.empirical_ratio == pytest.approx(chk.predicted_ratio, rel=0.2)

    def test_deterministic_rules_at_bottom(self):
        chk = correlation_recursion_check(4, 2, 1, level=2, n_grammars=60, seed=4)
        assert chk.empirical_ratio == pytest.approx(chk.predicted_ratio, rel=0.3)

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            correlation_recursion_check(8, 2, 2, n_grammars=10)

    def test_ensemble_std_matches_prediction(self):
        params = GrammarParams(depth=2, branching=2, vocab_size=16, n_synonyms=4)
        want = theory_prediction(params, 2).corr_magnitude
        got = ensemble_correlation_std(16, 2, 4, level=2, n_grammars=40, seed=5)
        assert 0.5 < got / want < 2.0


class TestResampleInvariance:
    def test_correlations_invariant_under_synonym_exchange(self, rs_medium):
        # swapping low-level synonyms leaves the sampled distribution unchanged
        rng = np.random.default_rng(8)
        ds = sample_dataset(rs_medium, 4000, rng)
        base = token_token_correlation(ds.sequences, 2, 2, 16)
        swapped = resample_below(rs_medium, ds.sequences, 1, rng)
        rep = token_token_correlation(swapped, 2, 2, 16)
        # same estimator on an equal-size sample of the same law: values agree
        # within a few sampling-noise floors
        assert np.abs(rep.values - base.values).max() < 4 * base.noise_floor
