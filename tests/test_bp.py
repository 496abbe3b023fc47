import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from rhmlab import (
    GrammarParams,
    ImpossibleEvidenceError,
    NoiseSpec,
    bp_marginals,
    bp_posterior_sample_batch,
    corrupt,
    denoise_expectation,
    generate_rules,
    leaf_likelihoods,
    parse_batch,
    sample_dataset,
)
from oracles import enumeration_conditionals

# (depth, branching, vocab_size, n_synonyms) with branching above 2, where the
# product over a node's other children has more than one factor.
WIDE_SHAPES = [(2, 3, 3, 2), (2, 4, 2, 2), (3, 3, 2, 2)]


@pytest.fixture(
    scope="module", params=WIDE_SHAPES, ids=lambda t: "L{}-s{}-v{}-m{}".format(*t)
)
def rs_wide(request):
    depth, s, v, m = request.param
    return generate_rules(GrammarParams(depth, s, v, m, seed=5))


def _assert_matches_oracle(rs, lik, tol=1e-9):
    state = bp_marginals(rs, lik)
    want, logz = enumeration_conditionals(rs, lik)
    for lvl in range(rs.params.depth + 1):
        assert np.abs(state.marginals[lvl] - want[lvl]).max() <= tol
    assert abs(state.log_evidence - logz) <= 1e-9
    return state


class TestMarginals:
    def test_uninformative_leaves_give_prior(self, rs_small):
        _assert_matches_oracle(rs_small, np.ones((4, 4)))

    def test_clean_sample_is_point_mass(self, rs_small):
        ds = sample_dataset(rs_small, 5, np.random.default_rng(0))
        for row in range(5):
            lik = np.eye(4)[ds.sequences[row]]
            state = bp_marginals(rs_small, lik)
            for lvl in range(3):
                want = np.eye(4)[ds.level_symbols(lvl)[row]]
                assert np.abs(state.marginals[lvl] - want).max() < 1e-12

    def test_single_masked_leaf_matches_conditional(self, rs_small):
        ds = sample_dataset(rs_small, 3, np.random.default_rng(1))
        for row in range(3):
            lik = np.eye(4)[ds.sequences[row]]
            lik[0] = 1.0  # mask exactly the first leaf
            _assert_matches_oracle(rs_small, lik)

    def test_all_masking_patterns(self, rs_small):
        ds = sample_dataset(rs_small, 1, np.random.default_rng(2))
        x = ds.sequences[0]
        for pattern in range(16):
            lik = np.eye(4)[x]
            for i in range(4):
                if pattern >> i & 1:
                    lik[i] = 1.0
            _assert_matches_oracle(rs_small, lik)

    def test_random_likelihoods_deep(self, rs_deep):
        rng = np.random.default_rng(3)
        for _ in range(25):
            lik = rng.random((8, 3)) + 1e-4
            _assert_matches_oracle(rs_deep, lik)

    def test_uninformative_leaves_give_prior_wide(self, rs_wide):
        p = rs_wide.params
        _assert_matches_oracle(rs_wide, np.ones((p.seq_len, p.vocab_size)))

    def test_random_likelihoods_wide(self, rs_wide):
        p = rs_wide.params
        rng = np.random.default_rng(13)
        for _ in range(10):
            lik = rng.random((p.seq_len, p.vocab_size)) + 1e-4
            _assert_matches_oracle(rs_wide, lik)

    def test_masked_samples_wide(self, rs_wide):
        p = rs_wide.params
        rng = np.random.default_rng(14)
        ds = sample_dataset(rs_wide, 6, rng)
        for row in range(6):
            lik = np.eye(p.vocab_size)[ds.sequences[row]]
            lik[rng.random(p.seq_len) < row / 6] = 1.0  # row 0 stays clean
            _assert_matches_oracle(rs_wide, lik)

    def test_normalization(self, rs_deep):
        rng = np.random.default_rng(4)
        lik = rng.random((8, 3))
        state = bp_marginals(rs_deep, lik)
        for lvl in range(4):
            assert np.abs(state.marginals[lvl].sum(axis=1) - 1).max() < 1e-12

    def test_scaling_invariance(self, rs_small):
        rng = np.random.default_rng(5)
        lik = rng.random((4, 4)) + 0.1
        base = bp_marginals(rs_small, lik)
        scaled = lik.copy()
        scaled[2] *= 731.0
        state = bp_marginals(rs_small, scaled)
        for lvl in range(3):
            assert np.abs(state.marginals[lvl] - base.marginals[lvl]).max() < 1e-12
        # evidence picks up exactly the scale factor
        assert state.log_evidence - base.log_evidence == pytest.approx(np.log(731.0))

    def test_impossible_evidence_raises(self, rs_small):
        lik = np.ones((4, 4))
        lik[1] = 0.0
        with pytest.raises(ImpossibleEvidenceError):
            bp_marginals(rs_small, lik)
        # structurally impossible: two clean tuples that parse nowhere
        inv = rs_small.inverse_at(1)
        bad_code = int(np.flatnonzero(inv < 0)[0])
        seq = np.array([bad_code // 4, bad_code % 4, 0, 0])
        lik = np.eye(4)[seq]
        lik[2:] = 1.0
        with pytest.raises(ImpossibleEvidenceError):
            bp_marginals(rs_small, lik)

    def test_rejects_negative_or_misshaped(self, rs_small):
        with pytest.raises(ValueError):
            bp_marginals(rs_small, -np.ones((4, 4)))
        with pytest.raises(ValueError):
            bp_marginals(rs_small, np.ones((3, 4)))


@st.composite
def grammar_evidence(draw):
    """A small grammar (depth 1-4, s 2-3, v 2-6, any feasible m, any seed),
    leaf likelihoods with some zero entries that still admit one of its
    derivations, and one scale factor per leaf in [1e-3, 1e3]."""
    s = draw(st.integers(2, 3))
    v = draw(st.integers(2, 6))
    params = GrammarParams(
        depth=draw(st.integers(1, 4)), branching=s, vocab_size=v,
        n_synonyms=draw(st.integers(1, v ** (s - 1))), seed=draw(st.integers(0, 2**32)),
    )
    rs = generate_rules(params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    x = sample_dataset(rs, 1, rng, with_latents=False).sequences[0]
    lik = rng.random((params.seq_len, v))
    lik[rng.random(lik.shape) < draw(st.floats(0, 0.9))] = 0.0
    lik[np.arange(params.seq_len), x] = 0.01 + rng.random(params.seq_len)  # x stays possible
    scale = 10.0 ** rng.uniform(-3, 3, size=params.seq_len)
    return rs, lik, scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=grammar_evidence())
def test_marginals_normalized_and_invariant_to_leaf_scaling(case):
    rs, lik, scale = case
    base = bp_marginals(rs, lik)
    scaled = bp_marginals(rs, lik * scale[:, None])
    for lvl in range(rs.params.depth + 1):
        for state in (base, scaled):
            assert np.abs(state.marginals[lvl].sum(axis=1) - 1).max() <= 1e-12
        assert np.abs(scaled.marginals[lvl] - base.marginals[lvl]).max() <= 1e-12
    # the evidence picks up exactly the product of the scale factors
    shift = scaled.log_evidence - base.log_evidence
    assert abs(shift - np.log(scale).sum()) <= 1e-9


class TestPosteriorSampling:
    def test_all_masked_matches_prior_chi_square(self, rs_small):
        n = 120_000
        seqs = bp_posterior_sample_batch(
            rs_small, np.ones((4, 4)), n, np.random.default_rng(6)
        )
        codes = seqs @ (4 ** np.arange(3, -1, -1))
        counts = np.bincount(codes, minlength=256)
        counts = counts[counts > 0]
        assert counts.size == 32
        _, pvalue = sps.chisquare(counts)
        assert pvalue > 1e-4

    def test_clean_input_returns_unique_parse(self, rs_small):
        ds = sample_dataset(rs_small, 4, np.random.default_rng(7))
        for row in range(4):
            lik = np.eye(4)[ds.sequences[row]]
            draws = bp_posterior_sample_batch(
                rs_small, lik, 1, np.random.default_rng(row)
            )
            assert np.array_equal(draws[0], ds.sequences[row])
            max_levels, latents, _ = parse_batch(rs_small, draws)
            assert max_levels[0] == 2
            for lvl in range(1, 3):
                assert np.array_equal(latents[lvl - 1][0], ds.level_symbols(lvl)[row])

    def test_sample_marginals_match_bp_at_every_node(self, rs_small):
        rng = np.random.default_rng(8)
        lik = rng.random((4, 4)) + 0.05
        state = bp_marginals(rs_small, lik)
        n = 60_000
        draws = bp_posterior_sample_batch(rs_small, lik, n, rng)
        # unambiguity: parsing the sampled strings recovers their latents
        _, latents, _ = parse_batch(rs_small, draws)
        per_level = [draws] + latents
        for lvl in range(3):
            for pos in range(per_level[lvl].shape[1]):
                freq = np.bincount(per_level[lvl][:, pos], minlength=4) / n
                p = state.marginals[lvl][pos]
                se = np.sqrt(p * (1 - p) / n) + 1e-9
                assert np.all(np.abs(freq - p) < 4 * se)

    def test_sample_marginals_match_bp_branching_three(self):
        rs = generate_rules(GrammarParams(2, 3, 3, 2, seed=5))
        rng = np.random.default_rng(15)
        lik = rng.random((9, 3)) + 0.05
        state = bp_marginals(rs, lik)
        n = 60_000
        draws = bp_posterior_sample_batch(rs, lik, n, rng)
        max_levels, latents, _ = parse_batch(rs, draws)
        assert np.all(max_levels == 2)
        per_level = [draws] + latents
        for lvl in range(3):
            for pos in range(per_level[lvl].shape[1]):
                freq = np.bincount(per_level[lvl][:, pos], minlength=3) / n
                p = state.marginals[lvl][pos]
                se = np.sqrt(p * (1 - p) / n) + 1e-9
                assert np.all(np.abs(freq - p) < 4 * se)

    def test_sampled_derivations_are_grammatical(self, rs_deep):
        rng = np.random.default_rng(9)
        lik = rng.random((8, 3)) + 0.05
        draws = bp_posterior_sample_batch(rs_deep, lik, 20, rng)
        max_levels, latents, choices = parse_batch(rs_deep, draws)
        assert np.all(max_levels == 3)
        # every parent and its choice reproduce the children, row by row
        levels = [draws] + latents
        for lvl in range(1, 4):
            expand = rs_deep.rules_at(lvl)[levels[lvl], choices[lvl - 1]]
            assert np.array_equal(expand.reshape(20, -1), levels[lvl - 1])


class TestDenoiseExpectation:
    def test_no_noise_is_one_hot(self, rs_small):
        ds = sample_dataset(rs_small, 2, np.random.default_rng(10))
        spec = NoiseSpec(kind="uniform", beta_bar=0.0)
        out = denoise_expectation(rs_small, ds.sequences[0], spec)
        assert np.abs(out - np.eye(4)[ds.sequences[0]]).max() < 1e-12

    def test_full_masking_is_prior(self, rs_small):
        spec = NoiseSpec(kind="masking", beta_bar=1.0)
        out = denoise_expectation(rs_small, np.full(4, 4), spec)
        prior, _ = enumeration_conditionals(rs_small, np.ones((4, 4)))
        assert np.abs(out - prior[0]).max() < 1e-9

    def test_partial_masking_matches_enumeration(self, rs_small):
        rng = np.random.default_rng(11)
        spec = NoiseSpec(kind="masking", beta_bar=0.5)
        ds = sample_dataset(rs_small, 10, rng)
        for row in range(10):
            noisy, _ = corrupt(ds.sequences[row], spec, 4, rng)
            lik = leaf_likelihoods(noisy, spec, 4)
            out = denoise_expectation(rs_small, noisy, spec)
            want, _ = enumeration_conditionals(rs_small, lik)
            assert np.abs(out - want[0]).max() <= 1e-9

    def test_uniform_noise_matches_enumeration(self, rs_deep):
        rng = np.random.default_rng(12)
        spec = NoiseSpec(kind="uniform", beta_bar=0.6)
        ds = sample_dataset(rs_deep, 5, rng)
        for row in range(5):
            noisy, _ = corrupt(ds.sequences[row], spec, 3, rng)
            out = denoise_expectation(rs_deep, noisy, spec)
            want, _ = enumeration_conditionals(
                rs_deep, leaf_likelihoods(noisy, spec, 3)
            )
            assert np.abs(out - want[0]).max() <= 1e-9
