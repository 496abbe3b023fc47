import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    token_dtype,
)
from rhmlab.bp import _categorical, _gather_index, _posterior, _upward_pass
from oracles import (
    bp_marginals_oracle,
    bp_posterior_sample_batch_oracle,
    enumeration_conditionals,
    production_index,
)

# The chi-square statistic with 31 degrees of freedom that a uniform draw
# exceeds with probability 1e-4: scipy.stats.chi2.isf(1e-4, 31).
CHI2_ISF_1E4_DF31 = 69.10569228986719

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
        inv = production_index(rs_small, 1)
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

    @pytest.mark.parametrize("bad, named", [
        (np.nan, "NaN"), (np.inf, "finite"), (-0.5, "nonnegative"),
    ], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("call", ["marginals", "sample"])
    def test_rejects_non_finite_or_negative_likelihood(self, bad, named, call):
        rs = generate_rules(GrammarParams(2, 2, 4, 2, seed=1))
        lik = np.ones((4, 4))
        lik[0, 0] = bad
        with pytest.raises(ValueError, match=named) as err:
            if call == "marginals":
                bp_marginals(rs, lik)
            else:
                bp_posterior_sample_batch(rs, lik, 3, np.random.default_rng(0))
        assert not isinstance(err.value, ImpossibleEvidenceError)


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


@st.composite
def oracle_cases(draw):
    """A grammar (depth 1-4, s 2-4, v 2-16, feasible m up to 16, any seed),
    leaf evidence from masking noise, uniform noise or random likelihoods
    with zero entries (which may admit no derivation), a draw count 0-20
    and a seed for the sampler's generator."""
    s = draw(st.integers(2, 4))
    v = draw(st.integers(2, 16))
    params = GrammarParams(
        depth=draw(st.integers(1, 4)), branching=s, vocab_size=v,
        n_synonyms=draw(st.integers(1, min(v ** (s - 1), 16))),
        seed=draw(st.integers(0, 2**32)),
    )
    rs = generate_rules(params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["masking", "uniform", "random"]))
    if kind == "random":
        lik = rng.random((params.seq_len, v))
        lik[rng.random(lik.shape) < draw(st.floats(0, 0.9))] = 0.0
    else:
        spec = NoiseSpec(kind=kind, beta_bar=draw(st.floats(0, 1)))
        x = sample_dataset(rs, 1, rng, with_latents=False).sequences[0]
        lik = leaf_likelihoods(corrupt(x, spec, v, rng)[0], spec, v)
    return rs, lik, draw(st.integers(0, 20)), draw(st.integers(0, 2**32))


def _outcome(call):
    """The call's result, or None when it raises ImpossibleEvidenceError."""
    try:
        return call()
    except ImpossibleEvidenceError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=oracle_cases())
def test_bp_is_bit_identical_to_the_oracle(case):
    rs, lik, n, seed = case
    state = _outcome(lambda: bp_marginals(rs, lik))
    want = _outcome(lambda: bp_marginals_oracle(rs, lik))
    assert (state is None) == (want is None)
    if want is not None:
        marginals, log_evidence = want
        assert len(state.marginals) == len(marginals)
        for got, ref in zip(state.marginals, marginals):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert state.log_evidence == log_evidence
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = _outcome(lambda: bp_posterior_sample_batch(rs, lik, n, rng))
    draws_ref = _outcome(lambda: bp_posterior_sample_batch_oracle(rs, lik, n, rng_ref))
    assert (draws is None) == (draws_ref is None)
    if draws_ref is not None:
        assert draws.dtype == token_dtype(rs.params.vocab_size)
        assert draws.shape == draws_ref.shape and np.array_equal(draws, draws_ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@st.composite
def noisy_cases(draw):
    """A grammar from :func:`oracle_cases`, a noise spec of either kind (a
    ``beta_bar`` or a linear schedule), and a noisy row: a corrupted sample
    of the grammar, or, now and then, any tokens, which the evidence may not
    admit."""
    rs, _, _, seed = draw(oracle_cases())
    v = rs.params.vocab_size
    kind = draw(st.sampled_from(["masking", "uniform"]))
    if draw(st.booleans()):
        spec = NoiseSpec.linear_schedule(kind, draw(st.integers(1, 6)))
    else:
        spec = NoiseSpec(kind=kind, beta_bar=draw(st.sampled_from([0.0, 0.5, 1.0])))
    rng = np.random.default_rng(seed)
    if draw(st.integers(0, 3)) == 0:
        noisy = rng.integers(0, v + (kind == "masking"), size=rs.params.seq_len)
    else:
        x = sample_dataset(rs, 1, rng, with_latents=False).sequences[0]
        noisy = corrupt(x, spec, v, rng)[0]
    return rs, noisy, spec


def _error(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return call()
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=noisy_cases())
def test_denoiser_is_the_leaf_marginals_byte_for_byte(case):
    rs, noisy, spec = case
    v = rs.params.vocab_size
    for row in (noisy, noisy[1:], np.append(noisy, 0)):  # then two wrong lengths
        got = _error(lambda: denoise_expectation(rs, row, spec))
        want = _error(lambda: bp_marginals(rs, leaf_likelihoods(row, spec, v)).marginals[0])
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert "evidence must have shape" in got[1]


@pytest.mark.parametrize("kind", ["masking", "uniform"])
def test_denoiser_raises_where_the_marginals_raise(rs_small, kind):
    spec = NoiseSpec(kind=kind, beta_bar=0.0)
    strings = np.indices((4,) * rs_small.params.seq_len).reshape(rs_small.params.seq_len, -1).T
    levels = parse_batch(rs_small, strings)[0]
    impossible = strings[levels < rs_small.params.depth]
    assert len(impossible)
    for row in impossible[:20]:
        with pytest.raises(ImpossibleEvidenceError) as want:
            bp_marginals(rs_small, leaf_likelihoods(row, spec, 4))
        with pytest.raises(ImpossibleEvidenceError) as got:
            denoise_expectation(rs_small, row, spec)
        assert str(got.value) == str(want.value)


# Positive evidence whose upward pass succeeds but whose later products
# underflow to zero: leaf entries 10**e, or 0 where e is None. Each case
# reaches one of the zero-mass checks past the upward pass.
UNDERFLOW_CASES = {
    "zero posterior mass": (GrammarParams(2, 2, 3, 2, seed=315), [
        [None, 0, None], [-310, None, 0], [0, None, -320], [None, None, 0],
    ]),
    "zero downward message": (GrammarParams(3, 2, 4, 1, seed=990), [
        [None, 0, None, None], [None, 0, None, None], [None, 0, None, -160],
        [None, 0, None, 0], [None, 0, None, -310], [None, -150, None, -160],
        [None, None, None, 0], [None, None, None, 0],
    ]),
}


@pytest.mark.parametrize("message", list(UNDERFLOW_CASES))
def test_underflowing_evidence_reaches_the_zero_mass_checks(message):
    params, exponents = UNDERFLOW_CASES[message]
    rs = generate_rules(params)
    lik = np.array([[0.0 if e is None else 10.0**e for e in row] for row in exponents])
    assert lik.max(axis=1).min() > 0  # every leaf has a possible value
    for call in (lambda: bp_marginals(rs, lik),
                 lambda: _posterior(rs, lik, every_level=False),
                 lambda: bp_marginals_oracle(rs, lik)):
        with pytest.raises(ImpossibleEvidenceError, match=f"^{message}$"):
            call()


def _marginals_match_oracle(rs, lik):
    """bp_marginals equals the oracle byte for byte, or both raise
    ImpossibleEvidenceError; returns whether the evidence was possible."""
    state = _outcome(lambda: bp_marginals(rs, lik))
    want = _outcome(lambda: bp_marginals_oracle(rs, lik))
    assert (state is None) == (want is None)
    if want is not None:
        for got, ref in zip(state.marginals, want[0], strict=True):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert state.log_evidence == want[1]
    return want is not None


def _draws_match_oracle(rs, lik, n, seed):
    """bp_posterior_sample_batch equals the oracle draw for draw and leaves
    the generator in the same state, or both raise ImpossibleEvidenceError."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = _outcome(lambda: bp_posterior_sample_batch(rs, lik, n, rng))
    want = _outcome(lambda: bp_posterior_sample_batch_oracle(rs, lik, n, rng_ref))
    assert (draws is None) == (want is None)
    if want is not None:
        assert draws.dtype == token_dtype(rs.params.vocab_size)
        assert np.array_equal(draws, want)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _noisy_evidence(rs, n_strings, seed, beta_bar=0.5):
    rng = np.random.default_rng(seed)
    v = rs.params.vocab_size
    spec = NoiseSpec(kind="uniform", beta_bar=beta_bar)
    clean = sample_dataset(rs, n_strings, rng, with_latents=False).sequences
    return [leaf_likelihoods(corrupt(x, spec, v, rng)[0], spec, v) for x in clean]


def test_bp_index_is_read_only_and_addresses_each_child(rs_deep):
    p = rs_deep.params
    for level in range(1, p.depth + 1):
        index = _gather_index(rs_deep)[level - 1]
        width, s, v = p.level_width(level), p.branching, p.vocab_size
        assert index.shape == (s, v, p.n_synonyms, width)
        assert index.dtype == np.intp and index.flags.c_contiguous
        node, slot = divmod(index // v, s)
        assert np.array_equal(node, np.broadcast_to(np.arange(width), index.shape))
        assert np.array_equal(slot, np.broadcast_to(
            np.arange(s)[:, None, None, None], index.shape))
        assert np.array_equal(index % v, np.broadcast_to(
            rs_deep.rules_at(level).transpose(2, 0, 1)[..., None], index.shape))
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0, 0, 0] = 3


class TestUpwardPassMemo:
    """Each grammar keeps its last upward pass, keyed by the evidence bytes;
    every call around the memo still matches the oracle bit for bit."""

    @pytest.fixture
    def rs(self):
        # A fresh grammar per test, so no earlier test has filled its memo.
        return generate_rules(GrammarParams(4, 2, 16, 4, seed=20))

    @pytest.mark.parametrize("draws_first", [False, True])
    def test_marginals_and_draws_of_one_string(self, rs, draws_first):
        for j, lik in enumerate(_noisy_evidence(rs, 20, seed=1)):
            if draws_first:
                _draws_match_oracle(rs, lik, 32, seed=j)
                passes = _upward_pass(rs, lik)
                assert _marginals_match_oracle(rs, lik)
            else:
                assert _marginals_match_oracle(rs, lik)
                passes = _upward_pass(rs, lik)
                _draws_match_oracle(rs, lik, 32, seed=j)
            # The second call of the pair reused the first call's pass.
            assert _upward_pass(rs, lik.copy()) is passes

    def test_evidence_changed_in_place_between_calls(self, rs):
        lik = _noisy_evidence(rs, 1, seed=2)[0]
        changed = _noisy_evidence(rs, 1, seed=3)[0]
        assert _marginals_match_oracle(rs, lik)
        lik[:] = changed
        assert _marginals_match_oracle(rs, lik)
        _draws_match_oracle(rs, lik, 16, seed=4)
        lik[5] = 1.0  # mask one leaf
        _draws_match_oracle(rs, lik, 16, seed=5)
        assert _marginals_match_oracle(rs, lik)

    def test_two_grammars_interleaved(self, rs):
        other = generate_rules(GrammarParams(4, 2, 16, 4, seed=21))
        liks = _noisy_evidence(rs, 6, seed=6)
        other_liks = _noisy_evidence(other, 6, seed=7)
        for j, (lik, other_lik) in enumerate(zip(liks, other_liks)):
            for grammar, evidence in ((rs, lik), (other, other_lik), (rs, lik),
                                      (other, lik), (rs, other_lik)):
                _marginals_match_oracle(grammar, evidence)
                _draws_match_oracle(grammar, evidence, 8, seed=j)

    def test_impossible_evidence_between_two_possible_calls(self, rs):
        lik, later = _noisy_evidence(rs, 2, seed=8)
        impossible = np.ones_like(lik)
        impossible[3] = 0.0  # a leaf no value can explain
        assert _marginals_match_oracle(rs, lik)
        passes = _upward_pass(rs, lik)
        assert not _marginals_match_oracle(rs, impossible)
        _draws_match_oracle(rs, impossible, 4, seed=9)
        # The failed passes left the memo as it was.
        assert _upward_pass(rs, lik) is passes
        _draws_match_oracle(rs, lik, 32, seed=10)
        assert _marginals_match_oracle(rs, later)
        _draws_match_oracle(rs, later, 32, seed=11)

    def test_cached_arrays_are_read_only(self, rs):
        lik = _noisy_evidence(rs, 1, seed=12)[0]
        state = bp_marginals(rs, lik)
        upward, gathered, prods, _ = _upward_pass(rs, lik)
        for arr in (*upward, *gathered, *prods):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.5
        # What the caller gets back stays theirs to write.
        state.marginals[0][0, 0] = 0.5
        assert _marginals_match_oracle(rs, lik)


class TestPosteriorSampling:
    @pytest.mark.parametrize("n", [-1, 2.0, True, np.bool_(True), "3", None])
    def test_rejects_a_bad_draw_count_before_any_work(self, n):
        rs = generate_rules(GrammarParams(2, 2, 4, 2, seed=1))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            bp_posterior_sample_batch(rs, np.ones((4, 4)), n, rng)
        assert rng.bit_generator.state == state
        assert rs._bp is None  # no upward pass ran

    @pytest.mark.parametrize("n", [0, np.int64(3), np.uint8(2)])
    def test_accepts_integer_draw_counts(self, rs_small, n):
        draws = bp_posterior_sample_batch(
            rs_small, np.ones((4, 4)), n, np.random.default_rng(0))
        assert draws.shape == (int(n), 4)

    def test_all_masked_matches_prior_chi_square(self, rs_small):
        n = 120_000
        seqs = bp_posterior_sample_batch(
            rs_small, np.ones((4, 4)), n, np.random.default_rng(6)
        )
        codes = seqs @ (4 ** np.arange(3, -1, -1))
        counts = np.bincount(codes, minlength=256)
        counts = counts[counts > 0]
        assert counts.size == 32
        expected = n / counts.size
        assert ((counts - expected) ** 2 / expected).sum() < CHI2_ISF_1E4_DF31

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

    def test_zero_uniform_never_draws_a_zero_probability_entry(self, rs_deep):
        class ZeroUniform:
            def random(self, size):
                return np.zeros(size)

        assert _categorical(np.cumsum([0.0, 0.5, 0.5])[:, None], 1, ZeroUniform())[0] == 1
        # Clean evidence leaves one derivation; u = 0 must still find it.
        ds = sample_dataset(rs_deep, 20, np.random.default_rng(3))
        for row in ds.sequences:
            lik = np.eye(rs_deep.params.vocab_size)[row]
            draws = bp_posterior_sample_batch(rs_deep, lik, 2, ZeroUniform())
            assert np.array_equal(draws, np.stack([row, row]))

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
