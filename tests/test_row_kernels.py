"""The row kernels (sampling, enumeration, resampling, parsing, context
counting and generation from a learned model) against per-row Python oracles:
every value, dtype and random draw must be equal. The oracles build rows in
int32; the kernels' rows hold the same values in ``token_dtype(vocab_size)``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    context_counts_oracle,
    expand_rows_oracle,
    generate_from_learned_oracle,
    parse_rows_oracle,
    sample_draws_oracle,
)
from rhmlab import (
    GrammarParams,
    build_context_stats,
    enumerate_all,
    generate_from_learned,
    generate_rules,
    learn_grammar,
    parse_batch,
    resample_below,
    sample_dataset,
    token_dtype,
)
from rhmlab.learner import VARIANTS

TOKEN_DTYPES = (np.int8, np.uint8, np.int32, np.int64)


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_rows(got, want, vocab_size):
    """The oracle's rows, in ``token_dtype(vocab_size)``."""
    assert got.dtype == token_dtype(vocab_size)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_same_parse(got, want):
    _assert_identical(got[0], want[0])
    assert len(got[1]) == len(want[1]) and len(got[2]) == len(want[2])
    for a, b in zip(got[1] + got[2], want[1] + want[2]):
        _assert_identical(a, b)


@st.composite
def kernel_cases(draw):
    """A small grammar (depth 1-4, s 2-3, v 2-6, any feasible m and seed),
    0-12 rows, a token dtype, the share of tokens replaced by values drawn
    from [-2, v+1], and a seed for every further draw."""
    s = draw(st.integers(2, 3))
    v = draw(st.integers(2, 6))
    params = GrammarParams(
        depth=draw(st.integers(1, 4)), branching=s, vocab_size=v,
        n_synonyms=draw(st.integers(1, v ** (s - 1))), seed=draw(st.integers(0, 2**32)),
    )
    return dict(
        rs=generate_rules(params),
        n=draw(st.integers(0, 12)),
        dtype=draw(st.sampled_from(TOKEN_DTYPES)),
        noise=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_row_kernels_match_per_row_oracles(case):
    rs, n, seed = case["rs"], case["n"], case["seed"]
    p = rs.params
    v, m = p.vocab_size, p.n_synonyms

    # sample_dataset: the documented draw order, expanded row by row
    ds = sample_dataset(rs, n, np.random.default_rng(seed))
    root, ref_choices = sample_draws_oracle(p, n, np.random.default_rng(seed))
    ref_levels = expand_rows_oracle(rs, root[:, None], ref_choices)
    _assert_rows(ds.sequences, ref_levels[0], v)
    for got, want in zip(ds.latents, ref_levels[1:]):
        _assert_rows(got, want, v)

    # enumerate_all: its rows are the expansion of its own roots through the
    # rule choices the per-row parse reads off them
    if p.n_derivations <= 4096:
        enum = enumerate_all(rs)
        _, _, enum_choices = parse_rows_oracle(rs, enum.sequences)
        ref_levels = expand_rows_oracle(rs, enum.latents[-1], enum_choices)
        for got, want in zip([enum.sequences] + enum.latents, ref_levels):
            _assert_rows(got, want, v)

    # parse_batch: grammatical rows with a share of tokens replaced by values
    # in [-2, v+1], in every token dtype, and a single 1-D row
    rng = np.random.default_rng([seed, 1])
    tokens = ds.sequences.astype(np.int64)
    noisy = rng.random(tokens.shape) < case["noise"]
    tokens[noisy] = rng.integers(-2, v + 2, size=int(noisy.sum()))
    tokens = tokens.astype(case["dtype"])
    _assert_same_parse(parse_batch(rs, tokens), parse_rows_oracle(rs, tokens))
    if n:
        _assert_same_parse(parse_batch(rs, tokens[0]), parse_rows_oracle(rs, tokens[0]))

    # resample_below: the same fresh choices, level by level, from the
    # oracle's parse, and the same generator state afterwards
    for level in range(1, p.depth + 1):
        rng_a = np.random.default_rng([seed, 2, level])
        rng_b = np.random.default_rng([seed, 2, level])
        got = resample_below(rs, ds.sequences, level, rng_a)
        _, latents, _ = parse_rows_oracle(rs, ds.sequences)
        fresh = [
            rng_b.integers(0, m, size=(n, p.level_width(lvl)), dtype=np.int32)
            for lvl in range(level, 0, -1)
        ]
        want = expand_rows_oracle(rs, latents[level - 1], fresh[::-1])[0]
        _assert_rows(got, want, v)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    if p.depth < 2:
        return
    # build_context_stats at every stage, both variants, against Counter counts
    for stage in range(1, p.depth):
        labels = ds.level_symbols(stage - 1)
        for variant in VARIANTS:
            stats = build_context_stats(labels, ds.sequences, v, p.branching,
                                        variant, level=stage)
            codes, triples = context_counts_oracle(labels, ds.sequences, v,
                                                   p.branching, variant)
            want_codes = np.array(sorted(codes), dtype=np.int64)
            _assert_identical(stats.codes, want_codes)
            _assert_identical(stats.counts,
                              np.array([codes[c] for c in want_codes], dtype=np.int64))
            n_ctx = stats.vectors.shape[1] // v
            want = np.zeros((want_codes.size, n_ctx * v))
            for (code, t, x), count in triples.items():
                i = int(np.searchsorted(want_codes, code))
                want[i, t * v + x] = count / codes[code]
            _assert_identical(stats.vectors, want)

    # generate_from_learned: same strings and generator state as one
    # masked draw per label, for a k-means model and a model of 1-3 rows
    if n:
        models = [
            learn_grammar(ds.sequences, p.depth, p.branching, v, seed=seed),
            learn_grammar(ds.sequences[: 1 + seed % 3], p.depth, p.branching, v,
                          seed=seed),
        ]
        for i, model in enumerate(models):
            n_gen = int(rng.integers(0, 40))
            rng_a = np.random.default_rng([seed, 3, i])
            rng_b = np.random.default_rng([seed, 3, i])
            got = generate_from_learned(model, n_gen, rng_a)
            want = generate_from_learned_oracle(model, n_gen, rng_b)
            _assert_rows(got, want, v)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
