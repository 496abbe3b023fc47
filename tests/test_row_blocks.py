"""The row-blocked kernels against their earlier whole-array forms.

Sampling, parsing, the distinct filter, the learner's truth counts and the
one-step gradient must give the same bytes, dtypes and generator state as
the oracles in ``oracles.py`` at row counts on either side of a block
boundary, with the real block size and with blocks of a row or two. The
pair counts and code ranks every module shares must equal a ``Counter`` and
``np.unique`` at entry counts around a block. Each kernel's tracemalloc
peak is bounded by a multiple of its rows' int32 size; every bound fails for
the whole-array forms and sits at least 15% above the measured peak
(CHANGES.md records both).
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import (
    _expand_levels_unblocked_oracle,
    learn_grammar_parse_truth_oracle,
    one_step_gradient_bincount_oracle,
    parse_batch_unblocked_oracle,
    sample_dataset_unblocked_oracle,
    sample_distinct_dataset_set_oracle,
)
from rhmlab import (
    GrammarParams,
    RuleSet,
    accuracy,
    generate_rules,
    learn_grammar,
    one_step_gradient,
    parse_batch,
    sample_dataset,
    sample_distinct_dataset,
    tuple_next_token_pairs,
)
from rhmlab import grammar
from rhmlab.grammar import _code_ranks, _new_rows, _row_keys
from rhmlab.stats import _joint_counts

# Depth 6, s=2: 64-token rows, so a sampling block holds B rows.
RS = generate_rules(GrammarParams(depth=6, branching=2, vocab_size=8, n_synonyms=3,
                                  seed=5))
B = grammar._BLOCK_TOKENS // RS.params.seq_len
COUNTS = (0, 1, B - 1, B, B + 1, 2 * B + 3)
TINY_COUNTS = (0, 1, 2, 3, 77)  # with 64-token blocks: one row each at level 1


@pytest.fixture(params=["block", "tiny"])
def counts(request, monkeypatch):
    """Row counts around the real block size, or small counts with blocks
    of 64 tokens, so every level of every kernel runs many blocks."""
    if request.param == "tiny":
        monkeypatch.setattr(grammar, "_BLOCK_TOKENS", 64)
        return TINY_COUNTS
    return COUNTS


def _identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_rows(got, want):
    """The oracle's int32 rows, in the token dtype."""
    assert got.dtype == grammar.token_dtype(RS.params.vocab_size)
    assert got.shape == want.shape and np.array_equal(got, want)


def _same_dataset(got, want):
    _same_rows(got.sequences, want.sequences)
    assert got.meta == want.meta
    assert (got.latents is None) == (want.latents is None)
    for a, b in zip(got.latents or [], want.latents or []):
        _same_rows(a, b)


def _rows(n, seed):
    return sample_dataset(RS, n, np.random.default_rng(seed), with_latents=False).sequences


@pytest.mark.parametrize("with_latents", [True, False])
def test_sampler_matches_the_unblocked_sampler(counts, with_latents):
    for n in counts:
        rng_a, rng_b = np.random.default_rng([n, 1]), np.random.default_rng([n, 1])
        got = sample_dataset(RS, n, rng_a, with_latents=with_latents)
        want = sample_dataset_unblocked_oracle(RS, n, rng_b, with_latents=with_latents)
        _same_dataset(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("choice_dtype", [np.uint8, np.int32, np.uint64])
@pytest.mark.parametrize("with_latents", [True, False])
def test_expansion_matches_the_two_dimensional_gather(counts, choice_dtype,
                                                      with_latents):
    # From level 4 down, so the top is a row of several symbols.
    p = RS.params
    for n in counts:
        rng = np.random.default_rng([n, 4])
        top = rng.integers(0, p.vocab_size, size=(n, p.level_width(4)), dtype=np.int32)
        choices = [rng.integers(0, p.n_synonyms, size=(n, p.level_width(lvl)))
                   .astype(choice_dtype) for lvl in range(1, 5)]
        got = grammar._expand_levels(RS, top, choices, with_latents)
        want = _expand_levels_unblocked_oracle(RS, top, choices)
        if not with_latents:
            want = want[:1]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same_rows(a, b)


@pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.int64])
def test_parse_matches_the_unblocked_parse(counts, dtype):
    v = RS.params.vocab_size
    for n in counts:
        rng = np.random.default_rng([n, 2])
        tokens = _rows(n, n).astype(np.int64)
        noisy = rng.random(tokens.shape) < 0.002
        # negative tokens wrap to huge uint64 values
        tokens[noisy] = rng.integers(-2, v + 2, size=int(noisy.sum()))
        tokens = tokens.astype(dtype)
        got = parse_batch(RS, tokens)
        want = parse_batch_unblocked_oracle(RS, tokens)
        _identical(got[0], want[0])
        for a, b in zip(got[1] + got[2], want[1] + want[2]):
            _identical(a, b)


@pytest.mark.parametrize("with_latents", [True, False])
def test_distinct_filter_matches_the_set_filter(counts, with_latents):
    for n in counts:
        rng_a, rng_b = np.random.default_rng([n, 3]), np.random.default_rng([n, 3])
        got = sample_distinct_dataset(RS, n, rng_a, with_latents=with_latents)
        want = sample_distinct_dataset_set_oracle(RS, n, rng_b, with_latents=with_latents)
        _same_dataset(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _tied_rows(tails: np.ndarray) -> np.ndarray:
    """v=16, d=32 rows of one shared first 16 tokens (a row key's first
    word) followed by ``tails``."""
    head = np.full((tails.shape[0], 16), 5)
    return np.hstack([head, tails]).astype(np.uint8)


def test_new_rows_sorts_rows_whose_first_key_words_tie():
    rng = np.random.default_rng(11)
    tails = rng.integers(0, 16, size=(12, 16))
    # two batches with duplicates within each and across them, their second
    # key words out of order
    batches = [_tied_rows(tails[rng.integers(0, 8, size=30)]),
               _tied_rows(tails[rng.integers(4, 12, size=30)])]
    second = _row_keys(batches[0], 16).view(">u8")[1::2]
    assert (second[1:] < second[:-1]).any()
    seen, kept = _row_keys(batches[0][:0], 16), set()
    for rows in batches:
        fresh, seen = _new_rows(_row_keys(rows, 16), seen)
        want = []
        for i, row in enumerate(rows):
            if row.tobytes() not in kept:
                kept.add(row.tobytes())
                want.append(i)
        assert fresh.tolist() == want
        got = [key.tobytes() for key in seen]
        assert got == sorted(set(got)) and len(got) == len(kept)


@pytest.mark.parametrize("with_latents", [True, False])
def test_distinct_filter_matches_the_set_filter_when_first_key_words_tie(with_latents):
    # One production per symbol, so the root fixes the string: root r makes
    # (r % 4, r), and every lower symbol x makes (x, x + 1 mod 16). Roots
    # that agree mod 4 share the left subtree, the rows' first 16 tokens,
    # and differ after them. Batches of 64 draws of the 16 strings repeat
    # strings within a batch, and at this seed the first batch misses one,
    # so the second repeats strings of the first.
    lower = np.stack([np.arange(16), (np.arange(16) + 1) % 16], axis=1)[:, None, :]
    root = np.stack([np.arange(16) % 4, np.arange(16)], axis=1)[:, None, :]
    rs = RuleSet(GrammarParams(depth=5, branching=2, vocab_size=16, n_synonyms=1),
                 [lower] * 4 + [root])
    first = sample_dataset(rs, 64, np.random.default_rng(1), with_latents=False)
    assert np.unique(first.sequences, axis=0).shape[0] < 16
    for n in (1, 10, 16):
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        got = sample_distinct_dataset(rs, n, rng_a, with_latents=with_latents)
        want = sample_distinct_dataset_set_oracle(rs, n, rng_b, with_latents=with_latents)
        _same_dataset(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("vocab_size, width", [(16, 16), (16, 33), (2, 64), (2, 65),
                                               (3, 41), (255, 9)])
def test_row_keys_are_equal_exactly_for_equal_rows(vocab_size, width):
    # Rows that differ in one token only, in every position, including the
    # top digit of a code that fills all 64 bits (the word's top bit).
    base = np.full(width, vocab_size - 1, dtype=np.int32)
    rows = np.repeat(base[None, :], width + 2, axis=0)
    rows[np.arange(width), np.arange(width)] = vocab_size - 2
    rows[width + 1, :2] = 0  # the lowest top digit against the highest
    keys = _row_keys(rows, vocab_size)
    assert keys.shape == (width + 2,)
    assert np.unique(keys).size == width + 2
    assert _row_keys(rows[:1], vocab_size) == keys[0]
    twice = _row_keys(np.concatenate([rows, rows]), vocab_size)
    assert np.array_equal(twice[: width + 2], twice[width + 2 :])


@pytest.fixture(params=["block", "tiny"])
def entry_counts(request, monkeypatch):
    """Entry counts 0, 1, B-1, B, B+1 and 3B+7 around the block size B of a
    one-token row, the real one or 64."""
    if request.param == "tiny":
        monkeypatch.setattr(grammar, "_BLOCK_TOKENS", 64)
    b = grammar._block_rows(1)
    return (0, 1, b - 1, b, b + 1, 3 * b + 7)


@pytest.mark.parametrize("dtype, n_a, n_b", [
    (np.uint8, 16, 255),  # keys up to 15 * 255 + 254, past uint8
    (np.int16, 200, 300),  # past int16
    (np.uint16, 3, 65535),
    (np.int64, 7, 5),
])
def test_joint_counts_equal_the_counter(entry_counts, dtype, n_a, n_b):
    rng = np.random.default_rng(n_a)
    for n in entry_counts:
        a = rng.integers(0, n_a, size=n).astype(dtype)
        b = rng.integers(0, n_b, size=n).astype(dtype)
        want = np.zeros((n_a, n_b), dtype=np.int64)
        for (x, y), count in Counter(zip(a.tolist(), b.tolist())).items():
            want[x, y] = count
        got = _joint_counts(a, b, n_a, n_b)
        _identical(got, want)
        # any equal-size shapes, as the learner passes (blocks, rows) grids
        if n % 2 == 0:
            _identical(_joint_counts(a.reshape(2, -1), b, n_a, n_b), want)


@pytest.mark.parametrize("code_space", [1, 200, 256, 257, 70_000])
def test_code_ranks_equal_unique_and_searchsorted(entry_counts, code_space):
    rng = np.random.default_rng(code_space)
    rank_type = np.min_scalar_type(code_space - 1)
    for n in entry_counts:
        codes = rng.integers(0, code_space, size=(n, 1)).astype(np.min_scalar_type(
            code_space - 1))
        observed, ranks = _code_ranks(codes, code_space)
        want = np.unique(codes)
        assert np.array_equal(observed, want) and observed.dtype == np.intp
        _identical(ranks, np.searchsorted(want, codes).astype(rank_type))


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_code_ranks_are_byte_equal_on_both_sides_of_the_size_rule(
        entry_counts, monkeypatch, dtype):
    # A lookup while code_space <= _LOOKUP_PER_CODE * entries, np.unique and
    # searchsorted past that: forced either way, and at the rule's edge.
    rng = np.random.default_rng(9)
    per_code = grammar._LOOKUP_PER_CODE
    for n in entry_counts:
        for code_space in {1, 300, 70_000, per_code * n, per_code * n + 1} - {0}:
            codes = rng.integers(0, code_space, size=(n, 1)).astype(dtype)
            got = []
            for rule in (per_code, 0, 2**62):  # as set, never a lookup, always
                monkeypatch.setattr(grammar, "_LOOKUP_PER_CODE", rule)
                got.append(_code_ranks(codes, code_space))
            monkeypatch.setattr(grammar, "_LOOKUP_PER_CODE", per_code)
            for observed, ranks in got[1:]:
                _identical(observed, got[0][0])
                _identical(ranks, got[0][1])
            assert got[0][1].dtype == np.min_scalar_type(code_space - 1)


def test_learner_truth_matches_the_full_parse(counts):
    p = RS.params
    with pytest.raises(ValueError, match="empty input"):
        learn_grammar(_rows(0, 0), p.depth, p.branching, p.vocab_size, truth=RS)
    for n in counts[1:]:
        seqs = _rows(n, n + 4)
        got = learn_grammar(seqs, p.depth, p.branching, p.vocab_size, seed=n, truth=RS)
        want = learn_grammar_parse_truth_oracle(seqs, p.depth, p.branching,
                                                p.vocab_size, seed=n, truth=RS)
        assert got.recovery == want.recovery and len(got.recovery) == p.depth - 1
        assert len(got.levels) == len(want.levels)
        for a, b in zip(got.levels, want.levels):
            _identical(a.codes, b.codes)
            _identical(a.labels, b.labels)
        _identical(got.top_tuples, want.top_tuples)


def test_one_step_gradient_matches_the_bincount_gradient(counts):
    # One-step blocks hold rows of v softmax scores; n rows need v <= n,
    # since every label class must occur. The oracle forms every sample's
    # softmax row, the kernel one shared row, so the gradients agree bit for
    # bit only if that row does: at v = 4, 16 and 39, with skewed label
    # marginals, up to three row blocks.
    rng = np.random.default_rng(9)
    for v in (4, 16, 39):
        rows = grammar._block_rows(v)
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            if n == 0:
                continue
            vocab = min(v, n)
            skew = 1.0 / np.arange(1, vocab + 1) ** 2
            codes = rng.integers(0, 40, size=n)
            # every class once, the rest drawn from the skewed marginal
            labels = rng.permutation(np.concatenate([
                np.arange(vocab), rng.choice(vocab, size=n - vocab, p=skew / skew.sum())]))
            got = one_step_gradient(codes, labels, vocab)
            want = one_step_gradient_bincount_oracle(codes, labels, vocab)
            assert got.n == want.n == n
            for field in ("tuple_codes", "init_log_marginal", "init_weights", "grad_t",
                          "empirical_corr"):
                _identical(getattr(got, field), getattr(want, field))
    with pytest.raises(ValueError, match="non-empty"):
        one_step_gradient(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 4)


# Memory: 2e5 depth-4 rows, 3.2 MB of uint8 tokens. Bounds multiply the
# rows' int32 size, 12.8 MB.
@pytest.fixture(scope="module")
def big():
    rs = generate_rules(GrammarParams(depth=4, branching=2, vocab_size=16,
                                      n_synonyms=4, seed=3))
    seqs = sample_dataset(rs, 200_000, np.random.default_rng(4),
                          with_latents=False).sequences
    assert seqs.dtype == np.uint8 and seqs.nbytes == 3_200_000
    return rs, seqs


def _peak(fn) -> int:
    fn(100)  # one-time allocations (imports, caches) are not the kernel's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(None)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, bound", [
    # measured peaks, as multiples of the rows' int32 size: 0.69, 2.08, 1.28
    # and 0.20 (1.32 and 2.28 for the samplers with int32 rows, before the
    # distinct filter held only new keys through its insertion); the
    # whole-array forms with int32 rows measured 2.89, 5.13, 5.92 and 8.26
    ("sample_dataset", 0.8),
    ("parse_batch", 2.5),
    ("sample_distinct_dataset", 1.8),
    ("one_step_gradient", 0.5),
])
def test_peak_memory_is_a_bounded_multiple_of_the_rows(big, kernel, bound):
    rs, seqs = big
    n_rows = seqs.shape[0]
    codes, labels = tuple_next_token_pairs(seqs, 2, 16)
    calls = {
        "sample_dataset": lambda n: sample_dataset(
            rs, n or n_rows, np.random.default_rng(5), with_latents=False),
        "parse_batch": lambda n: parse_batch(rs, seqs[:n]),
        "sample_distinct_dataset": lambda n: sample_distinct_dataset(
            rs, n or n_rows, np.random.default_rng(5), with_latents=False),
        "one_step_gradient": lambda n: one_step_gradient(codes[:n], labels[:n], 16),
    }
    assert _peak(calls[kernel]) < bound * seqs.size * 4


def test_distinct_filter_keeps_no_copy_of_the_first_key_words():
    # 1e5 depth-5 rows (v=16, m=4), 3.2 MB of uint8 tokens. Sorting the
    # keys by their first words copies those words (0.8 MB) only for the
    # argsort, and the insertion into the seen keys holds only the new keys'
    # entries: measured 10.97 MiB; 11.73 MiB when the copy lived on through
    # the gather of the sorted keys, 12.50 MiB when a view of the sorted
    # keys outlived them, and 13.26 MiB with every sorted key held through
    # the insertion.
    rs = generate_rules(GrammarParams(depth=5, branching=2, vocab_size=16,
                                      n_synonyms=4, seed=3))
    assert _peak(lambda n: sample_distinct_dataset(
        rs, n or 100_000, np.random.default_rng(6), with_latents=False)) <= 11.3 * 2**20


def test_accuracy_holds_only_the_levels_it_reads():
    # 1e5 depth-5 rows, 3.2 MB of uint8 tokens: the parse keeps two levels'
    # parents at a time and no max_levels. Measured 2.93 MiB; keeping every
    # level's parents, as a full parse does, measured 4.36 MiB.
    rs = generate_rules(GrammarParams(depth=5, branching=2, vocab_size=16,
                                      n_synonyms=4, seed=3))
    seqs = sample_dataset(rs, 100_000, np.random.default_rng(4),
                          with_latents=False).sequences
    assert seqs.dtype == np.uint8
    assert _peak(lambda n: accuracy(rs, seqs[:n])) < 3.6 * 2**20
