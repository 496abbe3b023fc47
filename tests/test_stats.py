import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhmlab import (
    Dataset,
    EnumerationCapError,
    GrammarParams,
    TokenCovarianceAccumulator,
    build_context_stats,
    correlation_recursion_check,
    derive_seed,
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
from rhmlab import stats
from rhmlab.grammar import encode_tuples
from oracles import (
    correlation_recursion_check_loop,
    ensemble_correlation_std_loop,
    joint_correlation_oracle,
    pair_joint_dp,
    population_token_tuple_correlation_oracle,
    production_index,
    token_pair_counts_oracle,
    token_tuple_correlation_oracle,
    transfer_matrix_correlation_loop,
)


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
    """Exact pair counts, read from r-position group tables, against one
    bincount per position pair, for vocabularies on both sides of the
    4096-bin group bound and of the uint8/uint16/uint32 code-type limits."""

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_counts_equal_pair_oracle_at_any_shape(self, data):
        # d = s**depth stays at most 81, so the oracle's pair loop stays small.
        s = data.draw(st.integers(2, 4), label="branching")
        depth = data.draw(st.integers(1, {2: 5, 3: 4, 4: 3}[s]), label="depth")
        v = data.draw(st.integers(2, 20), label="vocab_size")
        n = data.draw(st.sampled_from([0, 1, 2, 301]), label="rows")
        dtype = data.draw(st.sampled_from([np.int8, np.uint16, np.int64]), label="dtype")
        seqs = np.random.default_rng([s, depth, v, n]).integers(
            0, v, size=(n, s**depth)).astype(dtype)
        acc = TokenCovarianceAccumulator(s, depth, v).update(seqs)
        assert acc.counts.dtype == np.int64 and acc.n_rows == n
        assert np.array_equal(acc.counts, token_pair_counts_oracle(seqs, s, depth, v))
        half = n // 2
        merged = (TokenCovarianceAccumulator(s, depth, v).update(seqs[:half])
                  .merge(TokenCovarianceAccumulator(s, depth, v).update(seqs[half:])))
        assert np.array_equal(merged.counts, acc.counts) and merged.n_rows == n

    @pytest.mark.parametrize("v, d, r", [
        (16, 32, 3), (17, 32, 2), (64, 32, 2), (257, 8, 2), (8, 32, 4),
        (4, 32, 6), (2, 32, 12), (2, 4, 4), (16, 2, 2),
    ])
    def test_group_size_is_the_largest_within_4096_bins(self, v, d, r, monkeypatch):
        seen = []
        cover = stats._pair_cover

        def recording(*args):
            seen.append(args)
            return cover(*args)

        monkeypatch.setattr(stats, "_pair_cover", recording)
        TokenCovarianceAccumulator(d, 1, v).update(np.zeros((3, d), dtype=np.int32))
        assert seen == [(d, r)]

    @pytest.mark.parametrize("d, r", [
        (2, 2), (3, 3), (8, 3), (32, 2), (32, 3), (32, 4), (32, 12), (27, 7), (81, 3),
    ])
    def test_cover_reads_every_pair_from_exactly_one_group(self, d, r):
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        read = []
        for members, reads in stats._pair_cover(d, r):
            assert 2 <= len(members) <= r
            assert list(members) == sorted(set(members))
            for axes, pair in reads:
                kept = tuple(m for x, m in enumerate(members) if x not in axes)
                assert kept == pairs[pair]
                read.append(pair)
        assert sorted(read) == list(range(len(pairs)))
        if r == 2:
            assert [members for members, _ in stats._pair_cover(d, r)] == pairs

    def test_cover_is_fixed(self):
        stats._pair_cover.cache_clear()
        first = stats._pair_cover(32, 3)
        stats._pair_cover.cache_clear()
        assert stats._pair_cover(32, 3) == first
        assert stats._pair_cover(32, 3) is stats._pair_cover(32, 3)  # cached
        # 171 triples cover the 496 pairs of 32 positions; 166 is the floor.
        assert len(first) == 171
        assert all(len(members) == 3 for members, _ in first[:-1])

    def test_depth_five_ternary_cover_builds_in_under_100ms(self):
        times = []
        for _ in range(3):
            stats._pair_cover.cache_clear()
            t0 = time.perf_counter()
            cover = stats._pair_cover(243, 3)
            times.append(time.perf_counter() - t0)
        assert sum(len(reads) for _, reads in cover) == 243 * 242 // 2
        assert min(times) < 0.1

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
        valid = np.flatnonzero(production_index(rs_small, 1) >= 0)
        classes = true_tuple_classes(rs_small, 1, valid)
        for cls in range(4):
            cols = pop.matrix[:, valid[classes == cls]]
            assert np.abs(cols - cols[:, :1]).max() < 1e-12

    def test_population_invalid_columns_zero(self, rs_small):
        pop = population_token_tuple_correlation(rs_small, 2)
        invalid = np.flatnonzero(production_index(rs_small, 1) < 0)
        assert np.abs(pop.matrix[:, invalid]).max() == 0.0

    def test_population_past_the_enumeration_cap(self):
        rs = generate_rules(GrammarParams(5, 2, 16, 4, seed=3))
        with pytest.raises(EnumerationCapError):
            enumerate_all(rs)
        for level in range(2, 6):
            mat = population_token_tuple_correlation(rs, level).matrix
            assert np.isfinite(mat).all()
            inv = production_index(rs, level - 1)
            assert np.all(mat[:, inv < 0] == 0.0)
            valid = np.flatnonzero(inv >= 0)
            classes = true_tuple_classes(rs, level - 1, valid)
            for cls in range(16):
                cols = mat[:, valid[classes == cls]]
                assert np.abs(cols - cols[:, :1]).max() < 1e-12
            assert np.abs(mat.sum(axis=0)).max() <= 1e-15
            assert np.abs(mat.sum(axis=1)).max() <= 1e-15

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


NARROW = (np.uint8, np.int8, np.int16)


def _cast(ds, dtype):
    return Dataset(sequences=ds.sequences.astype(dtype), params=ds.params,
                   latents=[x.astype(dtype) for x in ds.latents])


def test_tuple_ranks_are_sized_by_the_rows_not_the_code_space():
    # v=64, s=4: 2**24 tuple codes, of which 2,000 rows observe 253. A lookup
    # of the code space peaked at 67.1 MB; np.unique and searchsorted past
    # the size rule measured 0.54 MB.
    rs = generate_rules(GrammarParams(depth=2, branching=4, vocab_size=64,
                                      n_synonyms=4, seed=1))
    ds = sample_dataset(rs, 2000, np.random.default_rng(2))
    token_tuple_correlation(ds, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = token_tuple_correlation(ds, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got.codes.size == 253 and got.matrix.shape == (64, 253)
    assert peak < 1_000_000


class TestAnyIntegerDtype:
    """Pair keys are formed in intp, so every integer dtype gives the int64
    result, also where ``first token * observed tuples`` passes the
    dtype's range."""

    # v=16: the keys pass the uint8 and int8 ranges; v=128: the int16 range.
    @pytest.mark.parametrize("params, n_rows, level", [
        pytest.param(GrammarParams(3, 2, 16, 4, seed=2), 5000, 2, id="v16-level2"),
        pytest.param(GrammarParams(3, 2, 16, 4, seed=2), 5000, 3, id="v16-level3"),
        pytest.param(GrammarParams(2, 2, 128, 4, seed=3), 3000, 2, id="v128-level2"),
    ])
    @pytest.mark.parametrize("dtype", NARROW + (np.int64,))
    def test_token_tuple_correlation_equals_the_int64_oracle(self, params, n_rows,
                                                             level, dtype):
        ds = sample_dataset(generate_rules(params), n_rows, np.random.default_rng(1))
        want = token_tuple_correlation_oracle(ds, level)
        got = token_tuple_correlation(_cast(ds, dtype), level)
        assert got.codes.dtype == want.codes.dtype
        assert np.array_equal(got.codes, want.codes)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        if params.vocab_size == 128 or dtype != np.int16:
            top = int(ds.sequences[:, 0].max()) * want.codes.size
            assert dtype == np.int64 or top > np.iinfo(dtype).max

    @pytest.mark.parametrize("dtype", NARROW + (np.int64,))
    def test_joint_correlation_equals_the_int64_oracle(self, dtype):
        rng = np.random.default_rng(4)
        # n_b = 4000 puts 15 * n_b past every narrow range.
        for n_a, n_b, n in ((16, 4000, 3000), (16, 4000, 2), (5, 7, 200)):
            a = rng.integers(0, n_a, size=n)
            b = rng.integers(0, min(n_b, np.iinfo(dtype).max + 1), size=n)
            a[0] = n_a - 1
            want = joint_correlation_oracle(a, b, n_a, n_b)
            got = joint_correlation(a.astype(dtype), b.astype(dtype), n_a, n_b)
            assert got.tobytes() == want.tobytes()
        got = joint_correlation(np.array([15, 0], dtype=dtype),
                                np.array([0, 1], dtype=dtype), 16, 4000)
        assert got[15, 0] == got[0, 1] == 0.25 and got[15, 1] == got[0, 0] == -0.25

    def test_entries_outside_the_tables_are_refused(self):
        with pytest.raises(ValueError, match=r"^b must lie in \[0, 3\), found 3$"):
            joint_correlation(np.array([0, 1]), np.array([0, 3]), 2, 3)
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 2\), found -1$"):
            joint_correlation(np.array([-1, 1], dtype=np.int8), np.array([0, 2]), 2, 3)
        with pytest.raises(ValueError, match="a must hold integer tokens"):
            joint_correlation(np.array([0.0, 1.0]), np.array([0, 2]), 2, 3)

    def test_mask_token_and_unparsed_symbols_are_refused(self, rs_deep):
        ds = sample_dataset(rs_deep, 200, np.random.default_rng(8))
        v = rs_deep.params.vocab_size
        masked = ds.sequences.copy()
        masked[7, 0] = v  # the mask token, in the first-token column
        with pytest.raises(ValueError, match=rf"first tokens must lie in \[0, {v}\)"):
            token_tuple_correlation(Dataset(masked, rs_deep.params, ds.latents), 2)
        masked = ds.sequences.copy()
        masked[7, rs_deep.params.branching] = v  # and in the level-2 tuple
        with pytest.raises(ValueError, match="tuple symbols must lie"):
            token_tuple_correlation(Dataset(masked, rs_deep.params, ds.latents), 2)
        latents = [x.copy() for x in ds.latents]
        latents[0][3, rs_deep.params.branching] = v  # an unparsed level-1 symbol
        with pytest.raises(ValueError, match=rf"tuple symbols must lie .*found {v}$"):
            token_tuple_correlation(Dataset(ds.sequences, rs_deep.params, latents), 3)


@st.composite
def population_cases(draw):
    depth = draw(st.integers(2, 4))
    s = draw(st.integers(2, 3))
    v = draw(st.integers(2, 8))
    n_internal = (s**depth - 1) // (s - 1)
    m_max = 1
    while m_max < v ** (s - 1) and v * (m_max + 1) ** n_internal <= 200_000:
        m_max += 1
    m = draw(st.integers(1, m_max))
    seed = draw(st.integers(0, 2**32 - 1))
    return generate_rules(GrammarParams(depth, s, v, m, seed=seed))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rs=population_cases())
def test_population_correlation_matches_enumeration(rs):
    p = rs.params
    for level in range(2, p.depth + 1):
        got = population_token_tuple_correlation(rs, level)
        want = population_token_tuple_correlation_oracle(rs, level)
        assert np.array_equal(got.codes, np.arange(p.vocab_size**p.branching))
        assert got.matrix.shape == want.matrix.shape
        assert np.abs(got.matrix - want.matrix).max() <= 1e-12
        assert np.all(got.matrix[:, production_index(rs, level - 1) < 0] == 0.0)
    for level in (1, p.depth + 1):
        with pytest.raises(ValueError, match="level must be in"):
            population_token_tuple_correlation(rs, level)


def _production_codes(rs):
    """The ``(depth, v*m)`` production codes of ``rs``'s rule tables."""
    p = rs.params
    return np.stack([encode_tuples(rs.rules_at(lvl).reshape(-1, p.branching),
                                   p.vocab_size) for lvl in range(1, p.depth + 1)])


@pytest.mark.parametrize("v, m", [(2, 1), (2, 4), (3, 2), (4, 5), (5, 25)])
def test_stacked_core_matches_the_per_grammar_loop(v, m):
    # s=3, depth 4: every level, every grammar of a stack, byte for byte
    params = [GrammarParams(4, 3, v, m, seed=seed) for seed in range(7)]
    codes = np.stack([_production_codes(generate_rules(p)) for p in params])
    for level in range(2, 5):
        joint, order, cols = stats._stacked_core(codes, v, m, 3, level)
        stacked = stats._dense_matrices(joint, order, cols, 3)
        for g, p in enumerate(params):
            rs = generate_rules(p)
            want = transfer_matrix_correlation_loop(rs, level)
            assert stacked[g].tobytes() == want.tobytes()
            assert population_token_tuple_correlation(rs, level).matrix.tobytes() \
                == want.tobytes()
            valid = np.flatnonzero(production_index(rs, level - 1) >= 0)
            assert np.array_equal(cols[g], valid)


def _slot_matrix_by_definition(table, slot):
    """``A[a, b] = #{k : table[a, k, slot] = b} / m``, one count at a time."""
    v, m = table.shape[:2]
    counts = np.zeros((v, v))
    for a in range(v):
        for k in range(m):
            counts[a, table[a, k, slot]] += 1
    return counts / m


@pytest.mark.parametrize("v, m", [(2, 1), (3, 2), (4, 5), (5, 25)])
def test_slot_matrices_match_the_definition(v, m):
    # s=3: every slot of every level of a stack of grammars, bit for bit
    grammars = [generate_rules(GrammarParams(3, 3, v, m, seed=seed)) for seed in range(5)]
    for lvl, slot in itertools.product(range(1, 4), range(3)):
        tables = [rs.rules_at(lvl) for rs in grammars]
        got = stats._slot_matrices(np.stack([t[:, :, slot] for t in tables]))
        assert got.shape == (len(grammars), v, v) and got.dtype == np.float64
        for g, table in enumerate(tables):
            want = _slot_matrix_by_definition(table, slot)
            assert got[g].tobytes() == want.tobytes()
            # a stack of one holds the same bits
            assert stats._slot_matrices(table[None, :, :, slot])[0].tobytes() \
                == want.tobytes()


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

    @pytest.mark.parametrize("kwargs, named", [
        # True used to run as n = 1, 2.5 to be used as it was, and 2.0 to be
        # accepted as a level
        (dict(level=2, n_samples=True), "n_samples"),
        (dict(level=2, n_samples=2.5), "n_samples"),
        (dict(level=2.0), "level"),
        (dict(level=np.float64(2)), "level"),
    ])
    def test_integer_arguments_refused_by_name(self, kwargs, named):
        params = GrammarParams(depth=2, branching=2, vocab_size=4, n_synonyms=2)
        with pytest.raises(ValueError, match=f"^{named} must be a nonnegative integer"):
            theory_prediction(params, **kwargs)

    def test_numpy_integer_arguments_are_accepted(self):
        params = GrammarParams(depth=2, branching=2, vocab_size=4, n_synonyms=2)
        assert (theory_prediction(params, np.int64(2), n_samples=np.uint16(64))
                == theory_prediction(params, 2, n_samples=64))


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

    @pytest.fixture(params=["one byte", "default", "a whole block"])
    def dense_bytes(self, request, monkeypatch):
        """The dense chunks' byte budget: one grammar per chunk, the real
        budget, or every block's matrices in one chunk."""
        if request.param == "one byte":
            monkeypatch.setattr(stats, "_DENSE_BYTES", 1)
        elif request.param == "a whole block":
            monkeypatch.setattr(stats, "_DENSE_BYTES", 1 << 40)

    @pytest.mark.parametrize("n_grammars", [30, stats.ENSEMBLE_BLOCK,
                                            stats.ENSEMBLE_BLOCK + 1])
    @pytest.mark.parametrize("shape", [(8, 2, 2, 2), (16, 2, 4, 2), (4, 3, 3, 2),
                                       (5, 2, 3, 3)])
    def test_ensembles_match_the_per_grammar_loops(self, shape, n_grammars,
                                                   dense_bytes):
        # At seeds 11 and 16, summing each (4, 3, 3, 2) matrix in the other
        # memory order changes the last bit of both results.
        v, s, m, level = shape
        got = correlation_recursion_check(v, s, m, level=level,
                                          n_grammars=n_grammars, seed=11)
        want = correlation_recursion_check_loop(v, s, m, level, n_grammars, 11)
        assert got == want  # every field, bit for bit
        got = ensemble_correlation_std(v, s, m, level=level,
                                       n_grammars=n_grammars, seed=16)
        assert got == ensemble_correlation_std_loop(v, s, m, level, n_grammars, 16)

    @pytest.mark.parametrize("check", [correlation_recursion_check,
                                       ensemble_correlation_std])
    @pytest.mark.parametrize("v, m, bound_mib", [(32, 4, 8), (64, 8, 16)])
    def test_ensemble_memory_does_not_grow_with_the_stack(self, check, v, m,
                                                          bound_mib):
        # Dense matrices of a whole 64-draw stack peaked at 35-50 MiB at v=32
        # and 264-393 MiB at v=64; a chunk of them keeps to the budget.
        tracemalloc.start()
        try:
            check(v, 2, m, level=2, n_grammars=stats.ENSEMBLE_BLOCK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_dense_chunks_do_not_fault_in_fresh_pages(self):
        # Minor page faults per call, read in a fresh interpreter: in this
        # process earlier tests have raised glibc malloc's dynamic mmap
        # threshold, which hides them at any chunk budget. At a 256 KiB budget
        # each chunk was paged in afresh: 532-600 (recursion) and 1,184-1,216
        # (ensemble) in 160 interpreters whose environments differed in size.
        # At 128 KiB, 148 of them made none and the rest at most 80 and 286,
        # as the heap's layout decides whether malloc trims its top. Each
        # bound sits at about half the 256 KiB count.
        pytest.importorskip("resource", reason="getrusage counts the page faults")
        code = """
import resource
from rhmlab import stats
for check, v, m, n_grammars in ((stats.correlation_recursion_check, 8, 2, 500),
                                (stats.ensemble_correlation_std, 16, 4, 200)):
    for _ in range(2):
        check(v, 2, m, n_grammars=n_grammars)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        check(v, 2, m, n_grammars=n_grammars)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
        path = [str(Path(stats.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        faults = [float(x) for x in out.split()]
        assert len(faults) == 2 and faults[0] < 250 and faults[1] < 500, faults

    @pytest.mark.parametrize("check", [correlation_recursion_check,
                                       ensemble_correlation_std])
    @pytest.mark.parametrize("kwargs, message", [
        ({"level": 1}, "level must be >= 2, not 1"),
        ({"n_grammars": 29}, "n_grammars=29"),
        ({"n_synonyms": 9}, "n_synonyms must be <="),
        ({"level": 2.0}, "level must be an integer, not 2.0"),
        ({"level": True}, "level must be an integer, not True"),
        ({"n_grammars": 40.0}, "n_grammars must be an integer, not 40.0"),
        ({"n_grammars": True}, "n_grammars must be an integer, not True"),
    ])
    def test_bad_arguments_raise_before_any_draw(self, monkeypatch, check, kwargs,
                                                 message):
        def no_draw(out, n_tuples, seed):
            raise AssertionError("drew a grammar")

        monkeypatch.setattr(stats, "_fill_production_codes", no_draw)
        args = {"vocab_size": 8, "branching": 2, "n_synonyms": 2} | kwargs
        with pytest.raises(ValueError, match=message):
            check(**args)

    @pytest.mark.parametrize("shape", [(8, 2, 2, 3), (16, 2, 4, 2)])
    def test_ensemble_blocks_follow_the_draw_rule(self, shape):
        # The rule written out: per grammar, one generator from its derived
        # seed and one permutation of the v**s tuple codes per level.
        v, s, m, depth = shape
        params = GrammarParams(depth, s, v, m)
        n_grammars = stats.ENSEMBLE_BLOCK + 1
        blocks = list(stats._ensemble_blocks(params, n_grammars, 7, "rule"))
        assert [len(b) for b in blocks] == [stats.ENSEMBLE_BLOCK, 1]
        for g, codes in enumerate(np.concatenate(blocks)):
            seed = derive_seed(7, g, "rule")
            rng = np.random.default_rng(seed)
            want = np.stack([rng.permutation(v**s)[: v * m] for _ in range(depth)])
            assert codes.dtype == np.int64
            np.testing.assert_array_equal(codes, want)
            np.testing.assert_array_equal(
                codes, _production_codes(generate_rules(GrammarParams(depth, s, v, m,
                                                                      seed=seed))))

    @pytest.mark.parametrize("check", [correlation_recursion_check,
                                       ensemble_correlation_std])
    def test_numpy_integer_seed_is_the_int_seed(self, check):
        got = check(8, 2, 2, n_grammars=30, seed=np.int64(3))
        assert got == check(8, 2, 2, n_grammars=30, seed=3)

    @pytest.mark.parametrize("check", [correlation_recursion_check,
                                       ensemble_correlation_std])
    @pytest.mark.parametrize("seed", [True, 3.0, "3"])
    def test_bad_seed_is_refused_by_name(self, check, seed):
        with pytest.raises(ValueError, match="master seed must be a nonnegative integer"):
            check(8, 2, 2, n_grammars=30, seed=seed)

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


@st.composite
def sharded_rows(draw):
    """Rows of a small grammar (depth 2-3, s 2, v 2-6) cut into 1-5
    contiguous shards, any of them empty, a clustering stage and variant, and
    a merge plan: each step merges one adjacent pair, in either order, until
    one state is left."""
    v = draw(st.integers(2, 6))
    params = GrammarParams(depth=draw(st.integers(2, 3)), branching=2, vocab_size=v,
                           n_synonyms=draw(st.integers(1, v)),
                           seed=draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 40))
    ds = sample_dataset(generate_rules(params), n,
                        np.random.default_rng(draw(st.integers(0, 2**32))))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    plan = draw(st.lists(st.integers(0, 2**16), min_size=len(cuts), max_size=len(cuts)))
    return dict(ds=ds, cuts=cuts, plan=plan,
                stage=draw(st.integers(1, params.depth - 1)),
                variant=draw(st.sampled_from(["single_token", "full_tuple"])))


def _merge_by_plan(parts, plan):
    parts = list(parts)
    for step in plan:
        i = step % (len(parts) - 1)
        a, b = parts[i], parts[i + 1]
        parts[i:i + 2] = [a.merge(b) if step // (len(parts) - 1) % 2 else b.merge(a)]
    (out,) = parts
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=sharded_rows())
def test_accumulator_merges_are_associative(case):
    ds, cuts, plan = case["ds"], case["cuts"], case["plan"]
    p = ds.params
    labels = ds.level_symbols(case["stage"] - 1)

    def context_stats(rows):
        return build_context_stats(labels[rows], ds.sequences[rows], p.vocab_size,
                                   p.branching, case["variant"], level=case["stage"])

    shards = np.split(np.arange(ds.n_rows), cuts)
    whole = context_stats(np.arange(ds.n_rows))
    merged = _merge_by_plan([context_stats(rows) for rows in shards], plan)
    assert np.array_equal(merged.codes, whole.codes)
    assert np.array_equal(merged.counts, whole.counts)
    assert np.abs(merged.vectors - whole.vectors).max() <= 1e-12

    def covariance(rows):
        return TokenCovarianceAccumulator(p.branching, p.depth, p.vocab_size).update(
            ds.sequences[rows])

    whole = covariance(np.arange(ds.n_rows))
    merged = _merge_by_plan([covariance(rows) for rows in shards], plan)
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.n_rows == whole.n_rows
