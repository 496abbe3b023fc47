from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    parse_rows_oracle,
    production_index,
    sample_distinct_dataset_oracle,
    sample_draws_oracle,
)
from rhmlab import (
    Dataset,
    EnumerationCapError,
    GrammarParams,
    RuleSet,
    accuracy,
    decode_codes,
    encode_tuples,
    enumerate_all,
    generate_rules,
    parse_batch,
    resample_below,
    sample_dataset,
    sample_distinct_dataset,
    token_dtype,
    tree_distance,
)
from rhmlab.grammar import DEFAULT_ENUMERATION_CAP
from rhmlab.io import load_dataset, load_grammar, save_dataset, save_grammar


class TestGenerateRules:
    def test_smallest_legal_instance(self):
        rs = generate_rules(GrammarParams(depth=1, branching=2, vocab_size=2,
                                          n_synonyms=1, seed=0))
        assert rs.rules_at(1).shape == (2, 1, 2)

    def test_determinism(self):
        params = GrammarParams(depth=2, branching=2, vocab_size=5, n_synonyms=3, seed=99)
        a, b = generate_rules(params), generate_rules(params)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_different_seed_changes_rules(self):
        base = dict(depth=2, branching=2, vocab_size=5, n_synonyms=3)
        a = generate_rules(GrammarParams(seed=1, **base))
        b = generate_rules(GrammarParams(seed=2, **base))
        assert a.content_hash() != b.content_hash()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(depth=0, branching=2, vocab_size=2, n_synonyms=1),
            dict(depth=1, branching=1, vocab_size=2, n_synonyms=1),
            dict(depth=1, branching=2, vocab_size=1, n_synonyms=1),
            dict(depth=1, branching=2, vocab_size=2, n_synonyms=0),
            dict(depth=1, branching=2, vocab_size=2, n_synonyms=3),  # m > v**(s-1)
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            GrammarParams(**kwargs)

    @pytest.mark.parametrize("name", ["depth", "branching", "vocab_size",
                                      "n_synonyms", "seed"])
    @pytest.mark.parametrize("bad", [True, 2.0, 1.5, "2"], ids=["bool", "whole-float",
                                                             "float", "str"])
    def test_rejects_non_integer_params_by_name(self, name, bad):
        # these used to be accepted and to fail later, or not at all
        kwargs = dict(depth=2, branching=2, vocab_size=16, n_synonyms=2, seed=1)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            GrammarParams(**{**kwargs, name: bad})

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32, np.uint64])
    def test_numpy_integer_params_are_python_ints(self, dtype):
        kwargs = dict(depth=2, branching=2, vocab_size=16, n_synonyms=4, seed=7)
        params = GrammarParams(**{k: dtype(x) for k, x in kwargs.items()})
        assert params == GrammarParams(**kwargs)
        assert all(type(getattr(params, k)) is int for k in kwargs)
        # the rules hash used to fail on numpy integers
        assert (generate_rules(params).content_hash()
                == generate_rules(GrammarParams(**kwargs)).content_hash())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(depth=10**20, branching=2),
            dict(depth=63, branching=2),  # 2**63 is one past the int64 range
            dict(depth=1, branching=2**63),
            dict(depth=2, branching=10**20),
        ],
    )
    def test_rejects_string_length_beyond_int64(self, kwargs):
        with pytest.raises(ValueError, match="int64"):
            GrammarParams(vocab_size=2, n_synonyms=1, **kwargs)

    def test_largest_int64_string_length_is_accepted(self):
        assert GrammarParams(depth=62, branching=2, vocab_size=2,
                             n_synonyms=1).seq_len == 2**62
        # the density check m <= v**(s-1) never forms the power either
        p = GrammarParams(depth=1, branching=2**62, vocab_size=2, n_synonyms=5)
        assert p.seq_len == 2**62

    def test_rule_tables_are_frozen(self, rs_small):
        with pytest.raises(ValueError):
            rs_small.rules_at(1)[0, 0, 0] = 3

    def test_parse_tables_are_read_only(self, rs_small):
        for level in (1, 2):
            for table in rs_small.parse_tables(level):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 3

    @pytest.mark.parametrize("rules, level", [
        ([[[0, 1]], [[1]]], 1),  # a production with one child
        ([[[0, 1]]], 1),  # one symbol's table
        ([[[0, 1], [1, 0]], [[1, 1], [0, 0]]], 1),  # two productions each
        ([[0, 1], [1, 0]], 1),  # nested two deep
    ], ids=["short-production", "short-level", "extra-synonym", "two-deep"])
    def test_ragged_rule_table_names_rules_and_level(self, rules, level):
        doc = generate_rules(GrammarParams(1, 2, 2, 1, seed=0)).to_jsonable()
        doc["rules"] = [rules]
        with pytest.raises(ValueError, match=f"'rules' level {level}"):
            RuleSet.from_jsonable(doc)

    @pytest.mark.parametrize("entry", [2**40, 2**63, 2**64],
                             ids=["past-int32", "past-int64", "past-uint64"])
    def test_huge_rule_entry_names_rules_and_level(self, entry):
        doc = generate_rules(GrammarParams(2, 2, 2, 1, seed=0)).to_jsonable()
        doc["rules"][1][0][0][1] = entry
        with pytest.raises(ValueError, match=rf"^grammar field 'rules' level 2 "
                                             rf"must hold integers in \[0, 2\), found {entry}$"):
            RuleSet.from_jsonable(doc)

    def test_rule_level_count_names_rules(self):
        doc = generate_rules(GrammarParams(2, 2, 2, 1, seed=0)).to_jsonable()
        doc["rules"] = doc["rules"][:1]
        with pytest.raises(ValueError, match="'rules' must hold 2 levels"):
            RuleSet.from_jsonable(doc)

    def test_duplicate_production_tuple_is_ambiguous(self):
        tables = [np.array([[[0, 1]], [[1, 0]]]), np.array([[[0, 1]], [[0, 1]]])]
        with pytest.raises(ValueError, match="ambiguous rules: duplicate production tuple"):
            RuleSet(GrammarParams(2, 2, 2, 1), tables)

    def test_caller_tables_stay_writeable(self):
        tables = [np.array([[[0, 1]], [[1, 0]]], dtype=np.int32),
                  np.array([[[1, 1]], [[0, 0]]], dtype=np.int32)]
        rs = RuleSet(GrammarParams(2, 2, 2, 1), tables)
        for level, table in enumerate(tables, start=1):
            assert table.flags.writeable
            assert not rs.rules_at(level).flags.writeable
            assert not np.shares_memory(table, rs.rules_at(level))

    @pytest.mark.parametrize("table, message", [
        # truncated to [[[0, 1]], [[1, 0]]] by an int32 cast
        (np.array([[[0.7, 1.7]], [[1.7, 0.7]]]), "integer tokens, not float64"),
        # wraps to 1 under an int32 cast
        (np.array([[[0, 2**32 + 1]], [[1, 0]]]), r"\[0, 2\), found 4294967297"),
        (np.array([[[0, 1]], [[-1, 0]]]), r"\[0, 2\), found -1"),
    ], ids=["float", "wraps-int32", "negative"])
    def test_rule_table_tokens_checked_before_the_cast(self, table, message):
        with pytest.raises(ValueError, match=f"^rule table must .*{message}"):
            RuleSet(GrammarParams(1, 2, 2, 1), [table])

    def test_encode_tuples_uint64_matches_matmul(self):
        # values at and above 2**63 wrap on the cast to int64, as in the
        # int64 matrix product the Horner form replaced
        tuples = np.array([[0, 1, 2], [3, 2**63 + 5, 7], [2**64 - 1, 0, 2**40]],
                          dtype=np.uint64)
        powers = 16 ** np.arange(2, -1, -1, dtype=np.int64)
        want = tuples.astype(np.int64) @ powers
        got = encode_tuples(tuples, 16)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("codes, message", [
        ([300], r"must lie in \[0, 256\), found 300"),  # decoded as [2, 12]
        ([256], r"must lie in \[0, 256\), found 256"),
        ([-1], r"must lie in \[0, 256\), found -1"),
        ([3.7], "must hold integer tokens, not float64"),  # decoded as 3
        ([True], "must hold integer tokens, not bool"),
    ])
    def test_decode_codes_refuses_codes_outside_the_code_space(self, codes, message):
        assert decode_codes([255], 16, 2).tolist() == [[15, 15]]
        with pytest.raises(ValueError, match=f"^tuple codes {message}"):
            decode_codes(codes, 16, 2)

    def test_decode_codes_of_any_integer_dtype(self):
        # narrow codes of a wide base, and uint64 codes past the int64 range
        assert decode_codes(np.array([255], np.uint8), 300, 2).tolist() == [[0, 255]]
        top = np.array([2**64 - 1], np.uint64)
        assert decode_codes(top, 2**32, 2).tolist() == [[2**32 - 1, 2**32 - 1]]


class TestSampling:
    def test_m1_emits_only_v_strings(self):
        rs = generate_rules(GrammarParams(depth=3, branching=2, vocab_size=4,
                                          n_synonyms=1, seed=3))
        ds = sample_dataset(rs, 2000, np.random.default_rng(0))
        distinct = np.unique(ds.sequences, axis=0)
        enum = enumerate_all(rs)
        assert enum.n_rows == 4
        assert distinct.shape[0] == 4
        assert {r.tobytes() for r in distinct} == {
            r.tobytes() for r in np.unique(enum.sequences, axis=0)
        }

    def test_string_frequencies_uniform(self, rs_small):
        n = 1_000_000
        ds = sample_dataset(rs_small, n, np.random.default_rng(1), with_latents=False)
        codes = (
            ds.sequences @ (4 ** np.arange(3, -1, -1))
        )
        counts = np.bincount(codes, minlength=256)
        counts = counts[counts > 0]
        assert counts.size == 32
        p = 1 / 32
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) < 4 * se)

    def test_distinct_sampler(self, rs_small):
        ds = sample_distinct_dataset(rs_small, 32, np.random.default_rng(3))
        assert np.unique(ds.sequences, axis=0).shape[0] == 32
        assert ds.meta["distinct"]
        with pytest.raises(ValueError):
            sample_distinct_dataset(rs_small, 33, np.random.default_rng(3))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from([(1, 2, 3, 2), (2, 2, 2, 2), (2, 3, 2, 2),
                                  (2, 2, 4, 3), (3, 2, 3, 2)]),
           share=st.floats(0, 0.75), with_latents=st.booleans(),
           seed=st.integers(0, 2**32))
    def test_distinct_sampler_matches_batch_oracle(self, shape, share, with_latents, seed):
        # n from 0 to 3/4 of the string count: up to hundreds of rejections
        rs = generate_rules(GrammarParams(*shape, seed=seed))
        n = int(share * rs.params.n_derivations)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_distinct_dataset(rs, n, rng_a, with_latents=with_latents)
        want = sample_distinct_dataset_oracle(rs, n, rng_b, with_latents=with_latents)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert got.meta == want.meta
        assert (got.latents is None) == (want.latents is None) == (not with_latents)
        pairs = [(got.sequences, want.sequences)]
        if with_latents:
            pairs += list(zip(got.latents, want.latents))
        for a, b in pairs:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("sampler", [sample_dataset, sample_distinct_dataset])
    @pytest.mark.parametrize("n", [-1, 2.0, True, np.bool_(True), "3", None])
    def test_rejects_a_bad_draw_count_before_any_draw(self, rs_small, sampler, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            sampler(rs_small, n, rng)
        assert rng.bit_generator.state == state

    def test_distinct_sampler_names_its_budget(self):
        # 98,304 strings: 1000 batches cannot collect them all
        rs = generate_rules(GrammarParams(depth=4, branching=2, vocab_size=3,
                                          n_synonyms=2, seed=0))
        n = rs.params.n_derivations
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"fewer than {n} distinct strings of "
                           f"the grammar's {n} in 1000 batches"):
            sample_distinct_dataset(rs, n, rng_a, with_latents=False)
        # it gave up after exactly as many batches as the oracle
        with pytest.raises(RuntimeError):
            sample_distinct_dataset_oracle(rs, n, rng_b, with_latents=False)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestEnumeration:
    def test_count_and_distinctness(self, rs_small):
        enum = enumerate_all(rs_small)
        assert enum.n_rows == 4 * 2**3 == 32
        assert np.unique(enum.sequences, axis=0).shape[0] == 32

    def test_smallest_instance(self):
        rs = generate_rules(GrammarParams(depth=1, branching=2, vocab_size=2,
                                          n_synonyms=1, seed=0))
        assert enumerate_all(rs).n_rows == 2

    def test_weights_sum_to_one_exactly(self, rs_deep):
        n = rs_deep.params.n_derivations
        assert n == 3 * 2**7
        assert sum([Fraction(1, n)] * n) == 1

    def test_cap(self):
        # 16 * 6**7 = 4,478,976 derivations, above the 1e6 cap
        rs = generate_rules(GrammarParams(3, 2, 16, 6))
        assert rs.params.n_derivations > DEFAULT_ENUMERATION_CAP
        with pytest.raises(EnumerationCapError):
            enumerate_all(rs)


class TestParse:
    def test_samples_fully_grammatical(self, rs_deep):
        ds = sample_dataset(rs_deep, 500, np.random.default_rng(4))
        levels, _, _ = parse_batch(rs_deep, ds.sequences)
        assert np.all(levels == 3)

    @pytest.mark.parametrize("source", [
        "sampled_deep", "retained_derivation_is_consistent",
        "derivations_all_consistent",
    ])
    def test_roundtrip_recovers_derivation(self, rs_small, rs_deep, source):
        """Parsing returns exactly the retained latents and the rule choices
        that derived each row: the sampler's own draws, or for the
        enumeration the per-row parse's."""
        if source == "derivations_all_consistent":
            rs, ds = rs_small, enumerate_all(rs_small)
            _, _, want_choices = parse_rows_oracle(rs, ds.sequences)
        else:
            rs, n, seed = (rs_deep, 300, 5) if source == "sampled_deep" else (rs_small, 50, 2)
            ds = sample_dataset(rs, n, np.random.default_rng(seed))
            _, want_choices = sample_draws_oracle(rs.params, n, np.random.default_rng(seed))
        max_levels, latents, choices = parse_batch(rs, ds.sequences)
        assert np.all(max_levels == rs.params.depth)
        for got, want in zip(latents + choices, ds.latents + want_choices):
            assert np.array_equal(got, want)

    def test_invalid_leaf_tuple_parses_to_zero(self, rs_small):
        ds = sample_dataset(rs_small, 1, np.random.default_rng(6))
        seq = ds.sequences[0].copy()
        inv = production_index(rs_small, 1)
        # replace the second leaf so that no rule produces the first tuple
        for cand in range(4):
            if inv[seq[0] * 4 + cand] < 0:
                seq[1] = cand
                break
        else:
            pytest.skip("grammar has a full first-symbol row")
        max_levels, _, _ = parse_batch(rs_small, seq)
        assert max_levels[0] == 0

    def test_spliced_halves_parse_to_depth_minus_one(self, rs_small):
        # find two samples whose spliced top-level tuple is invalid
        ds = sample_dataset(rs_small, 200, np.random.default_rng(7))
        _, latents, _ = parse_batch(rs_small, ds.sequences)
        top = latents[0]  # level-1 symbols, shape (n, 2)
        inv2 = production_index(rs_small, 2)
        for a in range(ds.n_rows):
            for b in range(ds.n_rows):
                code = top[a, 0] * 4 + top[b, 1]
                if inv2[code] < 0:
                    spliced = np.concatenate(
                        [ds.sequences[a, :2], ds.sequences[b, 2:]]
                    )
                    assert parse_batch(rs_small, spliced)[0][0] == 1
                    return
        pytest.fail("no invalid splice found (density f should be < 1)")

    def test_wrong_length_rejected(self, rs_small):
        with pytest.raises(ValueError):
            parse_batch(rs_small, np.zeros(3, dtype=int))


class TestAccuracy:
    def test_grammatical_data_scores_one(self, rs_small):
        ds = sample_dataset(rs_small, 100, np.random.default_rng(8))
        assert accuracy(rs_small, ds) == (1.0, 1.0)

    def test_uniform_strings_match_density_product(self, rs_medium):
        # each visible tuple is grammatical independently with probability f
        rng = np.random.default_rng(9)
        seqs = rng.integers(0, 16, size=(40_000, 4))
        a1 = accuracy(rs_medium, seqs)[0]
        f = rs_medium.params.rule_density
        expect = f**2
        se = np.sqrt(expect * (1 - expect) / seqs.shape[0])
        assert abs(a1 - expect) < 4 * se
        assert expect == 0.0625

    def test_monotone_in_level(self, rs_deep):
        rng = np.random.default_rng(10)
        seqs = rng.integers(0, 3, size=(3000, 8))
        accs = accuracy(rs_deep, seqs)
        assert len(accs) == rs_deep.params.depth
        assert all(type(a) is float for a in accs)
        assert all(a >= b for a, b in zip(accs, accs[1:]))


class TestZeroRows:
    def test_parse_batch(self, rs_deep):
        for dtype in (np.int8, np.int64):
            max_levels, latents, choices = parse_batch(rs_deep, np.zeros((0, 8), dtype))
            assert max_levels.shape == (0,) and max_levels.dtype == np.int64
            for lvl, (lat, ch) in enumerate(zip(latents, choices), start=1):
                width = rs_deep.params.level_width(lvl)
                assert lat.shape == ch.shape == (0, width)
                assert lat.dtype == token_dtype(3) and ch.dtype == np.int32

    def test_sample_dataset(self, rs_deep):
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        ds = sample_dataset(rs_deep, 0, rng)
        assert ds.sequences.shape == (0, 8) and ds.sequences.dtype == token_dtype(3)
        assert [a.shape for a in ds.latents] == [(0, 4), (0, 2), (0, 1)]
        assert all(a.dtype == token_dtype(3) for a in ds.latents)
        # the same (empty) draws as the documented draw order
        sample_draws_oracle(rs_deep.params, 0, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_resample_below(self, rs_deep):
        for level in (1, 3):
            out = resample_below(rs_deep, np.zeros((0, 8), np.int32), level,
                                 np.random.default_rng(0))
            assert out.shape == (0, 8) and out.dtype == token_dtype(3)

    def test_accuracy_names_the_empty_input(self, rs_deep):
        with pytest.raises(ValueError, match="empty"):
            accuracy(rs_deep, np.zeros((0, 8), np.int32))


class TestTreeDistance:
    def test_siblings(self):
        assert tree_distance(0, 1, 2, 5) == (1, 2)

    def test_opposite_extremes(self):
        assert tree_distance(0, 31, 2, 5) == (5, 32)

    def test_mid_pair(self):
        # 0-based leaves 3=011b and 4=100b first differ at the third bit
        assert tree_distance(3, 4, 2, 5) == (3, 8)

    def test_same_leaf_rejected(self):
        with pytest.raises(ValueError):
            tree_distance(2, 2, 2, 3)


class TestResampleBelow:
    def test_root_preserved(self, rs_deep):
        ds = sample_dataset(rs_deep, 1, np.random.default_rng(11))
        out = resample_below(rs_deep, ds.sequences, 3, np.random.default_rng(12))
        max_levels, latents, _ = parse_batch(rs_deep, out)
        assert max_levels[0] == 3
        assert np.array_equal(latents[-1], ds.latents[-1])

    def test_m1_is_identity(self):
        rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=4,
                                          n_synonyms=1, seed=13))
        seqs = sample_dataset(rs, 1, np.random.default_rng(0)).sequences
        for level in (1, 2):
            out = resample_below(rs, seqs, level, np.random.default_rng(1))
            assert np.array_equal(out, seqs)

    def test_level_one_only_touches_leaves(self, rs_small):
        ds = sample_dataset(rs_small, 1, np.random.default_rng(14))
        out = resample_below(rs_small, ds.sequences, 1, np.random.default_rng(15))
        max_levels, latents, _ = parse_batch(rs_small, out)
        assert max_levels[0] == 2
        assert np.array_equal(latents[0], ds.latents[0])
        assert np.array_equal(latents[1], ds.latents[1])

    def test_preserves_levels_at_or_above(self, rs_deep):
        rng = np.random.default_rng(16)
        for level in (1, 2, 3):
            ds = sample_dataset(rs_deep, 1, rng)
            out = resample_below(rs_deep, ds.sequences, level, rng)
            max_levels, latents, _ = parse_batch(rs_deep, out)
            for lvl in range(level, 4):
                assert np.array_equal(latents[lvl - 1], ds.latents[lvl - 1])
            assert max_levels[0] == 3

    def test_level_range_checked(self, rs_small):
        seqs = sample_dataset(rs_small, 1, np.random.default_rng(17)).sequences
        with pytest.raises(ValueError):
            resample_below(rs_small, seqs, 0, np.random.default_rng(0))

    def test_rows_that_do_not_parse_rejected(self, rs_small):
        seqs = sample_dataset(rs_small, 3, np.random.default_rng(19)).sequences.copy()
        seqs[1] = rs_small.params.vocab_size  # masked row
        with pytest.raises(ValueError, match="parse"):
            resample_below(rs_small, seqs, 1, np.random.default_rng(0))


class TestSerialization:
    def test_grammar_roundtrip(self, rs_deep, tmp_path):
        path = tmp_path / "g.json"
        save_grammar(rs_deep, path)
        back = load_grammar(path)
        assert back == rs_deep
        assert back.content_hash() == rs_deep.content_hash()

    def test_grammar_tamper_detected(self, rs_small, tmp_path):
        path = tmp_path / "g.json"
        save_grammar(rs_small, path)
        text = path.read_text().replace('"seed": 7', '"seed": 8')
        path.write_text(text)
        with pytest.raises(ValueError):
            load_grammar(path)

    @pytest.mark.parametrize("binary", [False, True])
    def test_dataset_roundtrip(self, rs_small, tmp_path, binary):
        ds = sample_dataset(rs_small, 20, np.random.default_rng(18), with_latents=False)
        path = tmp_path / ("d.bin" if binary else "d.txt")
        save_dataset(ds, path, binary=binary)
        if binary:
            assert path.read_bytes()[:5] == b"RHMD1"
        seqs, header = load_dataset(path)
        assert np.array_equal(seqs, ds.sequences)
        assert header["seq_len"] == 4
        assert header["vocab_size"] == 4
        assert header["n_rows"] == 20
        assert header["grammar_hash"] == rs_small.content_hash()

    def test_dataset_requires_latents_for_levels(self, rs_small):
        ds = Dataset(sequences=np.zeros((2, 4), dtype=int), params=rs_small.params)
        with pytest.raises(ValueError):
            ds.level_symbols(1)


@st.composite
def rule_tables(draw):
    """Legal rule tables (depth 1-3, s 2-4, v 2-5, any feasible m, any seed)
    and two distinct (level, symbol, production) slots of them."""
    s = draw(st.integers(2, 4))
    v = draw(st.integers(2, 5 if s < 4 else 3))
    params = GrammarParams(
        depth=draw(st.integers(1, 3)), branching=s, vocab_size=v,
        n_synonyms=draw(st.integers(1, v ** (s - 1))), seed=draw(st.integers(0, 2**32)),
    )
    level = draw(st.integers(1, params.depth))
    slots = st.tuples(st.integers(0, v - 1), st.integers(0, params.n_synonyms - 1))
    first, second = draw(st.lists(slots, min_size=2, max_size=2, unique=True))
    return generate_rules(params), level, first, second


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=rule_tables())
@example(case=(generate_rules(GrammarParams(1, 2, 2, 1, seed=0)), 1, (0, 0), (1, 0)))
def test_parse_tables_invert_every_production(case):
    rs, dup_level, first, second = case
    p = rs.params
    v, m, s = p.vocab_size, p.n_synonyms, p.branching
    for level in range(1, p.depth + 1):
        parent_of, choice_of = rs.parse_tables(level)
        # v marks a tuple no rule produces in the parent table, -1 in the
        # rule-index table
        want_parent = np.full((v + 1) ** s, v, dtype=token_dtype(v))
        want_choice = np.full((v + 1) ** s, -1, dtype=np.int32)
        # each production's big-endian base-(v+1) code maps to (a, k)
        for a, productions in enumerate(rs.rules_at(level).tolist()):
            for k, children in enumerate(productions):
                code = 0
                for child in children:
                    code = code * (v + 1) + child
                want_parent[code], want_choice[code] = a, k
        for got, want, none in ((parent_of, want_parent, v),
                                (choice_of, want_choice, -1)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # every code with a digit v (an out-of-range symbol) parses nowhere
            grid = got.reshape((v + 1,) * s)
            for axis in range(s):
                assert np.all(np.take(grid, v, axis=axis) == none)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0
    # a production repeated anywhere in a level is refused
    tables = [rs.rules_at(level).copy() for level in range(1, p.depth + 1)]
    tables[dup_level - 1][second] = tables[dup_level - 1][first]
    with pytest.raises(ValueError, match="ambiguous rules: duplicate production tuple"):
        RuleSet(p, tables)


@st.composite
def small_grammar_rows(draw):
    """A small grammar (depth 1-4, s 2-3, v 2-6, any feasible m, any seed),
    some of its rows with latents retained, and the generator that drew them
    (for further draws) with its seed."""
    s = draw(st.integers(2, 3))
    v = draw(st.integers(2, 6))
    params = GrammarParams(
        depth=draw(st.integers(1, 4)), branching=s, vocab_size=v,
        n_synonyms=draw(st.integers(1, v ** (s - 1))), seed=draw(st.integers(0, 2**32)),
    )
    seed = draw(st.integers(0, 2**32))
    rs, rng = generate_rules(params), np.random.default_rng(seed)
    return rs, sample_dataset(rs, draw(st.integers(1, 12)), rng), rng, seed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=small_grammar_rows())
def test_codes_parse_and_resampling_round_trip(case):
    rs, ds, rng, seed = case
    p = rs.params
    # encode/decode: every s-tuple, grammatical or not, comes back
    tuples = rng.integers(0, p.vocab_size, size=(5, 3, p.branching))
    codes = encode_tuples(tuples, p.vocab_size)
    assert codes.min() >= 0 and codes.max() < p.vocab_size**p.branching
    assert np.array_equal(decode_codes(codes, p.vocab_size, p.branching), tuples)
    # parse_batch recovers exactly the derivation of every row: the retained
    # latents and the sampler's rule choices
    _, want_choices = sample_draws_oracle(p, ds.n_rows, np.random.default_rng(seed))
    max_levels, latents, choices = parse_batch(rs, ds.sequences)
    assert np.all(max_levels == p.depth)
    for got, want in zip(latents + choices, ds.latents + want_choices):
        assert np.array_equal(got, want)
    # resampling below a level keeps that level and everything above it
    for level in range(1, p.depth + 1):
        out = resample_below(rs, ds.sequences, level, rng)
        assert out.shape == ds.sequences.shape
        max_levels, latents, _ = parse_batch(rs, out)
        assert np.all(max_levels == p.depth)
        for lvl in range(level, p.depth + 1):
            assert np.array_equal(latents[lvl - 1], ds.latents[lvl - 1])
