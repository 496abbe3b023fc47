"""The token dtype rule: every token, every parsed, learned or sampled symbol
and every rule table rhmlab makes is in ``token_dtype(vocab_size)``, the
smallest unsigned dtype that holds the mask token ``vocab_size``, which also
marks a tuple no rule produces: uint8 up to v = 255, uint16 from 256. Narrow
rows change no value and no random draw."""

import numpy as np
import pytest

from rhmlab import (
    Dataset,
    GrammarParams,
    NoiseSpec,
    RuleSet,
    bp_posterior_sample_batch,
    corrupt,
    decode_codes,
    encode_tuples,
    enumerate_all,
    generate_from_learned,
    generate_rules,
    learn_grammar,
    parse_batch,
    resample_below,
    sample_dataset,
    sample_distinct_dataset,
    token_dtype,
    true_tuple_classes,
)
from rhmlab.io import load_dataset, load_grammar, save_dataset, save_grammar

EDGE = [(255, np.uint8), (256, np.uint16)]


@pytest.mark.parametrize("vocab_size, dtype", [(2, np.uint8), (254, np.uint8),
                                               (255, np.uint8), (256, np.uint16),
                                               (65535, np.uint16), (65536, np.uint32)])
def test_token_dtype_is_the_smallest_holding_the_mask(vocab_size, dtype):
    assert token_dtype(vocab_size) == dtype
    assert np.iinfo(dtype).max >= vocab_size


def _grammar(v):
    # depth 2, one production per symbol: v derivations
    return generate_rules(GrammarParams(depth=2, branching=2, vocab_size=v,
                                        n_synonyms=1, seed=v))


@pytest.mark.parametrize("v, dtype", EDGE)
def test_every_producer_makes_rows_of_the_token_dtype(tmp_path, v, dtype):
    rs = _grammar(v)
    # the rule tables, drawn, built from the caller's int64 tables and loaded:
    # frozen copies, while the caller's own arrays stay writeable
    tables = [np.array(rs.rules_at(level), dtype=np.int64) for level in (1, 2)]
    save_grammar(rs, tmp_path / "grammar.json")
    for grammar in (rs, RuleSet(rs.params, tables), load_grammar(tmp_path / "grammar.json")):
        assert grammar == rs
        for level in (1, 2):
            table = grammar.rules_at(level)
            assert table.dtype == dtype and not table.flags.writeable
    assert all(table.flags.writeable for table in tables)
    sampled = sample_dataset(rs, 40, np.random.default_rng(1))
    distinct = sample_distinct_dataset(rs, 40, np.random.default_rng(2))
    enum = enumerate_all(rs)
    for ds in (sampled, distinct, enum):
        for rows in [ds.sequences] + ds.latents:
            assert rows.dtype == dtype
        assert ds.sequences.max() < v
    assert enum.n_rows == v and np.unique(enum.latents[-1]).size == v
    for level in (1, 2):
        rows = resample_below(rs, sampled.sequences, level, np.random.default_rng(3))
        assert rows.dtype == dtype and rows.shape == (40, 4)
    # 40 rows observe fewer than v codes, so every code is its own class
    model = learn_grammar(sampled.sequences, 2, 2, v, seed=4)
    assert model.levels[0].partial
    injected = learn_grammar(sampled.sequences, 2, 2, v,
                             partition_fn=lambda stage, codes: codes % v)
    for learned in (model, injected):
        assert learned.levels[0].labels.dtype == learned.top_tuples.dtype == dtype
    gen = generate_from_learned(model, 30, np.random.default_rng(5))
    assert gen.dtype == dtype and gen.shape == (30, 4)
    # parsed symbols: the mask token spoils row 0's first tuple at level 1,
    # and the marker v the tuple above it
    rows = sampled.sequences.copy()
    rows[0, 0] = v
    max_levels, latents, _ = parse_batch(rs, rows)
    assert max_levels[0] == 0 and (max_levels[1:] == 2).all()
    for level, lat in enumerate(latents, 1):
        assert lat.dtype == dtype and lat[0, 0] == v
        assert np.array_equal(lat[1:], sampled.latents[level - 1][1:])
        parent_of = rs.parse_tables(level)[0]
        assert parent_of.dtype == dtype and parent_of.max() == v
    codes = encode_tuples(rs.rules_at(1)[:, 0], v)
    assert decode_codes(codes, v, 2).dtype == dtype
    assert true_tuple_classes(rs, 1, codes).dtype == dtype
    clean = np.eye(v)[sampled.sequences[0]]
    draws = bp_posterior_sample_batch(rs, clean, 5, np.random.default_rng(7))
    assert draws.dtype == dtype and (draws == sampled.sequences[0]).all()
    for kind in ("uniform", "masking"):
        noisy, _ = corrupt(sampled.sequences, NoiseSpec(kind, beta_bar=0.5), v,
                           np.random.default_rng(6))
        assert noisy.dtype == dtype


@pytest.mark.parametrize("v, dtype", EDGE + [(65535, np.uint16), (65536, np.uint32)])
def test_files_round_trip_byte_for_byte(tmp_path, v, dtype):
    rng = np.random.default_rng(v)
    rows = rng.integers(0, v, size=(50, 4))
    rows[rng.random(rows.shape) < 0.3] = v  # masked tokens
    rows[0] = [0, v - 1, v, v]
    ds = Dataset(rows, GrammarParams(2, 2, v, 1), meta={"grammar_hash": "ab"})
    first, second = tmp_path / "a", tmp_path / "b"
    save_dataset(ds, first)
    seqs, header = load_dataset(first)
    assert seqs.dtype == dtype and np.array_equal(seqs, rows)
    assert header["vocab_size"] == v and header["grammar_hash"] == "ab"
    save_dataset(Dataset(seqs, ds.params, meta=ds.meta), second)
    assert second.read_bytes() == first.read_bytes()


ROW_DTYPES = (np.uint8, np.int8, np.int16, np.int32, np.int64)


@pytest.mark.parametrize("kind", ["uniform", "masking"])
def test_noise_does_not_depend_on_the_row_dtype(kind):
    v = 100
    rows = np.random.default_rng(0).integers(0, v, size=(60, 8))
    spec = NoiseSpec(kind, beta_bar=0.4)
    # the documented draws: the hit uniforms, then int32 replacement tokens
    ref = np.random.default_rng(1)
    hits = ref.random(rows.shape) < 0.4
    fill = ref.integers(0, v, size=rows.shape, dtype=np.int32) if kind == "uniform" else v
    want = np.where(hits, fill, rows)
    for dtype in ROW_DTYPES:
        rng = np.random.default_rng(1)
        noisy, got_hits = corrupt(rows.astype(dtype), spec, v, rng)
        assert noisy.dtype == np.promote_types(dtype, token_dtype(v))
        assert np.array_equal(got_hits, hits) and np.array_equal(noisy, want)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("kind", ["uniform", "masking"])
def test_int8_rows_past_int8_tokens_are_not_wrapped(kind):
    # v = 200: replacement tokens and the mask pass int8's 127
    v = 200
    rows = np.random.default_rng(2).integers(0, 128, size=(200, 8))
    spec = NoiseSpec(kind, beta_bar=0.7)
    noisy, hits = corrupt(rows.astype(np.int8), spec, v, np.random.default_rng(3))
    want, want_hits = corrupt(rows, spec, v, np.random.default_rng(3))
    assert noisy.dtype == np.int16 and want.dtype == np.int64
    assert np.array_equal(hits, want_hits) and np.array_equal(noisy, want)
    assert noisy.min() >= 0 and noisy.max() >= 128
