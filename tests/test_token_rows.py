"""The token-row rule: every entry point that reads rows of grammar tokens
refuses the same bad rows with a ``ValueError`` that names the input.

A row must have an integer dtype and hold tokens in ``[0, bound)``, where the
bound is ``vocab_size``, or ``vocab_size + 1`` where the mask token is
allowed. ``parse_batch`` and ``accuracy`` take any integer, since an
out-of-range token is just ungrammatical, but refuse other dtypes.
"""

import numpy as np
import pytest

from rhmlab import (
    Dataset,
    GrammarParams,
    NoiseSpec,
    TokenCovarianceAccumulator,
    accuracy,
    build_context_stats,
    corrupt,
    generate_rules,
    learn_grammar,
    leaf_likelihoods,
    parse_batch,
    token_token_correlation,
    tuple_next_token_pairs,
)

V = 4
PARAMS = GrammarParams(depth=2, branching=2, vocab_size=V, n_synonyms=2, seed=1)
RULES = generate_rules(PARAMS)
ROWS = np.random.default_rng(0).integers(0, V, size=(6, 4))  # valid everywhere
UNIFORM = NoiseSpec(kind="uniform", beta_bar=0.3)
MASKING = NoiseSpec(kind="masking", beta_bar=0.3)


def _rng():
    return np.random.default_rng(0)


# Entry point -> (a call on a (6, 4) row array, the name its messages give
# the input, the token bound or None where no range applies, and a width
# below the one required, or None where no width applies).
ENTRY_POINTS = {
    "Dataset": (
        lambda x: Dataset(sequences=x, params=PARAMS), "sequences", V + 1, 3),
    "corrupt-uniform": (
        lambda x: corrupt(x, UNIFORM, V, _rng()), "seqs", V, None),
    "corrupt-masking": (
        lambda x: corrupt(x, MASKING, V, _rng()), "seqs", V + 1, None),
    "leaf_likelihoods-uniform": (
        lambda x: leaf_likelihoods(x[2], UNIFORM, V), "seq", V, None),
    "leaf_likelihoods-masking": (
        lambda x: leaf_likelihoods(x[2], MASKING, V), "seq", V + 1, None),
    "TokenCovarianceAccumulator.update": (
        lambda x: TokenCovarianceAccumulator(2, 2, V).update(x), "seqs", V, 3),
    "token_token_correlation": (
        lambda x: token_token_correlation(x, 2, 2, V), "seqs", V, 3),
    "tuple_next_token_pairs": (
        lambda x: tuple_next_token_pairs(x, 2, V), "seqs", V, 2),
    "learn_grammar": (
        lambda x: learn_grammar(x, 2, 2, V), "tokens", V, 3),
    "build_context_stats-labels": (
        lambda x: build_context_stats(x, ROWS, V, 2), "labels", V, 3),
    "build_context_stats-context": (
        lambda x: build_context_stats(ROWS, x, V, 2), "context tokens", V, 3),
    "parse_batch": (lambda x: parse_batch(RULES, x), "seqs", None, 3),
    "accuracy": (lambda x: accuracy(RULES, x), "seqs", None, 3),
}


def _with_token(token: int) -> np.ndarray:
    rows = ROWS.copy()
    rows[2, 1] = token
    return rows


def _bad_rows(bound, width):
    yield "float", ROWS + 0.5
    if bound is not None:
        yield "token at the bound", _with_token(bound)
        yield "token -1", _with_token(-1)
    if width is not None:
        yield "wrong width", ROWS[:, :width]


CASES = [
    pytest.param(entry, rows, id=f"{entry}-{case}")
    for entry, (_, _, bound, width) in ENTRY_POINTS.items()
    for case, rows in _bad_rows(bound, width)
]


@pytest.mark.parametrize("entry, rows", CASES)
def test_bad_rows_raise_naming_the_input(entry, rows):
    call, name, _, _ = ENTRY_POINTS[entry]
    call(ROWS)  # the valid rows pass
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(rows)
