"""kmeans_fit against the per-cluster Lloyd oracle: every output must match
bit for bit, because a last-bit change can flip a learner decision."""

import numpy as np
import pytest

from oracles import lloyd_kmeans_oracle
from rhmlab import (
    GrammarParams,
    build_context_stats,
    generate_rules,
    kmeans_fit,
    sample_dataset,
)


def _assert_same_fit(points, k, seed, n_restarts=16):
    fit = kmeans_fit(points, k, seed=seed, n_restarts=n_restarts)
    ref = lloyd_kmeans_oracle(points, k, seed, n_restarts=n_restarts)
    assert np.array_equal(fit.labels, ref["labels"])
    assert np.array_equal(fit.centers, ref["centers"])
    assert fit.inertia == ref["inertia"]
    assert fit.n_iter == ref["n_iter"]
    assert fit.restart == ref["restart"]
    return ref


@pytest.mark.parametrize("seed", range(6))
def test_random_points_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(20, 80), rng.integers(2, 9), rng.integers(2, 9)
    _assert_same_fit(rng.normal(size=(n, d)), int(k), seed)


@pytest.mark.parametrize("seed", range(4))
def test_context_vectors_match_oracle(seed):
    # learner input: empirical context distributions with many exact ties
    rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=8,
                                      n_synonyms=3, seed=seed))
    ds = sample_dataset(rs, 200, np.random.default_rng(seed), with_latents=False)
    stats = build_context_stats(ds.sequences, ds.sequences, 8, 2)
    _assert_same_fit(stats.vectors, 8, seed)


@pytest.mark.parametrize("seed", range(4))
def test_duplicated_points_reseat_empty_clusters(seed):
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(4, 3))
    points = distinct[rng.integers(0, 4, size=30)]
    ref = _assert_same_fit(points, 6, seed)
    assert ref["reseats"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_repeated_first_points_are_skipped_consistently(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(5, 2))
    firsts = np.random.default_rng(seed).integers(0, 5, size=40)
    assert np.unique(firsts).size < firsts.size
    _assert_same_fit(points, 3, seed, n_restarts=40)
