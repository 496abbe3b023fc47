"""kmeans_fit against the per-cluster Lloyd oracle: every output must match
bit for bit, because a last-bit change can flip a learner decision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lloyd_kmeans_oracle
from rhmlab import (
    GrammarParams,
    build_context_stats,
    generate_rules,
    kmeans,
    kmeans_fit,
    sample_dataset,
)


def _assert_same_fit(points, k, seed, n_restarts=16, max_iter=200):
    fit = kmeans_fit(points, k, seed=seed, n_restarts=n_restarts, max_iter=max_iter)
    ref = lloyd_kmeans_oracle(points, k, seed, n_restarts=n_restarts, max_iter=max_iter)
    assert np.array_equal(fit.labels, ref["labels"])
    assert np.array_equal(fit.centers, ref["centers"])
    assert fit.inertia == ref["inertia"]
    assert fit.n_iter == ref["n_iter"]
    assert fit.restart == ref["restart"]
    firsts = np.random.default_rng(seed).integers(0, len(points), size=n_restarts)
    assert fit.restarts_run == np.unique(firsts).size
    return ref


@st.composite
def grid_fits(draw):
    """Integer-grid points drawn from a few distinct rows, so ties, duplicate
    points and empty-cluster re-seats are common; up to 40 restarts on at
    most 32 points repeat first points, and ``max_iter`` up to 6 makes
    restarts stop at different iterations, some at the cap."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 32))
    n_distinct = draw(st.integers(1, n))
    coords = st.integers(0, 9).map(float)
    distinct = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                             min_size=n_distinct, max_size=n_distinct))
    rows = draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))
    points = np.array([distinct[i] for i in rows])
    return dict(
        points=points,
        k=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 2**32)),
        n_restarts=draw(st.integers(1, 40)),
        max_iter=draw(st.integers(1, 6)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=grid_fits())
def test_grid_points_match_oracle(case):
    _assert_same_fit(**case)


@pytest.mark.parametrize("m", [2, 8])
def test_sweep_shape_matches_oracle(m):
    # the sweep's clustering input: v = 16, k = 16, up to 128 observed codes
    rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=16,
                                      n_synonyms=m, seed=m))
    ds = sample_dataset(rs, 4000, np.random.default_rng(m), with_latents=False)
    stats = build_context_stats(ds.sequences, ds.sequences, 16, 2)
    assert 16 <= stats.vectors.shape[0] <= 16 * m
    _assert_same_fit(stats.vectors, 16, m)


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


def test_reseat_takes_the_worst_served_point():
    # Points on a line, one restart starting at point 0: the greedy spread
    # puts the centres on 10, 30 and -5. After the first update the middle
    # cluster's centre sits near 19.0, the left one near 1.7 and the right
    # one near 20.5, so 10 moves left, every 19.9 moves right, and cluster 0
    # is empty in the second iteration. The re-seat must take 10, the
    # worst-served point (at squared distance 8.27**2 from its centre), not
    # a point served at distance 0. The second coordinate is 0 throughout:
    # numpy sums a single column pairwise in ``mean(axis=0)``, which the
    # oracle uses, but sums two or more columns row by row.
    line = np.array([10.0, 30.0, -5.0] + [2.4] * 10 + [19.9] * 10 + [20.1] * 20)
    points = np.stack([line, np.zeros_like(line)], axis=1)
    assert np.random.default_rng(27).integers(0, len(points), size=1)[0] == 0
    ref = _assert_same_fit(points, 3, 27, n_restarts=1)
    assert ref["reseats"] == 1
    assert ref["reseat_served"][0] > 60


def test_one_column_centres_are_row_by_row_sums():
    # The re-seat input above on one coordinate. Its 20-member cluster has a
    # centre whose last bits depend on summation order: numpy's one-column
    # ``mean(axis=0)`` sums pairwise, while kmeans_fit and the oracle add
    # member rows one by one in point order.
    line = np.array([10.0, 30.0, -5.0] + [2.4] * 10 + [19.9] * 10 + [20.1] * 20)
    points = line[:, None]
    ref = _assert_same_fit(points, 3, 27, n_restarts=1)
    assert ref["reseats"] == 1
    pairwise = np.array([points[ref["labels"] == c].mean(axis=0) for c in range(3)])
    assert not np.array_equal(pairwise, ref["centers"])


@pytest.mark.parametrize("seed", range(4))
def test_repeated_first_points_are_skipped_consistently(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(5, 2))
    firsts = np.random.default_rng(seed).integers(0, 5, size=40)
    assert np.unique(firsts).size < firsts.size
    _assert_same_fit(points, 3, seed, n_restarts=40)


@pytest.mark.parametrize("n_restarts", [0, -1])
def test_no_restarts_is_rejected(n_restarts):
    points = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match="n_restarts"):
        kmeans_fit(points, 3, seed=0, n_restarts=n_restarts)


@pytest.mark.parametrize("kwargs, named", [
    # both used to raise TypeError
    (dict(k=True), "k"), (dict(k=2.0), "k"),
    (dict(n_restarts=2.5), "n_restarts"), (dict(n_restarts=True), "n_restarts"),
])
def test_non_integer_counts_refused_by_name(kwargs, named):
    points = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match=f"^{named} must be a nonnegative integer"):
        kmeans_fit(points, **{"k": 3, "seed": 0, **kwargs})


def _full_tuple_vectors():
    """The learner's stage-1 input on 10 depth-3 rows at v = 64, s = 3,
    ``full_tuple``: 69 codes of 192 coordinates, clustered with k = 64."""
    rs = generate_rules(GrammarParams(depth=3, branching=3, vocab_size=64,
                                      n_synonyms=4, seed=1))
    seqs = sample_dataset(rs, 10, np.random.default_rng(2), with_latents=False).sequences
    return build_context_stats(seqs, seqs, 64, 3, "full_tuple").vectors, 64


def _sweep_vectors():
    """The sweep's largest clustering input: 128 codes of 16 coordinates."""
    rs = generate_rules(GrammarParams(depth=2, branching=2, vocab_size=16,
                                      n_synonyms=8, seed=8))
    ds = sample_dataset(rs, 4000, np.random.default_rng(8), with_latents=False)
    return build_context_stats(ds.sequences, ds.sequences, 16, 2).vectors, 16


@pytest.mark.parametrize("inputs", [_sweep_vectors, _full_tuple_vectors])
@pytest.mark.parametrize("budget", [1, 1000, 1 << 15, 1 << 40])
def test_fit_is_byte_identical_whatever_the_block_budget(monkeypatch, inputs, budget):
    # 1 element forms one row or centre per block, 1 << 40 every one at once
    points, k = inputs()
    want = kmeans_fit(points, k, seed=3)
    monkeypatch.setattr(kmeans, "_BLOCK_ELEMENTS", budget)
    got = kmeans_fit(points, k, seed=3)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centers.tobytes() == want.centers.tobytes()
    assert (got.inertia, got.n_iter, got.restart, got.restarts_run) == (
        want.inertia, want.n_iter, want.restart, want.restarts_run)


def test_sweep_shape_forms_one_block_per_k_centres():
    points, k = _sweep_vectors()
    assert points.shape == (128, 16)
    assert kmeans._block_width(points) == k
