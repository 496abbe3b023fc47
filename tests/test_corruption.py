import numpy as np
import pytest

from rhmlab import (
    NoiseSpec,
    bp_marginals,
    corrupt,
    cumulative_keep_prob,
    leaf_likelihoods,
)
from oracles import enumeration_conditionals


class TestNoiseSpec:
    def test_needs_exactly_one_parameterization(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="uniform")
        with pytest.raises(ValueError):
            NoiseSpec(kind="uniform", beta_bar=0.2, schedule=(0.1,))
        with pytest.raises(ValueError):
            NoiseSpec(kind="gaussian", beta_bar=0.2)
        with pytest.raises(ValueError):
            NoiseSpec(kind="masking", beta_bar=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(kind="masking", schedule=(0.5, -0.1))

    def test_keep_prob_degenerate_schedules(self):
        assert cumulative_keep_prob(NoiseSpec(kind="uniform", schedule=(0.0,) * 5)) == 1.0
        assert cumulative_keep_prob(NoiseSpec(kind="masking", schedule=(1.0,))) == 0.0

    def test_linear_schedule_keep_prob_is_linear(self):
        spec = NoiseSpec.linear_schedule("masking", 1000)
        for t in (1, 137, 500, 999, 1000):
            keep = cumulative_keep_prob(NoiseSpec("masking", schedule=spec.schedule[:t]))
            assert keep == pytest.approx((1000 - t) / 1000, abs=1e-12)

    def test_linear_schedule_monte_carlo(self):
        # corruption frequency under the truncated schedule matches 1 - keep
        full = NoiseSpec.linear_schedule("masking", 1000)
        spec = NoiseSpec("masking", schedule=full.schedule[:350])
        keep = cumulative_keep_prob(spec)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, size=(400, 100))
        _, hits = corrupt(x, spec, 4, rng)
        n = x.size
        se = np.sqrt(keep * (1 - keep) / n)
        assert abs(hits.mean() - (1 - keep)) < 3 * se


class TestCorrupt:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 5, size=(10, 8))
        noisy, hits = corrupt(x, NoiseSpec(kind="uniform", beta_bar=0.0), 5, rng)
        assert np.array_equal(noisy, x)
        assert not hits.any()

    def test_uniform_changed_fraction(self):
        # resampling may reproduce the value: changed fraction = beta * (1 - 1/v)
        rng = np.random.default_rng(2)
        x = rng.integers(0, 4, size=(300, 300))
        noisy, hits = corrupt(x, NoiseSpec(kind="uniform", beta_bar=0.5), 4, rng)
        n = x.size
        expect = 0.5 * (1 - 1 / 4)
        assert expect == 0.375
        se = np.sqrt(expect * (1 - expect) / n)
        assert abs((noisy != x).mean() - expect) < 4 * se
        se_hit = np.sqrt(0.25 / n)
        assert abs(hits.mean() - 0.5) < 4 * se_hit

    def test_full_masking(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, size=(5, 6))
        noisy, hits = corrupt(x, NoiseSpec(kind="masking", beta_bar=1.0), 4, rng)
        assert np.all(noisy == 4)
        assert hits.all()

    def test_rejects_out_of_range_tokens(self):
        with pytest.raises(ValueError):
            corrupt(np.array([[0, 7]]), NoiseSpec(kind="uniform", beta_bar=0.1),
                    4, np.random.default_rng(0))

    def test_mask_is_absorbing(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 5, size=(200, 8))  # 4 is the mask for v = 4
        noisy, _ = corrupt(x, NoiseSpec(kind="masking", beta_bar=0.3), 4, rng)
        assert np.all(noisy[x == 4] == 4)
        assert np.all((noisy == x) | (noisy == 4))
        with pytest.raises(ValueError):
            corrupt(x, NoiseSpec(kind="uniform", beta_bar=0.3), 4, rng)
        with pytest.raises(ValueError):
            corrupt(np.array([[0, 5]]), NoiseSpec(kind="masking", beta_bar=0.3),
                    4, rng)

    def test_uniform_composition(self):
        # two-stage corruption == one shot with the product keep probability
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(5)
        n = 200_000
        x = np.zeros((n, 1), dtype=np.int64)
        s1 = NoiseSpec(kind="uniform", beta_bar=0.4)
        s2 = NoiseSpec(kind="uniform", beta_bar=0.25)
        y1, _ = corrupt(x, s1, 4, rng_a)
        y1, _ = corrupt(y1, s2, 4, rng_a)
        keep = cumulative_keep_prob(s1) * cumulative_keep_prob(s2)
        y2, _ = corrupt(x, NoiseSpec(kind="uniform", beta_bar=1 - keep), 4, rng_b)
        f1 = np.bincount(y1.ravel(), minlength=4) / n
        f2 = np.bincount(y2.ravel(), minlength=4) / n
        # each frequency is a binomial proportion; compare within joint 4-sigma
        se = np.sqrt(2 * f2 * (1 - f2) / n)
        assert np.all(np.abs(f1 - f2) < 4 * se + 1e-12)


class TestLeafLikelihoods:
    def test_masked_position_is_uninformative_and_bp_returns_prior(self, rs_small):
        spec = NoiseSpec(kind="masking", beta_bar=0.5)
        seq = np.array([4, 4, 4, 4])
        lik = leaf_likelihoods(seq, spec, 4)
        assert np.all(lik == 1.0)
        state = bp_marginals(rs_small, lik)
        prior, _ = enumeration_conditionals(rs_small, np.ones((4, 4)))
        assert np.abs(state.marginals[0] - prior[0]).max() < 1e-12

    def test_clean_tokens_are_one_hot(self):
        spec = NoiseSpec(kind="uniform", beta_bar=0.0)
        lik = leaf_likelihoods(np.array([1, 3, 0]), spec, 4)
        assert np.array_equal(lik, np.eye(4)[[1, 3, 0]])

    def test_uniform_kernel_row(self):
        spec = NoiseSpec(kind="uniform", beta_bar=0.5)
        lik = leaf_likelihoods(np.array([2]), spec, 4)
        assert lik[0, 2] == pytest.approx(0.625)
        assert lik[0, [0, 1, 3]] == pytest.approx([0.125, 0.125, 0.125])

    def test_rows_never_all_zero(self):
        rng = np.random.default_rng(6)
        for beta in (0.0, 0.3, 1.0):
            for kind in ("uniform", "masking"):
                spec = NoiseSpec(kind=kind, beta_bar=beta)
                x = rng.integers(0, 4, size=50)
                noisy, _ = corrupt(x, spec, 4, rng)
                lik = leaf_likelihoods(noisy, spec, 4)
                assert np.all(lik >= 0)
                assert np.all(lik.sum(axis=1) > 0)

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            leaf_likelihoods(np.array([4]), NoiseSpec(kind="uniform", beta_bar=0.2), 4)
        with pytest.raises(ValueError):
            leaf_likelihoods(np.array([5]), NoiseSpec(kind="masking", beta_bar=0.2), 4)
