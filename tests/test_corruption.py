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
    def test_needs_a_kind_and_a_level_in_range(self):
        with pytest.raises(ValueError, match="^NoiseSpec field 'beta_bar' is required$"):
            NoiseSpec(kind="uniform")
        with pytest.raises(ValueError, match="^NoiseSpec field 'kind' is \"gaussian\""):
            NoiseSpec(kind="gaussian", beta_bar=0.2)
        with pytest.raises(ValueError,
                           match="^NoiseSpec field 'beta_bar' is 1.5, above its maximum 1$"):
            NoiseSpec(kind="masking", beta_bar=1.5)
        with pytest.raises(ValueError,
                           match="^NoiseSpec field 'beta_bar' is -0.1, below its minimum 0$"):
            NoiseSpec(kind="masking", beta_bar=-0.1)
        with pytest.raises(TypeError):
            NoiseSpec(kind="masking", schedule=(0.5,))

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5", 1j, [0.5]])
    def test_refuses_boolean_and_non_real_levels_by_name(self, bad):
        with pytest.raises(ValueError,
                           match="^NoiseSpec field 'beta_bar' must be of type number, not "):
            NoiseSpec(kind="uniform", beta_bar=bad)

    @pytest.mark.parametrize("level", [0, 1, np.int8(1), np.float32(0.5), np.float64(0.25)])
    def test_stores_levels_as_floats(self, level):
        spec = NoiseSpec(kind="uniform", beta_bar=level)
        assert type(spec.beta_bar) is float and spec.beta_bar == float(level)
        keep = cumulative_keep_prob(spec)
        assert type(keep) is float and keep == 1.0 - float(level)

    def test_masking_monte_carlo(self):
        # corruption frequency under masking matches 1 - keep
        spec = NoiseSpec("masking", beta_bar=0.35)
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

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_masking_rows_equal_the_identity_matrix_formula(self, dtype):
        rng = np.random.default_rng(7)
        spec = NoiseSpec(kind="masking", beta_bar=0.5)
        for v in (2, 5, 16):
            for n in (1, 3, 40):
                for masked_share in (0.0, 0.5, 1.0):
                    seq = rng.integers(0, v, size=n).astype(dtype)
                    seq[rng.random(n) < masked_share] = v
                    want = np.empty((n, v))
                    hidden = seq == v
                    want[hidden] = 1.0
                    want[~hidden] = np.eye(v)[seq[~hidden]]
                    got = leaf_likelihoods(seq, spec, v)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_uniform_rows_equal_the_kernel_formula(self, dtype):
        rng = np.random.default_rng(8)
        for spec in [NoiseSpec(kind="uniform", beta_bar=b) for b in (0.0, 0.3, 1.0)]:
            keep = cumulative_keep_prob(spec)
            for v in (2, 5, 16):
                for n in (0, 1, 40):
                    seq = rng.integers(0, v, size=n).astype(dtype)
                    want = np.full((n, v), (1.0 - keep) / v)
                    want[np.arange(n), seq] = (1.0 - keep) / v + keep
                    got = leaf_likelihoods(seq, spec, v)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    # A write into one result never reaches a later call.
                    got[...] = 7.0
                    assert leaf_likelihoods(seq, spec, v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("v", [254, 255, 256, 300])
    def test_rows_are_the_same_bytes_with_and_without_a_table(self, v):
        # Up to v = 255 the rows come from a cached table, above it row by row.
        rng = np.random.default_rng(9)
        for spec in (NoiseSpec(kind="uniform", beta_bar=0.3),
                     NoiseSpec(kind="masking", beta_bar=0.3)):
            seq = rng.integers(0, v + (spec.kind == "masking"), size=30)
            seq[:2] = (0, v - 1)
            keep = cumulative_keep_prob(spec)
            if spec.kind == "uniform":
                want = np.full((30, v), (1.0 - keep) / v)
                want[np.arange(30), seq] = (1.0 - keep) / v + keep
            else:
                want = np.vstack([np.eye(v), np.ones(v)])[seq]
            got = leaf_likelihoods(seq, spec, v)
            assert got.flags.writeable and got.tobytes() == want.tobytes()

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            leaf_likelihoods(np.array([4]), NoiseSpec(kind="uniform", beta_bar=0.2), 4)
        with pytest.raises(ValueError):
            leaf_likelihoods(np.array([5]), NoiseSpec(kind="masking", beta_bar=0.2), 4)
