import numpy as np
import pytest

from oracles import one_step_gd_oracle
from rhmlab import (
    enumerate_all,
    one_step_gd,
    one_step_gradient,
    sample_dataset,
    synonym_column_cosine,
    theory_prediction,
    true_tuple_classes,
    tuple_next_token_pairs,
)


class TestGradientIdentity:
    @pytest.mark.parametrize("eta", [0.1, 1.0, 10.0])
    def test_update_equals_scaled_correlation(self, rs_medium, eta):
        ds = sample_dataset(rs_medium, 4000, np.random.default_rng(0),
                            with_latents=False)
        codes, labels = tuple_next_token_pairs(ds.sequences, 2, 16)
        model = one_step_gd(codes, labels, 16, eta)
        dev = np.abs(model.delta - eta * model.empirical_corr).max()
        assert dev <= 1e-10
        assert np.array_equal(model.weights,
                              model.init_log_marginal[:, None] + model.delta)

    def test_identity_across_random_datasets(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n_tuples = int(rng.integers(3, 30))
            n = int(rng.integers(50, 400))
            codes = rng.integers(0, n_tuples, size=n)
            v = int(rng.integers(2, 9))
            labels = rng.integers(0, v, size=n)
            if np.bincount(labels, minlength=v).min() == 0:
                continue
            model = one_step_gd(codes, labels, v, 1.0)
            assert np.abs(model.delta - model.empirical_corr).max() <= 1e-10

    def test_init_columns_identical(self, rs_medium):
        ds = sample_dataset(rs_medium, 1000, np.random.default_rng(2),
                            with_latents=False)
        codes, labels = tuple_next_token_pairs(ds.sequences, 2, 16)
        model = one_step_gd(codes, labels, 16, 1.0)
        init = model.weights - model.delta
        assert np.abs(init - init[:, :1]).max() == 0.0
        counts = np.bincount(labels, minlength=16)
        assert model.init_log_marginal == pytest.approx(np.log(counts / labels.size))

    def test_missing_label_class_raises(self):
        codes = np.zeros(10, dtype=int)
        labels = np.zeros(10, dtype=int)  # class 1 never appears
        with pytest.raises(ValueError):
            one_step_gd(codes, labels, 2, 1.0)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_next_token_is_named(self, bad):
        labels = np.array([0, 1, 0, bad])
        with pytest.raises(ValueError, match=rf"next tokens must lie in \[0, 2\), found {bad}"):
            one_step_gradient(np.zeros(4, dtype=int), labels, 2)

    @pytest.mark.parametrize("codes", [np.zeros(4), np.zeros(4, dtype=bool)],
                             ids=["float", "bool"])
    def test_non_integer_tuple_codes_refused(self, codes):
        # float codes used to come back as float tuple_codes
        with pytest.raises(ValueError, match="^tuple codes must hold integer tokens"):
            one_step_gradient(codes, np.array([0, 1, 0, 1]), 2)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            one_step_gd(np.zeros(4, dtype=int), np.array([0, 1, 0, 1]), 2, 0.0)


def _assert_same_model(got, want):
    for field in ("tuple_codes", "init_log_marginal", "weights", "delta",
                  "empirical_corr"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.eta == want.eta


class TestOneStepOracle:
    """Bit-identical to the per-eta ``np.add.at`` form of the step."""

    def test_one_gradient_serves_every_eta(self, rs_medium):
        ds = sample_dataset(rs_medium, 4000, np.random.default_rng(4),
                            with_latents=False)
        codes, labels = tuple_next_token_pairs(ds.sequences, 2, 16)
        grad = one_step_gradient(codes, labels, 16)
        for eta in (0.1, 1.0, 10.0, 0.3):
            want = one_step_gd_oracle(codes, labels, 16, eta)
            _assert_same_model(grad.step(eta), want)
            _assert_same_model(one_step_gd(codes, labels, 16, eta), want)

    def test_random_datasets(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n_tuples = int(rng.integers(1, 40))
            n = int(rng.integers(20, 600))
            v = int(rng.integers(2, 9))
            codes = rng.integers(0, n_tuples, size=n) * 7
            labels = rng.integers(0, v, size=n)
            if np.bincount(labels, minlength=v).min() == 0:
                continue
            eta = float(rng.uniform(0.01, 20.0))
            _assert_same_model(one_step_gd(codes, labels, v, eta),
                               one_step_gd_oracle(codes, labels, v, eta))


class TestSynonymStructure:
    def test_population_columns_equal_for_synonyms(self, rs_small):
        enum = enumerate_all(rs_small)
        codes, labels = tuple_next_token_pairs(enum.sequences, 2, 4)
        model = one_step_gd(codes, labels, 4, 1.0)
        classes = true_tuple_classes(rs_small, 1, model.tuple_codes)
        for cls in np.unique(classes):
            cols = model.delta[:, classes == cls]
            assert np.abs(cols - cols[:, :1]).max() < 1e-15

    def test_cosine_follows_snr_curve(self, rs_medium):
        # noise/signal algebra gives cos ~= 1/(1 + P2/P); the 0.9 crossing
        # lands at 9*P2, not within the factor-4 neighborhood of P2 itself
        p2 = theory_prediction(rs_medium.params, 2).sample_complexity
        crossing = None
        prev = None
        for mult in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            n = int(mult * p2)
            ds = sample_dataset(rs_medium, n, np.random.default_rng(int(mult * 10)),
                                with_latents=False)
            codes, labels = tuple_next_token_pairs(ds.sequences, 2, 16)
            model = one_step_gd(codes, labels, 16, 1.0)
            classes = true_tuple_classes(rs_medium, 1, model.tuple_codes)
            cos = synonym_column_cosine(model, classes)
            want = 1 / (1 + p2 / n)
            assert cos == pytest.approx(want, abs=0.15)
            if crossing is None and cos >= 0.9 and prev is not None:
                crossing = n
            prev = cos
        assert crossing is not None
        assert 0.5 * 9 * p2 <= crossing <= 2 * 9 * p2

    def test_cosine_needs_synonym_pairs(self, rs_medium):
        ds = sample_dataset(rs_medium, 500, np.random.default_rng(3),
                            with_latents=False)
        codes, labels = tuple_next_token_pairs(ds.sequences, 2, 16)
        model = one_step_gd(codes, labels, 16, 1.0)
        with pytest.raises(ValueError):
            synonym_column_cosine(model, np.arange(model.tuple_codes.size))


class TestPairs:
    def test_pairs_extractor(self):
        seqs = np.array([[1, 2, 3, 0], [0, 1, 2, 3]])
        codes, labels = tuple_next_token_pairs(seqs, 2, 4)
        assert codes.tolist() == [1 * 4 + 2, 0 * 4 + 1]
        assert labels.tolist() == [3, 2]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            tuple_next_token_pairs(np.zeros((2, 2), dtype=int), 2, 4)
