import numpy as np
import pytest

from metasel.metaclassifier import (MetaClassifier, MetaTrainConfig,
                                    standardize_constants, train_meta)


def separable_rows():
    rows = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]])
    labels = np.array([0, 0, 1, 1])
    return rows, labels


class TestTrainMeta:
    def test_separable_training_accuracy(self):
        rows, labels = separable_rows()
        mc = train_meta(rows, labels)
        delta = mc.competence_batch(rows)
        assert np.array_equal((delta >= 0.5).astype(int), labels)

    def test_conflicting_duplicates_give_half(self):
        rows = np.array([[0.3, 0.7]] * 10)
        labels = np.array([0, 1] * 5)
        mc = train_meta(rows, labels)
        assert abs(mc.competence_batch(rows[:1])[0] - 0.5) <= 0.05

    def test_deterministic(self):
        rows, labels = separable_rows()
        a = train_meta(rows, labels, MetaTrainConfig(seed=4))
        b = train_meta(rows, labels, MetaTrainConfig(seed=4))
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_degenerates_with_warning(self):
        rows = np.array([[0.0], [1.0], [2.0]])
        with pytest.warns(RuntimeWarning, match="single meta-class"):
            mc = train_meta(rows, np.ones(3))
        assert mc.degenerate
        assert mc.competence_batch(rows).min() > 0.99

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two"):
            train_meta(np.array([[1.0]]), np.array([1]))

    def test_row_order_invariance(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(60, 5))
        labels = (rows[:, 0] + rows[:, 1] > 0).astype(int)
        perm = rng.permutation(60)
        a = train_meta(rows, labels)
        b = train_meta(rows[perm], labels[perm])
        x = rng.normal(size=(20, 5))
        assert np.abs(a.competence_batch(x) - b.competence_batch(x)).max() < 1e-9

    def test_precomputed_standardization_matches_plain_fit(self):
        # constants of the full (column-major) matrix, restricted to a mask's
        # columns, as the mask search uses them; column 4 is constant
        rng = np.random.default_rng(5)
        rows = rng.normal(loc=3.0, size=(300, 7)) * np.array([0.5, 2.0, 10.0, 1.0, 1.0, 1e3, 1.0])
        rows[:, 4] = 2.5
        labels = (rows[:, 0] - 0.2 * rows[:, 2] + rng.normal(size=300) > 1.4).astype(int)
        mean, std = standardize_constants(np.asfortranarray(rows))
        Z = (rows - mean) / std
        x = rng.normal(loc=3.0, size=(50, 7))
        for mask in ([1, 1, 1, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1, 0]):
            m = np.array(mask, dtype=bool)
            plain = train_meta(rows[:, m], labels)
            pre = train_meta(Z[:, m], labels, standardized=(mean[m], std[m]))
            assert pre.iterations == plain.iterations
            assert np.abs(pre.weights - plain.weights).max() <= 1e-9
            assert abs(pre.bias - plain.bias) <= 1e-9
            assert np.array_equal(pre.feature_mean, plain.feature_mean)
            assert np.array_equal(pre.feature_std, plain.feature_std)
            assert np.abs(pre.competence_batch(x[:, m]) - plain.competence_batch(x[:, m])).max() <= 1e-9


class TestCompetence:
    def test_zero_weight_model_gives_half(self):
        mc = MetaClassifier(np.zeros(3), 0.0, np.zeros(3), np.ones(3), 3)
        assert mc.competence_batch([[5.0, -2.0, 0.4]]).tolist() == [0.5]

    def test_output_in_unit_interval(self):
        rows, labels = separable_rows()
        mc = train_meta(rows, labels)
        rng = np.random.default_rng(1)
        delta = mc.competence_batch(rng.normal(scale=100, size=(500, 2)))
        assert delta.min() >= 0.0 and delta.max() <= 1.0

    def test_monotone_in_positive_weight(self):
        mc = MetaClassifier(np.array([2.0, -1.0]), 0.1, np.zeros(2), np.ones(2), 2)
        grid = np.linspace(-3, 3, 50)
        vals = mc.competence_batch(np.stack([grid, np.zeros(50)], axis=1))
        assert (np.diff(vals) >= 0).all()

    def test_threshold_reproduces_training_accuracy(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(200, 4))
        labels = (rows @ np.array([1.0, -0.5, 0.2, 0.0]) + 0.1 * rng.normal(size=200) > 0).astype(int)
        mc = train_meta(rows, labels)
        delta = mc.competence_batch(rows)
        acc_from_delta = ((delta >= 0.5).astype(int) == labels).mean()
        # independent recount: refit and rescore
        acc_again = ((train_meta(rows, labels).competence_batch(rows) >= 0.5).astype(int) == labels).mean()
        assert acc_from_delta == acc_again
        assert acc_from_delta > 0.9

    def test_dimension_mismatch(self):
        rows, labels = separable_rows()
        mc = train_meta(rows, labels)
        with pytest.raises(ValueError, match="input features"):
            mc.competence_batch([[1.0, 2.0, 3.0]])

    def test_masked_dimension_is_popcount(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(50, 10))
        labels = (rows[:, 2] > 0).astype(int)
        mask = np.zeros(10, dtype=bool)
        mask[[2, 5, 7]] = True
        mc = train_meta(rows[:, mask], labels)
        assert mc.input_dim == int(mask.sum())
        assert len(mc.weights) == int(mask.sum())
