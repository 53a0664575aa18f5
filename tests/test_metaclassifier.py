import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel.metaclassifier import (MetaClassifier, MetaTrainConfig,
                                    standardize_constants, train_meta)


def reference_train_meta(rows, labels, config=None):
    """The Newton fit with its whole Hessian in float64: a gemm over a
    curvature-scaled copy of Z, bordered by hand. The reference for
    ``train_meta``, whose float32 curvature may take other steps to the
    same optimum. The returned model is not folded: it scores rows
    standardized with ``standardize_constants(rows)``."""
    config = config or MetaTrainConfig()
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    labels = np.asarray(labels, dtype=float).reshape(-1)
    p = rows.shape[1]
    mean, std = standardize_constants(rows)
    Z = (rows - mean) / std
    classes = np.unique(labels)
    if len(classes) < 2:
        bias = 35.0 if classes[0] >= 0.5 else -35.0
        return MetaClassifier(np.zeros(p), bias, degenerate=True)
    w = np.zeros(p)
    b = 0.0
    sample_w = np.where(labels == 1.0, config.positive_class_weight, 1.0)
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        z = np.clip(Z @ w + b, -35.0, 35.0)
        prob = 1.0 / (1.0 + np.exp(-z))
        resid = sample_w * (prob - labels)
        grad_w = Z.T @ resid + config.l2 * w
        grad_b = resid.sum()
        curv = np.maximum(sample_w * prob * (1.0 - prob), 1e-9)
        H = (Z * curv[:, None]).T @ Z + config.l2 * np.eye(p)
        Hb = np.empty((p + 1, p + 1))
        Hb[:p, :p] = H
        Hb[:p, p] = Hb[p, :p] = Z.T @ curv
        Hb[p, p] = curv.sum()
        step = np.linalg.solve(Hb, np.concatenate([grad_w, [grad_b]]))
        w -= step[:p]
        b -= step[p]
        if np.abs(step).max() < config.tol:
            break
    return MetaClassifier(w, float(b), iterations=iterations)


def standardized_fit(rows, labels, config=None):
    """``train_meta``'s fit of ``rows`` before the fold, with the column
    constants: refitting the standardized copy with constants (0, 1) runs
    the same iterations on the same bits, and its fold divides by 1 and
    subtracts 0."""
    mean, std = standardize_constants(rows)
    Z = (rows - mean) / std
    p = rows.shape[1]
    return train_meta(Z, labels, config, standardized=(np.zeros(p), np.ones(p))), mean, std


fit_problems = given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400), p=st.integers(1, 12),
    kind=st.sampled_from(["random", "correlated", "near_separable", "constant_columns"]),
    positive_class_weight=st.sampled_from([1.0, 0.5, 3.0]))


def draw_problem(seed, n, p, kind):
    """Rows and 0/1 labels of one kind of selector-fitting problem."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, p) + rng.normal(size=p)
    beta = rng.normal(size=p)
    noise = 1.0
    if kind == "correlated":
        # every column a near copy of the first, up to rho = 0.9999
        rho = rng.choice([0.9, 0.99, 0.9999])
        rows = rows[:, :1] * rho + np.sqrt(1.0 - rho ** 2) * rows
    elif kind == "near_separable":
        noise = 1e-3
    elif kind == "constant_columns":
        rows[:, rng.random(p) < 0.5] = 2.5
    labels = (rows @ beta + noise * rng.normal(size=n) * np.abs(rows @ beta).mean()
              > np.median(rows @ beta)).astype(float)
    if rng.random() < 0.1:
        labels[:] = labels[0]                     # one meta-class: degenerate
    return rows, labels


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
        a = train_meta(rows, labels, MetaTrainConfig())
        b = train_meta(rows, labels, MetaTrainConfig())
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
            assert np.array_equal(pre.weights, plain.weights) and pre.bias == plain.bias
            assert np.abs(pre.competence_batch(x[:, m]) - plain.competence_batch(x[:, m])).max() <= 1e-9

    @settings(max_examples=150, deadline=None)
    @fit_problems
    def test_float32_curvature_reaches_the_reference_optimum(self, seed, n, p, kind,
                                                              positive_class_weight):
        rows, labels = draw_problem(seed, n, p, kind)
        config = MetaTrainConfig(positive_class_weight=positive_class_weight)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, _, _ = standardized_fit(rows, labels, config)
        ref = reference_train_meta(rows, labels, config)
        assert got.degenerate == ref.degenerate
        assert abs(got.iterations - ref.iterations) <= 3
        assert np.abs(got.weights - ref.weights).max() <= 1e-8
        assert abs(got.bias - ref.bias) <= 1e-8

    @pytest.mark.parametrize("field,value", [("l2", -1e-3), ("l2", float("nan")),
                                             ("max_iter", 0), ("tol", 0.0),
                                             ("positive_class_weight", 0.0)])
    def test_out_of_range_config_names_the_field(self, field, value):
        rows, labels = separable_rows()
        config = MetaTrainConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            train_meta(rows, labels, config)


class TestCompetence:
    def test_zero_weight_model_gives_half(self):
        mc = MetaClassifier(np.zeros(3), 0.0)
        assert mc.competence_batch([[5.0, -2.0, 0.4]]).tolist() == [0.5]

    def test_decision_clipped_at_35(self):
        # far decisions saturate at sigmoid(+-35) instead of overflowing exp
        mc = MetaClassifier(np.array([1.0]), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc.competence_batch([[1e4], [-1e4], [35.0]])
        assert got.tolist() == [1.0 / (1.0 + np.exp(-35.0)), 1.0 / (1.0 + np.exp(35.0)),
                                1.0 / (1.0 + np.exp(-35.0))]

    def test_output_in_unit_interval(self):
        rows, labels = separable_rows()
        mc = train_meta(rows, labels)
        rng = np.random.default_rng(1)
        delta = mc.competence_batch(rng.normal(scale=100, size=(500, 2)))
        assert delta.min() >= 0.0 and delta.max() <= 1.0

    def test_monotone_in_positive_weight(self):
        mc = MetaClassifier(np.array([2.0, -1.0]), 0.1)
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

    @settings(max_examples=150, deadline=None)
    @fit_problems
    def test_raw_rows_match_the_standardized_selector(self, seed, n, p, kind,
                                                      positive_class_weight):
        # the folded model on raw rows against the fit it folds, scoring
        # standardized rows; on the training rows and on rows up to 3x
        # further from the column means
        rows, labels = draw_problem(seed, n, p, kind)
        config = MetaTrainConfig(positive_class_weight=positive_class_weight)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = train_meta(rows, labels, config)
            fit, mean, std = standardized_fit(rows, labels, config)
        assert (model.iterations, model.degenerate) == (fit.iterations, fit.degenerate)
        x = np.concatenate([rows, mean + np.random.default_rng(seed).uniform(-3, 3, rows.shape)
                            * (rows - mean)])
        z = np.clip(((x - mean) / std) @ fit.weights + fit.bias, -35.0, 35.0)
        want = 1.0 / (1.0 + np.exp(-z))
        assert np.abs(model.competence_batch(x) - want).max() <= 1e-12

    def test_masked_dimension_is_popcount(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(50, 10))
        labels = (rows[:, 2] > 0).astype(int)
        mask = np.zeros(10, dtype=bool)
        mask[[2, 5, 7]] = True
        mc = train_meta(rows[:, mask], labels)
        assert mc.input_dim == int(mask.sum())
        assert len(mc.weights) == int(mask.sum())
