import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel.metaclassifier import MetaClassifier, train_meta


def pooled_gaussian_llr(rows, labels, x):
    """The reference decision: per column, the log-likelihood ratio of two
    Gaussians with the class means and one pooled within-class variance
    (floored at 1e-9 of the column's total variance), summed over the
    columns, plus the log prior odds. A constant column adds nothing."""
    pos = labels == 1.0
    n1, n0 = pos.sum(), (~pos).sum()
    mu1, mu0 = rows[pos].mean(axis=0), rows[~pos].mean(axis=0)
    within = ((rows - np.where(pos[:, None], mu1, mu0)) ** 2).mean(axis=0)
    var = np.maximum(within, 1e-9 * rows.var(axis=0))
    constant = (rows == rows[0]).all(axis=0)
    var[constant] = 1.0

    def log_density(mu):
        return -0.5 * np.log(2.0 * np.pi * var) - (x - mu) ** 2 / (2.0 * var)

    terms = np.where(constant, 0.0, log_density(mu1) - log_density(mu0))
    return terms.sum(axis=1) + np.log(n1 / n0), np.abs(terms).sum(axis=1)


fit_problems = given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400), p=st.integers(1, 12),
    kind=st.sampled_from(["random", "correlated", "near_separable", "constant_columns"]))


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
        a = train_meta(rows, labels)
        b = train_meta(rows, labels)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_degenerates_with_warning(self):
        rows = np.array([[0.0], [1.0], [2.0]])
        with pytest.warns(RuntimeWarning, match="single meta-class"):
            mc = train_meta(rows, np.ones(3))
        assert mc.degenerate
        assert mc.competence_batch(rows).min() > 0.99
        # the decision sits at the clip, +35 or -35, whatever the rows
        for label, bias in ((1.0, 35.0), (0.0, -35.0)):
            with pytest.warns(RuntimeWarning, match="single meta-class"):
                mc = train_meta(rows, np.full(3, label))
            assert (mc.bias, mc.prior) == (bias, bias) and not mc.weights.any()
            assert mc.masked(np.array([True])).bias == bias

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two"):
            train_meta(np.array([[1.0]]), np.array([1]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
    def test_labels_outside_zero_one_rejected(self, bad):
        rows = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=f"must be 0 or 1, got {re.escape(repr(bad))}$"):
            train_meta(rows, np.array([0, 1, bad, 1]))
        with pytest.raises(ValueError, match="must be 0 or 1, got 2$"):
            train_meta(rows[:2], [0, 2])

    def test_row_order_invariance(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(60, 5))
        labels = (rows[:, 0] + rows[:, 1] > 0).astype(int)
        perm = rng.permutation(60)
        a = train_meta(rows, labels)
        b = train_meta(rows[perm], labels[perm])
        x = rng.normal(size=(20, 5))
        assert np.abs(a.competence_batch(x) - b.competence_batch(x)).max() < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), p=st.integers(1, 67),
           fortran=st.booleans(), special=st.booleans())
    def test_fold_equals_a_fit_on_the_masked_columns(self, seed, n, p, fortran, special):
        # the full fit masked to a mask's columns, as the mask search uses
        # it, against a fit on those columns alone, in either memory layout
        rng = np.random.default_rng(seed)
        rows = rng.normal(loc=3.0, size=(n, p)) * rng.uniform(0.01, 100.0, p)
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        labels[:2] = (0.0, 1.0)
        if special:
            rows[:, rng.random(p) < 0.3] = 0.1               # constant columns
            flags = rng.random(p) < 0.3
            rows[:, flags] = rng.random((n, flags.sum())) < 0.5   # 0/1 columns
        full = train_meta(np.asfortranarray(rows) if fortran else rows, labels)
        for _ in range(5):
            mask = rng.random(p) < rng.uniform(0.05, 1.0)
            mask[rng.integers(p)] = True
            folded = full.masked(mask)
            plain = train_meta(rows[:, mask], labels)
            assert np.array_equal(folded.weights[mask], plain.weights)
            assert np.array_equal(folded.offsets[mask], plain.offsets)
            assert not folded.weights[~mask].any() and not folded.offsets[~mask].any()
            assert abs(folded.bias - plain.bias) <= 1e-12
            assert folded.input_dim == p
        assert train_meta(rows, labels).masked(np.ones(p, dtype=bool)).bias == full.bias

    @settings(max_examples=100, deadline=None)
    @fit_problems
    def test_float32_rows_fit_as_their_float64_widening(self, seed, n, p, kind):
        # meta-datasets store float32 rows; the fit widens one column at a
        # time, so it is bit for bit the fit on the whole array widened
        rows, labels = draw_problem(seed, n, p, kind)
        narrow = rows.astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = train_meta(narrow, labels), train_meta(narrow.astype(float), labels)
        for name in ("weights", "offsets"):
            assert getattr(got, name).dtype == np.float64
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.bias, got.prior, got.degenerate) == (want.bias, want.prior, want.degenerate)

    @settings(max_examples=100, deadline=None)
    @fit_problems
    def test_label_dtypes_fit_the_same_selector(self, seed, n, p, kind):
        # meta-datasets store int8 labels; the fit reads labels as given and
        # casts them in each product, so int8, bool, int64 and float 0/1
        # labels give the selector bit for bit
        rows, labels = draw_problem(seed, n, p, kind)
        rows = rows.astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want, *fits = (train_meta(rows, labels.astype(t))
                           for t in (np.float64, np.int8, np.bool_, np.int64))
        for got in fits:
            for name in ("weights", "offsets"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert (got.bias, got.prior, got.degenerate) == (want.bias, want.prior,
                                                             want.degenerate)

    def test_mask_length_checked(self):
        rows, labels = separable_rows()
        with pytest.raises(ValueError, match="mask of length 3"):
            train_meta(rows, labels).masked(np.ones(3, dtype=bool))

    def test_masked_needs_the_offsets_of_a_fit(self):
        # a selector built from weights and a bias alone has no per-column
        # offsets to fold into the masked bias
        with pytest.raises(ValueError, match="per-column offsets of a train_meta fit"):
            MetaClassifier(np.ones(3), 0.5).masked(np.array([1, 0, 1], bool))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200), p=st.integers(1, 10),
           value=st.sampled_from([0.0, 0.1, 2.5, -7.3, 1e6]))
    def test_variance_floor_keeps_outputs_finite(self, seed, n, p, value):
        # constant columns and 0/1 columns, some of them splitting the two
        # classes exactly: zero within-class variance
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.5).astype(float)
        labels[:2] = (0.0, 1.0)
        kind = rng.integers(0, 3, p)
        rows = np.where(kind == 0, value,
                        np.where(kind == 1, labels[:, None],
                                 rng.random((n, p)) < 0.5)).astype(float)
        mc = train_meta(rows, labels)
        assert np.isfinite(mc.weights).all() and np.isfinite(mc.bias)
        assert not mc.weights[kind == 0].any()
        probe = np.concatenate([rows, rng.random((50, p)) < 0.5,
                                rng.normal(scale=1e3, size=(50, p))])
        delta = mc.competence_batch(probe)
        assert np.isfinite(delta).all() and delta.min() >= 0.0 and delta.max() <= 1.0
        if (kind == 1).any():
            # a column equal to the label decides every training row
            assert np.array_equal(mc.competence_batch(rows) >= 0.5, labels == 1.0)


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
        # rows drawn from the model itself: independent Gaussians with one
        # shared variance per column and equal priors, whose Bayes accuracy
        # is Phi(Mahalanobis distance / 2) = 0.93
        rng = np.random.default_rng(2)
        n, scale = 4000, np.array([0.5, 2.0, 10.0, 1.0])
        labels = (np.arange(n) % 2).astype(float)
        shift = np.array([1.0, -0.6, 0.5, 0.0])
        shift *= 2 * 1.4758 / np.linalg.norm(shift)
        rows = (rng.normal(size=(n, 4)) + labels[:, None] * shift) * scale
        bayes = 0.5 * (1.0 + math.erf(np.linalg.norm(shift) / 2 / math.sqrt(2.0)))
        mc = train_meta(rows, labels)
        delta = mc.competence_batch(rows)
        acc_from_delta = ((delta >= 0.5).astype(int) == labels).mean()
        # independent recount: refit and rescore
        acc_again = ((train_meta(rows, labels).competence_batch(rows) >= 0.5).astype(int) == labels).mean()
        assert acc_from_delta == acc_again
        assert abs(bayes - 0.93) < 1e-4
        assert abs(acc_from_delta - bayes) <= 0.015

    def test_dimension_mismatch(self):
        rows, labels = separable_rows()
        mc = train_meta(rows, labels)
        with pytest.raises(ValueError, match="input features"):
            mc.competence_batch([[1.0, 2.0, 3.0]])

    @settings(max_examples=150, deadline=None)
    @fit_problems
    def test_decision_is_the_pooled_gaussian_log_likelihood_ratio(self, seed, n, p, kind):
        # on the training rows and on rows up to 3x further from the column
        # means
        rows, labels = draw_problem(seed, n, p, kind)
        if len(np.unique(labels)) < 2:
            return
        model = train_meta(rows, labels)
        assert (model.iterations, model.degenerate) == (0, False)
        mean = rows.mean(axis=0)
        x = np.concatenate([rows, mean + np.random.default_rng(seed).uniform(-3, 3, rows.shape)
                            * (rows - mean)])
        want, size = pooled_gaussian_llr(rows, labels, x)
        got = x @ model.weights + model.bias
        assert np.abs(got - want).max() <= 1e-9 * (1.0 + size.max())

    def test_masked_dimension_is_popcount(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(50, 10))
        labels = (rows[:, 2] > 0).astype(int)
        mask = np.zeros(10, dtype=bool)
        mask[[2, 5, 7]] = True
        mc = train_meta(rows[:, mask], labels)
        assert mc.input_dim == int(mask.sum())
        assert len(mc.weights) == int(mask.sum())
