import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metasel.data import Dataset, generate_p2, scale_minmax
from metasel.engine import oracle_accuracy
from metasel.pool import SUPPORT_GAIN, ClassifierPool, bagging


def separable_toy():
    feats = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
    labels = np.array([0, 0, 1, 1])
    return Dataset(feats, labels, 2)


def p2_scaled(n, seed):
    ds = generate_p2(n, seed)
    scaled, params = scale_minmax(ds)
    return scaled, params


def single(ds, **kwargs):
    """One perceptron trained on the full data, as a one-member pool."""
    return bagging(ds, 1, bootstrap_frac=1.0, **kwargs)


# -- reference: the pool as independently trained per-member perceptrons -----

def ref_with_bias(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([X, np.ones((len(X), 1))])


def ref_scores(W, X):
    """One member's class scores (N, L), every row on BLAS's matrix path: a
    lone row is scored as a block of two copies of itself."""
    Xb = ref_with_bias(X)
    return (np.vstack([Xb, Xb]) @ W.T)[:1] if len(Xb) == 1 else Xb @ W.T


def ref_boundary_distance(W, X):
    s = ref_scores(W, X)
    if len(W) == 2:
        u = W[0] - W[1]
        norm = max(float(np.linalg.norm(u[:-1])), 1e-300)
        return (s[:, 0] - s[:, 1]) / norm
    order = np.argsort(-s, axis=1, kind="stable")
    top, second = order[:, 0], order[:, 1]
    diff = W[top, :-1] - W[second, :-1]
    norms = np.maximum(np.linalg.norm(diff, axis=1), 1e-300)
    rows = np.arange(len(s))
    return (s[rows, top] - s[rows, second]) / norms


def ref_predict(W, dist_scale, X):
    s = ref_scores(W, X)
    if len(W) == 2:
        m = ref_boundary_distance(W, X)
        s0 = 1.0 / (1.0 + np.exp(-SUPPORT_GAIN * m / dist_scale))
        supports = np.stack([s0, 1.0 - s0], axis=1)
    else:
        z = s - s.max(axis=1, keepdims=True)
        e = np.exp(z)
        supports = e / e.sum(axis=1, keepdims=True)
    return supports.argmax(axis=1), supports


def ref_train(ds, epochs, lr, seed):
    rng = np.random.default_rng(seed)
    X, y, L = ds.features, ds.labels, ds.class_count
    direction = rng.normal(0.0, 1.0, size=(L, X.shape[1]))
    anchor = X[rng.integers(0, len(X))]
    W = np.hstack([direction, -(direction @ anchor)[:, None]])
    Xb = ref_with_bias(X)
    for _ in range(epochs):
        for i in rng.permutation(len(Xb)):
            pred = int(np.argmax(W @ Xb[i]))
            if pred != y[i]:
                W[y[i]] += lr * Xb[i]
                W[pred] -= lr * Xb[i]
    margins = np.abs(ref_boundary_distance(W, X))
    return W, float(max(margins.max(), 1e-12))


def ref_bootstrap_rows(ds, i, bootstrap_frac, seed, max_retries):
    if bootstrap_frac >= 1.0:
        return np.arange(len(ds))
    size = int(np.ceil(bootstrap_frac * len(ds)))
    boot_rng = np.random.default_rng([seed, 9157, i])
    for _ in range(max_retries + 1):
        idx = boot_rng.integers(0, len(ds), size=size)
        if len(np.unique(ds.labels[idx])) == ds.class_count:
            return idx
    raise ValueError(f"bootstrap for member {i} kept missing a class after {max_retries} retries")


def ref_bagging(ds, m, bootstrap_frac, seed, epochs, lr, max_retries):
    return [ref_train(ds.subset(ref_bootstrap_rows(ds, i, bootstrap_frac, seed, max_retries)),
                      epochs, lr, seed + i)
            for i in range(m)]


def ref_lockstep_bagging(ds, m, bootstrap_frac=0.5, seed=0, epochs=50, lr=0.01,
                         max_retries=10):
    """Bagging as the stacked lockstep loop with a scattered update: draws by
    one ``rng.permutation`` per epoch, then each step gathers one sample per
    member and updates only the rows of members that got it wrong."""
    draws = []
    for i in range(m):
        rows = ref_bootstrap_rows(ds, i, bootstrap_frac, seed, max_retries)
        rng = np.random.default_rng(seed + i)
        direction = rng.normal(0.0, 1.0, size=(ds.class_count, ds.feature_count))
        anchor = rows[rng.integers(0, len(rows))]
        orders = np.empty((epochs, len(rows)), dtype=int)
        for e in range(epochs):
            orders[e] = rng.permutation(len(rows))
        draws.append((rows, direction, anchor, orders))
    rows, direction, anchor, orders = (np.stack(a) for a in zip(*draws))
    X, y = ds.features[rows], ds.labels[rows]
    Xb = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)
    members = np.arange(m)
    anchor = ds.features[anchor][:, :, None]
    W = np.concatenate([direction, -(direction @ anchor)], axis=2)
    for step in orders.transpose(1, 2, 0).reshape(-1, m):
        x = Xb[members, step]
        pred = (W @ x[:, :, None])[:, :, 0].argmax(axis=1)
        truth = y[members, step]
        wrong = np.flatnonzero(pred != truth)
        W[wrong, truth[wrong]] += lr * x[wrong]
        W[wrong, pred[wrong]] -= lr * x[wrong]
    margins = np.abs(np.stack([ref_boundary_distance(W[i], X[i]) for i in range(m)]))
    return W, np.maximum(margins.max(axis=1), 1e-12)


def ref_whole_orders_bagging(datasets, m, seeds, bootstrap_frac=0.5, epochs=50, lr=0.01,
                             max_retries=10):
    """Lockstep bagging of several datasets with every visiting order drawn
    before training: one (members, epochs, rows) int32 array, each member's
    slice filled by ``rng.permuted`` of a broadcast ``arange`` along its rows
    right after its hyperplane and anchor draws. Returns (W, dist_scale) of
    all members, dataset-major."""
    rows, direction, anchor, orders = [], [], [], []
    for ds, seed in zip(datasets, seeds):
        for i in range(m):
            idx = ref_bootstrap_rows(ds, i, bootstrap_frac, seed, max_retries)
            rng = np.random.default_rng(seed + i)
            direction.append(rng.normal(0.0, 1.0, size=(ds.class_count, ds.feature_count)))
            anchor.append(idx[rng.integers(0, len(idx))])
            whole = np.broadcast_to(np.arange(len(idx)), (epochs, len(idx)))
            orders.append(rng.permuted(whole, axis=1).astype(np.int32))
            rows.append(idx)
    rows, direction, orders = np.stack(rows), np.stack(direction), np.stack(orders)
    owner = np.repeat(np.arange(len(datasets)), m)
    features = np.stack([ds.features for ds in datasets])
    X = features[owner[:, None], rows]
    Xb = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)
    members = np.arange(len(rows))
    onehot = np.eye(datasets[0].class_count)[:, :, None]
    truth = onehot[np.stack([ds.labels for ds in datasets])[owner[:, None], rows]]
    a = features[owner, np.array(anchor)][:, :, None]
    W = np.concatenate([direction, -(direction @ a)], axis=2)
    for e in range(epochs):
        visit = orders[:, e, :].T
        for x, t in zip(Xb[members, visit], truth[members, visit]):
            pred = (W @ x[:, :, None])[:, :, 0].argmax(axis=1)
            W -= (onehot.take(pred, axis=0) - t) * (lr * x)[:, None, :]
    margins = np.abs(np.stack([ref_boundary_distance(W[j], X[j]) for j in members]))
    return W, np.maximum(margins.max(axis=1), 1e-12)


def random_dataset(seed, n, d, L, minority):
    """n rows, every class present; ``minority`` puts a single row in the
    last class so that bootstraps often miss it."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, L - 1 if minority else L, size=n)
    labels[:L - 1] = np.arange(L - 1)
    labels[L - 1] = L - 1
    return Dataset(rng.normal(size=(n, d)), labels, L)


class TestTrainPerceptron:
    def test_separable_training_accuracy(self):
        ds = separable_toy()
        pool = single(ds, epochs=100, lr=0.1, seed=0)
        labels, _ = pool.predict_batch(ds.features)
        assert (labels[0] == ds.labels).all()

    def test_p2_single_member_is_weak(self):
        train, params = p2_scaled(500, 21)
        test = generate_p2(2000, 22)
        pool = single(train, seed=2)
        labels, _ = pool.predict_batch(params.apply(test.features))
        acc = (labels[0] == test.labels).mean()
        assert 0.45 <= acc <= 0.60

    def test_zero_epochs_still_predicts_valid_labels(self):
        ds = separable_toy()
        pool = single(ds, epochs=0, seed=5)
        labels, supports = pool.predict_batch(np.random.default_rng(0).normal(size=(50, 2)))
        assert set(np.unique(labels)) <= {0, 1}
        assert np.allclose(supports.sum(axis=2), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self):
        ds = separable_toy()
        a = single(ds, seed=3)
        b = single(ds, seed=3)
        assert np.array_equal(a.weights, b.weights)


class TestPredict:
    def test_on_hyperplane_supports_are_half(self):
        W = np.array([[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]])  # boundary x = 0
        pool = ClassifierPool(W, dist_scale=np.array([1.0]))
        labels, supports = pool.predict_batch([0.0, 5.0])
        assert np.allclose(supports[0, 0], [0.5, 0.5])
        assert labels[0, 0] == 0  # tie goes to the lower index

    def test_far_on_the_class_1_side_supports_are_exact_without_warning(self):
        # -SUPPORT_GAIN * distance / dist_scale = 4e5: exp overflows to inf
        pool = ClassifierPool([[[1.0, 0.0], [-1.0, 0.0]]], dist_scale=[0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, supports = pool.predict_batch([[-1000.0]])
        assert supports[0, 0].tolist() == [0.0, 1.0]
        assert labels[0, 0] == 1

    def test_supports_sum_to_one(self):
        rng = np.random.default_rng(1)
        pool = single(separable_toy(), seed=1)
        _, supports = pool.predict_batch(rng.normal(size=(10_000, 2)))
        assert np.abs(supports.sum(axis=2) - 1.0).max() < 1e-9

    def test_argmax_matches_crisp_sign_rule(self):
        rng = np.random.default_rng(2)
        pool = single(separable_toy(), seed=7)
        X = rng.normal(size=(10_000, 2))
        labels, supports = pool.predict_batch(X)
        scores = pool.scores(X)[0]
        assert np.array_equal(labels, supports.argmax(axis=2))
        crisp = (scores[:, 1] > scores[:, 0]).astype(int)  # argmax, ties -> 0
        assert np.array_equal(labels[0], crisp)

    def test_multiclass_softmax_supports(self):
        rng = np.random.default_rng(3)
        feats = np.vstack([rng.normal(c, 0.3, size=(20, 2)) for c in range(3)])
        labels = np.repeat(np.arange(3), 20)
        pool = single(Dataset(feats, labels, 3), epochs=100, lr=0.1, seed=0)
        pred, supports = pool.predict_batch(feats)
        pred, supports = pred[0], supports[0]
        assert supports.shape == (60, 3)
        assert np.abs(supports.sum(axis=1) - 1.0).max() < 1e-9
        assert np.array_equal(pred, supports.argmax(axis=1))
        assert (pred == labels).mean() > 0.9

    def test_dimension_mismatch(self):
        pool = single(separable_toy(), seed=0)
        with pytest.raises(ValueError, match="features"):
            pool.predict_batch([1.0, 2.0, 3.0])


class TestBagging:
    def test_p2_pool_oracle(self):
        train, params = p2_scaled(500, 31)
        test = generate_p2(2000, 32)
        pool = bagging(train, 5, seed=40)
        scaled_test = Dataset(params.apply(test.features), test.labels, 2)
        assert oracle_accuracy(pool, scaled_test) >= 0.99
        # five genuinely different boundaries
        planes = {tuple(np.round(w[0] - w[1], 6)) for w in pool.weights}
        assert len(planes) == 5

    def test_degenerate_bagging_equals_plain_training(self):
        ds = separable_toy()
        pool = bagging(ds, 1, bootstrap_frac=1.0, seed=9)
        direct, _ = ref_train(ds, epochs=50, lr=0.01, seed=9)
        assert np.array_equal(pool.weights[0], direct)

    def test_seeds_differ(self):
        ds, _ = p2_scaled(200, 5)
        a = bagging(ds, 2, seed=1)
        b = bagging(ds, 2, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_members_share_shape(self):
        ds, _ = p2_scaled(100, 6)
        pool = bagging(ds, 4, seed=3)
        assert pool.class_count == 2 and pool.feature_count == 2

    def test_label_always_argmax_of_supports(self):
        ds, _ = p2_scaled(150, 7)
        pool = bagging(ds, 5, seed=11)
        X = np.random.default_rng(0).uniform(0, 1, size=(500, 2))
        labels, supports = pool.predict_batch(X)
        assert np.array_equal(labels, supports.argmax(axis=2))

    def test_oracle_monotone_in_pool_size(self):
        train, params = p2_scaled(400, 8)
        test = generate_p2(1000, 9)
        scaled_test = Dataset(params.apply(test.features), test.labels, 2)
        pool = bagging(train, 8, seed=13)
        accs = [oracle_accuracy(ClassifierPool(pool.weights[:m], pool.dist_scale[:m]),
                                scaled_test)
                for m in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_pool_size_validated(self):
        ds, _ = p2_scaled(100, 10)
        with pytest.raises(ValueError):
            bagging(ds, 0, seed=0)

    def test_bootstrap_missing_class_retries_then_errors(self):
        feats = np.arange(10.0).reshape(5, 2)
        ds = Dataset(feats, np.array([0, 0, 0, 0, 1]), 2)
        # seed 0's first draw misses class 1; with no retries that is fatal
        with pytest.raises(ValueError, match="missing a class"):
            bagging(ds, 1, bootstrap_frac=0.4, seed=0, max_retries=0)
        # with retries allowed the same seed eventually finds a valid draw
        pool = bagging(ds, 1, bootstrap_frac=0.4, seed=0, max_retries=10)
        assert len(pool) == 1

    def test_malformed_arrays_rejected(self):
        W = np.zeros((3, 2, 3))
        with pytest.raises(ValueError, match="dist_scale"):
            ClassifierPool(W, np.ones(2))
        with pytest.raises(ValueError, match="at least one"):
            ClassifierPool(np.zeros((0, 2, 3)), np.ones(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        W = np.zeros((2, 2, 3))
        W[1, 0, 2] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            ClassifierPool(W, np.ones(2))
        with pytest.raises(ValueError, match="weights must be finite"):
            ClassifierPool(np.full((1, 2, 3), np.nan), [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.0, -1.0])
    def test_bad_dist_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="dist_scale values must be finite and > 0"):
            ClassifierPool(np.zeros((2, 2, 3)), [1.0, bad])

    @pytest.mark.parametrize("kwargs,name", [
        (dict(epochs=-1), "epochs"),
        (dict(lr=np.inf), "lr"),
        (dict(lr=np.nan), "lr"),
        (dict(lr=0.0), "lr"),
        (dict(lr=-0.5), "lr"),
        (dict(bootstrap_frac=0.0), "bootstrap_frac"),
        (dict(bootstrap_frac=-0.5), "bootstrap_frac"),
        (dict(bootstrap_frac=np.nan), "bootstrap_frac"),
        (dict(bootstrap_frac=np.inf), "bootstrap_frac"),
    ])
    def test_bad_arguments_name_the_argument(self, kwargs, name):
        ds, _ = p2_scaled(50, 12)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bagging(ds, 2, seed=0, **kwargs)


class TestAgainstLockstepReference:
    """The dense update over one gathered epoch at a time leaves every pool
    byte as the scattered update of the lockstep loop does."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 25), d=st.integers(1, 4),
           L=st.sampled_from([2, 3, 4]), m=st.integers(1, 12),
           frac=st.sampled_from([0.2, 0.5, 1.0, 1.5]), epochs=st.integers(0, 4),
           lr=st.sampled_from([0.01, 0.3]), max_retries=st.integers(0, 3),
           minority=st.booleans())
    def test_bytes_equal_the_lockstep_loop(self, seed, n, d, L, m, frac, epochs, lr,
                                           max_retries, minority):
        ds = random_dataset(seed, n, d, L, minority)
        kwargs = dict(bootstrap_frac=frac, seed=seed, epochs=epochs, lr=lr,
                      max_retries=max_retries)
        try:
            W, dist_scale = ref_lockstep_bagging(ds, m, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                bagging(ds, m, **kwargs)
            return
        pool = bagging(ds, m, **kwargs)
        assert pool.weights.tobytes() == W.tobytes()
        assert pool.dist_scale.tobytes() == dist_scale.tobytes()

    def test_p2_at_the_papers_size(self):
        train, _ = p2_scaled(500, 1)
        pool = bagging(train, 100, seed=1)
        W, dist_scale = ref_lockstep_bagging(train, 100, seed=1)
        assert pool.weights.tobytes() == W.tobytes()
        assert pool.dist_scale.tobytes() == dist_scale.tobytes()

    def test_negative_zero_weight_survives_correct_steps(self):
        # an anchor at the origin can give a -0.0 bias; a row that no wrong
        # step touches keeps it, so the dense update must not turn it to +0.0
        feats = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0],
                          [6.0, 0.0], [6.0, 1.0]])
        ds = Dataset(feats, np.array([0, 0, 1, 1, 2, 2]), 3)
        negative_zeros = 0
        for seed in range(400):
            W, _ = ref_lockstep_bagging(ds, 1, bootstrap_frac=1.0, seed=seed, epochs=2)
            if ((W == 0) & np.signbit(W)).any():
                negative_zeros += 1
                pool = bagging(ds, 1, bootstrap_frac=1.0, seed=seed, epochs=2)
                assert pool.weights.tobytes() == W.tobytes()
        assert negative_zeros > 0


class TestAgainstWholeOrdersReference:
    """Visiting orders drawn one epoch at a time give, byte for byte, the
    pools of orders all drawn up front into one int32 array."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 3), n=st.integers(4, 25),
           d=st.integers(1, 4), L=st.sampled_from([2, 3]), m=st.integers(1, 8),
           frac=st.sampled_from([0.2, 0.5, 1.0, 1.5]), epochs=st.integers(0, 4),
           lr=st.sampled_from([0.01, 0.3]), max_retries=st.integers(0, 3),
           minority=st.booleans())
    @example(seed=1, count=1, n=12, d=2, L=2, m=3, frac=0.5, epochs=3, lr=0.3,
             max_retries=3, minority=False)
    @example(seed=2, count=3, n=12, d=2, L=3, m=4, frac=0.5, epochs=3, lr=0.3,
             max_retries=3, minority=False)
    @example(seed=3, count=2, n=10, d=3, L=2, m=3, frac=1.0, epochs=2, lr=0.01,
             max_retries=0, minority=False)
    @example(seed=4, count=2, n=10, d=2, L=2, m=3, frac=0.5, epochs=0, lr=0.01,
             max_retries=3, minority=False)
    def test_bytes_equal_orders_drawn_up_front(self, seed, count, n, d, L, m, frac, epochs,
                                               lr, max_retries, minority):
        datasets = [random_dataset(seed + r, n, d, L, minority) for r in range(count)]
        seeds = [seed + 1000 * r for r in range(count)]
        kwargs = dict(bootstrap_frac=frac, epochs=epochs, lr=lr, max_retries=max_retries)
        try:
            W, dist_scale = ref_whole_orders_bagging(datasets, m, seeds, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                bagging(datasets, m, seed=seeds, **kwargs)
            return
        # one dataset through the single form, several through the list form
        pools = ([bagging(datasets[0], m, seed=seeds[0], **kwargs)] if count == 1
                 else bagging(datasets, m, seed=seeds, **kwargs))
        assert np.concatenate([p.weights for p in pools]).tobytes() == W.tobytes()
        assert np.concatenate([p.dist_scale for p in pools]).tobytes() == dist_scale.tobytes()

    def test_peak_below_the_whole_orders_array(self):
        # 50 members x 50 epochs x 100 bootstrap rows of int32: 1 MB that
        # bagging no longer holds; its traced peak stays below it
        train, _ = p2_scaled(200, 3)
        bagging(train, 50, seed=3)                 # warm up numpy's caches
        tracemalloc.start()
        try:
            bagging(train, 50, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 50 * 100 * np.dtype(np.int32).itemsize


class TestSeveralDatasets:
    """Pools of several datasets of one shape train in one lockstep, each
    byte-equal to its own single call."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 4), n=st.integers(4, 25),
           d=st.integers(1, 4), L=st.sampled_from([2, 3, 4]), m=st.integers(1, 16),
           frac=st.sampled_from([0.2, 0.5, 1.0, 1.5]), epochs=st.integers(0, 4),
           lr=st.sampled_from([0.01, 0.3]), max_retries=st.integers(0, 3),
           minority=st.booleans())
    def test_each_pool_equals_its_single_call(self, seed, count, n, d, L, m, frac, epochs,
                                              lr, max_retries, minority):
        datasets = [random_dataset(seed + r, n, d, L, minority) for r in range(count)]
        seeds = [seed + 1000 * r for r in range(count)]
        kwargs = dict(bootstrap_frac=frac, epochs=epochs, lr=lr, max_retries=max_retries)
        try:
            singles = [bagging(ds, m, seed=s, **kwargs) for ds, s in zip(datasets, seeds)]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                bagging(datasets, m, seed=seeds, **kwargs)
            return
        pools = bagging(datasets, m, seed=seeds, **kwargs)
        assert isinstance(pools, list) and len(pools) == count
        for pool, single in zip(pools, singles):
            assert pool.weights.tobytes() == single.weights.tobytes()
            assert pool.dist_scale.tobytes() == single.dist_scale.tobytes()

    def test_p2_replications_at_the_papers_size(self):
        trains = [p2_scaled(500, [1, r, 11])[0] for r in range(3)]
        pools = bagging(trains, 100, seed=[5, 6, 7])
        for train, seed, pool in zip(trains, [5, 6, 7], pools):
            single = bagging(train, 100, seed=seed)
            assert pool.weights.tobytes() == single.weights.tobytes()
            assert pool.dist_scale.tobytes() == single.dist_scale.tobytes()

    @pytest.mark.parametrize("n, d, L", [(13, 2, 2), (12, 3, 2), (12, 2, 3)],
                             ids=["length", "width", "class count"])
    def test_datasets_of_another_shape_rejected(self, n, d, L):
        ds = random_dataset(1, 12, 2, 2, False)
        with pytest.raises(ValueError, match="must share length, width and class count"):
            bagging([ds, random_dataset(0, n, d, L, False)], 2, seed=[0, 1])

    def test_one_seed_per_dataset(self):
        ds = random_dataset(1, 12, 2, 2, False)
        for datasets, seeds in (([ds, ds], [0]), ([ds], [0, 1]), ([], [])):
            with pytest.raises(ValueError, match="one seed per dataset"):
                bagging(datasets, 2, seed=seeds)


class TestAgainstPerMemberReference:
    """The stacked pool and lockstep bagging equal, bit for bit, the same
    members trained and evaluated one at a time."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 25), d=st.integers(1, 4),
           L=st.sampled_from([2, 3]), m=st.integers(1, 4),
           frac=st.sampled_from([0.2, 0.5, 1.0, 1.5]), epochs=st.integers(0, 4),
           lr=st.sampled_from([0.01, 0.3]), max_retries=st.integers(0, 3),
           minority=st.booleans())
    # three classes, a bootstrap that needs a retry, then succeeds
    @example(seed=3, n=12, d=2, L=3, m=3, frac=0.5, epochs=2, lr=0.3, max_retries=3,
             minority=True)
    def test_bagging_matches_member_by_member_training(self, seed, n, d, L, m, frac,
                                                       epochs, lr, max_retries, minority):
        ds = random_dataset(seed, n, d, L, minority)
        kwargs = dict(bootstrap_frac=frac, seed=seed, epochs=epochs, lr=lr,
                      max_retries=max_retries)
        try:
            members = ref_bagging(ds, m, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                bagging(ds, m, **kwargs)
            return
        pool = bagging(ds, m, **kwargs)
        assert np.array_equal(pool.weights, np.stack([W for W, _ in members]))
        assert np.array_equal(pool.dist_scale, [s for _, s in members])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30), d=st.integers(1, 6),
           L=st.sampled_from([2, 3]), m=st.integers(1, 5))
    def test_stacked_outputs_match_per_member_outputs(self, seed, n, d, L, m):
        rng = np.random.default_rng(seed)
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.1, 3.0, size=m))
        X = rng.normal(size=(n, d))
        labels, supports = pool.predict_batch(X)
        dists = pool.boundary_distances(X)
        scores = pool.scores(X)
        for i in range(m):
            W = pool.weights[i]
            ref_labels, ref_supports = ref_predict(W, pool.dist_scale[i], X)
            assert np.array_equal(labels[i], ref_labels)
            assert np.array_equal(supports[i], ref_supports)
            assert np.array_equal(dists[i], ref_boundary_distance(W, X))
            assert np.array_equal(scores[i], ref_scores(W, X))
