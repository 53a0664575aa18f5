import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import _blocks, engine, experiment
from metasel.bpso import BpsoConfig
from metasel.data import Dataset, ScaleParams, generate_p2, scale_minmax
from metasel.engine import (BASELINE_METHODS, DesModel, baseline_predict_batch,
                            classify, classify_batch, consensus_keep, oracle_accuracy,
                            weighted_majority_vote)
from metasel.metaclassifier import MetaClassifier, train_meta
from metasel.experiment import evaluate_methods
from metasel.metafeatures import MetaFeatureExtractor
from metasel.pool import ClassifierPool, bagging
from metasel.regions import nearest_neighbors
from test_metafeatures import apply_mask, budget_for


class TableMember:
    def __init__(self, supports):
        self.table = {int(k): np.asarray(v, dtype=float) for k, v in supports.items()}
        self.class_count = len(next(iter(self.table.values())))

    def predict_batch(self, X):
        sup = np.array([self.table[int(round(x[0]))] for x in np.atleast_2d(X)])
        return sup.argmax(axis=1), sup

    def boundary_distance(self, X):
        return np.zeros(len(np.atleast_2d(X)))


class TablePool:
    def __init__(self, members):
        self.members = members
        self.class_count = members[0].class_count
        self.feature_count = 1

    def __len__(self):
        return len(self.members)

    def predict_batch(self, X):
        labels, sups = zip(*(m.predict_batch(X) for m in self.members))
        return np.stack(labels), np.stack(sups)

    def boundary_distances(self, X):
        return np.stack([m.boundary_distance(X) for m in self.members])


def scripted_classify(member_tables, deltas, X, threshold=0.5):
    """``classify_batch``'s step after the competences, for a scripted pool
    whose members hand back a fixed per-classifier competence cycle."""
    pool = TablePool([TableMember(t) for t in member_tables])
    pred_labels, _ = pool.predict_batch(np.atleast_2d(X))
    delta = np.resize(np.asarray(deltas, dtype=float), pred_labels.T.shape)
    return engine._select_and_vote(delta, pred_labels, threshold, pool.class_count)


def scripted_classify_one(member_tables, deltas, x, threshold=0.5):
    labels, diags = scripted_classify(member_tables, deltas, np.atleast_2d(x), threshold)
    return int(labels[0]), diags[0]


def predict_one(method, pool, dsel, x, k=7):
    """A baseline's label for one sample, through the batch path."""
    labels, _ = baseline_predict_batch(method, pool, dsel, np.atleast_2d(x), k)
    return int(labels[0])


def p2_setup(seed=0, m=5):
    train_raw = generate_p2(300, seed)
    train, params = scale_minmax(train_raw)
    dsel_raw = generate_p2(150, seed + 1)
    dsel = Dataset(params.apply(dsel_raw.features), dsel_raw.labels, 2)
    test_raw = generate_p2(400, seed + 2)
    test = Dataset(params.apply(test_raw.features), test_raw.labels, 2)
    pool = bagging(train, m, seed=seed + 10)
    return pool, dsel, test


class TestWeightedMajorityVote:
    def test_hand_case(self):
        # votes (A, B, B) with weights (0.9, 0.6, 0.55): B wins, 1.15 > 0.9
        assert weighted_majority_vote([0, 1, 1], [0.9, 0.6, 0.55], 2) == 1

    def test_tie_goes_to_lowest_class(self):
        assert weighted_majority_vote([1, 0], [0.5, 0.5], 2) == 0

    def test_all_zero_weights_degrade_to_majority(self):
        assert weighted_majority_vote([1, 1, 0], [0.0, 0.0, 0.0], 2) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            L = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            labels = rng.integers(0, L, m)
            weights = np.round(rng.random(m), 3)
            totals = [weights[labels == c].sum() for c in range(L)]
            if max(totals) <= 0:
                expected = int(np.argmax(np.bincount(labels, minlength=L)))
            else:
                expected = int(np.argmax(totals))
            assert weighted_majority_vote(labels, weights, L) == expected

    @settings(max_examples=150, deadline=None)
    @given(nq=st.integers(1, 8), m=st.integers(1, 7), L=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_rows_equal_per_row_calls(self, nq, m, L, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, L, (nq, m))
        weights = np.round(rng.random((nq, m)), 3)
        weights[rng.random((nq, m)) < 0.3] = 0.0
        weights[rng.random(nq) < 0.3] = 0.0          # all-zero rows
        got = weighted_majority_vote(labels, weights, L)
        want = [weighted_majority_vote(labels[j], weights[j], L) for j in range(nq)]
        assert all(type(w) is int for w in want)
        assert got.tolist() == want
        stacked = weighted_majority_vote(labels[:, None], weights[:, None], L)
        assert stacked.tolist() == [[w] for w in want]


class TestClassify:
    def test_single_member_pool(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)}]
        label, diag = scripted_classify_one(tables, [0.8], [2.0])
        assert label == 0 and not diag.fallback
        assert diag.selected.tolist() == [0]

    def test_fallback_to_max_delta(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)},
                  {i: (0.2, 0.8) for i in range(-1, 6)}]
        label, diag = scripted_classify_one(tables, [0.3, 0.4], [2.0])
        assert diag.fallback
        assert label == 1  # member 1 has the larger competence

    def test_hand_built_weighted_vote(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)},   # votes class 0
                  {i: (0.1, 0.9) for i in range(-1, 6)},   # votes class 1
                  {i: (0.2, 0.8) for i in range(-1, 6)}]   # votes class 1
        label, diag = scripted_classify_one(tables, [0.9, 0.6, 0.55], [2.0])
        assert label == 1  # 0.6 + 0.55 outweighs 0.9
        assert diag.selected.tolist() == [0, 1, 2]

    def test_threshold_zero_uniform_delta_is_majority_vote(self):
        pool, dsel, test = p2_setup(3)
        mask = np.ones(67, dtype=bool)
        uniform = MetaClassifier(np.zeros(67), 0.0)
        model = DesModel(MetaFeatureExtractor(pool, dsel), uniform, mask, None,
                         selection_threshold=0.0)
        ours, _ = classify_batch(model, test.features)
        mv, _ = baseline_predict_batch("majority_vote", pool, dsel, test.features)
        assert np.array_equal(ours, mv)

    def test_all_zero_competences_at_threshold_zero_are_majority_vote(self):
        # member i votes (x + i) % 3 at x, so the winner differs across queries
        tables = [{x: np.eye(3)[(x + i) % 3] * 0.8 + 0.1 for x in range(-1, 9)}
                  for i in (0, 1, 1, 2)]
        X = np.arange(6, dtype=float)[:, None]
        labels, diags = scripted_classify(tables, [0.0], X, threshold=0.0)
        pool = TablePool([TableMember(t) for t in tables])
        dsel = Dataset(X, np.array([0, 1, 2, 0, 1, 2]), 3)
        mv, _ = baseline_predict_batch("majority_vote", pool, dsel, X, k=6)
        assert labels.tolist() == mv.tolist()
        assert all(not d.fallback and d.selected.tolist() == [0, 1, 2, 3] for d in diags)

    def test_diagnostics_carry_competences(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)}] * 3
        _, diag = scripted_classify_one(tables, [0.9, 0.6, 0.55], [2.0])
        assert np.allclose(diag.competences, [0.9, 0.6, 0.55])

    def test_empty_batch(self):
        pool, dsel, _ = p2_setup(3, m=4)
        model = DesModel(MetaFeatureExtractor(pool, dsel), MetaClassifier(np.zeros(67), 0.0),
                         np.ones(67, dtype=bool), None)
        labels, result = classify_batch(model, np.empty((0, 2)))
        assert labels.shape == (0,) and labels.dtype.kind == "i"
        assert len(result) == 0
        assert list(result) == []


def reference_samples(delta, threshold):
    """The per-sample decisions the result's views must equal: (competences,
    selected member indices, fallback), built one sample at a time."""
    samples = []
    for row in delta:
        chosen = np.flatnonzero(row >= threshold)
        fallback = chosen.size == 0
        samples.append((row, np.array([row.argmax()]) if fallback else chosen, fallback))
    return samples


class TestClassifyResult:
    @settings(max_examples=100, deadline=None)
    @given(nq=st.integers(0, 12), m=st.integers(1, 6), L=st.integers(2, 3),
           threshold=st.sampled_from([0.0, 0.5, 0.7, 0.99]), seed=st.integers(0, 2**32 - 1))
    def test_views_equal_the_per_sample_reference(self, nq, m, L, threshold, seed):
        rng = np.random.default_rng(seed)
        # few distinct values: ties for the best member and rows below the threshold
        delta = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9], size=(nq, m))
        pred_labels = rng.integers(0, L, size=(m, nq))
        labels, result = engine._select_and_vote(delta, pred_labels, threshold, L)
        want = reference_samples(delta, threshold)
        assert len(result) == len(labels) == nq
        assert [s.fallback for s in result] == [w[2] for w in want]
        for j, (got, (competences, selected, fallback)) in enumerate(
                zip(result, want, strict=True)):
            for view in (got, result[j], result[j - nq]):
                assert view.competences.tobytes() == competences.tobytes()
                assert view.selected.dtype == selected.dtype
                assert np.array_equal(view.selected, selected)
                assert type(view.fallback) is bool and view.fallback == fallback
            if fallback:
                assert labels[j] == pred_labels[selected[0], j]
        for bad in (nq, -nq - 1):
            with pytest.raises(IndexError):
                result[bad]

    def test_a_non_integer_index_is_a_type_error(self):
        _, result = engine._select_and_vote(np.full((3, 2), 0.9), np.zeros((2, 3), dtype=int),
                                            0.5, 2)
        for bad in (slice(0, 2), 1.0, [0, 1]):
            with pytest.raises(TypeError):
                result[bad]

    def test_threshold_zero_selects_every_member(self):
        delta = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.9]])
        _, result = engine._select_and_vote(delta, np.zeros((3, 2), dtype=int), 0.0, 2)
        assert not result.fallback.any() and result.selected.all()
        assert [s.selected.tolist() for s in result] == [[0, 1, 2], [0, 1, 2]]


class TestPrepare:
    """Every classification entry point scales its samples through
    ``DesModel.prepare``, which refuses samples the model cannot label."""

    def model(self):
        pool, dsel, test = p2_setup(3, m=4)
        _, scale = scale_minmax(generate_p2(300, 3))
        return DesModel(MetaFeatureExtractor(pool, dsel), MetaClassifier(np.zeros(67), 0.0),
                        np.ones(67, dtype=bool), scale), test

    @pytest.mark.parametrize("X", [[[0.1, 0.2, 0.3]], [0.1, 0.2, 0.3], np.zeros((4, 3))])
    def test_wrong_width_names_both_counts(self, X):
        model, test = self.model()
        for call in (classify_batch, classify):
            with pytest.raises(ValueError, match="expected 2 features per sample, got 3"):
                call(model, X)
        wide = Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError, match="expected 2 features per sample, got 3"):
            evaluate_methods(model, wide, ["meta_des_oracle", "ola"])
        with pytest.raises(ValueError, match="expected 2 features per sample, got 1"):
            classify_batch(model, [[0.5], [0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, bad):
        model, test = self.model()
        X = test.features[:5].copy()
        X[3, 0] = bad
        with pytest.raises(ValueError, match="features contain non-finite values"):
            classify_batch(model, X)
        with pytest.raises(ValueError, match="features contain non-finite values"):
            classify(model, [bad, 0.5])


class TestOneOwner:
    """A model's pool, reference set, K and Kp are its extractor's: none can
    be replaced or set apart from it, and a part of the wrong width is
    refused when the model is built."""

    def parts(self):
        pool, dsel, _ = p2_setup(3, m=4)
        _, scale = scale_minmax(generate_p2(300, 3))
        return dict(extractor=MetaFeatureExtractor(pool, dsel),
                    meta=MetaClassifier(np.zeros(67), 0.0, np.zeros(67)),
                    mask=np.ones(67, dtype=bool), scale=scale)

    def test_read_from_the_extractor_only(self):
        model = DesModel(**self.parts())
        ex = model.extractor
        assert model.pool is ex.pool and model.dsel is ex.dsel
        assert (model.k, model.kp) == (ex.layout.k, ex.layout.kp) == (7, 5)
        other_pool = p2_setup(4, m=4)[0]
        for change in ({"pool": other_pool}, {"dsel": model.dsel}, {"k": 5}, {"kp": 3}):
            with pytest.raises(TypeError):
                dataclasses.replace(model, **change)
        for name, value in (("pool", other_pool), ("dsel", model.dsel), ("k", 5), ("kp", 3)):
            with pytest.raises(AttributeError):
                setattr(model, name, value)
        assert dataclasses.replace(model, selection_threshold=0.0).extractor is ex

    @pytest.mark.parametrize("damage,message", [
        (lambda p: p.update(mask=p["mask"][1:]), "the layout's 67 columns"),
        (lambda p: p.update(meta=MetaClassifier(np.zeros(68), 0.0)), "the layout's 67 columns"),
        (lambda p: p.update(meta=MetaClassifier(np.zeros(67), 0.0, np.zeros(66))),
         "the layout's 67 columns"),
        (lambda p: p.update(scale=ScaleParams(np.zeros(3), np.ones(3))), "scale must have 2 columns"),
    ], ids=["mask", "weights", "offsets", "scale"])
    def test_a_part_of_the_wrong_width_is_refused_when_built(self, damage, message):
        parts = self.parts()
        DesModel(**parts)
        damage(parts)
        with pytest.raises(ValueError, match=message):
            DesModel(**parts)


class TestQueryBlocks:
    @settings(max_examples=25, deadline=None)
    @given(per_block=st.integers(1, 450), seed=st.integers(0, 2**32 - 1),
           threshold=st.sampled_from([0.0, 0.5, 0.7]))
    def test_block_size_changes_no_decision(self, per_block, seed, threshold):
        pool, dsel, test, rows, labels = p2_meta_rows()
        rng = np.random.default_rng(seed)
        mask = rng.random(rows.shape[1]) < rng.uniform(0.05, 0.9)
        mask[rng.integers(len(mask))] = True
        model = DesModel(MetaFeatureExtractor(pool, dsel), train_meta(rows, labels).masked(mask),
                         mask, None, selection_threshold=threshold)
        per_sample = len(pool) * 67 + 2 * len(dsel)
        with pytest.MonkeyPatch.context() as mp:
            # one block, then blocks of per_block samples
            mp.setattr(_blocks, "BLOCK", budget_for(len(test), per_sample, _blocks.WIDE))
            want, want_diags = classify_batch(model, test.features)
            mp.setattr(_blocks, "BLOCK", budget_for(per_block, per_sample, _blocks.WIDE))
            got, got_diags = classify_batch(model, test.features)
        assert np.array_equal(got, want)
        for g, w in zip(got_diags, want_diags, strict=True):
            assert g.fallback == w.fallback
            assert np.array_equal(g.selected, w.selected)

    def test_peak_memory_does_not_grow_with_the_batch(self):
        # N = 5 000 reference rows, pool 10, every column (the rank too):
        # one k = N neighbour list of the whole batch alone is 16 bytes per
        # query and reference row, 32 MB at 500 queries and 320 MB at 4 000.
        # The bound is on the transient, the peak beyond the arrays the call
        # returns, which grow with the batch by design
        train, params = scale_minmax(generate_p2(300, 31))
        ref = generate_p2(5000, 32)
        model = DesModel(MetaFeatureExtractor(bagging(train, 10, seed=33),
                                              Dataset(params.apply(ref.features), ref.labels, 2)),
                         MetaClassifier(np.random.default_rng(34).normal(size=67), 0.0),
                         np.ones(67, dtype=bool), None)
        X = params.apply(generate_p2(4000, 35).features)
        classify_batch(model, X[:1])           # a first call before measuring
        peaks, transients = [], []
        for nq in (500, 4000):
            tracemalloc.start()
            try:
                labels, result = classify_batch(model, X[:nq])
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
            held = labels.nbytes + sum(a.nbytes for a in vars(result).values())
            transients.append(peaks[-1] - held / 2**20)
        assert transients[1] < 1.2 * transients[0], transients
        assert peaks[1] < 48.0, peaks


def narrow_model(rng, d, L, m, n, k, kp, rank, threshold):
    """A random model on narrow data (d features, L classes, m members, n
    reference rows) whose mask selects ``rank`` or leaves it out."""
    pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
    dsel = Dataset(rng.normal(size=(n, d)), rng.integers(0, L, size=n), L)
    extractor = MetaFeatureExtractor(pool, dsel, k=k, kp=kp)
    layout = extractor.layout
    mask = rng.random(layout.size) < rng.uniform(0.1, 0.9)
    mask[layout.slice_of("rank")] = rank
    mask[rng.integers(layout.size)] |= not mask.any()
    meta = MetaClassifier(np.where(mask, rng.normal(size=layout.size), 0.0),
                          float(rng.normal()))
    return DesModel(extractor, meta, mask, None, selection_threshold=threshold)


def assert_single_equals_batch(model, X, y):
    """Each sample alone gives, bit for bit, its row of the batch: in
    ``classify``, in every baseline and in the pool Oracle."""
    pool, dsel, L = model.pool, model.dsel, model.pool.class_count
    labels, result = classify_batch(model, X)
    for j, x in enumerate(X):
        label, one = classify(model, x)
        assert label == labels[j]
        assert one.competences.tobytes() == result.competences[j].tobytes()
        assert np.array_equal(one.selected, result[j].selected)
        assert one.fallback == result[j].fallback
    for method in BASELINE_METHODS:
        batch, _ = baseline_predict_batch(method, pool, dsel, X, model.k)
        alone = [baseline_predict_batch(method, pool, dsel, X[j:j + 1], model.k)[0][0]
                 for j in range(len(X))]
        assert alone == batch.tolist(), method
    hit = (pool.predict_batch(X)[0] == y[None, :]).any(axis=0)
    alone = [oracle_accuracy(pool, Dataset(X[j:j + 1], y[j:j + 1], L)) for j in range(len(X))]
    assert alone == hit.astype(float).tolist()
    assert oracle_accuracy(pool, Dataset(X, y, L)) == float(hit.mean())


class TestSingleEqualsBatch:
    """On narrow data a sample's competences, selection and labels do not
    depend on the samples scored with it: the pool scores a lone row on
    BLAS's matrix path, as it does a block."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), L=st.integers(2, 3), m=st.integers(1, 4),
           n=st.integers(4, 20), k=st.integers(1, 4), kp=st.integers(1, 4),
           nq=st.integers(1, 8), rank=st.booleans(),
           threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1))
    def test_one_sample_is_its_batch_row(self, d, L, m, n, k, kp, nq, rank, threshold,
                                         seed):
        rng = np.random.default_rng(seed)
        model = narrow_model(rng, d, L, m, n, k, kp, rank, threshold)
        X = rng.normal(size=(nq, d))
        assert_single_equals_batch(model, X, rng.integers(0, L, size=nq))

    @pytest.mark.parametrize("m", [1, 3])
    def test_blocks_that_end_in_a_lone_row(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        model = narrow_model(rng, 2, 2, m, 12, 3, 2, True, 0.5)
        ex = model.extractor
        # Oracle blocks of 2 samples ((member, class) supports) and query
        # blocks of a few: n samples end both in a lone one
        monkeypatch.setattr(_blocks, "BLOCK", 2 * m * 2)
        step = _blocks.items(m * ex.layout.size + 2 * 12, _blocks.WIDE)
        n = 4 * step + 1
        assert step >= 2 and ex.query_blocks(n)[-1] == slice(n - 1, n)
        assert _blocks.pieces(n, m * 2)[-2:] == [slice(n - 3, n - 1), slice(n - 1, n)]
        X = rng.normal(size=(n, 2))
        assert_single_equals_batch(model, X, rng.integers(0, 2, size=n))


@functools.lru_cache(maxsize=1)
def p2_meta_rows():
    """A small P2 pool, its reference set and test split, and the
    meta-training rows and labels of 150 further samples."""
    pool, dsel, test = p2_setup(4, m=6)
    meta_raw = generate_p2(150, 7)
    _, params = scale_minmax(generate_p2(300, 4))
    extractor = MetaFeatureExtractor(pool, dsel)
    meta = extractor.build_meta_dataset(params.apply(meta_raw.features), meta_raw.labels)
    return pool, dsel, test, meta.rows, meta.labels


class TestFullWidthSelector:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           threshold=st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.95]))
    def test_equals_scoring_masked_rows(self, seed, threshold):
        pool, dsel, test, rows, labels = p2_meta_rows()
        rng = np.random.default_rng(seed)
        mask = rng.random(rows.shape[1]) < rng.uniform(0.05, 0.9)
        mask[rng.integers(len(mask))] = True
        full = DesModel(MetaFeatureExtractor(pool, dsel), train_meta(rows, labels).masked(mask),
                        mask, None, selection_threshold=threshold)
        got, got_diags = classify_batch(full, test.features)
        # the masked-copy path: a selector fitted on the mask's columns alone,
        # scoring the mask's columns of each row
        feats, _, pred_labels = full.extractor.extract_batch(test.features)
        delta = (train_meta(apply_mask(rows, mask), labels)
                 .competence_batch(apply_mask(feats.reshape(-1, len(mask)), mask))
                 .reshape(len(test), len(pool)))
        want, want_diags = engine._select_and_vote(delta, pred_labels, threshold,
                                                   pool.class_count)
        assert np.array_equal(got, want)
        # the two decisions sum the same terms and bias in other orders, so
        # they differ by at most twice the summation error bound
        # (p + 1) eps (|b| + sum|w_j x_j|), the competences by a quarter of
        # that (the sigmoid's slope)
        terms = np.abs(feats[:, :, mask] * full.meta.weights[mask]).sum(axis=2)
        bound = 0.5 * (mask.sum() + 1) * np.finfo(float).eps * (abs(full.meta.bias) + terms)
        for g, w, b in zip(got_diags, want_diags, bound):
            assert g.fallback == w.fallback
            assert np.array_equal(g.selected, w.selected)
            assert (np.abs(g.competences - w.competences) <= b).all()


class TestFamilyScoring:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_p2_pool_100_decisions_equal_the_tensor_path(self, seed):
        # P2 at the paper's sizes, pool 100, a mask from a one-generation search
        config = experiment.ExperimentConfig(
            pool=experiment.PoolConfig(size=100),
            bpso=BpsoConfig(runs=1, swarm_size=4, max_generations=1, stall_limit=1))
        train, meta, dsel, test = [generate_p2(n, [seed, stage]) for stage, n
                                   in enumerate((500, 500, 500, 2000), start=1)]
        model, _, _ = experiment.train_des(train, meta, dsel, config, base_seed_parts=(seed,))
        got, got_diags = classify_batch(model, test.features)
        feats, _, pred_labels = model.extractor.extract_batch(model.prepare(test.features),
                                                              mask=model.mask)
        delta = model.meta.competence_batch(feats.reshape(-1, len(model.mask)))
        want, want_diags = engine._select_and_vote(delta.reshape(len(test), -1), pred_labels,
                                                   model.selection_threshold, 2)
        assert np.array_equal(got, want)
        for g, w in zip(got_diags, want_diags, strict=True):
            assert g.fallback == w.fallback
            assert np.array_equal(g.selected, w.selected)


class TestConsensus:
    def test_all_correct_fraction(self):
        tables = [{0: (0.9, 0.1)}] * 4
        pool = TablePool([TableMember(t) for t in tables])
        labels, _ = pool.predict_batch([[0.0]])
        # dropped at the largest threshold below 1: the consensus is 1.0
        assert consensus_keep(labels, [0], np.nextafter(1.0, 0.0)).tolist() == [False]

    def test_three_of_five(self):
        tables = [{0: (0.9, 0.1)}] * 3 + [{0: (0.1, 0.9)}] * 2
        pool = TablePool([TableMember(t) for t in tables])
        labels, _ = pool.predict_batch([[0.0]])
        # dropped at 0.6 and kept just above it: the consensus is exactly 0.6
        assert consensus_keep(labels, [0], 0.6).tolist() == [False]
        assert consensus_keep(labels, [0], np.nextafter(0.6, 1.0)).tolist() == [True]

    def test_filter_rule(self):
        labels = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 0]])  # members x samples
        truth = np.array([0, 0, 0])
        # per-sample consensus fractions: 2/3, 1/3, 1
        keep = consensus_keep(labels, truth, 0.7)
        assert keep.tolist() == [True, True, False]
        keep_strict = consensus_keep(labels, truth, 0.5)
        assert keep_strict.tolist() == [False, True, False]

    def test_unit_threshold_keeps_everything(self):
        labels = np.array([[0, 0], [0, 0]])
        truth = np.array([0, 0])
        assert consensus_keep(labels, truth, 1.0).all()


def brute_baselines(method, pool_labels_dsel, pool_labels_query, dsel_labels, nbrs, L):
    """Independent re-implementation over precomputed predictions."""
    M = pool_labels_dsel.shape[0]
    correct = pool_labels_dsel == dsel_labels[None, :]

    def majority(labels, weights=None):
        weights = np.ones(len(labels)) if weights is None else np.asarray(weights, float)
        if weights.sum() <= 0:
            weights = np.ones(len(labels))
        totals = [weights[np.asarray(labels) == c].sum() for c in range(L)]
        return int(np.argmax(totals))

    if method == "majority_vote":
        return majority(pool_labels_query)
    if method == "single_best":
        return int(pool_labels_query[int(np.argmax(correct.mean(axis=1)))])
    if method == "static_selection":
        acc = correct.mean(axis=1)
        order = sorted(range(M), key=lambda i: (-acc[i], i))
        top = order[: int(np.ceil(M / 2))]
        return majority(pool_labels_query[top])
    if method == "ola":
        acc = [correct[i][nbrs].mean() for i in range(M)]
        return int(pool_labels_query[int(np.argmax(acc))])
    if method == "lca":
        scores = []
        for i in range(M):
            sel = [j for j in nbrs if dsel_labels[j] == pool_labels_query[i]]
            scores.append(np.mean([correct[i][j] for j in sel]) if sel else 0.0)
        return int(pool_labels_query[int(np.argmax(scores))])
    if method == "knora_e":
        for kk in range(len(nbrs), 0, -1):
            sel = [i for i in range(M) if all(correct[i][j] for j in nbrs[:kk])]
            if sel:
                return majority(pool_labels_query[sel])
        return majority(pool_labels_query)
    if method == "knora_u":
        votes = [sum(correct[i][j] for j in nbrs) for i in range(M)]
        return majority(pool_labels_query, votes)
    raise AssertionError(method)


class TestBaselines:
    def test_single_member_pool_all_methods(self):
        tables = [{i: (0.9, 0.1) if i % 2 == 0 else (0.1, 0.9) for i in range(-1, 8)}]
        pool = TablePool([TableMember(tables[0])])
        dsel = Dataset(np.arange(8, dtype=float).reshape(-1, 1),
                       np.array([0, 1, 0, 1, 0, 1, 0, 1]), 2)
        for method in BASELINE_METHODS:
            assert predict_one(method, pool, dsel, [2.0], k=3) == 0

    def test_knora_u_vote_dominance(self):
        # member 0 correct on all three neighbors, others on none
        tables = [{0: (0.9, 0.1), 1: (0.9, 0.1), 2: (0.9, 0.1), 5: (0.9, 0.1)},
                  {0: (0.1, 0.9), 1: (0.1, 0.9), 2: (0.1, 0.9), 5: (0.1, 0.9)},
                  {0: (0.1, 0.9), 1: (0.1, 0.9), 2: (0.1, 0.9), 5: (0.1, 0.9)}]
        pool = TablePool([TableMember(t) for t in tables])
        dsel = Dataset(np.arange(3, dtype=float).reshape(-1, 1), np.array([0, 0, 0]), 2)
        assert predict_one("knora_u", pool, dsel, [5.0], k=3) == 0

    def test_ola_hand_case(self):
        # member 0: correct on neighbors {0, 1}; member 1: correct on {0, 1, 2}
        tables = [{0: (0.9, 0.1), 1: (0.6, 0.4), 2: (0.3, 0.7), 9: (0.8, 0.2)},
                  {0: (0.7, 0.3), 1: (0.9, 0.1), 2: (0.6, 0.4), 9: (0.1, 0.9)}]
        pool = TablePool([TableMember(t) for t in tables])
        dsel = Dataset(np.arange(3, dtype=float).reshape(-1, 1), np.array([0, 0, 0]), 2)
        assert predict_one("ola", pool, dsel, [9.0], k=3) == 1

    def test_k_validated(self):
        pool, dsel, _ = p2_setup(1, m=3)
        with pytest.raises(ValueError, match="k cannot"):
            predict_one("ola", pool, dsel, [0.5, 0.5], k=len(dsel) + 1)

    def test_unknown_method(self):
        pool, dsel, _ = p2_setup(1, m=2)
        with pytest.raises(ValueError, match="unknown method"):
            predict_one("mystery", pool, dsel, [0.5, 0.5])

    def test_brute_force_equivalence_random_instances(self):
        rng = np.random.default_rng(9)
        cases = 0
        while cases < 220:
            n = int(rng.integers(6, 30))
            m = int(rng.integers(1, 6))
            L = int(rng.integers(2, 4))
            k = int(rng.integers(1, 6))
            feats = rng.uniform(0, 1, size=(n, 2))
            labels = rng.integers(0, L, n)
            if len(np.unique(labels)) < 2:
                continue
            dsel = Dataset(feats, labels, L)
            train = Dataset(rng.uniform(0, 1, size=(40, 2)), rng.integers(0, L, 40), L)
            if len(np.unique(train.labels)) < L:
                continue
            pool = bagging(train, m, seed=int(rng.integers(1 << 20)), epochs=5)
            x = rng.uniform(0, 1, size=2)
            d2 = ((feats - x) ** 2).sum(axis=1)
            nbrs = np.argsort(d2, kind="stable")[:k].tolist()
            pl_dsel, _ = pool.predict_batch(feats)
            pl_query, _ = pool.predict_batch(x[None, :])
            for method in BASELINE_METHODS:
                got = predict_one(method, pool, dsel, x, k=k)
                want = brute_baselines(method, pl_dsel, pl_query[:, 0], labels, nbrs, L)
                assert got == want, (method, got, want)
            cases += 1


    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 20), m=st.integers(1, 6), L=st.integers(2, 3),
           nq=st.integers(1, 8), grid=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_query_batches_match_brute_force_per_row(self, n, m, L, nq, grid, seed):
        # integer grid points give exact squared distances, so tied neighbours
        # and duplicate queries are common; ties break toward the lower index
        rng = np.random.default_rng(seed)
        dsel = Dataset(rng.integers(0, grid, (n, 2)), rng.integers(0, L, n), L)
        pool = ClassifierPool(rng.normal(size=(m, L, 3)), np.ones(m))
        X = rng.integers(0, grid, (nq, 2)).astype(float)
        k = int(rng.integers(1, n + 1))
        pl_dsel, _ = pool.predict_batch(dsel.features)
        pl_query, _ = pool.predict_batch(X)
        for method in BASELINE_METHODS:
            got, _ = baseline_predict_batch(method, pool, dsel, X, k=k)
            assert got.shape == (nq,)
            for j in range(nq):
                d2 = ((dsel.features - X[j]) ** 2).sum(axis=1)
                nbrs = np.argsort(d2, kind="stable")[:k].tolist()
                want = brute_baselines(method, pl_dsel, pl_query[:, j], dsel.labels, nbrs, L)
                assert got[j] == want, (method, j)


class TestNeighbourMajorBaselines:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 15), m=st.integers(1, 8), L=st.integers(2, 3),
           nq=st.integers(1, 8), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_given_neighbours_equal_a_per_query_loop(self, n, m, L, nq, k, seed):
        # any neighbour lists, repeated rows included: each method's
        # neighbour-major counts must give the per-query reference's label
        rng = np.random.default_rng(seed)
        k = min(k, n)
        dsel = Dataset(rng.normal(size=(n, 2)), rng.integers(0, L, n), L)
        pool = ClassifierPool(rng.normal(size=(m, L, 3)), np.ones(m))
        X = rng.normal(size=(nq, 2))
        neighbors = rng.integers(0, n, size=(nq, k))
        pl_dsel, _ = pool.predict_batch(dsel.features)
        pl_query, _ = pool.predict_batch(X)
        for method in engine.NEIGHBORHOOD_METHODS:
            got, _ = baseline_predict_batch(method, pool, dsel, X, k=k, neighbors=neighbors)
            want = [brute_baselines(method, pl_dsel, pl_query[:, j], dsel.labels,
                                    neighbors[j].tolist(), L) for j in range(nq)]
            assert got.tolist() == want, method


class TestSharedBaselineInputs:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20), m=st.integers(1, 6), L=st.integers(2, 3),
           nq=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_given_inputs_change_no_label_or_choice(self, n, m, L, nq, seed):
        rng = np.random.default_rng(seed)
        dsel = Dataset(rng.integers(0, 3, (n, 2)).astype(float), rng.integers(0, L, n), L)
        pool = ClassifierPool(rng.normal(size=(m, L, 3)), np.ones(m))
        X = rng.integers(0, 3, (nq, 2)).astype(float)
        k = int(rng.integers(1, n + 1))
        dsel_pred_labels, _ = pool.predict_batch(dsel.features)
        neighbors, _ = nearest_neighbors(X, dsel.features, k)
        # the extractor's labels come in the narrowest type that holds them
        narrow = MetaFeatureExtractor(pool, dsel, k=1, kp=1).dsel_pred_labels
        assert narrow.dtype == np.int8 and np.array_equal(narrow, dsel_pred_labels)
        for method in BASELINE_METHODS:
            want, want_choice = baseline_predict_batch(method, pool, dsel, X, k=k)
            for labels in (dsel_pred_labels, narrow):
                got, got_choice = baseline_predict_batch(method, pool, dsel, X, k=k,
                                                         dsel_pred_labels=labels,
                                                         neighbors=neighbors)
                assert np.array_equal(got, want), method
                assert np.array_equal(np.asarray(got_choice), np.asarray(want_choice)), method

    def test_shapes_checked(self):
        pool, dsel, test = p2_setup(2, m=3)
        with pytest.raises(ValueError, match="dsel_pred_labels of shape"):
            baseline_predict_batch("ola", pool, dsel, test.features,
                                   dsel_pred_labels=np.zeros((2, len(dsel)), dtype=int))
        with pytest.raises(ValueError, match="neighbors of shape"):
            baseline_predict_batch("ola", pool, dsel, test.features, k=3,
                                   neighbors=np.zeros((len(test), 4), dtype=int))

    def test_evaluation_searches_and_labels_the_reference_set_once(self, monkeypatch):
        pool, dsel, test = p2_setup(2, m=4)
        model = DesModel(MetaFeatureExtractor(pool, dsel), MetaClassifier(np.zeros(67), 0.0),
                         np.ones(67, dtype=bool), None)
        want = {m: float((baseline_predict_batch(m, pool, dsel, test.features)[0]
                          == test.labels).mean()) for m in BASELINE_METHODS}
        searches, labelled = [], []
        monkeypatch.setattr("metasel.experiment.nearest_neighbors",
                            lambda *a, **kw: searches.append(a[2]) or nearest_neighbors(*a, **kw))
        monkeypatch.setattr("metasel.engine.nearest_neighbors",
                            lambda *a, **kw: pytest.fail("a baseline searched again"))
        original = ClassifierPool.predict_batch
        monkeypatch.setattr(ClassifierPool, "predict_batch",
                            lambda self, X: labelled.append(len(X)) or original(self, X))
        got = evaluate_methods(model, test, BASELINE_METHODS)
        assert got == want
        assert searches == [7]
        # one labelling of the test split per method, none of the reference set
        assert labelled == [len(test)] * len(BASELINE_METHODS)


class TestOracleAccuracy:
    def test_perfect_member(self):
        tables = [{0: (0.9, 0.1), 1: (0.1, 0.9)},
                  {0: (0.1, 0.9), 1: (0.1, 0.9)}]
        pool = TablePool([TableMember(t) for t in tables])
        test = Dataset(np.arange(2, dtype=float).reshape(-1, 1), np.array([0, 1]), 2)
        assert oracle_accuracy(pool, test) == 1.0

    def test_superset_at_least_subset(self):
        pool, _, test = p2_setup(5, m=6)
        sub = ClassifierPool(pool.weights[:3], pool.dist_scale[:3])
        assert oracle_accuracy(pool, test) >= oracle_accuracy(sub, test)

    def test_dominates_every_method(self):
        rng = np.random.default_rng(12)
        for trial in range(25):
            L = int(rng.integers(2, 4))
            train = Dataset(rng.uniform(0, 1, size=(50, 2)), rng.integers(0, L, 50), L)
            if len(np.unique(train.labels)) < L:
                continue
            dsel = Dataset(rng.uniform(0, 1, size=(25, 2)), rng.integers(0, L, 25), L)
            test = Dataset(rng.uniform(0, 1, size=(40, 2)), rng.integers(0, L, 40), L)
            pool = bagging(train, int(rng.integers(1, 5)), seed=trial, epochs=5)
            upper = oracle_accuracy(pool, test)
            for method in BASELINE_METHODS:
                pred, _ = baseline_predict_batch(method, pool, dsel, test.features, k=3)
                assert (pred == test.labels).mean() <= upper + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(2, 3), m=st.integers(1, 5), budget=st.integers(1, 64),
           size=st.sampled_from(["one", "tail", "any"]), n=st.integers(2, 80),
           table=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_blocks_give_the_one_shot_oracle(self, L, m, budget, size, n, table, seed):
        rng = np.random.default_rng(seed)
        step = max(1, budget // (m * L))
        n = {"one": 1, "tail": step + 1, "any": n}[size]
        labels = rng.integers(0, L, n)
        if table:
            keys = 6
            pool = TablePool([TableMember({k: rng.dirichlet(np.ones(L)) for k in range(keys)})
                              for _ in range(m)])
            test = Dataset(rng.integers(0, keys, (n, 1)).astype(float), labels, L)
        else:
            train = Dataset(rng.uniform(0, 1, (40, 2)), rng.permutation(np.arange(40) % L), L)
            pool = bagging(train, m, seed=seed % 1000, epochs=5)
            test = Dataset(rng.uniform(0, 1, (n, 2)), labels, L)
        want = float((pool.predict_batch(test.features)[0] == test.labels).any(axis=0).mean())
        rows = []
        predict = pool.predict_batch
        pool.predict_batch = lambda X: rows.append(len(X)) or predict(X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", budget)
            got = oracle_accuracy(pool, test)
        assert got == want
        # blocks of step rows, the last one holding what is left
        assert rows == [step] * (n // step) + [n % step] * (n % step > 0), rows

    def test_p2_pool_100_traces_under_half_of_its_supports(self):
        # one predict_batch over all 2 000 samples holds the (M, N) labels
        # and 3.2 MB of (M, N, L) float64 supports at once (7.6 MB traced);
        # blocks of 163 samples trace ~1 MB
        train, params = scale_minmax(generate_p2(500, [1, 1]))
        test = params.apply_dataset(generate_p2(2000, [1, 4]))
        pool = bagging(train, 100, seed=3)
        supports = len(pool) * len(test) * pool.class_count * 8
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            oracle_accuracy(pool, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < supports / 2
