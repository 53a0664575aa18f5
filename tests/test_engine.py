import numpy as np
import pytest

from metasel.data import Dataset, generate_p2, scale_minmax
from metasel.engine import (BASELINE_METHODS, DesModel, baseline_predict_batch,
                            classify, classify_batch, consensus_keep, oracle_accuracy,
                            weighted_majority_vote)
from metasel.metaclassifier import MetaClassifier
from metasel.pool import ClassifierPool, bagging


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


class ScriptedMeta:
    """Competence stub: hands back a fixed per-classifier value cycle."""

    def __init__(self, deltas):
        self.deltas = np.asarray(deltas, dtype=float)
        self.input_dim = None

    def competence_batch(self, rows):
        reps = int(np.ceil(len(rows) / len(self.deltas)))
        return np.tile(self.deltas, reps)[: len(rows)]


def scripted_model(member_tables, deltas, dsel_labels, threshold=0.5):
    members = [TableMember(t) for t in member_tables]
    pool = TablePool(members)
    n = len(dsel_labels)
    dsel = Dataset(np.arange(n, dtype=float).reshape(-1, 1),
                   np.asarray(dsel_labels), max(2, int(max(dsel_labels)) + 1))
    k = min(7, n)
    kp = min(5, n)
    model = DesModel(pool=pool, meta=ScriptedMeta(deltas),
                     mask=np.ones(8 * k + kp + 6, dtype=bool), scale=None,
                     dsel=dsel, k=k, kp=kp, selection_threshold=threshold)
    return model


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


class TestClassify:
    def test_single_member_pool(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)}]
        model = scripted_model(tables, [0.8], [0, 1, 0, 1, 0, 1])
        label, diag = classify(model, [2.0])
        assert label == 0 and not diag.fallback
        assert diag.selected.tolist() == [0]

    def test_fallback_to_max_delta(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)},
                  {i: (0.2, 0.8) for i in range(-1, 6)}]
        model = scripted_model(tables, [0.3, 0.4], [0, 1, 0, 1, 0, 1])
        label, diag = classify(model, [2.0])
        assert diag.fallback
        assert label == 1  # member 1 has the larger competence

    def test_hand_built_weighted_vote(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)},   # votes class 0
                  {i: (0.1, 0.9) for i in range(-1, 6)},   # votes class 1
                  {i: (0.2, 0.8) for i in range(-1, 6)}]   # votes class 1
        model = scripted_model(tables, [0.9, 0.6, 0.55], [0, 1, 0, 1, 0, 1])
        label, diag = classify(model, [2.0])
        assert label == 1  # 0.6 + 0.55 outweighs 0.9
        assert diag.selected.tolist() == [0, 1, 2]

    def test_threshold_zero_uniform_delta_is_majority_vote(self):
        pool, dsel, test = p2_setup(3)
        mask = np.ones(67, dtype=bool)
        uniform = MetaClassifier(np.zeros(67), 0.0, np.zeros(67), np.ones(67), 67)
        model = DesModel(pool=pool, meta=uniform, mask=mask, scale=None,
                         dsel=dsel, selection_threshold=0.0)
        ours, _ = classify_batch(model, test.features)
        mv, _ = baseline_predict_batch("majority_vote", pool, dsel, test.features)
        assert np.array_equal(ours, mv)

    def test_diagnostics_carry_competences(self):
        tables = [{i: (0.9, 0.1) for i in range(-1, 6)}] * 3
        model = scripted_model(tables, [0.9, 0.6, 0.55], [0, 1, 0, 1, 0, 1])
        _, diag = classify(model, [2.0])
        assert np.allclose(diag.competences, [0.9, 0.6, 0.55])


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
