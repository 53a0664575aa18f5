from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import metafeatures
from metasel.data import Dataset, generate_p2, scale_minmax
from metasel.metafeatures import (FeatureLayout, MetaFeatureExtractor,
                                  apply_mask, meta_dataset_to_csv,
                                  rrc_competence)
from metasel.pool import bagging


class TableMember:
    """Classifier stub returning scripted supports, keyed by the (integer)
    first feature of each sample."""

    def __init__(self, supports, distances=None):
        self.table = {int(k): np.asarray(v, dtype=float) for k, v in supports.items()}
        self.dists = distances or {}
        self.class_count = len(next(iter(self.table.values())))

    def predict_batch(self, X):
        sup = np.array([self.table[int(round(x[0]))] for x in np.atleast_2d(X)])
        return sup.argmax(axis=1), sup

    def boundary_distance(self, X):
        return np.array([self.dists.get(int(round(x[0])), 0.0) for x in np.atleast_2d(X)])


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


def line_dsel(labels):
    """Reference points at x = 0, 1, 2, ... with the given labels."""
    n = len(labels)
    return Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.asarray(labels),
                   int(max(labels)) + 1 if max(labels) >= 1 else 2)


def extract_single(member, dsel, query_key, true_label=None, k=None, kp=None):
    """Run the full extractor for a one-member scripted pool and return the
    (features, layout) of the single (query, member) pair."""
    pool = TablePool([member])
    k = k or min(7, len(dsel))
    kp = kp or min(5, len(dsel))
    ex = MetaFeatureExtractor(pool, dsel, k=k, kp=kp)
    X = np.array([[float(query_key)]])
    y = None if true_label is None else np.array([true_label])
    feats, metas, _ = ex.extract_batch(X, y)
    return feats[0, 0], ex.layout, (None if metas is None else int(metas[0, 0]))


def reference_rank(dsel_correct, order, block=1 << 22):
    """The full-gather rank: every (member, query, position) correctness flag
    of a query block at once, then each pair's first error."""
    (nq, width), M = order.shape, len(dsel_correct)
    rank = np.empty((nq, M))
    step = max(1, block // (M * width))
    for lo in range(0, nq, step):
        corr = dsel_correct[:, order[lo:lo + step]]
        rank[lo:lo + step] = np.where(corr.all(axis=2), width, (~corr).argmax(axis=2)).T
    return rank


def scan_rank(dsel_correct, order):
    """``MetaFeatureExtractor._rank`` on a bare correctness table."""
    stub = SimpleNamespace(dsel_correct=dsel_correct, pool=range(len(dsel_correct)))
    return MetaFeatureExtractor._rank(stub, order)


class TestLayout:
    def test_size_formula_for_defaults(self):
        assert FeatureLayout(7, 5).size == 67

    def test_size_formula_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 40))
            kp = int(rng.integers(1, 40))
            assert FeatureLayout(k, kp).size == 8 * k + kp + 6

    def test_segment_offsets(self):
        lay = FeatureLayout(7, 5)
        expected = [("hard", 0, 7), ("prob", 7, 7), ("overall", 14, 1),
                    ("cond", 15, 1), ("conf", 16, 1), ("amb", 17, 1),
                    ("log", 18, 7), ("prc", 25, 7), ("md", 32, 7),
                    ("ent", 39, 7), ("exp", 46, 7), ("kl", 53, 7),
                    ("op", 60, 5), ("rank", 65, 1), ("rank_op", 66, 1)]
        assert lay.segments == expected
        assert lay.set_of(0) == "hard" and lay.set_of(66) == "rank_op"


class TestAnalyticIdentities:
    """Exact values of the per-neighbor criteria, checked through the full
    extraction path with scripted supports."""

    def scripted(self, support_rows, labels, query_support=(0.6, 0.4)):
        n = len(support_rows)
        table = {i: support_rows[i] for i in range(n)}
        table[-1] = query_support  # query at x = -1: neighbor order = index order
        member = TableMember(table)
        dsel = line_dsel(labels)
        return member, dsel, -1

    def test_amb_three_class_example(self):
        member, dsel, q = self.scripted(
            [(0.3, 0.3, 0.4)] * 6, [0, 1, 2, 0, 1, 2],
            query_support=(0.65, 0.30, 0.05))
        feats, lay, _ = extract_single(member, dsel, q, k=3, kp=3)
        assert abs(feats[lay.slice_of("amb")][0] - 0.35) < 1e-9

    def test_log_is_zero_at_uniform_support(self):
        for L in (2, 3, 5):
            uniform = tuple([1.0 / L] * L)
            n = max(4, L)
            labels = [i % L for i in range(n)]
            member, dsel, q = self.scripted([uniform] * n, labels,
                                            query_support=uniform)
            feats, lay, _ = extract_single(member, dsel, q, k=2, kp=2)
            assert np.abs(feats[lay.slice_of("log")]).max() < 1e-9

    def test_entropy_extremes(self):
        member, dsel, q = self.scripted([(0.5, 0.5), (1.0, 0.0)], [0, 0])
        feats, lay, _ = extract_single(member, dsel, q, k=2, kp=2)
        ent = feats[lay.slice_of("ent")]
        assert abs(ent[0] - np.log(2.0)) < 1e-9   # uniform -> log 2
        assert abs(ent[1]) < 1e-9                  # one-hot -> 0

    def test_kl_zero_at_uniform(self):
        member, dsel, q = self.scripted([(0.5, 0.5)] * 3, [0, 1, 0])
        feats, lay, _ = extract_single(member, dsel, q, k=3, kp=3)
        assert np.abs(feats[lay.slice_of("kl")]).max() < 1e-9

    def test_kl_nonnegative_random_supports(self):
        rng = np.random.default_rng(5)
        raw = rng.dirichlet(np.ones(3), size=6)
        member, dsel, q = self.scripted([tuple(r) for r in raw], [0, 1, 2, 0, 1, 2],
                                        query_support=(0.4, 0.3, 0.3))
        feats, lay, _ = extract_single(member, dsel, q, k=6, kp=6)
        assert (feats[lay.slice_of("kl")] >= -1e-12).all()

    def test_exp_identities(self):
        member, dsel, q = self.scripted([(0.0, 1.0), (0.5, 0.5)], [0, 0])
        feats, lay, _ = extract_single(member, dsel, q, k=2, kp=2)
        exp = feats[lay.slice_of("exp")]
        assert abs(exp[0]) < 1e-9          # support 0 for the true class
        assert abs(exp[1] - 0.5) < 1e-9    # support 1/L

    def test_md_confident_correct(self):
        member, dsel, q = self.scripted([(1.0, 0.0)], [0])
        feats, lay, _ = extract_single(member, dsel, q, k=1, kp=1)
        assert abs(feats[lay.slice_of("md")][0] - (-1.0)) < 1e-9

    def test_log_exp_strictly_increasing(self):
        grid = np.linspace(0.01, 0.99, 80)
        rows = [(s, 1.0 - s) for s in grid]
        member, dsel, q = self.scripted(rows, [0] * len(grid))
        feats, lay, _ = extract_single(member, dsel, q, k=len(grid), kp=5)
        # neighbors are ordered by distance = index order, so the extracted
        # vectors follow the support grid
        flog = feats[lay.slice_of("log")]
        fexp = feats[lay.slice_of("exp")]
        assert (np.diff(flog) > 0).all()
        assert (np.diff(fexp) > 0).all()

    def test_hard_and_overall(self):
        # correct on neighbors 0, 2; wrong on 1, 3
        rows = [(0.9, 0.1), (0.2, 0.8), (0.8, 0.2), (0.3, 0.7)]
        member, dsel, q = self.scripted(rows, [0, 0, 0, 0])
        feats, lay, _ = extract_single(member, dsel, q, k=4, kp=4)
        assert feats[lay.slice_of("hard")].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert abs(feats[lay.slice_of("overall")][0] - 0.5) < 1e-12

    def test_prob_is_true_class_support(self):
        rows = [(0.9, 0.1), (0.2, 0.8)]
        member, dsel, q = self.scripted(rows, [1, 0])
        feats, lay, _ = extract_single(member, dsel, q, k=2, kp=2)
        assert np.allclose(feats[lay.slice_of("prob")], [0.1, 0.2])

    def test_cond_ratio(self):
        # query predicted class 0; neighbors labeled [0, 1, 0]
        rows = [(0.6, 0.4), (0.8, 0.2), (0.4, 0.6)]
        member, dsel, q = self.scripted(rows, [0, 1, 0], query_support=(0.7, 0.3))
        feats, lay, _ = extract_single(member, dsel, q, k=3, kp=3)
        expected = (0.6 + 0.4) / (0.6 + 0.8 + 0.4)
        assert abs(feats[lay.slice_of("cond")][0] - expected) < 1e-9

    def test_rank_consecutive_correct(self):
        # six reference points; correct on the two nearest, wrong on the third
        rows = [(0.9, 0.1), (0.8, 0.2), (0.1, 0.9), (0.9, 0.1), (0.9, 0.1), (0.9, 0.1)]
        member, dsel, q = self.scripted(rows, [0] * 6)
        feats, lay, _ = extract_single(member, dsel, q, k=6, kp=5)
        assert feats[lay.slice_of("rank")][0] == 2.0

    def test_rank_caps_at_reference_size(self):
        rows = [(0.9, 0.1)] * 4
        member, dsel, q = self.scripted(rows, [0] * 4)
        feats, lay, _ = extract_single(member, dsel, q, k=4, kp=4)
        assert feats[lay.slice_of("rank")][0] == 4.0

    def test_op_bits_and_rank_op(self):
        # profile neighborhood ordering equals index order here because all
        # profiles are distinct points on a line
        rows = [(0.9, 0.1), (0.7, 0.3), (0.4, 0.6), (0.2, 0.8)]
        member, dsel, q = self.scripted(rows, [0, 0, 0, 0], query_support=(0.95, 0.05))
        feats, lay, _ = extract_single(member, dsel, q, k=4, kp=4)
        op = feats[lay.slice_of("op")]
        assert op.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert feats[lay.slice_of("rank_op")][0] == 2.0


class TestRankScan:
    """The early-exit rank scan against the full gather it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(2, 90), nq=st.integers(1, 12),
           p_wrong=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]), self_excl=st.booleans(),
           perfect=st.integers(0, 2), block=st.sampled_from([1, 7, 64, 1 << 19]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_full_gather(self, m, n, nq, p_wrong, self_excl, perfect, block, seed):
        rng = np.random.default_rng(seed)
        correct = rng.random((m, n)) >= p_wrong
        correct[:min(perfect, m)] = True          # members that never err
        if self_excl:                             # width N - 1: own row left out
            own = rng.integers(0, n, size=nq)
            order = np.array([rng.permutation(np.delete(np.arange(n), i)) for i in own])
        else:
            order = np.array([rng.permutation(n) for _ in range(nq)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metafeatures, "_RANK_BLOCK", block)
            got = scan_rank(correct, order)
        want = reference_rank(correct, order)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 24, 25, 70])
    def test_single_error_at_every_position(self, width):
        # positions straddle the chunk ends 8, 24, 56
        order = np.tile(np.arange(width), (width + 1, 1))
        correct = np.ones((1, width), dtype=bool)
        for p in range(width + 1):
            c = correct.copy()
            c[0, p:p + 1] = False
            got = scan_rank(c, order[p:p + 1])
            assert got.tolist() == [[float(p)]]
            assert got.tolist() == reference_rank(c, order[p:p + 1]).tolist()

    def test_never_errs_and_errs_first(self):
        correct = np.array([[True] * 30, [False] + [True] * 29, [True] * 29 + [False]])
        order = np.array([np.arange(30), np.arange(30)[::-1]])
        assert scan_rank(correct, order).tolist() == [[30.0, 0.0, 29.0], [30.0, 29.0, 0.0]]


class TestRrcCompetence:
    def test_uniform_two_class(self):
        val = rrc_competence([0.5, 0.5], 0)
        assert abs(val - 0.5) <= 0.05

    def test_near_degenerate(self):
        assert rrc_competence([1.0 - 1e-9, 1e-9], 0) >= 0.95

    def test_against_quadrature_oracle(self):
        # P(Beta(6,4) > Beta(4,6)) = 0.8265322912 by numerical quadrature,
        # cross-checked with a 2e6-draw Monte Carlo run
        val = rrc_competence([0.6, 0.4], 0)
        assert abs(val - 0.8265322912) <= 1e-4

    def test_deterministic(self):
        a = rrc_competence([0.7, 0.3], 0)
        b = rrc_competence([0.7, 0.3], 0)
        assert a == b

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_uniform_supports_give_one_over_l(self, L):
        # identical Beta draws per class: every class wins with probability 1/L
        for c in range(L):
            assert abs(rrc_competence(np.full(L, 1.0 / L), c) - 1.0 / L) <= 1e-4

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_class_probabilities_sum_to_one(self, L):
        rng = np.random.default_rng(L)
        supports = np.concatenate([
            rng.dirichlet(np.full(L, alpha), size=300) for alpha in (0.05, 0.5, 5.0)])
        eps = np.array([1e-12, 1e-7, 1e-4, 1e-2])[:, None]
        near_one_hot = np.vstack([(1.0 - (L - 1) * eps) * np.eye(L)[c] + eps * (1 - np.eye(L)[c])
                                  for c in range(L)])
        supports = np.vstack([supports, near_one_hot])
        total = sum(rrc_competence(supports, np.full(len(supports), c)) for c in range(L))
        assert np.abs(total - 1.0).max() <= 1e-4

    @pytest.mark.parametrize("supports, c", [
        ([0.5, 0.5], 0), ([0.7, 0.3], 1), ([0.9, 0.1], 0), ([0.2, 0.3, 0.5], 2),
        ([0.2, 0.3, 0.5], 0), ([0.4, 0.35, 0.25], 1), ([0.1, 0.2, 0.3, 0.4], 3),
        ([0.97, 0.01, 0.01, 0.01], 0)])
    def test_against_monte_carlo(self, supports, c):
        n = 100_000
        s = np.clip(np.asarray(supports), 1e-6, 1.0 - 1e-6)
        draws = np.random.default_rng(5).beta(10.0 * s, 10.0 * (1.0 - s), size=(n, len(s)))
        p_mc = float((draws.argmax(axis=1) == c).mean())
        p = rrc_competence(supports, c)
        assert abs(p - p_mc) <= 4.5 * np.sqrt(p * (1.0 - p) / n) + 1e-4

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 4), rows=st.integers(1, 40), block=st.integers(1, 2000),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_batch_equals_scalar_calls(self, L, rows, block, seed):
        rng = np.random.default_rng(seed)
        supports = rng.dirichlet(np.full(L, 0.5), size=(2, rows))
        labels = rng.integers(0, L, size=rows)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metafeatures, "_RRC_BLOCK", block)
            table = rrc_competence(supports, labels[None, :])
        assert table.shape == (2, rows)
        for i in range(2):
            for j in range(rows):
                assert table[i, j] == rrc_competence(supports[i, j], labels[j])


class TestApplyMask:
    def test_identity(self):
        v = np.arange(8.0)
        assert np.array_equal(apply_mask(v, np.ones(8, dtype=bool)), v)

    def test_first_bit_only(self):
        v = np.arange(8.0)
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        assert apply_mask(v, mask).tolist() == [0.0]

    def test_popcount_shape(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=20)
        mask = rng.random(20) < 0.4
        mask[3] = True
        assert apply_mask(v, mask).shape == (mask.sum(),)

    def test_matrix_rows(self):
        rows = np.arange(12.0).reshape(3, 4)
        mask = np.array([True, False, True, False])
        assert apply_mask(rows, mask).shape == (3, 2)

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="no features"):
            apply_mask(np.arange(4.0), np.zeros(4, dtype=bool))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            apply_mask(np.arange(4.0), np.ones(5, dtype=bool))


class TestRealPoolExtraction:
    def setup_method(self):
        train, params = scale_minmax(generate_p2(300, 1))
        self.dsel = Dataset(params.apply(generate_p2(150, 2).features),
                            generate_p2(150, 2).labels, 2)
        self.pool = bagging(train, 4, seed=6)
        self.ex = MetaFeatureExtractor(self.pool, self.dsel, k=7, kp=5)
        query_ds = generate_p2(60, 3)
        self.X = params.apply(query_ds.features)
        self.y = query_ds.labels

    def test_vector_length_and_ranges(self):
        feats, metas, _ = self.ex.extract_batch(self.X, self.y)
        lay = self.ex.layout
        assert feats.shape == (60, 4, 67)
        assert np.isfinite(feats).all()
        hard = feats[:, :, lay.slice_of("hard")]
        assert set(np.unique(hard)) <= {0.0, 1.0}
        op = feats[:, :, lay.slice_of("op")]
        assert set(np.unique(op)) <= {0.0, 1.0}
        for name in ("prob", "overall", "cond", "conf"):
            seg = feats[:, :, lay.slice_of(name)]
            assert seg.min() >= -1e-12 and seg.max() <= 1.0 + 1e-12

    def test_overall_equals_mean_hard(self):
        feats, _, _ = self.ex.extract_batch(self.X, self.y)
        lay = self.ex.layout
        hard = feats[:, :, lay.slice_of("hard")]
        overall = feats[:, :, lay.slice_of("overall")][:, :, 0]
        assert np.abs(hard.mean(axis=2) - overall).max() < 1e-12

    def test_meta_label_matches_direct_prediction(self):
        feats, metas, pred = self.ex.extract_batch(self.X, self.y)
        labels, _ = self.pool.predict_batch(self.X)
        for i in range(len(self.pool)):
            assert np.array_equal(metas[:, i], (labels[i] == self.y).astype(int))

    def test_meta_label_agreement_many_pairs(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(2500, 2))
        y = rng.integers(0, 2, size=2500)
        _, metas, _ = self.ex.extract_batch(X, y)
        labels, _ = self.pool.predict_batch(X)
        # 2500 samples x 4 classifiers = 10k pairs
        assert np.array_equal(metas, (labels == y[None, :]).T.astype(int))

    def test_self_exclusion_changes_neighborhoods(self):
        idx = np.arange(len(self.dsel))
        with_self, _, _ = self.ex.extract_batch(self.dsel.features, self.dsel.labels)
        without, _, _ = self.ex.extract_batch(self.dsel.features, self.dsel.labels,
                                              self_indices=idx)
        assert not np.allclose(with_self, without)

    def test_csv_export_round_trips(self, tmp_path):
        md = self.ex.build_meta_dataset(self.X[:8], self.y[:8])
        out = tmp_path / "meta.csv"
        meta_dataset_to_csv(md, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["hard_0", "hard_1"]
        assert lines[0].split(",")[-3:] == ["meta_label", "classifier_index", "sample_id"]
        assert len(lines) == 1 + 8 * 4
        # numeric round trip of the first row
        cells = np.array([float(c) for c in lines[1].split(",")[:67]])
        assert np.allclose(cells, md.rows[0], atol=1e-8)
