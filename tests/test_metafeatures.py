import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import _blocks, metafeatures
from metasel.data import Dataset, generate_p2, scale_minmax
from metasel.engine import oracle_accuracy
from metasel.metafeatures import (FeatureLayout, MetaFeatureExtractor,
                                  meta_dataset_to_csv, rrc_competence)
from metasel.pool import ClassifierPool, bagging
from metasel.regions import nearest_neighbors


def apply_mask(values, mask):
    """Keep the entries of ``values`` whose mask bit is set, preserving order.

    Works on a single vector or a row matrix. An all-zero mask is an error.
    The library never copies masked columns (its selector is kept at full
    width, zero outside the mask); this masked copy is the reference that
    tests hold the full-width paths to.
    """
    mask = np.asarray(mask, dtype=bool)
    values = np.asarray(values)
    if values.shape[-1] != len(mask):
        raise ValueError(f"mask length {len(mask)} does not match vector length {values.shape[-1]}")
    if not mask.any():
        raise ValueError("mask selects no features")
    return values[..., mask]


def budget_for(per_block, per_item, budgets=1):
    """The smallest working-set budget whose ``budgets`` hold ``per_block``
    items of ``per_item`` values each (exactly that many when ``per_item``
    is at least ``budgets``)."""
    return -(-per_block * per_item // budgets)


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


def scan_rank(dsel_correct, order, excluded=False):
    """``MetaFeatureExtractor._rank`` on a bare correctness table, given each
    query's whole order: every reference row, or every row but its own when
    ``excluded`` (so the scan never asks for a wider prefix)."""
    (m, n), nq = dsel_correct.shape, len(order)
    stub = SimpleNamespace(dsel_correct=dsel_correct, pool=range(m), dsel=range(n))
    exclude = np.zeros(nq, dtype=int) if excluded else None
    return MetaFeatureExtractor._rank(stub, np.empty((nq, 0)), exclude, order)


def full_order_extract(ex, X, y=None, self_indices=None):
    """The extraction ``extract_batch`` replaced: every reference row of each
    query sorted by distance (one k = N neighbour call), every column
    computed, and the rank by the full gather."""
    dsel, layout = ex.dsel, ex.layout
    k, kp = layout.k, layout.kp
    width = len(dsel) - (0 if self_indices is None else 1)
    order, _ = nearest_neighbors(X, dsel.features, width, exclude=self_indices)
    pred_labels, q_supports = ex.pool.predict_batch(X)
    profiles = np.transpose(q_supports, (1, 0, 2)).reshape(len(X), -1)
    phi, _ = nearest_neighbors(profiles, ex.dsel_profiles, kp, exclude=self_indices)
    M, nq = pred_labels.shape
    theta = order[:, :k]
    feats = np.empty((nq, M, layout.size))
    seg = {name: feats[:, :, layout.slice_of(name)] for name in metafeatures.SET_NAMES}
    for name, table, nbrs in (("hard", ex.dsel_correct, theta), ("prob", ex.t_prob, theta),
                              ("log", ex.t_log, theta), ("prc", ex.t_prc, theta),
                              ("md", ex.t_md, theta), ("ent", ex.t_ent, theta),
                              ("exp", ex.t_exp, theta), ("kl", ex.t_kl, theta),
                              ("op", ex.dsel_correct, phi)):
        seg[name][...] = table[:, nbrs].transpose(1, 0, 2)
    seg["overall"][:, :, 0] = seg["hard"].mean(axis=2)
    assigned = pred_labels.T
    clipped = np.clip(ex.pool.predict_batch(dsel.features)[1], metafeatures.SUPPORT_FLOOR,
                      metafeatures.SUPPORT_CEIL)
    sup_assigned = clipped[np.arange(M)[None, :, None], theta[:, None, :],
                           assigned[:, :, None]]
    same_class = dsel.labels[theta][:, None, :] == assigned[:, :, None]
    num = (sup_assigned * same_class).sum(axis=2)
    den = sup_assigned.sum(axis=2)
    seg["cond"][:, :, 0] = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    lo, hi = ex.conf_scale.col_min, ex.conf_scale.col_max
    span = hi - lo
    scaled = (ex.pool.boundary_distances(X).T - lo) / np.where(span > 0, span, 1.0)
    seg["conf"][:, :, 0] = np.where(span > 0, np.clip(scaled, 0.0, 1.0), 0.5)
    s_sorted = np.sort(q_supports, axis=2)
    seg["amb"][:, :, 0] = (s_sorted[:, :, -1] - s_sorted[:, :, -2]).T
    corr_phi = ex.dsel_correct[:, phi]
    seg["rank_op"][:, :, 0] = np.where(corr_phi.all(axis=2), kp,
                                       (~corr_phi).argmax(axis=2)).T
    seg["rank"][:, :, 0] = reference_rank(ex.dsel_correct, order)
    metas = None if y is None else (assigned == np.asarray(y)[:, None]).astype(int)
    return feats, metas, pred_labels


def reference_meta_csv(md, path):
    """The per-row writer ``meta_dataset_to_csv`` replaced; the reference
    for its bytes."""
    header = md.layout.column_names() + ["meta_label", "classifier_index", "sample_id"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(len(md)):
            cells = [format(v, ".10g") for v in md.rows[r]]
            cells += [str(int(md.labels[r])), str(int(md.classifier_ids[r])),
                      str(int(md.sample_ids[r]))]
            fh.write(",".join(cells) + "\n")


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
           perfect=st.integers(0, 2), budget=st.sampled_from([1, 7, 64, 1 << 19]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_full_gather(self, m, n, nq, p_wrong, self_excl, perfect, budget, seed):
        rng = np.random.default_rng(seed)
        correct = rng.random((m, n)) >= p_wrong
        correct[:min(perfect, m)] = True          # members that never err
        if self_excl:                             # width N - 1: own row left out
            own = rng.integers(0, n, size=nq)
            order = np.array([rng.permutation(np.delete(np.arange(n), i)) for i in own])
        else:
            order = np.array([rng.permutation(n) for _ in range(nq)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", budget)
            got = scan_rank(correct, order, excluded=self_excl)
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


class TestBlockBounds:
    """One working-set budget sizes every blocked loop, and its blocks only
    cut the work into pieces: on P2-shaped data (two features, two classes,
    a bagged pool) no bit of the extraction, the meta-dataset, the pool
    Oracle, the RRC table or the CSV export may move when the budget is
    tiny. A tiny budget may move one thing: the mask search's fitness sums
    over its row blocks (``MaskEvaluator.distances``), so the ``search``
    digest and the trace's last digits; ``test_bpso`` holds those to a
    stacked product in the same blocks."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 60), m=st.integers(1, 5), k=st.integers(1, 7),
           kp=st.integers(1, 5), nq=st.integers(2, 30), self_excl=st.booleans(),
           budget=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_tiny_bounds_give_the_default_bytes(self, n, m, k, kp, nq, self_excl, budget,
                                                 seed):
        rng = np.random.default_rng(seed)
        train, params = scale_minmax(generate_p2(40, [seed, 1]))
        dsel = params.apply_dataset(generate_p2(n, [seed, 2]))
        pool = bagging(train, m, seed=seed % 1000, epochs=5)
        k, kp = min(k, n - 1), min(kp, n - 1)
        ex = MetaFeatureExtractor(pool, dsel, k=k, kp=kp)
        if self_excl:
            own = rng.integers(0, n, size=nq)
            X, y = dsel.features[own], dsel.labels[own]
        else:
            own = None
            queries = params.apply_dataset(generate_p2(nq, [seed, 3]))
            X, y = queries.features, queries.labels
        size = ex.layout.size
        mask = rng.random(size) < 0.5
        mask[rng.integers(size)] = True
        weights = rng.normal(size=size)
        three_class = rng.dirichlet(np.ones(3), size=nq)
        classes = rng.integers(0, 3, size=nq)

        def outputs():
            rows = np.empty((nq, m, size), dtype=np.float32)
            _, metas, pred = ex.extract_batch(X, y, self_indices=own, out=rows)
            wide, _, _ = ex.extract_batch(X, y, self_indices=own)
            masked, _, _ = ex.extract_batch(X, self_indices=own, mask=mask)
            summed, _, _ = ex.extract_batch(X, self_indices=own, mask=mask, weights=weights)
            md = ex.build_meta_dataset(X, y, self_indices=own)
            with tempfile.TemporaryDirectory() as tmp:
                meta_dataset_to_csv(md, Path(tmp) / "meta.csv")
                csv = np.frombuffer((Path(tmp) / "meta.csv").read_bytes(), dtype=np.uint8)
            table = MetaFeatureExtractor(pool, dsel, k=k, kp=kp).t_prc
            oracle = np.float64(oracle_accuracy(pool, Dataset(X, y, 2)))
            return (rows, metas, pred, wide, masked, summed, md.rows, md.labels, csv, table,
                    rrc_competence(three_class, classes), oracle)

        want = outputs()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", budget)
            got = outputs()
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_full_feature_block_traces_under_a_third_of_its_rows(self):
        # the first build block of P2's reference rows at pool 100 (272
        # queries, each leaving out its own row): its float32 rows are 7.3
        # MB, and the arrays it held besides them read ~6 MB before the
        # k-NN's pair bound and copied cutoff, cond's in-place product, the
        # gather bound on cond and the K-wide families, and the rank scan's
        # smaller gathers; ~1.9 MB after
        train, params = scale_minmax(generate_p2(500, [1, 1]))
        dsel = params.apply_dataset(generate_p2(500, [1, 3]))
        ex = MetaFeatureExtractor(bagging(train, 100, seed=3), dsel)
        blk = ex.query_blocks(len(dsel))[0]
        X, y, own = dsel.features[blk], dsel.labels[blk], np.arange(len(dsel))[blk]
        rows = np.empty((len(X), 100, ex.layout.size), dtype=np.float32)
        assert len(X) == 272
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            ex.extract_batch(X, y, self_indices=own, out=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < rows.nbytes / 3


def draw_mask(layout, kind, rng):
    """A random mask of one kind: any bits, one family's positions, the
    rank bit alone, every bit or none."""
    mask = np.zeros(layout.size, dtype=bool)
    if kind == "random":
        mask = rng.random(layout.size) < rng.uniform(0.05, 0.95)
    elif kind == "family":
        _, start, width = layout.segments[rng.integers(len(layout.segments))]
        mask[start:start + width] = rng.random(width) < 0.6
        mask[start + rng.integers(width)] = True
    elif kind == "rank":
        mask[layout.slice_of("rank")] = True
    elif kind == "all":
        mask[:] = True
    return mask


class TestMaskedExtraction:
    """``extract_batch`` with a mask against the zeroed full extraction, and
    the full extraction against the k = N path it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(6, 70), m=st.integers(1, 5), L=st.integers(2, 3),
           d=st.integers(1, 3), k=st.integers(1, 5), kp=st.integers(1, 5),
           distinct=st.integers(1, 70), perfect=st.integers(0, 2),
           self_excl=st.booleans(), nq=st.integers(1, 12),
           kind=st.sampled_from(["random", "family", "rank", "all", "none"]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_zeroed_full_extraction(self, n, m, L, d, k, kp, distinct, perfect,
                                           self_excl, nq, kind, seed):
        rng = np.random.default_rng(seed)
        k, kp = min(k, n - 1), min(kp, n - 1)
        # few distinct rows: many reference rows tie in distance
        base = np.round(rng.normal(size=(min(distinct, n), d)), 1)
        features = base[rng.integers(0, len(base), size=n)]
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
        labels = rng.integers(0, L, size=n)
        if perfect:
            # labelled by member 0's own predictions: it errs on no row
            labels = pool.predict_batch(features)[0][0]
        ex = MetaFeatureExtractor(pool, Dataset(features, labels, L), k=k, kp=kp)
        mask = draw_mask(ex.layout, kind, rng)
        if self_excl:
            self_indices = rng.integers(0, n, size=nq)
            X = features[self_indices]
        else:
            self_indices = None
            X = np.where(rng.random((nq, 1)) < 0.5, features[rng.integers(0, n, size=nq)],
                         np.round(rng.normal(size=(nq, d)), 1))
        y = rng.integers(0, L, size=nq)
        full, metas, pred = ex.extract_batch(X, y, self_indices=self_indices)
        got, got_metas, got_pred = ex.extract_batch(X, y, self_indices=self_indices, mask=mask)
        want = full.copy()
        want[:, :, ~mask] = 0.0
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_metas, metas) and np.array_equal(got_pred, pred)
        ref, ref_metas, ref_pred = full_order_extract(ex, X, y, self_indices)
        assert full.tobytes() == ref.tobytes()
        assert np.array_equal(metas, ref_metas) and np.array_equal(pred, ref_pred)

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(6, 70), m=st.integers(1, 5), L=st.integers(2, 3),
           d=st.integers(1, 3), k=st.integers(1, 5), kp=st.integers(1, 5),
           distinct=st.integers(1, 70), self_excl=st.booleans(), nq=st.integers(1, 12),
           kind=st.sampled_from(["random", "family", "rank", "all", "none"]),
           seed=st.integers(0, 2**32 - 1))
    def test_weighted_sum_equals_tensor_product(self, n, m, L, d, k, kp, distinct,
                                                self_excl, nq, kind, seed):
        rng = np.random.default_rng(seed)
        k, kp = min(k, n - 1), min(kp, n - 1)
        base = np.round(rng.normal(size=(min(distinct, n), d)), 1)
        features = base[rng.integers(0, len(base), size=n)]
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
        ex = MetaFeatureExtractor(pool, Dataset(features, rng.integers(0, L, size=n), L),
                                  k=k, kp=kp)
        mask = draw_mask(ex.layout, kind, rng)
        # weights of mixed sign and scale, some exactly zero
        weights = rng.normal(size=ex.layout.size) * 10.0 ** rng.integers(-3, 4, ex.layout.size)
        weights[rng.random(ex.layout.size) < 0.1] = 0.0
        self_indices = rng.integers(0, n, size=nq) if self_excl else None
        X = features[self_indices] if self_excl else np.round(rng.normal(size=(nq, d)), 1)
        y = rng.integers(0, L, size=nq)
        feats, metas, pred = ex.extract_batch(X, y, self_indices=self_indices, mask=mask)
        got, got_metas, got_pred = ex.extract_batch(X, y, self_indices=self_indices,
                                                    mask=mask, weights=weights)
        assert got.shape == (nq, m)
        assert np.array_equal(got_pred, pred) and np.array_equal(got_metas, metas)
        # both sums hold the same p products in other orders
        bound = ((mask.sum() + 1) * np.finfo(float).eps
                 * np.abs(feats * weights).sum(axis=2))
        assert (np.abs(got - feats @ weights) <= bound).all()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(6, 70), m=st.integers(1, 5), L=st.integers(2, 3),
           d=st.integers(1, 3), k=st.integers(1, 5), kp=st.integers(1, 5),
           distinct=st.integers(1, 70), self_excl=st.booleans(), nq=st.integers(1, 40),
           budget=st.sampled_from([1, 50, 1 << 16]), seed=st.integers(0, 2**32 - 1))
    def test_sample_rows_do_not_depend_on_batch_position(self, n, m, L, d, k, kp, distinct,
                                                         self_excl, nq, budget, seed):
        # train_des builds the meta-training samples in its halving's order;
        # each sample's rows must be those a build in sample order gives
        rng = np.random.default_rng(seed)
        k, kp = min(k, n - 1), min(kp, n - 1)
        base = np.round(rng.normal(size=(min(distinct, n), d)), 1)
        features = base[rng.integers(0, len(base), size=n)]
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
        ex = MetaFeatureExtractor(pool, Dataset(features, rng.integers(0, L, size=n), L),
                                  k=k, kp=kp)
        self_indices = rng.integers(0, n, size=nq) if self_excl else None
        X = (features[self_indices] if self_excl
             else np.round(rng.normal(size=(nq, d)), 1))
        y = rng.integers(0, L, size=nq)
        ids = rng.permutation(10 * nq)[:nq]
        perm = rng.permutation(nq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", budget)
            built = ex.build_meta_dataset(X, y, self_indices=self_indices, sample_ids=ids)
            moved = ex.build_meta_dataset(
                X[perm], y[perm], sample_ids=ids[perm],
                self_indices=None if self_indices is None else self_indices[perm])
        for name in ("rows", "labels", "sample_ids", "classifier_ids"):
            blocks = getattr(built, name).reshape(nq, m, -1)
            assert getattr(moved, name).tobytes() == blocks[perm].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(6, 70), m=st.integers(1, 5), L=st.integers(2, 3),
           d=st.integers(1, 3), k=st.integers(1, 5), kp=st.integers(1, 5),
           distinct=st.integers(1, 70), self_excl=st.booleans(), nq=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_built_rows_are_the_features_rounded_to_float32(self, n, m, L, d, k, kp,
                                                              distinct, self_excl, nq, seed):
        # build_meta_dataset writes float32 rows straight into its array;
        # each is the float64 feature extract_batch returns, rounded once
        rng = np.random.default_rng(seed)
        k, kp = min(k, n - 1), min(kp, n - 1)
        base = np.round(rng.normal(size=(min(distinct, n), d)), 1)
        features = base[rng.integers(0, len(base), size=n)]
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
        ex = MetaFeatureExtractor(pool, Dataset(features, rng.integers(0, L, size=n), L),
                                  k=k, kp=kp)
        self_indices = rng.integers(0, n, size=nq) if self_excl else None
        X = (features[self_indices] if self_excl
             else np.round(rng.normal(size=(nq, d)), 1))
        y = rng.integers(0, L, size=nq)
        md = ex.build_meta_dataset(X, y, self_indices=self_indices)
        feats, metas, _ = ex.extract_batch(X, y, self_indices=self_indices)
        assert feats.dtype == np.float64 and md.rows.dtype == np.float32
        assert md.rows.tobytes() == feats.astype(np.float32).reshape(nq * m, -1).tobytes()
        assert np.array_equal(md.labels, metas.reshape(-1))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(6, 40), m=st.integers(1, 4), L=st.integers(2, 3),
           d=st.integers(1, 3), k=st.integers(1, 5), kp=st.integers(1, 5),
           distinct=st.integers(1, 40), self_excl=st.booleans(), nq=st.integers(1, 10),
           per_block=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_blocked_build_equals_one_unblocked_extraction(self, n, m, L, d, k, kp, distinct,
                                                           self_excl, nq, per_block, seed):
        # build_meta_dataset extracts in the query blocks classify_batch
        # uses; on narrow data (d <= 3, L <= 3 here) the pool's product gives
        # a row the same bits in any block, a block of one included, so the
        # arrays must be byte for byte those of one extraction of every query
        rng = np.random.default_rng(seed)
        k, kp = min(k, n - 1), min(kp, n - 1)
        base = np.round(rng.normal(size=(min(distinct, n), d)), 1)
        features = base[rng.integers(0, len(base), size=n)]
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
        ex = MetaFeatureExtractor(pool, Dataset(features, rng.integers(0, L, size=n), L),
                                  k=k, kp=kp)
        self_indices = rng.integers(0, n, size=nq) if self_excl else None
        X = (features[self_indices] if self_excl
             else np.round(rng.normal(size=(nq, d)), 1))
        y = rng.integers(0, L, size=nq)
        ids = rng.permutation(10 * nq)[:nq]
        feats = np.empty((nq, m, ex.layout.size), dtype=np.float32)
        _, metas, _ = ex.extract_batch(X, y, self_indices=self_indices, out=feats)
        calls = []
        extract = ex.extract_batch
        per_query = m * ex.layout.size + 2 * n
        budget = budget_for(per_block, per_query, _blocks.WIDE)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", budget)
            mp.setattr(ex, "extract_batch",
                       lambda X, *a, **kw: calls.append(len(X)) or extract(X, *a, **kw))
            md = ex.build_meta_dataset(X, y, self_indices=self_indices, sample_ids=ids)
        # blocks of per_block queries (or, with fewer than WIDE values a
        # query, a few more), the last one holding what is left
        step = _blocks.WIDE * budget // per_query
        assert calls == [step] * (nq // step) + [nq % step] * (nq % step > 0)
        assert md.rows.tobytes() == feats.reshape(nq * m, -1).tobytes()
        assert (md.labels.dtype, md.sample_ids.dtype, md.classifier_ids.dtype) == (
            np.int8, np.int32, np.int32)
        assert md.labels.tobytes() == metas.reshape(-1).astype(np.int8).tobytes()
        assert md.sample_ids.tobytes() == np.repeat(ids, m).astype(np.int32).tobytes()
        assert md.classifier_ids.tobytes() == np.tile(np.arange(m, dtype=np.int32),
                                                      nq).tobytes()

    @pytest.mark.parametrize("per_block", [1, 7, 59])
    def test_blocked_build_on_wide_data_is_within_one_float32_step(self, monkeypatch,
                                                                   per_block):
        # on wide data (d = 40, L = 4) BLAS may give a query's supports other
        # last bits in each block size, so the float64 features can move by
        # ~1e-15 with the blocks; rounded to float32 a row moves by at most
        # one step, and the meta labels and ids do not move
        rng = np.random.default_rng(7)
        n, m, L, d, nq = 120, 3, 4, 40, 150
        pool = ClassifierPool(rng.normal(size=(m, L, d + 1)), rng.uniform(0.5, 2.0, size=m))
        ex = MetaFeatureExtractor(pool, Dataset(rng.normal(size=(n, d)),
                                                rng.integers(0, L, size=n), L), k=7, kp=5)
        X, y = rng.normal(size=(nq, d)), rng.integers(0, L, size=nq)
        feats = np.empty((nq, m, ex.layout.size), dtype=np.float32)
        _, metas, _ = ex.extract_batch(X, y, out=feats)
        monkeypatch.setattr(_blocks, "BLOCK",
                            budget_for(per_block, m * ex.layout.size + 2 * n, _blocks.WIDE))
        md = ex.build_meta_dataset(X, y)
        np.testing.assert_array_max_ulp(md.rows, feats.reshape(nq * m, -1), maxulp=1)
        assert (md.labels.dtype, md.sample_ids.dtype) == (np.int8, np.int32)
        assert md.labels.tobytes() == metas.reshape(-1).astype(np.int8).tobytes()
        assert md.sample_ids.tobytes() == np.repeat(np.arange(nq, dtype=np.int32),
                                                    m).tobytes()

    @pytest.mark.parametrize("per_block", [1, 2, 3, 272])
    def test_query_blocks_cover_the_queries_in_equal_steps(self, monkeypatch, per_block):
        pool = ClassifierPool(np.ones((2, 2, 2)), np.ones(2))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        monkeypatch.setattr(_blocks, "BLOCK",
                            budget_for(per_block, 2 * ex.layout.size + 2 * 7, _blocks.WIDE))
        for n in range(0, 3 * per_block + 3):
            blocks = ex.query_blocks(n)
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
            sizes = [b.stop - b.start for b in blocks]
            # a last block of one query included
            assert all(1 <= size <= per_block for size in sizes), (n, sizes)
            assert all(size == per_block for size in sizes[:-1])

    def test_ids_are_int32_until_one_passes_it(self):
        pool = ClassifierPool(np.ones((2, 2, 2)), np.ones(2))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        X, y = np.array([[0.5], [2.5]]), [0, 1]
        narrow = ex.build_meta_dataset(X, y, sample_ids=[-2**31, 2**31 - 1])
        assert (narrow.labels.dtype, narrow.sample_ids.dtype,
                narrow.classifier_ids.dtype) == (np.int8, np.int32, np.int32)
        for big in (-2**31 - 1, 2**31):
            wide = ex.build_meta_dataset(X, y, sample_ids=[0, big])
            assert wide.sample_ids.dtype == wide.classifier_ids.dtype == np.intp
            assert wide.sample_ids.tolist() == [0, 0, big, big]
            assert wide.classifier_ids.tolist() == [0, 1, 0, 1]
            assert wide.labels.tobytes() == narrow.labels.tobytes()

    def test_one_id_is_held_per_sample(self):
        pool = ClassifierPool(np.ones((2, 2, 2)), np.ones(2))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        md = ex.build_meta_dataset(np.array([[0.5], [2.5], [4.5]]), [0, 1, 0],
                                   sample_ids=[7, 3, 9])
        assert (md.ids.tolist(), md.members) == ([7, 3, 9], 2)
        assert md.sample_ids.tolist() == [7, 7, 3, 3, 9, 9]
        assert md.classifier_ids.tolist() == [0, 1, 0, 1, 0, 1]
        with pytest.raises(AttributeError):
            md.sample_ids = md.sample_ids
        with pytest.raises(ValueError, match="5 rows for 2 samples"):
            metafeatures.MetaDataset(md.rows[:5], md.labels[:5], md.ids[:2], md.layout)

    def test_self_indices_need_one_entry_per_query(self):
        pool = ClassifierPool(np.ones((2, 2, 2)), np.ones(2))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        for own in ([0, 1], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match=f"self_indices has length {len(own)}, "
                                                 "expected 3"):
                ex.build_meta_dataset(np.zeros((3, 1)), [0, 1, 0], self_indices=own)

    def test_rank_widens_past_the_first_prefix(self, monkeypatch):
        # one member errs only on the farthest row, the other on no row: the
        # first needs every prefix up to N, the second none
        n = 40
        features = np.arange(n, dtype=float).reshape(-1, 1)
        correct = np.ones((2, n), dtype=bool)
        correct[0, -1] = False
        ex = SimpleNamespace(dsel_correct=correct, pool=range(2),
                             dsel=Dataset(features, np.zeros(n, dtype=int), 2))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return nearest_neighbors(*args, **kwargs)

        monkeypatch.setattr(metafeatures, "nearest_neighbors", counting)
        X = np.array([[-1.0], [41.0]])
        order, _ = nearest_neighbors(X, features, 4)
        rank = MetaFeatureExtractor._rank(ex, X, None, order)
        assert rank.tolist() == [[39.0, 40.0], [0.0, 40.0]]
        # query 1 meets row 39 first; query 0 asks for 8, 16, 32 and 40 rows
        assert calls == [8, 16, 32, 40]
        # row 0 asking without its own row: every wider prefix leaves it out too
        own = np.array([0])
        order, _ = nearest_neighbors(features[:1], features, 4, exclude=own)
        rank = MetaFeatureExtractor._rank(ex, features[:1], own, order)
        assert rank.tolist() == [[38.0, 39.0]]

    def test_mask_shape_checked(self):
        pool = ClassifierPool(np.ones((1, 2, 2)), np.ones(1))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        with pytest.raises(ValueError, match="mask of shape"):
            ex.extract_batch(np.zeros((1, 1)), mask=np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="weights of shape"):
            ex.extract_batch(np.zeros((1, 1)), weights=np.ones(5))
        with pytest.raises(ValueError, match="out of shape"):
            ex.extract_batch(np.zeros((2, 1)), out=np.empty((1, 1, ex.layout.size)))
        with pytest.raises(ValueError, match="not the weighted sums"):
            ex.extract_batch(np.zeros((1, 1)), weights=np.ones(ex.layout.size),
                             out=np.empty((1, 1, ex.layout.size)))

    @pytest.mark.parametrize("y, ids, message", [
        ([0, 1], None, "y has length 2, expected 3"),
        ([0, 1, 0, 1], None, "y has length 4, expected 3"),
        (None, None, "y has length None, expected 3"),
        ([0, 1, 0], [4, 5], "sample_ids has length 2, expected 3"),
        ([0, 1, 0], [4, 5, 6, 7], "sample_ids has length 4, expected 3")])
    def test_labels_and_sample_ids_need_one_entry_per_query(self, y, ids, message):
        pool = ClassifierPool(np.ones((5, 2, 2)), np.ones(5))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        with pytest.raises(ValueError, match=message):
            ex.build_meta_dataset(np.zeros((3, 1)), y, sample_ids=ids)
        md = ex.build_meta_dataset(np.zeros((3, 1)), [0, 1, 0], sample_ids=[4, 5, 6])
        assert len(md) == len(md.sample_ids) == len(md.labels) == 15

    @pytest.mark.parametrize("own", [[-1], [7], [0, 150]])
    def test_self_indices_outside_the_reference_set_rejected(self, own):
        pool = ClassifierPool(np.ones((1, 2, 2)), np.ones(1))
        ex = MetaFeatureExtractor(pool, line_dsel([0, 1, 0, 1, 0, 1, 0]), k=3, kp=3)
        X = np.zeros((len(own), 1))
        with pytest.raises(ValueError, match="self_indices must name a reference row"):
            ex.extract_batch(X, self_indices=own)
        last = np.full(len(own), 6)
        feats, _, _ = ex.extract_batch(X, self_indices=last)
        assert feats.shape == (len(own), 1, ex.layout.size)


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
    @given(L=st.integers(2, 4), rows=st.integers(1, 40), budget=st.integers(1, 2000),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_batch_equals_scalar_calls(self, L, rows, budget, seed):
        rng = np.random.default_rng(seed)
        supports = rng.dirichlet(np.full(L, 0.5), size=(2, rows))
        labels = rng.integers(0, L, size=rows)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_blocks, "BLOCK", budget)
            table = rrc_competence(supports, labels[None, :])
        assert table.shape == (2, rows)
        for i in range(2):
            for j in range(rows):
                assert table[i, j] == rrc_competence(supports[i, j], labels[j])


def _node_support(i, frac):
    """Support whose logit lies ``frac`` node spacings past node ``i`` of the
    two-class RRC interpolant."""
    lo, step, _ = metafeatures._rrc_table()
    return float(1.0 / (1.0 + np.exp(-(lo + (i + frac) * step))))


_CLIP = metafeatures._RRC_CLIP
_LAST_NODE = metafeatures._RRC_NODES - 1
# exact 0 and 1, subnormals, and the clip ends with their neighbouring doubles
_EDGE_SUPPORTS = [0.0, 1.0, 5e-324, 2.0 ** -1040, 1e-300, _CLIP, 1.0 - _CLIP,
                  *(float(np.nextafter(v, to)) for v in (_CLIP, 1.0 - _CLIP) for to in (0.0, 1.0)),
                  float(np.nextafter(1.0, 0.0))]
_two_class_support = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(_EDGE_SUPPORTS),
    # within two node spacings of the first and the last node
    st.builds(_node_support, st.just(0), st.floats(-0.5, 2.0)),
    st.builds(_node_support, st.just(_LAST_NODE), st.floats(-2.0, 0.5)))


class TestTwoClassRrcTable:
    """The two-class ``rrc_competence`` reads an interpolant built from
    ``_rrc_quadrature``; these tests hold it to the quadrature."""

    @staticmethod
    def assert_near_quadrature(s):
        pairs = np.stack([s, 1.0 - s], axis=1)
        # (s_c, 1 - s_c) in both class orders
        for supports, c in ((pairs, 0), (pairs[:, ::-1], 1)):
            want = metafeatures._rrc_quadrature(supports, np.full(len(s), c))
            got = rrc_competence(supports, c)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_two_class_support, min_size=1, max_size=30))
    def test_table_matches_the_quadrature(self, values):
        self.assert_near_quadrature(np.array(values))

    def test_table_matches_the_quadrature_between_every_node(self):
        # the middle of every interval, where a cubic Hermite interpolant
        # strays furthest from its nodes, and one more fraction of each
        lo, step, _ = metafeatures._rrc_table()
        at = np.arange(_LAST_NODE) + np.array([0.5, np.random.default_rng(3).random()])[:, None]
        self.assert_near_quadrature(1.0 / (1.0 + np.exp(-(lo + at.ravel() * step))))

    def test_table_is_built_once(self, monkeypatch):
        table = metafeatures._rrc_table()
        assert table is metafeatures._rrc_table()
        assert table[2].shape == (4, _LAST_NODE)

        def no_quadrature(*args):
            raise AssertionError("the two-class path ran the quadrature")

        monkeypatch.setattr(metafeatures, "_rrc_quadrature", no_quadrature)
        assert 0.0 < rrc_competence(np.array([[0.3, 0.7], [0.9, 0.1]]), [1, 0]).min() < 1.0

    def test_values_stay_in_the_unit_interval(self):
        s = np.linspace(0.0, 1.0, 100_001)
        v = rrc_competence(np.stack([s, 1.0 - s], axis=1), 0)
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert v[0] < 1e-15 and v[-1] > 1.0 - 1e-15

    @pytest.mark.parametrize("supports, c", [
        ([np.nan, 0.5], 0), ([0.5, np.nan], 1), ([np.nan, np.nan], 1),
        ([np.nan, 0.2, 0.8], 0), ([0.2, np.nan, 0.3, 0.5], 1)])
    def test_nan_support_gives_nan(self, supports, c):
        assert np.isnan(rrc_competence(supports, c))
        # alone in a batch: the other rows keep their values
        batch = np.array([supports, np.eye(len(supports))[c] * 0.6 + 0.1])
        got = rrc_competence(batch, c)
        assert np.isnan(got[0]) and got[1] == rrc_competence(batch[1], c)

    @pytest.mark.parametrize("L", [2, 3])
    def test_class_outside_range_rejected(self, L):
        for bad in (-1, -L - 1, L, L + 4):
            with pytest.raises(ValueError, match=rf"correct class outside \[0, {L}\)"):
                rrc_competence(np.full(L, 1.0 / L), bad)
            labels = np.zeros(4, dtype=int)
            labels[2] = bad
            with pytest.raises(ValueError, match="correct class outside"):
                rrc_competence(np.full((4, L), 1.0 / L), labels)

    @pytest.mark.parametrize("supports, c, value", [
        ([0.2, 0.3, 0.5], 2, "0x1.98b61f482b895p-1"),
        ([0.2, 0.3, 0.5], 0, "0x1.7c6ad0b1628a7p-5"),
        ([0.4, 0.35, 0.25], 1, "0x1.64ab9a9ad0d72p-2"),
        ([1e-9, 0.5, 0.5], 0, "0x1.3c0a240bb4fbcp-28"),
        ([0.1, 0.2, 0.3, 0.4], 3, "0x1.3f132000c2ccbp-1"),
        ([0.97, 0.01, 0.01, 0.01], 0, "0x1.fffffe26fd0b3p-1"),
        ([0.25, 0.25, 0.25, 0.25], 1, "0x1.ffffe25c3e47dp-3")])
    def test_more_classes_keep_the_quadrature_bytes(self, supports, c, value):
        # values of the quadrature before the two-class table was added
        assert float(rrc_competence(supports, c)).hex() == value


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

    def test_holds_one_copy_of_the_pool_outputs(self):
        # the seven (M, N) float64 tables, the (N, M*L) float64 profiles,
        # the correctness flags, the int8 labels and the two (M,) vectors of
        # the boundary-distance scale: no clipped (M, N, L) copy
        M, N, L = len(self.pool), len(self.dsel), self.pool.class_count
        arrays = [v for obj in (self.ex, self.ex.conf_scale) for v in vars(obj).values()
                  if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == (7 + L) * M * N * 8 + 2 * M * N + 2 * M * 8
        assert self.ex.dsel_pred_labels.dtype == np.int8

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

    def test_csv_export_bytes_equal_the_per_row_writer(self, tmp_path):
        # magnitudes from 1e-300 to 1e300 of both signs, plus -0.0, a
        # subnormal, 1e17 (exact integer beyond 10 digits) and 10-digit ties
        rng = np.random.default_rng(21)
        layout = FeatureLayout(7, 5)
        rows = rng.choice([-1.0, 1.0], (500, layout.size)) * 10.0 ** rng.uniform(
            -300, 300, (500, layout.size))
        rows[0, :6] = [-0.0, 5e-324, 1e17, 0.12345678905, 2.5, -123456789012.0]
        rows[1] = rng.uniform(0, 1, layout.size)
        # 100 samples of 5 members each
        sample_ids = rng.integers(0, 10 ** 6, 100)
        sample_ids[0] = 10 ** 12                  # more digits than %.10g keeps
        md = metafeatures.MetaDataset(rows, rng.integers(0, 2, 500), sample_ids, layout)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        meta_dataset_to_csv(md, got)
        reference_meta_csv(md, want)
        assert got.read_bytes() == want.read_bytes()

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

    @pytest.mark.parametrize("rows_per_block", [1, 7, 32, 33, 1000])
    def test_csv_export_in_row_blocks_equals_one_savetxt(self, tmp_path, monkeypatch,
                                                         rows_per_block):
        # 32 rows; sample ids with more digits than %.10g keeps
        md = self.ex.build_meta_dataset(self.X[:8], self.y[:8],
                                        sample_ids=np.arange(8) + 10**12)
        fmt = ["%.10g"] * md.rows.shape[1] + ["%d"] * 3
        want = tmp_path / "want.csv"
        with open(want, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(md.layout.column_names()
                              + ["meta_label", "classifier_index", "sample_id"]) + "\n")
            np.savetxt(fh, np.column_stack([md.rows, md.labels, md.classifier_ids,
                                            md.sample_ids]), fmt=fmt, delimiter=",")
        monkeypatch.setattr(_blocks, "BLOCK", rows_per_block * len(fmt))
        got = tmp_path / "got.csv"
        meta_dataset_to_csv(md, got)
        assert got.read_bytes() == want.read_bytes()

    def test_csv_export_memory_stays_within_one_row_block(self, tmp_path, monkeypatch):
        # one float64 table of 1 000 rows at a time, 0.56 MB; a table of
        # every row would be 1.7 MB, and two blocks alive at once 1.1 MB
        layout = FeatureLayout(7, 5)
        n, per_block = 3_000, 1_000
        md = metafeatures.MetaDataset(
            np.random.default_rng(4).random((n, layout.size), dtype=np.float32),
            np.zeros(n, dtype=int), np.arange(n), layout)
        monkeypatch.setattr(_blocks, "BLOCK", per_block * (layout.size + 3))
        tracemalloc.start()
        try:
            meta_dataset_to_csv(md, tmp_path / "meta.csv")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 1.5 * per_block * (layout.size + 3) * 8, peak - held

    def test_given_rrc_table_is_used_and_not_recomputed(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the RRC table was recomputed")

        monkeypatch.setattr(metafeatures, "rrc_competence", no_quadrature)
        again = MetaFeatureExtractor(self.pool, self.dsel, k=7, kp=5, t_prc=self.ex.t_prc)
        assert again.t_prc.tobytes() == self.ex.t_prc.tobytes()
        a, _, _ = self.ex.extract_batch(self.X, self.y)
        b, _, _ = again.extract_batch(self.X, self.y)
        assert a.tobytes() == b.tobytes()

    def test_given_rrc_table_checked(self):
        table = self.ex.t_prc
        for bad in (table[:, 1:], table.T, table[None]):
            with pytest.raises(ValueError, match="RRC table has shape"):
                MetaFeatureExtractor(self.pool, self.dsel, t_prc=bad)
        for value in (np.nan, np.inf, -1e-300, 1.0 + 1e-12):
            bad = table.copy()
            bad[1, 2] = value
            with pytest.raises(ValueError, match=r"RRC table values must lie in \[0, 1\]"):
                MetaFeatureExtractor(self.pool, self.dsel, t_prc=bad)
