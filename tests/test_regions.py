import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import _blocks, regions
from metasel.data import Dataset, generate_p2, scale_minmax
from metasel.metafeatures import MetaFeatureExtractor
from metasel.pool import bagging
from metasel.regions import nearest_neighbors


def brute_force_knn(query, reference, k, exclude=None):
    scored = []
    for i, row in enumerate(reference):
        if exclude is not None and i == exclude:
            continue
        scored.append((float(np.linalg.norm(query - row)), i))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [i for _, i in scored[:k]], [d for d, _ in scored[:k]]


def reference_knn(queries, reference, k, exclude=None, block=1 << 22):
    """The brute-force block loop: every reference row's squared distance by
    difference, square and sum, then one stable sort per query."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    reference = np.asarray(reference, dtype=float)
    excl = None if exclude is None else np.atleast_1d(np.asarray(exclude, dtype=int))
    order = np.empty((len(queries), k), dtype=np.intp)
    dist = np.empty((len(queries), k))
    step = max(1, block // max(1, reference.size))
    for lo in range(0, len(queries), step):
        blk = slice(lo, lo + step)
        diff = queries[blk, None, :] - reference[None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=2)
        del diff
        if excl is not None:
            rows = np.flatnonzero(excl[blk] >= 0)
            d2[rows, excl[blk][rows]] = np.inf
        order[blk] = np.argsort(d2, axis=1, kind="stable")[:, :k]
        dist[blk] = np.sqrt(np.take_along_axis(d2, order[blk], axis=1))
    return order, dist


def assert_same_as_reference(queries, reference, k, exclude=None):
    idx, dist = nearest_neighbors(queries, reference, k, exclude=exclude)
    want_idx, want_dist = reference_knn(queries, reference, k, exclude=exclude)
    assert np.array_equal(idx, want_idx)
    assert dist.tobytes() == want_dist.tobytes()


def knn_one(query, reference, k, exclude=None):
    """Neighbors of a single query: (indices, distances), each (k,)."""
    excl = None if exclude is None else [exclude]
    idx, dist = nearest_neighbors(np.atleast_2d(query), reference, k, exclude=excl)
    return idx[0], dist[0]


def profile_of(pool, x):
    """Output profile of one sample: every member's support vector, in member
    order, concatenated (length M * L)."""
    _, supports = pool.predict_batch(np.atleast_2d(x))
    return supports[:, 0, :].reshape(-1)


def small_dsel(n=20, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0, 1, size=(n, d)), rng.integers(0, 2, n), 2)


class TestRegionOf:
    def test_self_match_when_not_excluded(self):
        ds = small_dsel()
        idx, dist = knn_one(ds.features[4], ds.features, k=3)
        assert idx[0] == 4 and dist[0] == 0.0

    def test_exclusion_drops_own_row(self):
        ds = small_dsel()
        idx, _ = knn_one(ds.features[4], ds.features, k=3, exclude=4)
        assert 4 not in idx

    def test_k_equals_reference_size(self):
        ds = small_dsel(n=8)
        idx, dist = knn_one(np.array([0.5, 0.5]), ds.features, k=8)
        assert sorted(idx.tolist()) == list(range(8))
        assert (np.diff(dist) >= 0).all()

    def test_hand_placed_five_points(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.1, 0.1]])
        ds = Dataset(feats, np.array([0, 1, 0, 1, 0]), 2)
        r_idx, r_dist = knn_one(np.array([0.0, 0.0]), ds.features, k=3)
        idx, dist = brute_force_knn(np.array([0.0, 0.0]), feats, 3)
        assert r_idx.tolist() == idx
        assert np.allclose(r_dist, dist)

    def test_k_too_large(self):
        ds = small_dsel(n=5)
        with pytest.raises(ValueError, match="k="):
            knn_one(ds.features[0], ds.features, k=6)
        with pytest.raises(ValueError, match="k="):
            knn_one(ds.features[0], ds.features, k=5, exclude=0)

    def test_only_a_named_row_counts_as_excluded(self):
        ref = np.arange(5.0)[:, None]
        # -1 excludes nothing, so every row is available
        idx, dist = nearest_neighbors(np.zeros((1, 1)), ref, 5, exclude=[-1])
        assert idx.tolist() == [[0, 1, 2, 3, 4]] and dist.tolist() == [[0, 1, 2, 3, 4]]
        assert_same_as_reference(np.zeros((2, 1)), ref, 5, exclude=[-1, -1])
        # one query that names a row leaves it four
        with pytest.raises(ValueError, match=r"k=5 out of range .*\(with self-exclusion\)"):
            nearest_neighbors(np.zeros((2, 1)), ref, 5, exclude=[-1, 3])

    @pytest.mark.parametrize("k", [2, 4])          # the filtered path, and every row
    @pytest.mark.parametrize("bad", [7, 5, -2, -3])
    def test_exclude_outside_the_reference_rows(self, k, bad):
        ref = np.arange(5.0)[:, None]
        with pytest.raises(ValueError, match=r"exclude must name a reference row in \[0, 5\)"):
            nearest_neighbors(np.zeros((1, 1)), ref, k, exclude=[bad])
        with pytest.raises(ValueError, match="exclude must name"):
            nearest_neighbors(np.zeros((2, 1)), ref, k, exclude=[0, bad])
        for ok in (-1, 0, 4):
            assert_same_as_reference(np.zeros((1, 1)), ref, k, exclude=[ok])

    def test_tie_break_by_lower_index(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ds = Dataset(feats, np.array([0, 1, 0, 1]), 2)
        idx, _ = knn_one(np.array([0.0, 0.0]), ds.features, k=4)
        assert idx.tolist() == [0, 1, 2, 3]

    def test_matches_brute_force_many(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(5, 25))
            d = int(rng.integers(1, 4))
            ref = rng.uniform(0, 1, size=(n, d))
            ds = Dataset(ref, rng.integers(0, 2, n), 2)
            q = rng.uniform(0, 1, size=d)
            k = int(rng.integers(1, n + 1))
            r_idx, _ = knn_one(q, ds.features, k=k)
            idx, _ = brute_force_knn(q, ref, k)
            assert r_idx.tolist() == idx


class TestOutputProfile:
    def setup_method(self):
        self.dsel = small_dsel(n=30, seed=3)
        train, _ = scale_minmax(generate_p2(200, 1))
        self.pool = bagging(train, 4, seed=5)

    def test_length_is_m_times_l(self):
        prof = profile_of(self.pool, np.array([0.3, 0.7]))
        assert prof.shape == (4 * 2,)

    def test_blocks_sum_to_one(self):
        prof = profile_of(self.pool, np.array([0.2, 0.9]))
        blocks = prof.reshape(4, 2)
        assert np.allclose(blocks.sum(axis=1), 1.0, atol=1e-9)

    def test_single_member_on_hyperplane(self):
        from metasel.pool import ClassifierPool

        W = np.array([[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]])  # boundary x = 0
        pool = ClassifierPool(W, dist_scale=np.array([1.0]))
        prof = profile_of(pool, np.array([0.0, 3.0]))
        assert np.allclose(prof, [0.5, 0.5])

    def test_deterministic(self):
        a = profile_of(self.pool, np.array([0.4, 0.4]))
        b = profile_of(self.pool, np.array([0.4, 0.4]))
        assert np.array_equal(a, b)

    def test_precomputed_equals_on_demand(self):
        profs = MetaFeatureExtractor(self.pool, self.dsel).dsel_profiles
        for i in range(len(self.dsel)):
            assert np.allclose(profs[i], profile_of(self.pool, self.dsel.features[i]))


class TestProfileNeighborhood:
    def test_exhaustive(self):
        profs = np.random.default_rng(1).uniform(0, 1, size=(6, 4))
        idx, dist = knn_one(profs[2], profs, k=6)
        assert sorted(idx.tolist()) == list(range(6))
        assert idx[0] == 2 and dist[0] == 0.0

    def test_hand_built_four_profiles(self):
        profs = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.5, 0.5]])
        query = np.array([1.0, 0.0])
        nbh, _ = knn_one(query, profs, k=2)
        idx, _ = brute_force_knn(query, profs, 2)
        assert nbh.tolist() == idx

    def test_matches_brute_force_many(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(4, 20))
            w = int(rng.integers(2, 8))
            profs = rng.uniform(0, 1, size=(n, w))
            q = rng.uniform(0, 1, size=w)
            kp = int(rng.integers(1, n + 1))
            nbh, _ = knn_one(q, profs, k=kp)
            idx, _ = brute_force_knn(q, profs, kp)
            assert nbh.tolist() == idx


class TestBatchNeighbors:
    def test_per_query_exclusion(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0, 1, size=(10, 2))
        idx, dist = nearest_neighbors(ref, ref, k=3, exclude=np.arange(10))
        for q in range(10):
            assert q not in idx[q]
            bf, _ = brute_force_knn(ref[q], ref, 3, exclude=q)
            assert idx[q].tolist() == bf

    @settings(max_examples=60, deadline=None)
    @given(nq=st.integers(1, 25), nr=st.integers(2, 30), d=st.integers(1, 40),
           budget=st.integers(1, 400), exclude=st.booleans(), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_equals_single_block(self, nq, nr, d, budget, exclude, ties, seed):
        rng = np.random.default_rng(seed)
        points = (rng.integers(0, 3, size=(nr + nq, d)).astype(float) if ties
                  else rng.uniform(0, 1, size=(nr + nq, d)))
        ref, queries = points[:nr], points[nr:]
        excl = rng.integers(-1, nr, size=nq) if exclude else None
        k = int(rng.integers(1, nr - exclude + 1))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_blocks, "BLOCK", budget)
            idx, dist = nearest_neighbors(queries, ref, k, exclude=excl)
            m.setattr(_blocks, "BLOCK", nq * nr * d)          # one block
            idx1, dist1 = nearest_neighbors(queries, ref, k, exclude=excl)
        assert np.array_equal(idx, idx1) and np.array_equal(dist, dist1)

    def test_memory_bounded_by_block_budget(self):
        rng = np.random.default_rng(9)
        ref = rng.uniform(0, 1, size=(20_000, 50))
        queries = rng.uniform(0, 1, size=(24, 50))
        tracemalloc.start()
        try:
            idx, _ = nearest_neighbors(queries, ref, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all 24 queries at once would hold a 24 x 20000 x 50 difference
        # tensor, 192 MB; one block stays within its budgets of 8-byte values
        assert peak <= 1.25 * _blocks.WIDE * _blocks.BLOCK * 8
        assert idx.shape == (24, 7)


class TestCandidateFilter:
    """The matrix-product candidate filter must leave every result bit for bit
    that of sorting all rows."""

    @settings(max_examples=150, deadline=None)
    @given(nq=st.integers(1, 12), nr=st.integers(2, 40), d=st.integers(1, 160),
           kind=st.sampled_from(["uniform", "grid", "duplicates", "offset", "underflow"]),
           exclude=st.sampled_from(["none", "self", "mixed"]), budget=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_brute_force_for_every_k(self, nq, nr, d, kind, exclude, budget, seed):
        rng = np.random.default_rng(seed)
        if kind == "grid":          # many exact ties
            points = rng.integers(0, 3, size=(nr + nq, d)).astype(float)
        elif kind == "duplicates":  # repeated reference rows, queries among them
            base = rng.uniform(0, 1, size=(max(1, nr // 3), d))
            points = base[rng.integers(0, len(base), size=nr + nq)]
        elif kind == "offset":      # the norm expansion cancels worst far from 0
            points = 10.0 ** rng.integers(2, 9) + rng.uniform(0, 1, size=(nr + nq, d))
        elif kind == "underflow":   # squares near the subnormal range
            points = (10.0 ** -rng.uniform(159, 164)
                      * rng.integers(-4, 5, size=(nr + nq, d)).astype(float))
        else:
            points = rng.uniform(-1, 1, size=(nr + nq, d))
        ref, queries = points[:nr], points[nr:]
        excl = None
        if exclude == "self":
            queries = ref[rng.integers(0, nr, size=nq)]
            excl = rng.integers(0, nr, size=nq)
        elif exclude == "mixed":
            excl = rng.integers(-1, nr, size=nq)
        avail = nr - (excl is not None)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_blocks, "BLOCK", budget)
            for k in range(1, avail + 1):
                assert_same_as_reference(queries, ref, k, exclude=excl)

    def test_exact_ties_at_the_cutoff_keep_lower_indices(self):
        ref = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 0.0]])
        idx, dist = nearest_neighbors(np.zeros((1, 2)), ref, 2)
        assert idx.tolist() == [[0, 1]] and dist.tolist() == [[1.0, 1.0]]
        assert_same_as_reference(np.zeros((1, 2)), ref, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_tiny_and_huge_magnitudes(self):
        rng = np.random.default_rng(3)
        for scale in (1e-160, 1e-300, 1e150, 1e200):
            ref = scale * rng.uniform(0, 1, size=(30, 4))
            queries = scale * rng.uniform(0, 1, size=(5, 4))
            for k in (1, 3, 29):
                assert_same_as_reference(queries, ref, k)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_row(self, value):
        rng = np.random.default_rng(5)
        ref = rng.uniform(0, 1, size=(12, 3))
        ref[4, 1] = value
        queries = rng.uniform(0, 1, size=(6, 3))
        for k in (1, 4, 11, 12):
            assert_same_as_reference(queries, ref, k)
        assert_same_as_reference(queries, ref, 5, exclude=[4, -1, 0, 4, 11, -1])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_query(self, value):
        rng = np.random.default_rng(6)
        ref = rng.uniform(0, 1, size=(10, 3))
        queries = rng.uniform(0, 1, size=(4, 3))
        queries[2, 0] = value
        for k in (1, 3, 9):
            assert_same_as_reference(queries, ref, k)
            assert_same_as_reference(queries, ref, k, exclude=[1, -1, 2, 9])


class TestSortFreeCandidates:
    """``_candidates`` lists each query's candidates from its keep flags,
    scattered by the counts; the result must be that of sorting every row."""

    @settings(max_examples=150, deadline=None)
    @given(nq=st.integers(1, 10), nr=st.integers(2, 30), d=st.integers(1, 6),
           kind=st.sampled_from(["distinct", "ties", "duplicates", "non_finite"]),
           exclude=st.sampled_from(["none", "self", "mixed"]), budget=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_stable_sort_reference(self, nq, nr, d, kind, exclude, budget, seed):
        rng = np.random.default_rng(seed)
        if kind == "ties":            # integer grid: exact ties at the cutoff
            points = rng.integers(0, 3, size=(nr + nq, d)).astype(float)
        elif kind == "duplicates":    # repeated reference rows, queries among them
            base = rng.uniform(0, 1, size=(max(1, nr // 4), d))
            points = base[rng.integers(0, len(base), size=nr + nq)]
        else:
            points = rng.uniform(-1, 1, size=(nr + nq, d))
        if kind == "non_finite":      # a non-finite cutoff keeps every row of its query
            cells = rng.random(points.shape) < 0.1
            points[cells] = rng.choice([np.nan, np.inf, -np.inf], size=cells.sum())
        ref, queries = points[:nr], points[nr:]
        excl = None
        if exclude == "self":
            excl = rng.integers(0, nr, size=nq)
            queries = ref[excl]
        elif exclude == "mixed":
            excl = rng.integers(-1, nr, size=nq)
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(_blocks, "BLOCK", budget)
            for k in range(1, nr - (excl is not None) + 1):
                assert_same_as_reference(queries, ref, k, exclude=excl)


class TestPairBound:
    """Blocks are bounded by their (query, reference row) scores too, so a
    call's memory does not grow with the query count at low width."""

    @settings(max_examples=100, deadline=None)
    @given(nq=st.integers(1, 40), nr=st.integers(2, 30), d=st.integers(1, 3),
           budget=st.integers(1, 120), exclude=st.sampled_from(["none", "self", "mixed"]),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_stable_sort_across_pair_blocks(self, nq, nr, d, budget, exclude, ties,
                                                        seed):
        rng = np.random.default_rng(seed)
        points = (rng.integers(0, 3, size=(nr + nq, d)).astype(float) if ties
                  else rng.uniform(0, 1, size=(nr + nq, d)))
        ref, queries = points[:nr], points[nr:]
        excl = None
        if exclude == "self":
            excl = rng.integers(0, nr, size=nq)
            queries = ref[excl]
        elif exclude == "mixed":
            excl = rng.integers(-1, nr, size=nq)
        # every k up to the available rows, equal to them included, goes
        # through the one filtered path
        k = int(rng.integers(1, nr - (excl is not None) + 1))
        calls = []
        block = regions._block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_blocks, "BLOCK", budget)
            mp.setattr(regions, "_block", lambda q, *a: calls.append(len(q)) or block(q, *a))
            idx, dist = nearest_neighbors(queries, ref, k, exclude=excl)
        # at d <= 3 the budget's (query, row) pairs bound a block before its
        # WIDE budgets of differences do
        step = max(1, budget // nr)
        assert calls == [min(step, nq - lo) for lo in range(0, nq, step)]
        want_idx, want_dist = reference_knn(queries, ref, k, exclude=excl)
        assert np.array_equal(idx, want_idx)
        assert dist.tobytes() == want_dist.tobytes()

    def test_low_width_call_traces_a_few_mb(self):
        # 2 000 P2 queries against 500 rows at k = 7: one block of every
        # query held (2000, 500) scores, their partition copy and keep flags
        # at once, ~17 MB; bounded blocks hold ~0.8 MB with the results
        train, params = scale_minmax(generate_p2(500, 1))
        queries = params.apply(generate_p2(2000, 2).features)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            idx, _ = nearest_neighbors(queries, train.features, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 3e6
        assert idx.shape == (2000, 7)
