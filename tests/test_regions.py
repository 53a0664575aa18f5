import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import regions
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


def reference_knn(queries, reference, k, exclude=None, block=regions._KNN_BLOCK):
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
           block=st.integers(1, 3000), exclude=st.booleans(), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_equals_single_block(self, nq, nr, d, block, exclude, ties, seed):
        rng = np.random.default_rng(seed)
        points = (rng.integers(0, 3, size=(nr + nq, d)).astype(float) if ties
                  else rng.uniform(0, 1, size=(nr + nq, d)))
        ref, queries = points[:nr], points[nr:]
        excl = rng.integers(-1, nr, size=nq) if exclude else None
        k = int(rng.integers(1, nr - exclude + 1))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(regions, "_KNN_BLOCK", block)
            idx, dist = nearest_neighbors(queries, ref, k, exclude=excl)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(regions, "_KNN_BLOCK", nq * nr * d)
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
        # tensor, 192 MB; one block stays within the budget of 8-byte values
        assert peak <= 1.25 * regions._KNN_BLOCK * 8
        assert idx.shape == (24, 7)


class TestCandidateFilter:
    """The matrix-product candidate filter must leave every result bit for bit
    that of sorting all rows."""

    @settings(max_examples=150, deadline=None)
    @given(nq=st.integers(1, 12), nr=st.integers(2, 40), d=st.integers(1, 160),
           kind=st.sampled_from(["uniform", "grid", "duplicates", "offset", "underflow"]),
           exclude=st.sampled_from(["none", "self", "mixed"]), block=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_brute_force_for_every_k(self, nq, nr, d, kind, exclude, block, seed):
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
            m.setattr(regions, "_KNN_BLOCK", block)
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
