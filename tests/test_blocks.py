"""The block sizes the default working-set budget (``metasel._blocks``)
gives at the benchmark's shapes. A retune of the budget, or of what a site
counts per item, must show here. How ``pieces`` slices items is held in
``test_metafeatures`` (through ``query_blocks``), and the bagging groups
the budget sizes in ``test_experiment`` (one P2 replication at pool 100,
36 of a bundled CSV at pool 10)."""

import sys
from unittest import mock

import numpy as np
import pytest

from metasel import _blocks, bpso, metafeatures, regions
from metasel.bpso import MaskEvaluator
from metasel.data import Dataset
from metasel.engine import oracle_accuracy
from metasel.metaclassifier import sigmoid
from metasel.metafeatures import MetaFeatureExtractor, meta_dataset_to_csv
from metasel.pool import ClassifierPool
from metasel.regions import nearest_neighbors


def block_steps(run):
    """{function: block size of each call} of every block list ``run()``
    asks ``_blocks.pieces`` for, keyed by the function that asked, and the
    k-NN's largest block, keyed by the reference rows' width."""
    seen, knn = {}, {}
    pieces, knn_block = _blocks.pieces, regions._block

    def pieces_spy(n, per_item, budgets=1):
        step = _blocks.items(per_item, budgets)
        seen.setdefault(sys._getframe(1).f_code.co_name, []).append(step)
        return pieces(n, per_item, budgets)

    def knn_spy(q, reference, *args):
        width = reference.shape[1]
        knn[width] = max(knn.get(width, 0), len(q))
        return knn_block(q, reference, *args)

    with mock.patch.object(_blocks, "pieces", pieces_spy), \
            mock.patch.object(regions, "_block", knn_spy):
        run()
    return seen, knn


# M members, N reference rows, test samples; the sizes through ``pieces``;
# the k-NN's queries a block in feature space (width 2) and profile space
# (width M*L)
SHAPES = {
    "p2_pool_100": ((100, 500, 2_000), {
        "query_blocks": {272},
        "oracle_accuracy": {163},
        # the families gathered over K neighbours, and op (Kp = 5)
        "put_gathered": {46, 65},
        "rrc_competence": {1 << 13},
        "_rrc_quadrature": {135},
        "meta_dataset_to_csv": {468},
        "nearest_neighbors": {65, 20},
    }, {2: 65, 200: 20}),
    "bundled_pool_10": ((10, 120, 400), {
        "query_blocks": {2_304},
        "oracle_accuracy": {1_638},
        "put_gathered": {468, 655},
        "rrc_competence": {1 << 13},
        "_rrc_quadrature": {135},
        "meta_dataset_to_csv": {468},
        "nearest_neighbors": {273},
    }, {2: 273, 20: 273}),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_default_budget_gives_the_pinned_sizes(shape, tmp_path):
    (M, N, n_test), want, want_knn = SHAPES[shape]
    rng = np.random.default_rng(0)
    pool = ClassifierPool(rng.normal(size=(M, 2, 3)), rng.uniform(0.5, 2.0, size=M))
    dsel = Dataset(rng.uniform(size=(N, 2)), rng.integers(0, 2, size=N), 2)
    test = Dataset(rng.uniform(size=(n_test, 2)), rng.integers(0, 2, size=n_test), 2)

    def run():
        ex = MetaFeatureExtractor(pool, dsel)
        first = ex.query_blocks(N)[0]
        ex.extract_batch(dsel.features[first], dsel.labels[first],
                         self_indices=np.arange(N)[first])
        _, supports = pool.predict_batch(test.features)
        nearest_neighbors(test.features, dsel.features, 7)
        nearest_neighbors(supports.transpose(1, 0, 2).reshape(n_test, -1), ex.dsel_profiles, 5)
        oracle_accuracy(pool, test)
        metafeatures._rrc_quadrature(np.full((3, 2), 0.5), np.zeros(3, dtype=int))
        meta_dataset_to_csv(ex.build_meta_dataset(test.features[:3], test.labels[:3]),
                            tmp_path / "meta.csv")

    calls, knn = block_steps(run)
    got = {name: set(steps) for name, steps in calls.items()}
    rank = got.pop("_rank")
    # the rank scan's first segment is the K = 7 rows of the region of
    # competence; no piece holds more than one budget of flags
    assert (1 << 15) // 7 in rank and rank <= {(1 << 15) // w for w in range(1, N + 1)}
    assert got == want
    assert knn == want_knn


def test_both_extraction_modes_gather_every_family_in_pieces():
    # the eight region tables, overall, cond (K = 7) and op (Kp = 5) each
    # ask for one block list at P2 pool 100, with or without weights, and
    # the k-NN slices its queries the same way
    rng = np.random.default_rng(2)
    pool = ClassifierPool(rng.normal(size=(100, 2, 3)), rng.uniform(0.5, 2.0, size=100))
    dsel = Dataset(rng.uniform(size=(500, 2)), rng.integers(0, 2, size=500), 2)
    ex = MetaFeatureExtractor(pool, dsel)
    X = rng.uniform(size=(272, 2))
    for weights in (None, rng.normal(size=ex.layout.size)):
        calls, _ = block_steps(lambda: ex.extract_batch(X, weights=weights))
        assert sorted(calls.pop("put_gathered")) == [46] * 10 + [65]
        # the k-NN in feature space (2 wide) and in profile space (200 wide)
        assert set(calls.pop("nearest_neighbors")) == {65, 20}
        assert calls.keys() == {"_rank"}


@pytest.mark.parametrize("own, bits", [(True, "all"), (False, "rank")])
def test_rank_scan_asks_for_the_region_then_doubles_for_open_queries(own, bits):
    # P2 pool 100: an extraction block's first feature-space k-NN call is
    # the region of competence (K = 7); each later one, the rank scan's,
    # asks only for the queries with a pair still open, at twice the width,
    # up to every available row: member 0 errs on one corner row alone
    rng = np.random.default_rng(0)
    pool = ClassifierPool(rng.normal(size=(100, 2, 3)), rng.uniform(0.5, 2.0, size=100))
    features = rng.uniform(size=(500, 2))
    labels = pool.predict_batch(features)[0][0]
    labels[features.sum(axis=1).argmax()] ^= 1
    dsel = Dataset(features, labels, 2)
    ex = MetaFeatureExtractor(pool, dsel)
    blk = ex.query_blocks(len(dsel))[0]
    self_indices = np.arange(len(dsel))[blk] if own else None
    X = dsel.features[blk] if own else rng.uniform(size=(blk.stop - blk.start, 2))
    mask = np.zeros(ex.layout.size, dtype=bool)
    mask[ex.layout.slice_of("rank") if bits == "rank" else slice(None)] = True
    calls = []

    def spy(queries, reference, k, exclude=None):
        if reference is dsel.features:
            calls.append((queries, k, exclude))
        return nearest_neighbors(queries, reference, k, exclude=exclude)

    with mock.patch.object(metafeatures, "nearest_neighbors", spy):
        feats, _, _ = ex.extract_batch(X, self_indices=self_indices, mask=mask)
    rank = feats[:, :, ex.layout.slice_of("rank")][:, :, 0]
    erring = (~ex.dsel_correct).any(axis=1)
    avail = len(dsel) - own
    want, width, queries = [], 7, np.arange(len(X))
    while queries.size:
        want.append((queries, width))
        if width == avail:
            break
        # a pair of an erring member is open past ``width`` positions
        # while its rank is at least ``width``
        queries = np.flatnonzero((rank[:, erring] >= width).any(axis=1))
        width = min(2 * width, avail)
    assert want[-1][1] == avail and len(calls) == len(want)
    for (got_q, got_k, got_excl), (q, k) in zip(calls, want):
        assert got_k == k and np.array_equal(got_q, X[q])
        assert (got_excl is None) if not own else np.array_equal(got_excl, self_indices[q])


def test_default_budget_scores_489_rows_a_block():
    # a search's meta-feature width and swarm: 2^15 // 67 rows
    rng = np.random.default_rng(1)
    ev = MaskEvaluator(rng.random((100, 67)), (rng.random(100) < 0.5).astype(float))
    with mock.patch.object(bpso, "sigmoid", side_effect=sigmoid) as scored:
        ev.distances(rng.random((20, 67)) < 0.5, rng.random((1_000, 67)),
                     (rng.random(1_000) < 0.5).astype(float))
    assert [len(call.args[0]) for call in scored.call_args_list] == [489, 489, 22]
