import itertools
import tracemalloc
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import bpso
from metasel.bpso import (_TRANSFERS, Archive, BpsoConfig, MaskEvaluator, Swarm,
                          init_swarm, optimize,
                          oracle_distance, step, transfer_s, transfer_v)
from metasel.metaclassifier import train_meta
from metasel.metafeatures import MetaFeatureExtractor
from metasel.data import generate_p2, scale_minmax
from metasel.pool import bagging


def make_rows(n, seed, dim=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, dim))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(float)
    return X, y


class TestTransferFunctions:
    def test_values_at_zero(self):
        assert transfer_s(0.0) == 0.5
        assert transfer_v(0.0) == 0.0

    def test_s_monotone_on_grid(self):
        grid = np.arange(-6.0, 6.0 + 1e-9, 0.1)
        vals = transfer_s(grid)
        assert (np.diff(vals) > 0).all()
        assert vals.min() > 0 and vals.max() < 1

    def test_v_symmetric(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=3, size=100)
        assert np.abs(transfer_v(x) - transfer_v(-x)).max() < 1e-12

    def test_v_increasing_in_magnitude(self):
        grid = np.arange(0.0, 6.0, 0.05)
        assert (np.diff(transfer_v(grid)) > 0).all()
        assert (transfer_v(grid) < 1.0).all()


def ideal_competence(pool, x, true_label):
    """Ideal competence (M,) of every member on one sample, from
    ``predict_batch``: 1 iff the member predicts the true label."""
    labels, _ = pool.predict_batch(np.atleast_2d(x))
    return (labels[:, 0] == true_label).astype(int)


class TestOracleCompetence:
    def test_correct_and_wrong(self):
        train, _ = scale_minmax(generate_p2(100, 0))
        pool = bagging(train, 1, bootstrap_frac=1.0, seed=1)
        labels = pool.predict_batch(train.features)[0][0]
        for j in (0, 1, 2, 3):
            assert ideal_competence(pool, train.features[j], int(labels[j])).tolist() == [1]
            wrong = 1 - int(labels[j])
            assert ideal_competence(pool, train.features[j], wrong).tolist() == [0]

    def test_equals_meta_label_definition(self):
        train, _ = scale_minmax(generate_p2(80, 5))
        pool = bagging(train, 1, bootstrap_frac=1.0, seed=2)
        labels = pool.predict_batch(train.features)[0][0]
        direct = (labels == train.labels).astype(int)
        via_op = np.array([ideal_competence(pool, x, int(t))[0]
                           for x, t in zip(train.features, train.labels)])
        assert np.array_equal(direct, via_op)
        # the extractor's meta-labels are the same ideal competences
        _, metas, _ = MetaFeatureExtractor(pool, train).extract_batch(train.features,
                                                                      train.labels)
        assert np.array_equal(metas[:, 0], direct)


class TestOracleDistance:
    def test_identical_estimates_give_zero(self):
        rng = np.random.default_rng(1)
        ideal = rng.integers(0, 2, size=200).astype(float)
        assert oracle_distance(ideal, ideal) == 0.0

    def test_hand_evaluated_case(self):
        # constant 0.5 estimate against four all-competent rows:
        # sqrt(4 * 0.25) / 4 = 0.25
        assert oracle_distance(np.full(4, 0.5), np.ones(4)) == 0.25

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            est = rng.random(30)
            ideal = rng.integers(0, 2, 30)
            assert oracle_distance(est, ideal) >= 0.0

    def test_empty_mask_is_sentinel(self):
        X, y = make_rows(40, 3)
        ev = MaskEvaluator(X, y)
        assert ev.distance(np.zeros(4, dtype=bool), X, y) == np.inf


class TestBatchedDistances:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 7), P=st.integers(1, 8),
           n_train=st.integers(2, 40), n_rows=st.integers(1, 60),
           block=st.integers(1, 25), single_class=st.booleans())
    def test_equals_per_mask_reference(self, seed, D, P, n_train, n_rows, block, single_class):
        rng = np.random.default_rng(seed)
        train = rng.normal(size=(n_train, D)) * rng.uniform(0.1, 10.0, D) + rng.normal(size=D)
        train[:, rng.random(D) < 0.2] = 1.5           # constant columns hit the std guard
        labels = (train @ rng.normal(size=D) + rng.normal(size=n_train) > 0).astype(float)
        if single_class:
            labels[:] = float(rng.integers(0, 2))
        rows = rng.normal(size=(n_rows, D)) * 2.0
        row_labels = rng.integers(0, 2, n_rows).astype(float)
        # few bits, so masks repeat within the batch; some rows are empty masks
        masks = rng.random((P, D)) < rng.choice([0.2, 0.5, 0.8])
        masks[rng.random(P) < 0.2] = False

        ev = MaskEvaluator(train, labels)
        fitted = []                     # the evaluator's fits, in call order

        def recording_train_meta(*args, **kwargs):
            fitted.append(train_meta(*args, **kwargs))
            return fitted[-1]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # blocks of `block` doubles, so a few rows each: row counts are
            # rarely a multiple of the block's rows
            with mock.patch.object(bpso, "_SCORE_BLOCK", block), \
                    mock.patch.object(bpso, "train_meta", recording_train_meta):
                got = ev.distances(masks, rows, row_labels)
                again = ev.distances(masks[::-1], rows, row_labels)
                alone = [ev.distance(m, rows, row_labels) for m in masks]
            refs = []
            for m in masks:
                if not m.any():
                    refs.append(np.inf)
                    continue
                model = train_meta(train[:, m], labels)
                refs.append(oracle_distance(model.competence_batch(rows[:, m]), row_labels))
            # one fit per distinct non-empty mask, in order of first
            # appearance (the second batch hits the cache for every mask),
            # and standardizing once leaves every fit bit for bit unchanged
            distinct = [np.frombuffer(k, dtype=bool)
                        for k in dict.fromkeys(m.tobytes() for m in masks if m.any())]
            assert len(fitted) == len(distinct)
            for fit, m in zip(fitted, distinct):
                model = train_meta(train[:, m], labels)
                assert np.array_equal(fit.weights, model.weights) and fit.bias == model.bias
                assert fit.iterations == model.iterations
                assert np.array_equal(fit.feature_mean, model.feature_mean)
                assert np.array_equal(fit.feature_std, model.feature_std)
        refs = np.array(refs)

        assert got.shape == (P,)
        assert np.array_equal(np.isinf(got), ~masks.any(axis=1))
        finite = np.isfinite(refs)
        assert np.allclose(got[finite], refs[finite], rtol=1e-12, atol=0.0)
        assert np.array_equal(again, got[::-1])
        # outside a batch, distance scores its one mask the same way
        assert np.array_equal(alone, got)

    def test_distance_called_once_per_mask(self):
        X, y = make_rows(60, 8)
        ev = MaskEvaluator(X, y)
        masks = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]], dtype=bool)
        with mock.patch.object(MaskEvaluator, "distance", autospec=True,
                               side_effect=MaskEvaluator.distance) as spy:
            got = ev.distances(masks, X, y)
        assert [call.args[1].tolist() for call in spy.call_args_list] == masks.tolist()
        assert got[0] == got[2] and got[1] == np.inf

    def test_scored_masks_are_not_scored_again(self):
        X, y = make_rows(200, 9)
        ev = MaskEvaluator(X, y)
        masks = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=bool)
        first = ev.distances(masks, X, y)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
            again = ev.distances(masks[::-1], X, y)
            assert spy.call_count == 0
            ev.distances(np.array([[1, 0, 1, 1], [1, 1, 1, 1]], dtype=bool), X, y)
            assert spy.call_count == 1          # one block, the new mask only
        assert np.array_equal(again, first[::-1])

    def test_scoring_memory_does_not_grow_with_rows(self):
        # folded weights and row blocks: no masked or standardized copy of the
        # scored rows, so 10x the rows may not raise the peak by more than
        # one block of decision values
        D = 67
        rng = np.random.default_rng(0)
        train = rng.random((400, D))
        ev = MaskEvaluator(train, (train[:, 0] + train[:, 1] > 1.0).astype(float))
        masks = rng.random((8, D)) < 0.5
        ev.distances(masks, train, ev.train_labels)     # fit the models first

        def peak(n):
            rows = rng.random((n, D))
            labels = (rows[:, 0] > 0.5).astype(float)
            tracemalloc.start()
            try:
                ev.distances(masks, rows, labels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, big = peak(20_000), peak(200_000)
        assert big - small <= bpso._SCORE_BLOCK * 8


class TestStep:
    def frozen_swarm(self, dim, velocity, seed=0):
        pos = np.zeros((1, dim), dtype=bool)
        return Swarm(position=pos.copy(), velocity=np.full((1, dim), velocity),
                     best_position=pos.copy(), best_fitness=np.zeros(1),
                     fitness=np.full(1, np.inf), gbest_position=pos[0].copy(),
                     gbest_fitness=0.0, rng=np.random.default_rng(seed))

    def test_zero_velocity_v_shaped_never_flips(self):
        swarm = self.frozen_swarm(500, 0.0)
        step(swarm, BpsoConfig(swarm_size=1, transfer="V"), lambda m: np.ones(len(m)))
        assert not swarm.position[0].any()

    def test_flip_frequency_matches_transfer(self):
        # pbest == gbest == position keeps the velocity constant, so the
        # empirical flip rate over 1e5 bits estimates T(v) directly
        for transfer, fn in (("S", transfer_s), ("V", transfer_v)):
            for v in (-1.5, 0.4, 2.0):
                swarm = self.frozen_swarm(100_000, v, seed=7)
                step(swarm, BpsoConfig(swarm_size=1, transfer=transfer),
                     lambda m: np.ones(len(m)))
                flipped = swarm.position[0].mean()
                assert abs(flipped - fn(v)) <= 0.02

    def test_pbest_never_increases(self):
        rng = np.random.default_rng(4)
        X, y = make_rows(60, 5)
        ev = MaskEvaluator(X, y)
        fit = lambda m: ev.distances(m, X, y)
        swarm = init_swarm(4, BpsoConfig(swarm_size=6), np.random.default_rng(1))
        history = []
        for _ in range(8):
            step(swarm, BpsoConfig(swarm_size=6), fit)
            history.append(swarm.best_fitness.copy())
        hist = np.array(history)
        assert (np.diff(hist, axis=0) <= 1e-15).all()

    def test_single_particle_gbest_equals_pbest(self):
        X, y = make_rows(50, 6)
        ev = MaskEvaluator(X, y)
        fit = lambda m: ev.distances(m, X, y)
        cfg = BpsoConfig(swarm_size=1)
        swarm = init_swarm(4, cfg, np.random.default_rng(2))
        for _ in range(5):
            step(swarm, cfg, fit)
        assert swarm.gbest_fitness == swarm.best_fitness[0]
        assert np.array_equal(swarm.gbest_position, swarm.best_position[0])

    def test_velocity_clamped(self):
        X, y = make_rows(50, 7)
        ev = MaskEvaluator(X, y)
        cfg = BpsoConfig(swarm_size=5, v_max=6.0)
        swarm = init_swarm(4, cfg, np.random.default_rng(3))
        for _ in range(20):
            step(swarm, cfg, lambda m: ev.distances(m, X, y))
        assert swarm.velocity.shape == (5, 4)
        assert (np.abs(swarm.velocity) <= 6.0).all()


class TestOptimize:
    def setup_method(self):
        self.Xt, self.yt = make_rows(150, 1)
        self.Xo, self.yo = make_rows(150, 2)
        self.Xv, self.yv = make_rows(150, 3)

    def exhaustive_optimum(self):
        ev = MaskEvaluator(self.Xt, self.yt)
        best_bits, best_val = None, np.inf
        for bits in itertools.product([0, 1], repeat=4):
            mask = np.array(bits, dtype=bool)
            val = ev.distance(mask, self.Xv, self.yv) if mask.any() else np.inf
            if val < best_val:
                best_bits, best_val = bits, val
        return best_bits, best_val

    def test_matches_exhaustive_search(self):
        best_bits, best_val = self.exhaustive_optimum()
        wins = 0
        for s in range(20):
            cfg = BpsoConfig(swarm_size=10, max_generations=40, stall_limit=5,
                             runs=1, seed=s)
            arch = optimize(self.Xt, self.yt, self.Xo, self.yo, self.Xv, self.yv, cfg)
            if tuple(int(b) for b in arch.mask) == best_bits:
                wins += 1
        assert wins >= 18  # >= 90% of 20 seeded runs

    def test_archive_not_beaten_by_any_validated_particle(self):
        cfg = BpsoConfig(swarm_size=8, max_generations=30, stall_limit=5, runs=2, seed=5)
        arch = optimize(self.Xt, self.yt, self.Xo, self.yo, self.Xv, self.yv, cfg)
        assert len(arch.audit) > 0
        assert arch.validation_fitness <= min(arch.audit) + 1e-15

    def test_archive_beats_final_gbest_on_validation(self):
        ev = MaskEvaluator(self.Xt, self.yt)
        cfg = BpsoConfig(swarm_size=10, max_generations=40, stall_limit=5, runs=1, seed=3)
        arch = optimize(self.Xt, self.yt, self.Xo, self.yo, self.Xv, self.yv, cfg)
        # rebuild the swarm trajectory to recover the final swarm best
        swarm = init_swarm(4, cfg, np.random.default_rng([cfg.seed, 0]))
        for _ in range(len(arch.trace)):
            step(swarm, cfg, lambda m: ev.distances(m, self.Xo, self.yo))
        gbest_val = ev.distance(swarm.gbest_position, self.Xv, self.yv)
        assert arch.validation_fitness <= gbest_val + 1e-15

    def test_deterministic(self):
        cfg = BpsoConfig(swarm_size=8, max_generations=20, stall_limit=5, runs=2, seed=11)
        a = optimize(self.Xt, self.yt, self.Xo, self.yo, self.Xv, self.yv, cfg)
        b = optimize(self.Xt, self.yt, self.Xo, self.yo, self.Xv, self.yv, cfg)
        assert np.array_equal(a.mask, b.mask)
        assert a.validation_fitness == b.validation_fitness

    def test_trace_columns(self):
        cfg = BpsoConfig(swarm_size=5, max_generations=15, stall_limit=5, runs=2, seed=2)
        arch = optimize(self.Xt, self.yt, self.Xo, self.yo, self.Xv, self.yv, cfg)
        runs = {row[0] for row in arch.trace}
        assert runs == {0, 1}
        gens = [row[1] for row in arch.trace if row[0] == 0]
        assert gens == list(range(1, len(gens) + 1))


class TestStallRule:
    def test_constant_fitness_runs_stall_plus_one_generations(self):
        calls = {"n": 0}

        def const_fit(masks):
            calls["n"] += 1
            return np.ones(len(masks))

        cfg = BpsoConfig(swarm_size=3, max_generations=100, stall_limit=5, runs=1, seed=0)
        swarm = init_swarm(6, cfg, np.random.default_rng(0))
        generations = 0
        stall = 0
        for _ in range(cfg.max_generations):
            improved = step(swarm, cfg, const_fit)
            generations += 1
            stall = 0 if improved else stall + 1
            if stall >= cfg.stall_limit:
                break
        assert generations == cfg.stall_limit + 1
        assert calls["n"] == generations      # one batch call per generation

    def test_optimize_trace_shows_stall_plus_one(self):
        # a constant fitness landscape: single-feature rows make every
        # non-empty mask identical, and empty masks are sentinels
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(40, 1))
        y = (X[:, 0] > 0.5).astype(float)
        cfg = BpsoConfig(swarm_size=4, max_generations=50, stall_limit=5, runs=1, seed=4)
        arch = optimize(X, y, X, y, X, y, cfg)
        assert len(arch.trace) == cfg.stall_limit + 1


# -- the per-particle swarm the array swarm replaced, kept as reference -------

@dataclass
class RefParticle:
    position: np.ndarray
    velocity: np.ndarray
    best_position: np.ndarray
    best_fitness: float = np.inf
    fitness: float = np.inf


@dataclass
class RefSwarm:
    particles: list
    gbest_position: np.ndarray
    gbest_fitness: float = np.inf
    rng: np.random.Generator = None


def ref_init_swarm(dim, config, rng):
    particles = []
    for _ in range(config.swarm_size):
        pos = rng.random(dim) < 0.5
        particles.append(RefParticle(position=pos, velocity=np.zeros(dim),
                                     best_position=pos.copy()))
    return RefSwarm(particles=particles, gbest_position=particles[0].position.copy(),
                    rng=rng)


def ref_step(swarm, config, fitness_fn):
    rng = swarm.rng
    transfer = _TRANSFERS[config.transfer]
    improved = False
    for part in swarm.particles:
        part.fitness = fitness_fn(part.position)
        if part.fitness < part.best_fitness:
            part.best_fitness = part.fitness
            part.best_position = part.position.copy()
        if part.fitness < swarm.gbest_fitness:
            swarm.gbest_fitness = part.fitness
            swarm.gbest_position = part.position.copy()
            improved = True
    for part in swarm.particles:
        pos = part.position.astype(float)
        r1 = rng.random(len(pos))
        r2 = rng.random(len(pos))
        part.velocity = (config.inertia * part.velocity
                         + config.c1 * r1 * (part.best_position.astype(float) - pos)
                         + config.c2 * r2 * (swarm.gbest_position.astype(float) - pos))
        np.clip(part.velocity, -config.v_max, config.v_max, out=part.velocity)
        flip = rng.random(len(pos)) < transfer(part.velocity)
        part.position = np.where(flip, ~part.position, part.position)
    return improved


def assert_same_swarm(swarm, ref):
    parts = ref.particles
    assert np.array_equal(swarm.position, [p.position for p in parts])
    assert np.array_equal(swarm.velocity, [p.velocity for p in parts])
    assert np.array_equal(swarm.best_position, [p.best_position for p in parts])
    assert np.array_equal(swarm.best_fitness, [p.best_fitness for p in parts])
    assert np.array_equal(swarm.fitness, [p.fitness for p in parts])
    assert np.array_equal(swarm.gbest_position, ref.gbest_position)
    assert swarm.gbest_fitness == ref.gbest_fitness


class TestAgainstPerParticleReference:
    @settings(max_examples=80, deadline=None)
    @given(P=st.integers(1, 8), D=st.integers(1, 12), transfer=st.sampled_from("SV"),
           v_max=st.sampled_from([0.5, 2.0, 6.0]), seed=st.integers(0, 2**32 - 1),
           coefs=st.sampled_from([(1.0, 2.0, 2.0), (0.9, 1.7, 1.3)]))
    def test_bit_equal_over_generations(self, P, D, transfer, v_max, seed, coefs):
        # next to the defaults, coefficients that are not powers of two, so
        # every term of the velocity update rounds
        inertia, c1, c2 = coefs
        cfg = BpsoConfig(swarm_size=P, transfer=transfer, v_max=v_max,
                         inertia=inertia, c1=c1, c2=c2)
        weights = np.random.default_rng([seed, 1]).integers(0, 3, D)

        def fit(mask):
            # few distinct values, so particles tie; empty masks are sentinels
            return float((weights @ mask) % 3) if mask.any() else np.inf

        def recording_fit(calls):
            def one(mask):
                calls.append(mask.tobytes())
                return fit(mask)
            return one

        def recording_batch_fit(calls):
            def batch(masks):
                calls.append(masks.shape)
                calls.extend(mask.tobytes() for mask in masks)
                return [fit(mask) for mask in masks]
            return batch

        calls, ref_calls = [], []
        swarm = init_swarm(D, cfg, np.random.default_rng(seed))
        ref = ref_init_swarm(D, cfg, np.random.default_rng(seed))
        assert np.array_equal(swarm.position, [p.position for p in ref.particles])
        for _ in range(6):
            ref_calls.append((P, D))
            improved = step(swarm, cfg, recording_batch_fit(calls))
            assert improved == ref_step(ref, cfg, recording_fit(ref_calls))
            assert_same_swarm(swarm, ref)
        # one (P, D) batch per generation, holding the particles in row order
        assert calls == ref_calls

    def test_all_empty_masks_keep_first_row_as_gbest(self):
        # every fitness inf: neither reference nor array swarm may move gbest
        cfg = BpsoConfig(swarm_size=4)
        swarm = init_swarm(5, cfg, np.random.default_rng(3))
        ref = ref_init_swarm(5, cfg, np.random.default_rng(3))
        for _ in range(3):
            assert not step(swarm, cfg, lambda m: np.full(len(m), np.inf))
            assert not ref_step(ref, cfg, lambda m: np.inf)
            assert_same_swarm(swarm, ref)
