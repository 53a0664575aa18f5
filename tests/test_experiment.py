import dataclasses
import json
import os
import pickle
import re
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel import _blocks, engine, experiment
from metasel.bpso import BpsoConfig
from metasel.data import Dataset, ScaleParams, SplitSpec, generate_p2, scale_minmax
from metasel.datasets import BUNDLED, dataset_path
from metasel.engine import DesModel, classify_batch
from metasel.experiment import (DataSource, ExperimentConfig, FRAMEWORK_METHOD,
                                MODEL_ARRAYS, MODEL_HEADER, MODEL_VERSION, SCALE_ARRAYS,
                                ModelFormatError, PoolConfig, _mean_ranks,
                                frequency_band, frequency_report, load_model,
                                run_experiment, save_model, train_des,
                                write_report_csvs)
from metasel.metaclassifier import MetaClassifier
from metasel.metafeatures import FeatureLayout, MetaFeatureExtractor
from metasel.pool import ClassifierPool, bagging


def small_p2_config(seed=3, replications=1):
    return ExperimentConfig(
        source=DataSource(kind="p2", p2_sizes=(150, 150, 150, 200)),
        pool=PoolConfig(size=4),
        bpso=BpsoConfig(swarm_size=6, max_generations=10, stall_limit=3, runs=1),
        replications=replications,
        methods=(FRAMEWORK_METHOD, "single_best", "majority_vote", "oracle"),
        seed=seed,
    )


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_p2_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.source.p2_sizes == cfg.source.p2_sizes
        assert again.bpso.swarm_size == cfg.bpso.swarm_size
        assert again.methods == cfg.methods
        assert again.seed == cfg.seed

    def test_unknown_section_key_named(self):
        for raw, key in (({"bpso": {"swarmsize": 3}}, "bpso.swarmsize"),
                         ({"pool": {"size": 3, "sise": 4}}, "pool.sise"),
                         ({"source": {"split": {"trainfrac": 0.5}}}, "source.split.trainfrac")):
            with pytest.raises(ValueError, match=key.replace(".", r"\.")):
                ExperimentConfig.from_dict(raw)
        with pytest.raises(ValueError, match="section bpso must be an object"):
            ExperimentConfig.from_dict({"bpso": 3})
        # the whole config is a section too
        for raw, kind in (([1, 2], "list"), ("hello", "str")):
            with pytest.raises(ValueError, match=f"config must be a JSON object, got {kind}$"):
                ExperimentConfig.from_dict(raw)
        # unknown top-level keys (rrc_samples and the selector's meta section
        # from older configs) stay ignored
        cfg = ExperimentConfig.from_dict({"rrc_samples": 150, "meta": {"l2": "x", "max_iter": 0},
                                          "bpso": {"swarm_size": 3}})
        assert cfg.bpso.swarm_size == 3

    def test_unknown_source_key_named(self):
        with pytest.raises(ValueError, match=r"unknown config key source\.p2_size$"):
            ExperimentConfig.from_dict({"source": {"kind": "p2", "p2_size": [60, 60, 60, 60]}})
        with pytest.raises(ValueError, match="section source must be an object"):
            ExperimentConfig.from_dict({"source": [60, 60]})
        cfg = ExperimentConfig.from_dict({"source": {"kind": "p2", "p2_sizes": [60, 61, 62, 63],
                                                     "split": {"seed": 4}}})
        assert cfg.source.p2_sizes == (60, 61, 62, 63)
        assert cfg.source.split.seed == 4 and cfg.source.path is None

    def test_wrong_typed_value_named(self):
        for raw, key in (({"bpso": {"swarm_size": "3"}}, "bpso.swarm_size"),
                         ({"bpso": {"runs": 2.0}}, "bpso.runs"),
                         ({"bpso": {"seed": True}}, "bpso.seed"),
                         ({"bpso": {"transfer": 1}}, "bpso.transfer"),
                         ({"pool": {"lr": "0.1"}}, "pool.lr"),
                         ({"source": {"p2_sizes": 500}}, "source.p2_sizes"),
                         ({"source": {"path": 3}}, "source.path"),
                         ({"source": {"split": {"seed": 0.5}}}, "source.split.seed"),
                         ({"k": "7"}, "k"),
                         ({"selection_threshold": None}, "selection_threshold"),
                         ({"methods": "ola"}, "methods")):
            with pytest.raises(ValueError, match=r"config key " + key.replace(".", r"\.") + " must be"):
                ExperimentConfig.from_dict(raw)
        # an integer is a number; a null path is allowed
        cfg = ExperimentConfig.from_dict({"bpso": {"inertia": 1, "v_max": 4.5},
                                          "source": {"path": None},
                                          "consensus_threshold": 1, "methods": ["ola"]})
        assert cfg.bpso.inertia == 1 and cfg.bpso.v_max == 4.5
        assert cfg.consensus_threshold == 1 and cfg.methods == ("ola",)
        # unknown top-level keys stay ignored, whatever their type
        assert ExperimentConfig.from_dict({"rrc_samples": "150"}).bpso.swarm_size == 20

    @pytest.mark.parametrize("raw,key", [
        ({"k": 0}, "k"), ({"kp": -1}, "kp"),
        ({"consensus_threshold": 1.5}, "consensus_threshold"),
        ({"consensus_threshold": -0.1}, "consensus_threshold"),
        ({"selection_threshold": 1.0}, "selection_threshold"),
        ({"replications": 0}, "replications"),
        ({"pool": {"size": 0}}, "pool.size"),
        ({"pool": {"bootstrap_frac": 0.0}}, "pool.bootstrap_frac"),
        ({"pool": {"bootstrap_frac": 1.5}}, "pool.bootstrap_frac"),
        ({"pool": {"epochs": 0}}, "pool.epochs"),
        ({"pool": {"lr": 0.0}}, "pool.lr"),
        ({"source": {"p2_sizes": [60, 60, 60]}}, "source.p2_sizes"),
        ({"source": {"p2_sizes": [60, 0, 60, 60]}}, "source.p2_sizes"),
        ({"source": {"p2_sizes": [60, 60.5, 60, 60]}}, "source.p2_sizes"),
        ({"bpso": {"runs": 0}}, "runs"),
        ({"bpso": {"inertia": float("nan")}}, "inertia, accelerations and v_max"),
        ({"source": {"kind": "p3"}}, "source.kind"),
        ({"source": {"kind": "csv"}}, "source.path"),
        ({"source": {"kind": "p2", "split": {"train_frac": 7}}}, "split fractions"),
        ({"source": {"p2_sizes": [60, 60, 6, 60]}}, "source.p2_sizes[2]"),
        ({"k": 3, "kp": 9, "source": {"p2_sizes": [60, 60, 8, 60]}}, "source.p2_sizes[2]"),
        ({"seed": -1}, "seed"),
    ])
    def test_out_of_range_value_named(self, raw, key):
        with pytest.raises(ValueError, match=re.escape(key) + " must be"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("raw,message", [
        ({"methods": []}, "methods is empty; expected one of meta_des_oracle, ola"),
        ({"methods": ["ola", "nope"]}, "unknown method 'nope'; expected one of meta_des_oracle, "),
        ({"methods": ["ola", "lca", "ola"]}, "methods names 'ola' twice"),
        ({"reference_method": "bogus"}, "unknown method 'bogus'; expected one of meta_des_oracle, "),
    ], ids=["empty", "unknown", "repeated", "reference"])
    def test_method_names_checked(self, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(raw)
        cfg = ExperimentConfig()
        for key, value in raw.items():
            setattr(cfg, key, tuple(value) if key == "methods" else value)
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg.validate()

    def test_known_methods_accepted(self):
        cfg = ExperimentConfig.from_dict({"methods": ["oracle", "ola"],
                                          "reference_method": "ola"})
        assert cfg.methods == ("oracle", "ola") and cfg.reference_method == "ola"
        # the reference need not be among the methods (no win-tie-loss then)
        assert ExperimentConfig.from_dict({"methods": ["ola"]}).reference_method == FRAMEWORK_METHOD

    def test_range_limits_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "k": 1, "kp": 1, "consensus_threshold": 1, "selection_threshold": 0,
            "replications": 1, "pool": {"size": 1, "bootstrap_frac": 1, "epochs": 1, "lr": 1e-9},
            "source": {"p2_sizes": [1, 1, 2, 1]}})
        assert cfg.consensus_threshold == 1 and cfg.pool.bootstrap_frac == 1
        with pytest.raises(ValueError, match="consensus_threshold"):
            ExperimentConfig.from_dict({"consensus_threshold": float("nan")})
        # NaN is out of range wherever it stands, in the swarm's settings too
        with pytest.raises(ValueError, match="v_max must be positive"):
            BpsoConfig(inertia=float("nan")).validate()
        with pytest.raises(ValueError, match="v_max must be positive"):
            ExperimentConfig.from_json('{"bpso": {"c1": NaN}}')

    def test_defaults_mirror_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.k == 7 and cfg.kp == 5
        assert cfg.consensus_threshold == 0.7
        assert cfg.selection_threshold == 0.5
        assert cfg.pool.size == 100 and cfg.pool.bootstrap_frac == 0.5
        assert cfg.bpso.swarm_size == 20 and cfg.bpso.max_generations == 100
        assert cfg.bpso.c1 == 2.0 and cfg.bpso.c2 == 2.0 and cfg.bpso.inertia == 1.0
        assert cfg.bpso.stall_limit == 5 and cfg.bpso.runs == 30
        assert cfg.replications == 20
        assert abs(cfg.source.split.train_frac - 0.5) < 1e-12
        assert abs(cfg.source.split.dsel_frac - 0.25) < 1e-12


class TestTrainDes:
    def test_model_pieces(self):
        cfg = small_p2_config()
        train = generate_p2(150, 1)
        meta = generate_p2(150, 2)
        dsel = generate_p2(150, 3)
        model, archive, info = train_des(train, meta, dsel, cfg, (cfg.seed, 0))
        assert model.mask.sum() >= 1
        assert archive.validation_fitness < np.inf
        assert info["kept_meta_samples"] >= 1
        # the selector scores every meta-feature, with zero weight off the mask
        assert model.meta.input_dim == model.mask.size
        assert not model.meta.weights[~model.mask].any()

    def test_deterministic(self):
        cfg = small_p2_config()
        args = (generate_p2(150, 1), generate_p2(150, 2), generate_p2(150, 3))
        a, _, _ = train_des(*args, cfg, (cfg.seed, 0))
        b, _, _ = train_des(*args, cfg, (cfg.seed, 0))
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.meta.weights, b.meta.weights)

    def test_config_validated_before_bagging(self, monkeypatch):
        calls = []
        monkeypatch.setattr("metasel.experiment.bagging",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="config key k must be >= 1"):
            train_des(generate_p2(100, 1), generate_p2(100, 2), generate_p2(100, 3),
                      ExperimentConfig(k=-3, pool=PoolConfig(size=5)))
        assert calls == []

    def test_given_pool_is_the_bagged_one(self):
        cfg = small_p2_config()
        train, meta, dsel = generate_p2(150, 1), generate_p2(150, 2), generate_p2(150, 3)
        a, archive_a, _ = train_des(train, meta, dsel, cfg, (cfg.seed, 0))
        pool = bagging(scale_minmax(train)[0], cfg.pool.size,
                       seed=experiment._derive_int(cfg.seed, 0, 20))
        with mock.patch.object(experiment, "bagging", side_effect=AssertionError):
            b, archive_b, _ = train_des(train, meta, dsel, cfg, (cfg.seed, 0), pool=pool)
        assert b.pool is pool
        assert a.pool.weights.tobytes() == pool.weights.tobytes()
        assert np.array_equal(a.mask, b.mask) and archive_a.trace == archive_b.trace

    def test_replications_pass_the_pool_and_scale_train_des_fits(self):
        # run_experiment scales each train split once, to bag, and hands
        # train_des that pool and scale: they must be the ones train_des
        # bags and fits on its own, and train_des must not scale again
        cfg = small_p2_config(seed=3, replications=2)
        for r, (train, meta, dsel, _), pool, scale in experiment._replications(cfg):
            alone, archive_a, info_a = train_des(train, meta, dsel, cfg, (cfg.seed, r))
            with mock.patch.object(experiment, "bagging", side_effect=AssertionError), \
                    mock.patch.object(experiment, "scale_minmax", side_effect=AssertionError):
                given_, archive_b, info_b = train_des(train, meta, dsel, cfg, (cfg.seed, r),
                                                      pool=pool, scale=scale)
            assert given_.pool is pool and given_.scale is scale
            assert alone.pool.weights.tobytes() == pool.weights.tobytes()
            assert alone.pool.dist_scale.tobytes() == pool.dist_scale.tobytes()
            assert alone.scale.col_min.tobytes() == scale.col_min.tobytes()
            assert alone.scale.col_max.tobytes() == scale.col_max.tobytes()
            assert np.array_equal(alone.mask, given_.mask)
            assert archive_a.trace == archive_b.trace
            assert alone.meta.weights.tobytes() == given_.meta.weights.tobytes()
            assert (info_a["meta_dataset"].rows.tobytes()
                    == info_b["meta_dataset"].rows.tobytes())

    def test_given_scale_without_pool_bags_the_split_it_scales(self):
        cfg = small_p2_config()
        train, meta, dsel = generate_p2(150, 1), generate_p2(150, 2), generate_p2(150, 3)
        a, _, _ = train_des(train, meta, dsel, cfg, (cfg.seed, 0))
        scale = scale_minmax(train)[1]
        with mock.patch.object(experiment, "scale_minmax", side_effect=AssertionError):
            b, _, _ = train_des(train, meta, dsel, cfg, (cfg.seed, 0), scale=scale)
        assert a.pool.weights.tobytes() == b.pool.weights.tobytes()
        assert np.array_equal(a.mask, b.mask)
        assert a.meta.weights.tobytes() == b.meta.weights.tobytes()

    def test_scale_of_another_width_rejected(self):
        cfg = small_p2_config()
        train, meta, dsel = generate_p2(60, 1), generate_p2(60, 2), generate_p2(60, 3)
        for width in (1, 3):
            scale = ScaleParams(np.zeros(width), np.ones(width))
            with pytest.raises(ValueError, match="scale of .* for a train split"):
                train_des(train, meta, dsel, cfg, (cfg.seed, 0), scale=scale)

    def test_pool_of_another_shape_rejected(self):
        cfg = small_p2_config()
        train, meta, dsel = generate_p2(60, 1), generate_p2(60, 2), generate_p2(60, 3)
        rng = np.random.default_rng(0)
        for L, d in ((3, 2), (2, 3)):
            pool = ClassifierPool(rng.normal(size=(4, L, d + 1)), np.ones(4))
            with pytest.raises(ValueError, match="pool of .* for a train split"):
                train_des(train, meta, dsel, cfg, (cfg.seed, 0), pool=pool)

    def test_search_halves_are_views_of_the_meta_rows(self, monkeypatch):
        cfg = small_p2_config()
        train, meta, dsel = generate_p2(150, 1), generate_p2(150, 2), generate_p2(150, 3)
        calls = []

        def spy(*args):
            calls.append(args)
            return search(*args)

        search = experiment.optimize
        monkeypatch.setattr(experiment, "optimize", spy)
        model, _, info = train_des(train, meta, dsel, cfg, (cfg.seed, 0))
        meta_data = info["meta_dataset"]
        [args] = calls
        for a in args[:4]:
            assert np.shares_memory(a, meta_data.labels if a.ndim == 1 else meta_data.rows)

        # the meta-dataset, read after the search, is a fresh build of the
        # kept samples in the halving's order
        scaled = model.scale.apply_dataset(meta)
        keep = engine.consensus_keep(model.pool.predict_batch(scaled.features)[0],
                                     scaled.labels, cfg.consensus_threshold)
        idx = np.flatnonzero(keep)
        idx = idx[np.random.default_rng([cfg.seed, 0, 30]).permutation(len(idx))]
        fresh = model.extractor.build_meta_dataset(scaled.features[idx], scaled.labels[idx],
                                                   sample_ids=idx)
        for name in ("rows", "labels", "sample_ids", "classifier_ids"):
            assert getattr(meta_data, name).tobytes() == getattr(fresh, name).tobytes()
        # the search's halves are its first n // 2 samples' rows and the rest
        cut = len(idx) // 2 * len(model.pool)
        for got, want in zip(args[:4], (fresh.rows[:cut], fresh.labels[:cut],
                                        fresh.rows[cut:], fresh.labels[cut:])):
            assert got.tobytes() == want.tobytes()

    def test_transient_memory_below_one_meta_dataset(self):
        # beyond what it returns, train_des needs less memory than one
        # meta-dataset's rows: the search's halves are views, not copies
        # (copies read ~1.2x here). The reference split is half the size of
        # the others: the extractor's transients, mostly its neighbour
        # searches' (queries, reference rows) arrays, grow with it and read
        # ~0.95x at 120 reference rows.
        cfg = ExperimentConfig(pool=PoolConfig(size=20),
                               bpso=BpsoConfig(swarm_size=6, max_generations=3, stall_limit=3,
                                               runs=1))
        args = (generate_p2(120, 1), generate_p2(120, 2), generate_p2(60, 3))
        train_des(*args, cfg, (cfg.seed, 0))    # one-time tables built outside
        tracemalloc.start()
        try:
            _, _, info = train_des(*args, cfg, (cfg.seed, 0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < info["meta_dataset"].rows.nbytes

    def test_consensus_fallbacks_warn(self):
        # a threshold of 0 removes every sample of both splits
        cfg = dataclasses.replace(small_p2_config(), consensus_threshold=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, info = train_des(generate_p2(150, 1), generate_p2(150, 2),
                                   generate_p2(150, 3), cfg, (cfg.seed, 0))
        messages = {str(w.message) for w in caught if w.category is RuntimeWarning}
        assert {"consensus filter removed every meta-training sample; keeping all of them",
                "consensus filter removed every reference sample; keeping all of them"} <= messages
        assert info["kept_meta_samples"] == info["kept_dsel_samples"] == 150


def run_counted(cfg, alone=False):
    """run_experiment's report with the bagging and CSV-reading calls it made;
    with ``alone``, each replication is a replication group of its own. Only
    ``experiment``'s reference to the budget module is replaced, so every
    other loop, the mask search's included, keeps the real budget."""
    bag = mock.Mock(side_effect=experiment.bagging)
    read = mock.Mock(side_effect=experiment.load_csv)
    blocks = (SimpleNamespace(pieces=lambda n, *a, **k: [slice(r, r + 1) for r in range(n)])
              if alone else _blocks)
    with mock.patch.multiple(experiment, bagging=bag, load_csv=read, _blocks=blocks):
        report = run_experiment(cfg)
    return report, bag.call_count, read.call_count


def bagged_groups(cfg, budget=None):
    """The size of each replication group ``_replications`` bags, under the
    working-set budget ``budget`` (the default when None); no pool is
    trained."""
    groups = []
    bag = lambda trains, pool_config, seeds: groups.append(len(trains)) or [None] * len(trains)
    with mock.patch.object(experiment, "_bag", side_effect=bag), \
            mock.patch.object(_blocks, "BLOCK", _blocks.BLOCK if budget is None else budget):
        reps = [r for r, *_ in experiment._replications(cfg)]
    assert reps == list(range(cfg.replications))
    return groups


class TestReplicationGroups:
    """Pools of consecutive replications train in one lockstep; the report
    is bit for bit the one replications bagged one at a time give."""

    @pytest.mark.parametrize("source", ["p2", "csv"])
    def test_one_lockstep_equals_one_replication_per_group(self, source):
        cfg = small_p2_config(seed=5, replications=3)
        if source == "csv":
            cfg.source = DataSource(kind="csv", path=str(dataset_path("xor_blobs")),
                                    label_column=-1, split=SplitSpec())
            cfg.pool = PoolConfig(size=3)
        grouped, grouped_bags, grouped_reads = run_counted(cfg)
        alone, alone_bags, alone_reads = run_counted(cfg, alone=True)
        assert (grouped_bags, alone_bags) == (1, 3)
        # the CSV is read once per run, not once per replication
        assert grouped_reads == alone_reads == (source == "csv")
        assert grouped.accuracies.tobytes() == alone.accuracies.tobytes()
        assert np.array_equal(grouped.masks, alone.masks)
        assert repr(grouped.traces) == repr(alone.traces)

    def test_group_bound_counts_member_rows(self):
        # 4 members x 75 bootstrap rows = 300 entries each, whatever the epochs
        cfg = small_p2_config(replications=5)
        assert bagged_groups(cfg, budget=600) == [2, 2, 1]
        assert bagged_groups(cfg, budget=599) == [1] * 5
        assert bagged_groups(cfg, budget=1_500) == [5]

    @pytest.mark.parametrize("source", ["p2", *BUNDLED])
    def test_groups_at_the_benchmark_sizes(self, source):
        # the budget bags one P2 replication at a time at the paper's sizes
        # and pool 100, and 36 replications of a 480-row bundled CSV (90
        # bootstrap rows) in one group at pool 10
        if source == "p2":
            cfg = ExperimentConfig(pool=PoolConfig(size=100), replications=3)
        else:
            cfg = ExperimentConfig(source=DataSource(kind="csv", path=str(dataset_path(source))),
                                   pool=PoolConfig(size=10), replications=40)
        assert bagged_groups(cfg) == ([1, 1, 1] if source == "p2" else [36, 4])


class TestRunExperiment:
    def test_report_shape_and_methods(self):
        report = run_experiment(small_p2_config(replications=2))
        assert report.accuracies.shape == (2, 4)
        assert FRAMEWORK_METHOD in report.mean
        assert "oracle" in report.mean and "single_best" in report.mean
        assert "oracle" not in report.avg_rank
        assert report.masks.shape[1] == 67

    def test_identical_methods_tie(self):
        # a method may be named once, so the tie is checked on a copied column
        cfg = small_p2_config()
        cfg.methods = (FRAMEWORK_METHOD, "single_best", "single_best")
        with pytest.raises(ValueError, match="names 'single_best' twice"):
            run_experiment(cfg)
        cfg.methods = (FRAMEWORK_METHOD, "single_best")
        acc = run_experiment(cfg).accuracies
        avg, ranks = _mean_ranks(np.column_stack([acc, acc[:, 1]]))
        assert avg[1] == avg[2] and np.array_equal(ranks[:, 1], ranks[:, 2])

    def test_rank_identity(self):
        report = run_experiment(small_p2_config(replications=2))
        ranked = [m for m in report.methods if m != "oracle"]
        n = len(ranked)
        total = sum(report.avg_rank[m] for m in ranked)
        assert abs(total - n * (n + 1) / 2) < 1e-9

    def test_byte_identical_reports(self, tmp_path):
        cfg = small_p2_config(seed=9, replications=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_report_csvs(run_experiment(cfg), out_a)
        write_report_csvs(run_experiment(cfg), out_b)
        files = sorted(p.name for p in out_a.iterdir())
        assert files == sorted(p.name for p in out_b.iterdir())
        for name in files:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_csv_source(self):
        cfg = small_p2_config(replications=1)
        cfg.source = DataSource(kind="csv", path=str(dataset_path("ring")),
                                label_column=-1, split=SplitSpec())
        report = run_experiment(cfg)
        assert report.accuracies.shape[0] == 1
        assert report.mean["oracle"] >= report.mean[FRAMEWORK_METHOD]

    def test_replication_count_validated(self):
        cfg = small_p2_config(replications=0)
        with pytest.raises(ValueError, match="replication"):
            run_experiment(cfg)


class TestMulticlassPipeline:
    def blobs(self, n_per, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(c, 0.8, size=(n_per, 2))
                       for c in [(-1.5, 0), (1.5, 0), (0, 2.2)]])
        y = np.repeat([0, 1, 2], n_per)
        p = rng.permutation(len(y))
        from metasel.data import Dataset
        return Dataset(X[p], y[p], 3)

    def test_three_class_end_to_end(self):
        from metasel.experiment import evaluate_methods

        cfg = ExperimentConfig(
            pool=PoolConfig(size=8),
            bpso=BpsoConfig(swarm_size=8, max_generations=12, stall_limit=3, runs=1),
            replications=1, seed=2)
        model, archive, _ = train_des(self.blobs(60, 1), self.blobs(60, 2),
                                      self.blobs(60, 3), cfg, (2, 0))
        test = self.blobs(80, 4)
        res = evaluate_methods(model, test, cfg.methods)
        assert res[FRAMEWORK_METHOD] >= 0.8
        for m, acc in res.items():
            assert acc <= res["oracle"] + 1e-12
        labels, _ = classify_batch(model, test.features)
        assert set(np.unique(labels)) <= {0, 1, 2}


def reference_mean_ranks(acc_matrix):
    """Per-row tie-group walk over the stable descending order; the reference
    for ``_mean_ranks``'s closed form."""
    R, n = acc_matrix.shape
    ranks = np.zeros_like(acc_matrix, dtype=float)
    for r in range(R):
        row = acc_matrix[r]
        order = np.argsort(-row, kind="stable")
        pos = 0
        while pos < n:
            tied = [order[pos]]
            while pos + len(tied) < n and row[order[pos + len(tied)]] == row[tied[0]]:
                tied.append(order[pos + len(tied)])
            mean_rank = np.mean(np.arange(pos + 1, pos + len(tied) + 1))
            for j in tied:
                ranks[r, j] = mean_rank
            pos += len(tied)
    return ranks.mean(axis=0), ranks


class TestMeanRanks:
    def test_simple_ordering(self):
        acc = np.array([[0.9, 0.8, 0.7]])
        avg, _ = _mean_ranks(acc)
        assert avg.tolist() == [1.0, 2.0, 3.0]

    def test_ties_share_mean_rank(self):
        acc = np.array([[0.9, 0.9, 0.7]])
        avg, _ = _mean_ranks(acc)
        assert avg.tolist() == [1.5, 1.5, 3.0]

    def test_rank_sum_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            acc = np.round(rng.random((4, 5)), 2)
            avg, ranks = _mean_ranks(acc)
            assert np.allclose(ranks.sum(axis=1), 5 * 6 / 2)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 12), levels=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_closed_form_equals_tie_walk(self, rows, cols, levels, seed):
        # few distinct values per matrix force ties of every size
        rng = np.random.default_rng(seed)
        acc = rng.choice(rng.random(levels), size=(rows, cols))
        avg, ranks = _mean_ranks(acc)
        want_avg, want_ranks = reference_mean_ranks(acc)
        assert ranks.tobytes() == want_ranks.tobytes()
        assert avg.tobytes() == want_avg.tobytes()


class TestFrequencyReport:
    def test_all_ones_single_mask(self):
        lay = FeatureLayout(1, 1)
        rep = frequency_report(np.ones((1, lay.size), dtype=bool), lay)
        assert (rep.per_bit == 1.0).all()
        assert set(rep.per_bit_band) == {"black"}
        assert all(v == 1.0 for v in rep.per_set.values())

    def test_half_frequency_band_is_dark_grey(self):
        lay = FeatureLayout(1, 1)
        masks = np.zeros((2, lay.size), dtype=bool)
        masks[0, 0] = True
        rep = frequency_report(masks, lay)
        assert rep.per_bit[0] == 0.5
        assert rep.per_bit_band[0] == "dark_grey"  # 50-75% band, inclusive lower

    def test_band_boundaries(self):
        assert frequency_band(0.0) == "white"
        assert frequency_band(0.24999) == "white"
        assert frequency_band(0.25) == "light_grey"
        assert frequency_band(0.5) == "dark_grey"
        assert frequency_band(0.75) == "black"
        assert frequency_band(1.0) == "black"

    def test_hand_counted_masks(self):
        lay = FeatureLayout(1, 1)
        rng = np.random.default_rng(4)
        masks = rng.random((4, lay.size)) < 0.5
        rep = frequency_report(masks, lay)
        for b in range(lay.size):
            assert rep.per_bit[b] == sum(masks[r, b] for r in range(4)) / 4.0
        # per-set aggregation over the k-wide segments
        hard = lay.slice_of("hard")
        assert rep.per_set["hard"] == float(masks[:, hard].mean())

    def test_mask_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            frequency_report(np.ones((1, 10), dtype=bool), FeatureLayout(1, 1))


def stored(path):
    """A model file's arrays, read without pickle, and its decoded header."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads(arrays.pop("header").tobytes().decode("utf-8"))


def write_stored(path, arrays, header):
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8),
                 **arrays)


class PickledOnLoad:
    """Unpickling this makes the directory ``marker``: proof of a pickle.load."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return os.mkdir, (str(self.marker),)


def write_pickled_model(path, version, marker):
    """A model file as versions 1-5 wrote it: a pickled dict."""
    with open(path, "wb") as fh:
        pickle.dump({"format": "metasel.desmodel", "version": version,
                     "model": PickledOnLoad(marker)}, fh, protocol=pickle.HIGHEST_PROTOCOL)


class TestPersistence:
    @pytest.fixture(scope="class")
    def trained(self):
        cfg = small_p2_config()
        return train_des(generate_p2(150, 1), generate_p2(150, 2),
                         generate_p2(150, 3), cfg, (3, 0))[0]

    @pytest.fixture(scope="class")
    def model_bytes(self, trained, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.bin"
        save_model(trained, path)
        return path.read_bytes()

    def test_round_trip_identical_predictions(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        again = load_model(path)
        X = generate_p2(200, 9).features
        a, _ = classify_batch(trained, X)
        b, _ = classify_batch(again, X)
        assert np.array_equal(a, b)

    def test_loaded_model_equals_the_trained_one(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        again = load_model(path)
        # the stored RRC table is the one a fresh extractor computes
        fresh = MetaFeatureExtractor(trained.pool, trained.dsel, k=trained.k, kp=trained.kp)
        assert again.extractor.t_prc.tobytes() == fresh.t_prc.tobytes()
        for a, b in ((again.pool.weights, trained.pool.weights),
                     (again.pool.dist_scale, trained.pool.dist_scale),
                     (again.meta.weights, trained.meta.weights),
                     (again.meta.offsets, trained.meta.offsets),
                     (again.mask, trained.mask),
                     (again.scale.col_min, trained.scale.col_min),
                     (again.scale.col_max, trained.scale.col_max),
                     (again.dsel.features, trained.dsel.features),
                     (again.dsel.labels, trained.dsel.labels)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for name in ("bias", "prior", "iterations", "degenerate"):
            assert getattr(again.meta, name) == getattr(trained.meta, name)
        assert (again.k, again.kp, again.selection_threshold, again.dsel.class_count) == \
            (trained.k, trained.kp, trained.selection_threshold, trained.dsel.class_count)
        X = generate_p2(300, 9).features
        labels_a, diags_a = classify_batch(trained, X)
        labels_b, diags_b = classify_batch(again, X)
        assert np.array_equal(labels_a, labels_b)
        for da, db in zip(diags_a, diags_b):
            assert da.competences.tobytes() == db.competences.tobytes()
            assert np.array_equal(da.selected, db.selected) and da.fallback == db.fallback

    def test_corrupted_file(self, model_bytes, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(model_bytes[: len(model_bytes) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        for junk in (b"not a pickle at all", b""):
            path.write_bytes(junk)
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_version_mismatch(self, model_bytes, tmp_path):
        (tmp_path / "ok.bin").write_bytes(model_bytes)
        arrays, header = stored(tmp_path / "ok.bin")
        path = tmp_path / "model.bin"
        for version in (5, 7, "6", None):
            write_stored(path, arrays, {**header, "version": version})
            with pytest.raises(ModelFormatError, match=f"model version {version!r} "
                                                       "is incompatible"):
                load_model(path)

    def test_previous_version_rejected(self, tmp_path):
        # versions 1-5 pickled the model objects; such a file is refused by
        # its first byte and never unpickled, so its payload cannot run
        path, marker = tmp_path / "model.bin", tmp_path / "unpickled"
        for version in (1, 2, 3, 4, 5):
            write_pickled_model(path, version, marker)
            with pytest.raises(ModelFormatError, match="version 5 or earlier"):
                load_model(path)
        assert not marker.exists()
        pickle.loads(pickle.dumps(PickledOnLoad(marker)))   # the payload does run
        assert marker.is_dir()

    @pytest.mark.parametrize("damage,message", [
        (lambda a, h: a.pop("t_prc"), "holds arrays"),
        (lambda a, h: a.pop("scale_col_min"), "holds arrays"),
        (lambda a, h: a.update(extra=np.zeros(1)), "holds arrays"),
        (lambda a, h: h.pop("bias"), "header bias"),
        (lambda a, h: h.update(k=7.0), "header k"),
        (lambda a, h: h.update(k=True), "header k"),
        (lambda a, h: h.update(degenerate=0), "header degenerate"),
        (lambda a, h: h.update(format="other"), "not a metasel.desmodel file"),
        (lambda a, h: a.update(t_prc=a["t_prc"][:, 1:]), "RRC table has shape"),
        (lambda a, h: a.update(t_prc=a["t_prc"].T), "RRC table has shape"),
        (lambda a, h: a["t_prc"].__setitem__((0, 0), np.nan), r"RRC table values must lie in \[0, 1\]"),
        (lambda a, h: a["t_prc"].__setitem__((1, 2), 1.0 + 1e-12), r"\[0, 1\]"),
        (lambda a, h: a["t_prc"].__setitem__((1, 2), -1e-300), r"\[0, 1\]"),
        (lambda a, h: a.update(mask=a["mask"][1:]), "layout's"),
        (lambda a, h: a.update(selector_offsets=a["selector_offsets"][1:]), "layout's"),
        (lambda a, h: a.update(scale_col_max=a["scale_col_max"][:1]), "scale must have"),
        (lambda a, h: a.update(pool_dist_scale=a["pool_dist_scale"][1:]), "dist_scale"),
        (lambda a, h: a["pool_weights"].__setitem__((0, 1, 2), np.nan), "pool weights must be finite"),
        (lambda a, h: a["pool_weights"].__setitem__((1, 0, 0), -np.inf), "pool weights must be finite"),
        (lambda a, h: a["pool_dist_scale"].__setitem__(0, 0.0), "dist_scale values must be finite and > 0"),
        (lambda a, h: a["pool_dist_scale"].__setitem__(1, np.nan), "dist_scale values must be finite and > 0"),
        (lambda a, h: a.update(dsel_labels=a["dsel_labels"] + 5), "labels out of range"),
        (lambda a, h: a.update(dsel_features=a["dsel_features"][:, :1]), "not a readable"),
        (lambda a, h: h.update(k=10_000), "cannot exceed"),
        (lambda a, h: h.update(selection_threshold=1.0), "selection threshold"),
    ])
    def test_crafted_file_refused(self, model_bytes, tmp_path, damage, message):
        (tmp_path / "ok.bin").write_bytes(model_bytes)
        arrays, header = stored(tmp_path / "ok.bin")
        damage(arrays, header)
        path = tmp_path / "model.bin"
        write_stored(path, arrays, header)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_other_containers_refused(self, tmp_path):
        path = tmp_path / "model.bin"
        for value in (np.zeros(3), np.array(["x"])):
            with open(path, "wb") as fh:
                np.save(fh, value)
            with pytest.raises(ModelFormatError, match="not a metasel.desmodel file"):
                load_model(path)
        for header in (b"[1, 2]", b"\xff{", b"{"):
            with open(path, "wb") as fh:
                np.savez(fh, header=np.frombuffer(header, np.uint8))
            with pytest.raises(ModelFormatError):
                load_model(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_bytes_raise_only_model_format_error(self, model_bytes,
                                                         tmp_path_factory, data):
        """Truncated at any offset, any single bit flipped or random bytes:
        ModelFormatError and no other exception. A flip in a field of the
        zip container that guards no stored byte (a timestamp, a version
        number, a local copy of what the central directory records) leaves
        every array and the header as saved: such a file loads, and it must
        load the same model."""
        kind = data.draw(st.sampled_from(["truncate", "flip", "random"]))
        if kind == "truncate":
            damaged = model_bytes[:data.draw(st.integers(0, len(model_bytes) - 1))]
        elif kind == "flip":
            bit = data.draw(st.integers(0, 8 * len(model_bytes) - 1))
            damaged = bytearray(model_bytes)
            damaged[bit // 8] ^= 1 << (bit % 8)
            damaged = bytes(damaged)
        else:
            damaged = data.draw(st.binary(max_size=2 * len(model_bytes)))
        path = tmp_path_factory.mktemp("damaged") / "model.bin"
        path.write_bytes(damaged)
        try:
            model = load_model(path)
        except ModelFormatError:
            return
        ok = path.with_name("ok.bin")
        ok.write_bytes(model_bytes)
        arrays, header = stored(ok)
        save_model(model, path)
        again, again_header = stored(path)
        assert again_header == header
        assert arrays.keys() == again.keys()
        for name, value in arrays.items():
            assert value.dtype == again[name].dtype and value.tobytes() == again[name].tobytes()

    def test_damaged_array_headers_raise_only_model_format_error(self, model_bytes, tmp_path):
        # np.load parses each array's header with tokenize and ast: a flipped
        # bracket raised tokenize.TokenError, a flipped dtype character
        # SyntaxError, through load_model
        path = tmp_path / "model.bin"
        start = model_bytes.find(b"\x93NUMPY")
        while start >= 0:
            header = model_bytes[start:model_bytes.index(b"\n", start)]
            for offset in (header.index(b"{"), header.index(b"("),
                           header.index(b"'descr': '") + 10):
                for bit in range(8):
                    damaged = bytearray(model_bytes)
                    damaged[start + offset] ^= 1 << bit
                    path.write_bytes(damaged)
                    try:
                        load_model(path)
                    except ModelFormatError:
                        pass
            start = model_bytes.find(b"\x93NUMPY", start + 1)

    def test_version_pins_the_stored_arrays(self, model_bytes, tmp_path):
        # changing what a model file holds changes the file, so the version
        # and this pin move together
        path = tmp_path / "model.bin"
        path.write_bytes(model_bytes)
        arrays, header = stored(path)
        assert (MODEL_VERSION, sorted(arrays), sorted(header)) == (6, sorted([
            "pool_weights", "pool_dist_scale", "selector_weights", "selector_offsets",
            "mask", "scale_col_min", "scale_col_max", "dsel_features", "dsel_labels",
            "t_prc"]), sorted([
            "format", "version", "k", "kp", "selection_threshold", "class_count",
            "bias", "prior", "iterations", "degenerate", "scale"]))
        assert set(arrays) == set(MODEL_ARRAYS + SCALE_ARRAYS)
        assert set(header) == set(MODEL_HEADER)
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        assert arrays["t_prc"].shape == arrays["pool_weights"].shape[:1] + \
            arrays["dsel_labels"].shape

    def test_model_without_scale(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(dataclasses.replace(trained, scale=None), path)
        arrays, header = stored(path)
        assert header["scale"] is False and not set(SCALE_ARRAYS) & set(arrays)
        assert load_model(path).scale is None

    def test_path_without_suffix_is_written_as_given(self, trained, tmp_path):
        path = tmp_path / "model"
        save_model(trained, path)
        assert path.exists() and not path.with_suffix(".npz").exists()
        assert load_model(path).mask.tobytes() == trained.mask.tobytes()


class TestBundledDatasets:
    def test_all_load(self):
        from metasel.data import load_csv

        for name in BUNDLED:
            ds = load_csv(dataset_path(name))
            assert len(ds) >= 400 and ds.class_count == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown bundled"):
            dataset_path("nope")
