import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel.bpso import BpsoConfig
from metasel.data import Dataset, ScaleParams, SplitSpec, generate_p2
from metasel.datasets import BUNDLED, dataset_path
from metasel.engine import DesModel, classify_batch
from metasel.experiment import (DataSource, ExperimentConfig, FRAMEWORK_METHOD,
                                MODEL_VERSION, ModelFormatError, PoolConfig, _mean_ranks,
                                frequency_band, frequency_report, load_model,
                                run_experiment, save_model, train_des,
                                write_report_csvs)
from metasel.metaclassifier import MetaClassifier
from metasel.metafeatures import FeatureLayout
from metasel.pool import ClassifierPool


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
    ])
    def test_out_of_range_value_named(self, raw, key):
        with pytest.raises(ValueError, match=key.replace(".", r"\.") + " must be"):
            ExperimentConfig.from_dict(raw)

    def test_range_limits_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "k": 1, "kp": 1, "consensus_threshold": 1, "selection_threshold": 0,
            "replications": 1, "pool": {"size": 1, "bootstrap_frac": 1, "epochs": 1, "lr": 1e-9},
            "source": {"p2_sizes": [1, 1, 1, 1]}})
        assert cfg.consensus_threshold == 1 and cfg.pool.bootstrap_frac == 1
        with pytest.raises(ValueError, match="consensus_threshold"):
            ExperimentConfig.from_dict({"consensus_threshold": float("nan")})

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


class TestRunExperiment:
    def test_report_shape_and_methods(self):
        report = run_experiment(small_p2_config(replications=2))
        assert report.accuracies.shape == (2, 4)
        assert FRAMEWORK_METHOD in report.mean
        assert "oracle" in report.mean and "single_best" in report.mean
        assert "oracle" not in report.avg_rank
        assert report.masks.shape[1] == 67

    def test_identical_methods_tie(self):
        cfg = small_p2_config()
        cfg.methods = (FRAMEWORK_METHOD, "single_best", "single_best")
        report = run_experiment(cfg)
        col = report.methods.index("single_best")
        assert report.accuracies[0, 1] == report.accuracies[0, 2]
        assert report.avg_rank["single_best"] == report.avg_rank["single_best"]

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
        res = evaluate_methods(model, test, cfg.methods, cfg.k)
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


class TestPersistence:
    def build_model(self):
        cfg = small_p2_config()
        return train_des(generate_p2(150, 1), generate_p2(150, 2),
                         generate_p2(150, 3), cfg, (3, 0))[0]

    def test_round_trip_identical_predictions(self, tmp_path):
        model = self.build_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        again = load_model(path)
        X = generate_p2(200, 9).features
        a, _ = classify_batch(model, X)
        b, _ = classify_batch(again, X)
        assert np.array_equal(a, b)

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "model.bin"
        model = self.build_model()
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        import pickle

        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            pickle.dump({"format": "metasel.desmodel", "version": 999,
                         "model": None}, fh)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_previous_version_rejected(self, tmp_path):
        # version 1 files hold a pool of per-member perceptron objects,
        # version 2 a Monte-Carlo sample count, version 3 a selector over
        # standardized inputs plus its constants and a consensus threshold,
        # version 4 a logistic selector over the mask's columns alone
        import pickle

        path = tmp_path / "model.bin"
        for version in (1, 2, 3, 4):
            with open(path, "wb") as fh:
                pickle.dump({"format": "metasel.desmodel", "version": version, "model": None}, fh)
            with pytest.raises(ModelFormatError, match=f"version {version} is incompatible"):
                load_model(path)

    def test_version_pins_the_pickled_fields(self):
        # a model file pickles these dataclasses; changing a field changes
        # the file, so the version and this pin move together
        pickled = (DesModel, MetaClassifier, ClassifierPool, ScaleParams, Dataset)
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in pickled}
        assert (MODEL_VERSION, fields) == (5, {
            "DesModel": ["pool", "meta", "mask", "scale", "dsel", "k", "kp",
                         "selection_threshold", "_extractor"],
            "MetaClassifier": ["weights", "bias", "offsets", "prior", "iterations",
                               "degenerate"],
            "ClassifierPool": ["weights", "dist_scale"],
            "ScaleParams": ["col_min", "col_max"],
            "Dataset": ["features", "labels", "class_count"],
        })


class TestBundledDatasets:
    def test_all_load(self):
        from metasel.data import load_csv

        for name in BUNDLED:
            ds = load_csv(dataset_path(name))
            assert len(ds) >= 400 and ds.class_count == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown bundled"):
            dataset_path("nope")
