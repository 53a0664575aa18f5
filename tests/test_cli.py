import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasel.cli import main
from metasel.data import generate_p2, load_csv


def small_config(tmp_path, **overrides):
    cfg = {
        "source": {"kind": "p2", "p2_sizes": [120, 120, 120, 150]},
        "pool": {"size": 3},
        "bpso": {"swarm_size": 5, "max_generations": 8, "stall_limit": 3, "runs": 1},
        "replications": 1,
        "methods": ["meta_des_oracle", "single_best", "majority_vote", "oracle"],
        "rrc_samples": 150,
        "seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenP2:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "p2.csv"
        assert main(["gen-p2", "--n", "80", "--seed", "3", "--out", str(out)]) == 0
        ds = load_csv(out)
        assert len(ds) == 80 and ds.class_count == 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-p2", "--n", "50", "--seed", "9", "--out", str(a)])
        main(["gen-p2", "--n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_row_writer(self, tmp_path_factory, n, seed):
        out = tmp_path_factory.mktemp("gen") / "p2.csv"
        assert main(["gen-p2", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
        # the per-row writer gen-p2 used before its single np.savetxt call
        ds = generate_p2(n, seed)
        expected = "x,y,label\n" + "".join(
            f"{row[0]:.10g},{row[1]:.10g},{int(lab)}\n"
            for row, lab in zip(ds.features, ds.labels))
        assert out.read_bytes() == expected.encode("utf-8")


class TestTrainAndClassify:
    def test_full_cycle(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        model_path = tmp_path / "model.bin"
        meta_csv = tmp_path / "meta.csv"
        rc = main(["train", "--config", str(cfg), "--out", str(model_path),
                   "--export-meta", str(meta_csv)])
        assert rc == 0 and model_path.exists() and meta_csv.exists()
        assert meta_csv.read_text().splitlines()[0].startswith("hard_0,")

        data_csv = tmp_path / "query.csv"
        main(["gen-p2", "--n", "60", "--seed", "7", "--out", str(data_csv)])
        pred_csv = tmp_path / "pred.csv"
        rc = main(["classify", "--model", str(model_path), "--data", str(data_csv),
                   "--label-column", "2", "--out", str(pred_csv)])
        assert rc == 0
        lines = pred_csv.read_text().strip().splitlines()
        assert lines[0] == "sample_id,true_label,predicted_label,method,fallback,selected_count"
        assert len(lines) == 61
        first = lines[1].split(",")
        assert first[3] == "meta_des_oracle"

    def test_classify_without_labels(self, tmp_path):
        cfg = small_config(tmp_path)
        model_path = tmp_path / "model.bin"
        main(["train", "--config", str(cfg), "--out", str(model_path)])
        feats = tmp_path / "feats.csv"
        feats.write_text("0.5,0.5\n0.2,0.8\n")
        pred_csv = tmp_path / "pred.csv"
        assert main(["classify", "--model", str(model_path), "--data", str(feats),
                     "--out", str(pred_csv)]) == 0
        rows = pred_csv.read_text().strip().splitlines()[1:]
        assert all(r.split(",")[1] == "" for r in rows)

    def test_classify_features_header_and_bad_cell(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        model_path = tmp_path / "model.bin"
        main(["train", "--config", str(cfg), "--out", str(model_path)])
        plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
        plain.write_text("0.5,0.5\n0.2,0.8\n9.0,1.0\n")
        headed.write_text("x,y\n" + plain.read_text())
        outputs = []
        for data in (plain, headed):
            pred_csv = tmp_path / f"pred_{data.stem}.csv"
            assert main(["classify", "--model", str(model_path), "--data", str(data),
                         "--out", str(pred_csv)]) == 0
            outputs.append(pred_csv.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].decode().count("\n") == 4

        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.5,0.5\n0.2,oops\n")
        rc = main(["classify", "--model", str(model_path), "--data", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc != 0
        assert "row 3, column 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("0.5,0.5,0.5\n0.2,0.8,0.1\n", "expected 2 features per sample, got 3"),
        ("0.5,0.5\nnan,0.5\n", "features contain non-finite values"),
        ("0.5,inf\n", "features contain non-finite values"),
    ])
    def test_unlabellable_samples_are_an_error_line(self, tmp_path, capsys, text, message):
        cfg = small_config(tmp_path)
        model_path = tmp_path / "model.bin"
        main(["train", "--config", str(cfg), "--out", str(model_path)])
        feats = tmp_path / "feats.csv"
        feats.write_text(text)
        capsys.readouterr()
        rc = main(["classify", "--model", str(model_path), "--data", str(feats),
                   "--out", str(tmp_path / "pred.csv")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and message in err

    def test_label_column_out_of_range_is_an_error_line(self, tmp_path, capsys):
        # column 5 of a 3-column file used to read column 2 as the labels
        model_path = tmp_path / "model.bin"
        main(["train", "--config", str(small_config(tmp_path)), "--out", str(model_path)])
        data = tmp_path / "data.csv"
        data.write_text("0.5,0.5,0\n0.2,0.8,1\n")
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        rc = main(["classify", "--model", str(model_path), "--data", str(data),
                   "--label-column", "5", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {data}: label column 5 is out of range for 3 columns\n")
        assert not out.exists()

    def test_unknown_config_key_is_an_error_line(self, tmp_path, capsys):
        cfg = small_config(tmp_path, bpso={"swarmsize": 3})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bpso.swarmsize" in err
        assert not (tmp_path / "m.bin").exists()

    def test_unknown_source_key_is_an_error_line(self, tmp_path, capsys):
        cfg = small_config(tmp_path, source={"kind": "p2", "p2_size": [60, 60, 60, 60]})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin")])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown config key source.p2_size\n"
        assert not (tmp_path / "m.bin").exists()

    def test_wrong_typed_config_value_is_an_error_line(self, tmp_path, capsys):
        cfg = small_config(tmp_path, bpso={"swarm_size": "3"})
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bpso.swarm_size" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("override,message", [
        ({"k": -3}, "config key k must be >= 1"),
        ({"pool": {"size": 3, "epochs": 0}}, "config key pool.epochs must be >= 1"),
        ({"consensus_threshold": 1.5}, "config key consensus_threshold must be in [0, 1]"),
        ({"pool": {"size": 3, "bootstrap_frac": 0.0}},
         "config key pool.bootstrap_frac must be in (0, 1]"),
        ([1, 2], "a config must be a JSON object, got list"),
        ("hello", "a config must be a JSON object, got str"),
        ({"source": {"kind": "p3"}}, "config key source.kind must be p2 or csv"),
        ({"source": {"kind": "csv"}}, "config key source.path must be set for a csv source"),
        ({"source": {"kind": "p2", "split": {"train_frac": 7}}},
         "split fractions must be in (0, 1)"),
        ({"bpso": {"inertia": float("nan")}},
         "inertia, accelerations and v_max must be positive"),
        ({"source": {"kind": "p2", "p2_sizes": [20, 20, 3, 20]}},
         "config key source.p2_sizes[2] must be > max(k, kp)"),
        # the validation build leaves each reference row out of its own
        # neighbourhood, so 7 rows leave 6 for k = 7
        ({"source": {"kind": "p2", "p2_sizes": [20, 20, 7, 20]}, "pool": {"size": 3}},
         "config key source.p2_sizes[2] must be > max(k, kp)"),
        ({"seed": -1}, "config key seed must be >= 0"),
    ], ids=["k", "epochs", "consensus_threshold", "bootstrap_frac", "list", "string",
            "kind", "csv_path", "train_frac", "nan_inertia", "small_reference",
            "reference_of_k_rows", "seed"])
    def test_out_of_range_config_value_is_an_error_line(self, tmp_path, capsys, monkeypatch,
                                                        override, message):
        # each used to fail only after bagging, or not at all, or with a traceback
        calls = []
        monkeypatch.setattr("metasel.experiment.bagging", lambda *a, **kw: calls.append(a))
        if isinstance(override, dict):
            cfg = small_config(tmp_path, **override)
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(override))
        model, out_dir = tmp_path / "m.bin", tmp_path / "report"
        for command in (["train", "--out", str(model)], ["benchmark", "--out-dir", str(out_dir)]):
            assert main([*command, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == [] and not model.exists() and not out_dir.exists()

    def test_small_csv_reference_split_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # 24 rows split into a reference split of 6, too few for k = 7: the
        # check is made where the splits are read, before any bagging
        calls = []
        monkeypatch.setattr("metasel.experiment.bagging", lambda *a, **kw: calls.append(a))
        data = tmp_path / "small.csv"
        rng = np.random.default_rng(0)
        np.savetxt(data, np.column_stack([rng.uniform(size=(24, 2)), np.arange(24) % 2]),
                   fmt=["%.6f", "%.6f", "%d"], delimiter=",")
        cfg = small_config(tmp_path, source={"kind": "csv", "path": str(data)},
                           pool={"size": 5})
        model, out_dir = tmp_path / "m.bin", tmp_path / "report"
        for command in (["train", "--out", str(model)], ["benchmark", "--out-dir", str(out_dir)]):
            assert main([*command, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: the reference split holds 6 rows; it needs more than max(k, kp) = 7"]
        assert calls == [] and not model.exists() and not out_dir.exists()

    def test_pickled_model_file_is_an_error_line(self, tmp_path, capsys):
        # a version-5 file was a pickle; it is refused without being loaded
        model_path = tmp_path / "model.bin"
        with open(model_path, "wb") as fh:
            pickle.dump({"format": "metasel.desmodel", "version": 5, "model": None}, fh)
        feats = tmp_path / "feats.csv"
        feats.write_text("0.5,0.5\n")
        out = tmp_path / "pred.csv"
        rc = main(["classify", "--model", str(model_path), "--data", str(feats),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "version" in err[0]
        assert not out.exists()

    def test_bad_model_path_fails(self, tmp_path, capsys):
        feats = tmp_path / "feats.csv"
        feats.write_text("0.5,0.5\n")
        rc = main(["classify", "--model", str(tmp_path / "missing.bin"),
                   "--data", str(feats), "--out", str(tmp_path / "o.csv")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


class TestBenchmark:
    def test_emits_reports(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out_dir = tmp_path / "report"
        assert main(["benchmark", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert {"accuracy.csv", "summary.csv", "masks.csv",
                "meta_feature_frequency.csv", "meta_feature_set_frequency.csv",
                "trace.csv"} <= names
        body = (out_dir / "accuracy.csv").read_text()
        for method in ("meta_des_oracle", "single_best", "oracle"):
            assert method in body

    @pytest.mark.parametrize("args,overrides,message", [
        (["--methods", "ola,nope"], {}, "unknown method 'nope'"),
        (["--methods", "ola,lca,ola"], {}, "names 'ola' twice"),
        ([], {"methods": []}, "methods is empty"),
        (["--methods", ""], {}, "methods is empty"),
        ([], {"reference_method": "bogus"}, "unknown method 'bogus'"),
    ], ids=["unknown", "repeated", "empty", "empty_option", "reference"])
    def test_bad_method_names_are_an_error_line_before_any_work(self, tmp_path, capsys,
                                                                 monkeypatch, args,
                                                                 overrides, message):
        calls = []
        monkeypatch.setattr("metasel.experiment.bagging",
                            lambda *a, **kw: calls.append(a))
        out_dir = tmp_path / "report"
        rc = main(["benchmark", "--config", str(small_config(tmp_path, **overrides)),
                   "--out-dir", str(out_dir), *args])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        if "twice" not in message:
            # the message lists every known method, the framework's and the oracle
            assert "expected one of meta_des_oracle, ola," in err[0]
            assert err[0].endswith("majority_vote, oracle")
        assert calls == [] and not out_dir.exists()

    def test_byte_identical_over_reruns(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "ra", tmp_path / "rb"
        main(["benchmark", "--config", str(cfg), "--out-dir", str(a)])
        main(["benchmark", "--config", str(cfg), "--out-dir", str(b)])
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "ra", tmp_path / "rb"
        main(["benchmark", "--config", str(cfg), "--out-dir", str(a)])
        main(["benchmark", "--config", str(cfg), "--seed", "99", "--out-dir", str(b)])
        assert (a / "accuracy.csv").read_bytes() != (b / "accuracy.csv").read_bytes()


class TestFreqReport:
    def test_from_benchmark_masks(self, tmp_path):
        cfg = small_config(tmp_path, replications=2)
        out_dir = tmp_path / "report"
        main(["benchmark", "--config", str(cfg), "--out-dir", str(out_dir)])
        out_csv = tmp_path / "freq.csv"
        rc = main(["freq-report", "--masks", str(out_dir / "masks.csv"),
                   "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "bit,name,set,frequency,band"
        assert len(lines) == 68
        freqs = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(f in (0.0, 0.5, 1.0) for f in freqs)

    def test_explicit_layout(self, tmp_path):
        masks = tmp_path / "masks.csv"
        from metasel.metafeatures import FeatureLayout

        lay = FeatureLayout(2, 3)
        masks.write_text("replication," + ",".join(lay.column_names()) + "\n"
                         + "0," + ",".join(["1"] * lay.size) + "\n")
        out_csv = tmp_path / "freq.csv"
        rc = main(["freq-report", "--masks", str(masks), "--k", "2", "--kp", "3",
                   "--out", str(out_csv)])
        assert rc == 0
        assert "black" in out_csv.read_text()

    @pytest.mark.parametrize("text", ["", "replication,hard_1\n"])
    def test_no_mask_rows_is_an_error_line(self, tmp_path, capsys, text):
        masks = tmp_path / "masks.csv"
        masks.write_text(text)
        rc = main(["freq-report", "--masks", str(masks), "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {masks}: no mask rows\n"

    @staticmethod
    def masks_text(rows):
        from metasel.metafeatures import FeatureLayout

        names = FeatureLayout(2, 3).column_names()
        return "replication," + ",".join(names) + "\n" + "".join(
            f"{i}," + ",".join(row) + "\n" for i, row in enumerate(rows))

    @pytest.mark.parametrize("rows,args,message", [
        ([["1"] * 25, ["0"] * 24 + ["2"]],  [],
         "mask cells must be 0 or 1, got 2 at row 3, column 26"),
        ([["1"] * 25, ["0.5"] * 25], [], "mask cells must be 0 or 1, got 0.5 at row 3"),
        ([["1"] * 25, ["1"] * 24], [], "row 3 has 25 columns, expected 26"),
        ([["1"] * 25], ["--k", "3", "--kp", "3"], "holds 25 mask columns, but --k 3 --kp 3"),
    ])
    def test_malformed_masks_are_an_error_line(self, tmp_path, capsys, rows, args,
                                                message):
        masks = tmp_path / "masks.csv"
        masks.write_text(self.masks_text(rows))
        out = tmp_path / "f.csv"
        rc = main(["freq-report", "--masks", str(masks), "--out", str(out), *args])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {masks}: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "replication,a,b,c\n0,1,0,1\n",                   # names of no layout
        "0,1,0,1\n1,0,0,1\n",                             # no header
    ])
    def test_uninferable_layout_is_an_error_line(self, tmp_path, capsys, text):
        masks = tmp_path / "masks.csv"
        masks.write_text(text)
        rc = main(["freq-report", "--masks", str(masks), "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {masks}: cannot infer (K, Kp) from the header; pass --k/--kp\n")

    @pytest.mark.parametrize("args,missing", [(["--k", "7"], "--kp"), (["--kp", "5"], "--k")])
    def test_lone_layout_flag_is_an_error_line(self, tmp_path, capsys, args, missing):
        masks = tmp_path / "masks.csv"
        masks.write_text("0,1,0,1\n1,0,0,1\n")             # no header to infer from
        out = tmp_path / "f.csv"
        rc = main(["freq-report", "--masks", str(masks), "--out", str(out), *args])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --k and --kp go together; {missing} is missing\n")
        assert not out.exists()
