"""Command-line entry points.

Subcommands:
  gen-p2       write a synthetic two-class dataset as CSV
  train        train a selection model from a config file and save it
  classify     label a CSV with a saved model, writing a prediction table
  benchmark    run the replicated experiment protocol and emit CSV reports
  freq-report  aggregate meta-feature selection frequencies from masks.csv

All commands exit 0 on success and nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .data import (NoDataRowsError, _read_numeric_csv, generate_p2, load_csv,
                   load_csv_features)
from .engine import classify_batch
from .metafeatures import FeatureLayout, meta_dataset_to_csv


def _load_config(args) -> experiment.ExperimentConfig:
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        config = experiment.ExperimentConfig.from_dict(raw)
    else:
        config = experiment.ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "methods", None) is not None:
        # "" names no method, so ``validate`` refuses it as an empty list
        config.methods = tuple(args.methods.split(",")) if args.methods else ()
    config.validate()
    return config


def _cmd_gen_p2(args) -> int:
    ds = generate_p2(args.n, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,label\n")
        np.savetxt(fh, np.column_stack([ds.features, ds.labels]),
                   fmt=["%.10g", "%.10g", "%d"], delimiter=",")
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    train, meta_train, dsel, _ = experiment._load_splits(config, 0)
    model, archive, info = experiment.train_des(train, meta_train, dsel, config,
                                                base_seed_parts=(config.seed, 0))
    experiment.save_model(model, args.out)
    print(f"saved model to {args.out} "
          f"(selected {int(model.mask.sum())}/{model.mask.size} meta-features, "
          f"validation fitness {archive.validation_fitness:.6g})")
    if args.export_meta:
        meta_dataset_to_csv(info["meta_dataset"], args.export_meta)
        print(f"wrote meta-training data to {args.export_meta}")
    return 0


def _cmd_classify(args) -> int:
    model = experiment.load_model(args.model)
    if args.label_column is not None:
        ds = load_csv(args.data, args.label_column)
        X, truth = ds.features, ds.labels
    else:
        X, truth = load_csv_features(args.data), None
    preds, result = classify_batch(model, X)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("sample_id,true_label,predicted_label,method,fallback,selected_count\n")
        for j, p in enumerate(preds):
            true = "" if truth is None else str(int(truth[j]))
            fh.write(f"{j},{true},{int(p)},{experiment.FRAMEWORK_METHOD},"
                     f"{int(result[j].fallback)},{len(result[j].selected)}\n")
    if truth is not None:
        acc = float((preds == truth).mean())
        print(f"accuracy {acc:.4f} on {len(preds)} samples -> {args.out}")
    else:
        print(f"classified {len(preds)} samples -> {args.out}")
    return 0


def _cmd_benchmark(args) -> int:
    config = _load_config(args)
    report = experiment.run_experiment(config)
    experiment.write_report_csvs(report, args.out_dir)
    print(f"report written to {args.out_dir}")
    width = max(len(m) for m in report.methods)
    for m in report.methods:
        rank = report.avg_rank.get(m)
        rank_s = f"  avg rank {rank:.2f}" if rank is not None else ""
        print(f"  {m:<{width}}  {report.mean[m]:.4f} +/- {report.std[m]:.4f}{rank_s}")
    return 0


def _cmd_freq_report(args) -> int:
    if (args.k is None) != (args.kp is None):
        raise ValueError("--k and --kp go together; "
                         f"{'--kp' if args.kp is None else '--k'} is missing")
    try:
        cells, _, header = _read_numeric_csv(args.masks)
    except NoDataRowsError:
        raise ValueError(f"{args.masks}: no mask rows") from None
    bits = cells[:, 1:]                                   # column 0 numbers the run
    bad = np.argwhere((bits != 0) & (bits != 1))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"{args.masks}: mask cells must be 0 or 1, got {bits[r, c]:g} "
                         f"at row {r + 1 + (header is not None)}, column {c + 2}")
    bits = bits.astype(bool)
    d = bits.shape[1]
    if args.k is not None:
        layout = FeatureLayout(args.k, args.kp)
        if layout.size != d:
            raise ValueError(f"{args.masks}: holds {d} mask columns, but --k {args.k} "
                             f"--kp {args.kp} give {layout.size}")
    else:
        # recover (K, Kp) from D = 8K + Kp + 6 by scanning plausible K
        layout, names = None, None if header is None else header[1:]
        for k in range(1, d):
            kp = d - 8 * k - 6
            if kp >= 1 and FeatureLayout(k, kp).column_names() == names:
                layout = FeatureLayout(k, kp)
                break
        if layout is None:
            raise ValueError(f"{args.masks}: cannot infer (K, Kp) from the header; "
                             "pass --k/--kp")
    freq = experiment.frequency_report(bits, layout)
    experiment.write_frequency_csv(freq, args.out)
    print(f"wrote {Path(args.out)}")
    for name in freq.per_set:
        print(f"  {name:<10} {freq.per_set[name]:.3f}  {freq.per_set_band[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metasel",
                                     description="dynamic ensemble selection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-p2", help="generate the synthetic two-class dataset")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_p2)

    p = sub.add_parser("train", help="train a selection model")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--export-meta", help="also write the meta-training CSV here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="classify a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", type=int, default=None,
                   help="label column index (include to report accuracy)")
    p.add_argument("--out", required=True, help="prediction CSV to write")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("benchmark", help="run the replicated experiment protocol")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("freq-report", help="selection frequencies from masks.csv")
    p.add_argument("--masks", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kp", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_freq_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
