"""End-to-end experiment orchestration: replicated train/evaluate cycles,
model persistence, and CSV report emission (accuracy tables, average ranks,
win-tie-loss counts, meta-feature selection frequencies).

Every replication is a pure function of the configuration seed: data splits,
pool generation, meta-dataset halving and the swarm search all derive their
randomness from (seed, replication, stage) tuples.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import tokenize
import typing
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _blocks, engine
from .bpso import Archive, BpsoConfig, optimize
from .data import (Dataset, ScaleParams, SplitSpec, generate_p2, load_csv,
                   scale_minmax, split_holdout)
from .engine import DesModel, classify_batch, oracle_accuracy
from .metaclassifier import MetaClassifier, train_meta
from .metafeatures import FeatureLayout, MetaFeatureExtractor
from .pool import ClassifierPool, bagging
from .regions import nearest_neighbors

__all__ = [
    "PoolConfig",
    "DataSource",
    "ExperimentConfig",
    "RunReport",
    "FrequencyReport",
    "train_des",
    "run_experiment",
    "save_model",
    "load_model",
    "frequency_report",
    "frequency_band",
    "write_frequency_csv",
    "write_report_csvs",
    "ModelFormatError",
    "FRAMEWORK_METHOD",
    "ALL_METHODS",
]

FRAMEWORK_METHOD = "meta_des_oracle"
ALL_METHODS = (FRAMEWORK_METHOD, *engine.BASELINE_METHODS, "oracle")

MODEL_FORMAT = "metasel.desmodel"
MODEL_VERSION = 6
# a model file's JSON header: each key and the JSON type of its value
MODEL_HEADER = {"format": str, "version": int, "k": int, "kp": int,
                "selection_threshold": float, "class_count": int, "bias": float,
                "prior": float, "iterations": int, "degenerate": bool, "scale": bool}
# the arrays a model file holds besides ``header``; the scale arrays only
# when the model has a scale
MODEL_ARRAYS = ("pool_weights", "pool_dist_scale", "selector_weights",
                "selector_offsets", "mask", "dsel_features", "dsel_labels", "t_prc")
SCALE_ARRAYS = ("scale_col_min", "scale_col_max")


class ModelFormatError(RuntimeError):
    pass


@dataclass
class PoolConfig:
    size: int = 100
    bootstrap_frac: float = 0.5
    epochs: int = 50
    lr: float = 0.01


@dataclass
class DataSource:
    """Either a synthetic generator spec or a CSV file plus holdout split."""

    kind: str = "p2"                                   # "p2" | "csv"
    p2_sizes: tuple = (500, 500, 500, 2000)            # train, meta, dsel, test
    path: str | None = None
    label_column: int = -1
    split: SplitSpec = field(default_factory=SplitSpec)


@dataclass
class ExperimentConfig:
    source: DataSource = field(default_factory=DataSource)
    pool: PoolConfig = field(default_factory=PoolConfig)
    k: int = 7
    kp: int = 5
    consensus_threshold: float = 0.7
    selection_threshold: float = 0.5
    bpso: BpsoConfig = field(default_factory=BpsoConfig)
    replications: int = 20
    methods: tuple = ALL_METHODS
    reference_method: str = FRAMEWORK_METHOD
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON and ``validate`` it. A config that
        is not an object, a value of the wrong type or out of range, or an
        unknown key inside a section, ``seed`` included, raises ValueError;
        unknown top-level keys are ignored."""
        if not isinstance(raw, dict):
            raise ValueError(f"a config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        cfg = _section(cls, {key: value for key, value in raw.items() if key in known}, "")
        cfg.validate()
        return cfg

    def validate(self):
        """Range-check every value, so a bad config fails before any work."""
        sizes = self.source.p2_sizes
        sizes_ok = len(sizes) == 4 and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in sizes)
        # "not ok" rather than "bad", so that NaN fails too
        checks = (
            ("k", self.k >= 1, ">= 1"),
            ("kp", self.kp >= 1, ">= 1"),
            ("consensus_threshold", 0 <= self.consensus_threshold <= 1, "in [0, 1]"),
            ("selection_threshold", 0 <= self.selection_threshold < 1, "in [0, 1)"),
            ("replications", self.replications >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("pool.size", self.pool.size >= 1, ">= 1"),
            ("pool.bootstrap_frac", 0 < self.pool.bootstrap_frac <= 1, "in (0, 1]"),
            ("pool.epochs", self.pool.epochs >= 1, ">= 1"),
            ("pool.lr", self.pool.lr > 0, "> 0"),
            ("source.kind", self.source.kind in ("p2", "csv"), "p2 or csv"),
            ("source.path", self.source.kind != "csv" or self.source.path is not None,
             "set for a csv source"),
            ("source.p2_sizes", sizes_ok, "four integers >= 1"),
            # the reference split: see ``_load_splits``
            ("source.p2_sizes[2]", self.source.kind != "p2" or not sizes_ok
             or sizes[2] > max(self.k, self.kp), "> max(k, kp)"),
            ("source.p2_sizes[1] * pool.size", self.source.kind != "p2" or not sizes_ok
             or sizes[1] * self.pool.size >= 2, ">= 2"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"config key {name} must be {rule}")
        known = ", ".join(ALL_METHODS)
        if not self.methods:
            raise ValueError(f"config key methods is empty; expected one of {known}")
        for j, method in enumerate(self.methods):
            if method not in ALL_METHODS:
                raise ValueError(f"config key methods: unknown method {method!r}; "
                                 f"expected one of {known}")
            if method in self.methods[:j]:
                raise ValueError(f"config key methods names {method!r} twice")
        if self.reference_method not in ALL_METHODS:
            raise ValueError(f"config key reference_method: unknown method "
                             f"{self.reference_method!r}; expected one of {known}")
        self.source.split.validate()
        self.bpso.validate()


# accepted JSON value types and their name per field annotation; bool is
# never a number
_VALUE_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    str | None: ((str, type(None)), "a string or null"),
    tuple: ((list, tuple), "a list"),
}


def _section(section_cls, values, path: str):
    """The dataclass ``section_cls`` built from the config section at the
    dotted ``path``, "" for the whole config.

    A key the dataclass does not have, or a value that does not match its
    field's type, is named by its path in a ValueError. A dataclass field
    is a nested section, and a list becomes a tuple field."""
    if not isinstance(values, dict):
        raise ValueError(f"config section {path} must be an object")
    hints = typing.get_type_hints(section_cls)
    if path:
        hints.pop("seed", None)     # derived from the top-level seed, never set
    prefix = f"{path}." if path else ""
    unknown = [prefix + key for key in values if key not in hints]
    if unknown:
        raise ValueError("unknown config key " + ", ".join(unknown))
    kwargs = {}
    for key, value in values.items():
        hint, where = hints[key], prefix + key
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _section(hint, value, where)
            continue
        allowed, name = _VALUE_TYPES[hint]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"config key {where} must be {name}, got {value!r}")
        kwargs[key] = tuple(value) if hint is tuple else value
    return section_cls(**kwargs)


def _derive_int(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def train_des(train: Dataset, meta_train: Dataset, dsel: Dataset,
              config: ExperimentConfig, base_seed_parts=(0,), pool=None, scale=None):
    """Train one complete selection model.

    Pipeline: fit scaling on the train split; bag the pool; build meta-data
    for the consensus-filtered meta-training and reference samples; search for
    the meta-feature mask with global validation; train the final selector on
    the full meta-training data, masked (full width, zero outside the mask).

    ``pool`` and ``scale`` come together or not at all. Given, they take the
    place of the bagged pool and of the min-max scaling fitted on the train
    split, which they should be (``run_experiment`` fits each replication's
    scale to bag several replications' pools at once). One without the
    other, a pool whose width or class count differs from the train
    split's, or a scale of another width raises ValueError.

    Each meta-feature row is held once, in float32. The meta-training rows
    are built in the order of the search's 50/50 halving of whole samples,
    so its two halves are the two ends of the meta-dataset, as views; the
    final fit and ``info["meta_dataset"]`` read the rows in that order
    (sample-major, each row's sample named in ``sample_ids``).

    If the consensus filter leaves no reference sample, or under two
    meta-training rows, that split keeps all its samples, with a RuntimeWarning.

    Returns (model, archive, info) where ``info`` carries the meta-dataset and
    bookkeeping counters.
    """
    config.validate()
    if (pool is None) != (scale is None):
        raise ValueError("pool and scale go together: give both or neither")
    if pool is not None and (pool.feature_count, pool.class_count) != (
            train.feature_count, train.class_count):
        raise ValueError(f"pool of {pool.feature_count} features and {pool.class_count} "
                         f"classes for a train split of {train.feature_count} features "
                         f"and {train.class_count} classes")
    if scale is not None and not (
            scale.col_min.shape == scale.col_max.shape == (train.feature_count,)):
        raise ValueError(f"scale of {scale.col_min.shape} columns for a train split "
                         f"of {train.feature_count} features")
    parts = tuple(base_seed_parts)
    if pool is None:
        train_scaled, scale = scale_minmax(train)
        pool = _bag([train_scaled], config.pool, [parts])[0]
    meta_scaled = scale.apply_dataset(meta_train)
    dsel_scaled = scale.apply_dataset(dsel)

    extractor = MetaFeatureExtractor(pool, dsel_scaled, k=config.k, kp=config.kp)

    # consensus-based sample selection on both meta-data sources; only the
    # flags are kept, the pool's labels and supports are freed at once
    keep_meta = _consensus_keep(pool.predict_batch(meta_scaled.features)[0],
                                meta_scaled.labels, config, "meta-training",
                                least=-(-2 // len(pool)))   # two rows for the final fit
    keep_dsel = _consensus_keep(extractor.dsel_pred_labels, dsel_scaled.labels,
                                config, "reference")

    # sample-level 50/50 halving, all rows of one sample together: the
    # samples are built in the halving's order, so both halves are views
    meta_idx = np.random.default_rng([*parts, 30]).permutation(np.flatnonzero(keep_meta))
    meta_data = extractor.build_meta_dataset(
        meta_scaled.features[meta_idx], meta_scaled.labels[meta_idx],
        sample_ids=meta_idx)
    dsel_idx = np.flatnonzero(keep_dsel)
    val_data = extractor.build_meta_dataset(
        dsel_scaled.features[dsel_idx], dsel_scaled.labels[dsel_idx],
        self_indices=dsel_idx, sample_ids=dsel_idx)

    cut = len(meta_idx) // 2 * len(pool)       # the search's training rows
    if cut >= 2:
        bpso_cfg = dataclasses.replace(config.bpso, seed=_derive_int(*parts, 40))
        archive = optimize(meta_data.rows[:cut], meta_data.labels[:cut],
                           meta_data.rows[cut:], meta_data.labels[cut:],
                           val_data.rows, val_data.labels, bpso_cfg)
        mask = archive.mask
    else:
        warnings.warn("too few meta-training samples for mask search; "
                      "using the full meta-feature vector", RuntimeWarning)
        mask = np.ones(extractor.layout.size, dtype=bool)
        archive = Archive(mask=mask, validation_fitness=np.inf)

    meta_model = train_meta(meta_data.rows, meta_data.labels).masked(mask)
    model = DesModel(extractor, meta_model, mask, scale, config.selection_threshold)
    info = {
        "meta_dataset": meta_data,
        "validation_dataset": val_data,
        "kept_meta_samples": int(keep_meta.sum()),
        "kept_dsel_samples": int(keep_dsel.sum()),
    }
    return model, archive, info


def _consensus_keep(pool_labels, true_labels, config: ExperimentConfig, split: str,
                    least=1):
    """``engine.consensus_keep``'s flags at the config's threshold, all set,
    with a RuntimeWarning naming ``split``, if fewer than ``least`` are set."""
    keep = engine.consensus_keep(pool_labels, true_labels, config.consensus_threshold)
    kept = np.count_nonzero(keep)
    if kept < least:
        left = f"left only {kept}" if kept else "removed every"
        warnings.warn(f"consensus filter {left} {split} sample; "
                      "keeping all of them", RuntimeWarning)
        keep[:] = True
    return keep


def _bag(trains_scaled, pool_config: PoolConfig, seed_parts) -> list:
    """The pools of ``train_des`` for scaled train splits of one shape, one
    tuple of ``train_des`` seed parts each, trained in one lockstep."""
    seeds = [_derive_int(*parts, 20) for parts in seed_parts]
    return bagging(trains_scaled, pool_config.size, bootstrap_frac=pool_config.bootstrap_frac,
                   seed=seeds, epochs=pool_config.epochs, lr=pool_config.lr)


def _replications(config: ExperimentConfig):
    """(replication, splits, pool, scale) of every replication in order;
    each pool and scale are the ones ``train_des`` would bag and fit from
    the replication's train split.

    Replications go in groups of consecutive ones, as many as hold one
    budget (see ``_blocks``) of member x bootstrap-row entries, ~140 bytes
    each at P2's width: one per group on P2 at pool 100 (a replication never
    splits), 36 of a bundled CSV at pool 10. A group's splits are loaded (a
    CSV source read once per run; all splits of a source share one shape),
    and its pools train in one lockstep."""
    pc = config.pool
    source = _read_source(config)
    first = _load_splits(config, 0, source)
    rows = int(np.ceil(pc.bootstrap_frac * len(first[0])))     # frac is at most 1
    for group in _blocks.pieces(config.replications, pc.size * rows):
        reps = range(group.start, group.stop)
        splits = [_load_splits(config, r, source) if r else first for r in reps]
        scaled, scales = zip(*(scale_minmax(train) for train, _, _, _ in splits))
        pools = _bag(scaled, pc, [(config.seed, r) for r in reps])
        yield from zip(reps, splits, pools, scales)


def _read_source(config: ExperimentConfig) -> Dataset | None:
    """The dataset a CSV source holds; None for a generated source."""
    src = config.source
    return load_csv(src.path, src.label_column) if src.kind == "csv" else None


def _load_splits(config: ExperimentConfig, replication: int, source: Dataset | None = None):
    """(train, meta_train, dsel, test) of one replication. A CSV source's
    file is read unless its dataset is given as ``source``. A reference split
    of at most max(k, kp) rows, too few once the validation build leaves a
    row out of its own neighbourhoods, is a ValueError."""
    src = config.source
    parts = (config.seed, replication)
    if src.kind == "p2":
        splits = tuple(generate_p2(n, [*parts, 11 + i]) for i, n in enumerate(src.p2_sizes))
    else:
        ds = source if source is not None else _read_source(config)
        splits = split_holdout(ds, dataclasses.replace(src.split, seed=_derive_int(*parts, 10)))
    if len(splits[2]) <= max(config.k, config.kp):
        raise ValueError(f"the reference split holds {len(splits[2])} rows; it needs "
                         f"more than max(k, kp) = {max(config.k, config.kp)}")
    return splits


def evaluate_methods(model: DesModel, test: Dataset, methods):
    """Accuracy of each requested method on the raw test split.

    The baselines share the pool's labels on the reference set (the
    extractor's) and one search of the test split's ``model.k`` nearest
    reference rows."""
    X = model.prepare(test.features)
    test_scaled = Dataset(X, test.labels, test.class_count)
    shared = {}
    if any(m in engine.BASELINE_METHODS for m in methods):
        shared["dsel_pred_labels"] = model.extractor.dsel_pred_labels
    if any(m in engine.NEIGHBORHOOD_METHODS for m in methods):
        shared["neighbors"], _ = nearest_neighbors(X, model.dsel.features, model.k)
    accuracies = {}
    for method in methods:
        if method == FRAMEWORK_METHOD:
            pred, _ = classify_batch(model, test.features)
            accuracies[method] = float((pred == test.labels).mean())
        elif method == "oracle":
            accuracies[method] = oracle_accuracy(model.pool, test_scaled)
        else:
            pred, _ = engine.baseline_predict_batch(method, model.pool, model.dsel,
                                                    X, k=model.k, **shared)
            accuracies[method] = float((pred == test.labels).mean())
    return accuracies


@dataclass
class FrequencyReport:
    per_bit: np.ndarray
    per_bit_band: list
    per_set: dict
    per_set_band: dict
    layout: FeatureLayout


def frequency_band(freq: float) -> str:
    """Band label with inclusive lower boundaries at 25/50/75 percent."""
    if freq >= 0.75:
        return "black"
    if freq >= 0.5:
        return "dark_grey"
    if freq >= 0.25:
        return "light_grey"
    return "white"


def frequency_report(masks, layout: FeatureLayout) -> FrequencyReport:
    """Selection frequency of each meta-feature (and each criterion family)
    over a set of replication masks."""
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if masks.shape[1] != layout.size:
        raise ValueError("mask width does not match the layout")
    per_bit = masks.mean(axis=0)
    per_set = {}
    for name, start, width in layout.segments:
        per_set[name] = float(per_bit[start:start + width].mean())
    return FrequencyReport(
        per_bit=per_bit,
        per_bit_band=[frequency_band(f) for f in per_bit],
        per_set=per_set,
        per_set_band={k: frequency_band(v) for k, v in per_set.items()},
        layout=layout,
    )


def _mean_ranks(acc_matrix):
    """Average rank per column; rank 1 is the best accuracy, ties share the
    mean of the ranks they straddle."""
    others, own = acc_matrix[:, None, :], acc_matrix[:, :, None]
    # a tie group after g strictly better entries straddles ranks g+1 .. g+t
    ranks = (others > own).sum(axis=2) + ((others == own).sum(axis=2) + 1) / 2
    return ranks.mean(axis=0), ranks


@dataclass
class RunReport:
    methods: tuple
    accuracies: np.ndarray          # (replications, methods)
    masks: np.ndarray               # (replications, D)
    mean: dict
    std: dict
    avg_rank: dict                  # oracle excluded
    win_tie_loss: dict              # reference vs each other ranked method
    frequencies: FrequencyReport
    reference_method: str
    traces: list                    # per replication: list of trace tuples


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the full replicated protocol and aggregate a report.

    Replications go in groups (see ``_replications``): a group's data is
    split (or generated), a CSV source read once per run, and its pools are
    bagged in one lockstep, each byte-equal to the pool ``train_des`` would
    bag, from the train split scaled once. Then per replication: train a
    model on its pool and scale (meta-data with consensus filtering, mask
    search, final selector) and score every requested method on the test
    split. Deterministic given the configuration.
    """
    config.validate()
    methods = tuple(config.methods)
    acc = np.zeros((config.replications, len(methods)))
    masks = []
    traces = []
    for r, (train, meta_train, dsel, test), pool, scale in _replications(config):
        # train_des's info is dropped at once: its meta-datasets, kept
        # alive through the next replication's train_des, add their size
        # to that call's peak memory
        model, archive = train_des(train, meta_train, dsel, config,
                                   base_seed_parts=(config.seed, r), pool=pool,
                                   scale=scale)[:2]
        result = evaluate_methods(model, test, methods)
        for j, m in enumerate(methods):
            acc[r, j] = result[m]
        masks.append(model.mask)
        traces.append(archive.trace)
    masks = np.array(masks, dtype=bool)

    ranked = [m for m in methods if m != "oracle"]
    ranked_idx = [methods.index(m) for m in ranked]
    avg_rank_vals, _ = _mean_ranks(acc[:, ranked_idx])
    avg_rank = dict(zip(ranked, avg_rank_vals))

    ref = config.reference_method
    wtl = {}
    if ref in methods:
        ref_col = acc[:, methods.index(ref)]
        for m in ranked:
            if m == ref:
                continue
            col = acc[:, methods.index(m)]
            wtl[m] = (int((ref_col > col).sum()), int((ref_col == col).sum()),
                      int((ref_col < col).sum()))

    freq = frequency_report(masks, FeatureLayout(config.k, config.kp))
    return RunReport(
        methods=methods,
        accuracies=acc,
        masks=masks,
        mean={m: float(acc[:, j].mean()) for j, m in enumerate(methods)},
        std={m: float(acc[:, j].std()) for j, m in enumerate(methods)},
        avg_rank=avg_rank,
        win_tie_loss=wtl,
        frequencies=freq,
        reference_method=ref,
        traces=traces,
    )


# -- persistence -------------------------------------------------------------

def save_model(model: DesModel, path):
    """Write the model as one uncompressed ``.npz`` file of named arrays plus
    a ``header`` array of UTF-8 JSON; nothing in it is pickled. The file
    carries the extractor's RRC table, so a loaded model does not rebuild
    it. A selector without offsets is stored with zero offsets."""
    meta = model.meta
    header = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
              "k": int(model.k), "kp": int(model.kp),
              "selection_threshold": float(model.selection_threshold),
              "class_count": int(model.dsel.class_count), "bias": float(meta.bias),
              "prior": float(meta.prior), "iterations": int(meta.iterations),
              "degenerate": bool(meta.degenerate), "scale": model.scale is not None}
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "pool_weights": model.pool.weights,
        "pool_dist_scale": model.pool.dist_scale,
        "selector_weights": meta.weights,
        "selector_offsets": (np.zeros_like(meta.weights) if meta.offsets is None
                             else meta.offsets),
        "mask": model.mask,
        "dsel_features": model.dsel.features,
        "dsel_labels": model.dsel.labels,
        "t_prc": model.extractor.t_prc,
    }
    if model.scale is not None:
        arrays["scale_col_min"] = model.scale.col_min
        arrays["scale_col_max"] = model.scale.col_max
    # through a handle: given a path, np.savez appends ".npz" to a name
    # without that suffix
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# what np.load, zipfile and the model's constructors raise on a damaged file;
# np.load parses each array's header with tokenize and ast, whose errors it
# does not always wrap in ValueError
_UNREADABLE = (OSError, EOFError, ValueError, KeyError, TypeError, IndexError,
               RuntimeError, NotImplementedError, OverflowError, MemoryError,
               SyntaxError, tokenize.TokenError, zipfile.BadZipFile, struct.error)


def load_model(path) -> DesModel:
    """Read a model file written by ``save_model``, with ``allow_pickle=False``.

    Every object is rebuilt through its constructor, so their checks run on
    the stored values, and the extractor takes the stored RRC table. A
    damaged file, another format or version, and a pickled file of version
    5 or earlier (recognised by its first byte, never unpickled) raise
    ModelFormatError without producing a partial model.
    """
    with open(path, "rb") as fh:
        if fh.read(1) == b"\x80":
            raise ModelFormatError(
                f"{path}: a pickled model file of version 5 or earlier; model "
                f"version {MODEL_VERSION} files hold no pickles, retrain the model")
        fh.seek(0)
        try:
            return _read_model(fh, path)
        except ModelFormatError:
            raise
        except _UNREADABLE as exc:
            raise ModelFormatError(f"{path}: not a readable model file ({exc})") from exc


def _read_model(fh, path) -> DesModel:
    npz = np.load(fh, allow_pickle=False)
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    with npz:
        header = json.loads(npz["header"].tobytes().decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
        if header.get("version") != MODEL_VERSION:
            raise ModelFormatError(
                f"{path}: model version {header.get('version')!r} is incompatible "
                f"with supported version {MODEL_VERSION}")
        for key, kind in MODEL_HEADER.items():
            value = header.get(key)
            # bool is an int to isinstance, and an int is a float in JSON
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) is not (kind is bool) or not isinstance(value, allowed):
                raise ModelFormatError(f"{path}: header {key} must be a JSON {kind.__name__}")
        names = MODEL_ARRAYS + (SCALE_ARRAYS if header["scale"] else ())
        expected = sorted(names + ("header",))
        if sorted(npz.files) != expected:
            raise ModelFormatError(f"{path}: holds arrays {sorted(npz.files)}, "
                                   f"expected {expected}")
        a = {name: npz[name] for name in names}
    pool = ClassifierPool(a["pool_weights"], a["pool_dist_scale"])
    meta = MetaClassifier(a["selector_weights"], header["bias"], a["selector_offsets"],
                          header["prior"], header["iterations"], header["degenerate"])
    scale = (ScaleParams(a["scale_col_min"], a["scale_col_max"]) if header["scale"]
             else None)
    dsel = Dataset(a["dsel_features"], a["dsel_labels"], header["class_count"])
    extractor = MetaFeatureExtractor(pool, dsel, k=header["k"], kp=header["kp"],
                                     t_prc=a["t_prc"])
    return DesModel(extractor, meta, a["mask"], scale, header["selection_threshold"])


# -- CSV emission ------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".10g")


def write_frequency_csv(freq: FrequencyReport, path):
    """Per-bit selection frequency table: bit, name, criterion family,
    frequency and band."""
    names = freq.layout.column_names()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bit,name,set,frequency,band\n")
        for b, f in enumerate(freq.per_bit):
            fh.write(f"{b},{names[b]},{freq.layout.set_of(b)},{_fmt(f)},{freq.per_bit_band[b]}\n")


def write_report_csvs(report: RunReport, out_dir):
    """Emit accuracy.csv, summary.csv, masks.csv, the two frequency tables and
    the optimization trace. Output is byte-stable for identical reports."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "accuracy.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("replication,method,accuracy\n")
        for r in range(report.accuracies.shape[0]):
            for j, m in enumerate(report.methods):
                fh.write(f"{r},{m},{_fmt(report.accuracies[r, j])}\n")

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("method,mean_accuracy,std_accuracy,avg_rank,win,tie,loss\n")
        for m in report.methods:
            rank = _fmt(report.avg_rank[m]) if m in report.avg_rank else ""
            wtl = report.win_tie_loss.get(m)
            w, t, l = (str(x) for x in wtl) if wtl else ("", "", "")
            fh.write(f"{m},{_fmt(report.mean[m])},{_fmt(report.std[m])},{rank},{w},{t},{l}\n")

    with open(out / "masks.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("replication," + ",".join(report.frequencies.layout.column_names()) + "\n")
        for r in range(report.masks.shape[0]):
            fh.write(str(r) + "," + ",".join(str(int(b)) for b in report.masks[r]) + "\n")

    freq = report.frequencies
    write_frequency_csv(freq, out / "meta_feature_frequency.csv")
    with open(out / "meta_feature_set_frequency.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("set,frequency,band\n")
        for name, f in freq.per_set.items():
            fh.write(f"{name},{_fmt(f)},{freq.per_set_band[name]}\n")

    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("replication,run,generation,gbest_fitness,archive_validation_fitness,"
                 "mean_swarm_fitness\n")
        for r, trace in enumerate(report.traces):
            for run, gen, gbest, arch, meanf in trace:
                fh.write(f"{r},{run},{gen},{_fmt(gbest)},{_fmt(arch)},{_fmt(meanf)}\n")
