"""Dataset container, CSV ingestion, stratified splitting, scaling and the
synthetic two-class benchmark generator.

All operations are pure functions of their inputs plus an explicit RNG seed,
so results are reproducible and safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "SplitSpec",
    "ScaleParams",
    "load_csv",
    "load_csv_features",
    "split_holdout",
    "scale_minmax",
    "generate_p2",
    "p2_boundaries",
    "p2_true_labels",
]


@dataclass
class Dataset:
    """A labeled dataset: an (N, d) feature matrix plus integer labels.

    Labels are contiguous class indices in ``[0, class_count)``. Feature
    values must be finite; after min-max scaling every column lies in [0, 1].
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.features) == 0:
            raise ValueError("features must be a non-empty (N, d) matrix")
        if len(self.labels) != len(self.features):
            raise ValueError("features and labels length mismatch")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels out of range [0, class_count)")

    def __len__(self):
        return len(self.features)

    @property
    def feature_count(self):
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


@dataclass
class SplitSpec:
    """Holdout proportions for (train, dsel, test) plus the fraction of the
    train portion diverted to meta-training."""

    train_frac: float = 0.5
    dsel_frac: float = 0.25
    test_frac: float = 0.25
    meta_frac_of_train: float = 0.25
    seed: int = 0

    def validate(self):
        fracs = (self.train_frac, self.dsel_frac, self.test_frac)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise ValueError("split fractions must be in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"train/dsel/test fractions must sum to 1, got {sum(fracs)}")
        if not (0.0 < self.meta_frac_of_train < 1.0):
            raise ValueError("meta_frac_of_train must be in (0, 1)")


@dataclass
class ScaleParams:
    """Per-column min/max fitted on one split, reusable on others.

    Transformed values are clamped to [0, 1]; constant columns map to 0.5.
    """

    col_min: np.ndarray
    col_max: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        span = self.col_max - self.col_min
        safe = np.where(span > 0, span, 1.0)
        out = (features - self.col_min) / safe
        out = np.where(span > 0, out, 0.5)
        return np.clip(out, 0.0, 1.0)

    def apply_dataset(self, ds: Dataset) -> Dataset:
        return Dataset(self.apply(ds.features), ds.labels, ds.class_count)


class NoDataRowsError(ValueError):
    """A CSV file that is empty or holds only a header row."""


def _read_numeric_csv(path, label_column: int | None = None):
    """Feature matrix, raw label cells (empty without ``label_column``) and
    header row (None when absent) of a comma-separated file.

    An optional header row is auto-detected: if any feature cell of the first
    row fails to parse as a number, the row is treated as a header. Every
    other feature cell must be numeric. A file with no data rows raises
    ``NoDataRowsError``; a ``label_column`` outside [-width, width) raises
    ValueError.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise NoDataRowsError(f"{path}: file is empty")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + 1} has {len(row)} columns, expected {width}")
    if label_column is not None and not -width <= label_column < width:
        raise ValueError(f"{path}: label column {label_column} is out of range "
                         f"for {width} columns")
    label_idx = None if label_column is None else label_column % width

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    start = 0
    first_features = [c for j, c in enumerate(rows[0]) if j != label_idx]
    if any(not is_number(c) for c in first_features):
        start = 1
    if start >= len(rows):
        raise NoDataRowsError(f"{path}: no data rows")

    feats, raw_labels = [], []
    for r in range(start, len(rows)):
        vec = []
        for j, cell in enumerate(rows[r]):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                vec.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric feature cell at row {r + 1}, column {j + 1}: {cell!r}"
                ) from None
        feats.append(vec)
    return np.array(feats), raw_labels, (rows[0] if start else None)


def load_csv(path, label_column: int = -1) -> Dataset:
    """Read a comma-separated file into a Dataset.

    An optional header row is auto-detected: if any feature cell of the first
    row fails to parse as a number, the row is treated as a header. Labels are
    re-encoded as contiguous integers in first-appearance order and may be
    arbitrary symbols; feature cells must be numeric. ``label_column``
    counts from 0, or from the end when negative; a column the file does
    not have raises ValueError.
    """
    feats, raw_labels, _ = _read_numeric_csv(path, label_column)
    encoding: dict[str, int] = {}
    labels = []
    for sym in raw_labels:
        if sym not in encoding:
            encoding[sym] = len(encoding)
        labels.append(encoding[sym])
    if len(encoding) < 2:
        raise ValueError(f"{Path(path)}: only one class present ({next(iter(encoding))!r})")
    return Dataset(feats, np.array(labels), len(encoding))


def load_csv_features(path) -> np.ndarray:
    """Feature-only CSV (no label column), optional header row."""
    return _read_numeric_csv(path)[0]


def _allocate(counts_exact):
    """Largest-remainder rounding of one class's exact split counts.

    ``counts_exact`` is the vector of ideal (fractional) sizes; the rounded
    vector sums to round(sum). Ties and cross-class drift are handled by the
    caller through the carried remainder.
    """
    floors = np.floor(counts_exact).astype(int)
    leftover = int(round(counts_exact.sum())) - floors.sum()
    remainders = counts_exact - floors
    order = np.argsort(-remainders, kind="stable")
    out = floors.copy()
    for j in order[:leftover]:
        out[j] += 1
    return out


def _stratified_counts(class_sizes, fractions):
    """Per-class split sizes under largest-remainder allocation.

    A running shortfall per split is carried across classes so that global
    split totals track ``N * fraction`` as closely as per-class integrality
    allows (error diffusion).
    """
    fractions = np.asarray(fractions, dtype=float)
    shortfall = np.zeros(len(fractions))
    counts = []
    for n_c in class_sizes:
        exact = n_c * fractions
        alloc = _allocate(exact + shortfall)
        # keep every split non-empty for this class when the class is big enough
        if n_c >= len(fractions):
            while (alloc == 0).any():
                give = int(np.argmin(alloc))
                take = int(np.argmax(alloc))
                alloc[give] += 1
                alloc[take] -= 1
        shortfall += exact - alloc
        counts.append(alloc)
    return np.array(counts, dtype=int)


def split_holdout(ds: Dataset, spec: SplitSpec):
    """Stratified holdout split into (train, meta_train, dsel, test).

    Class proportions are preserved within +/-1 sample per split; the four
    splits partition the dataset exactly and are deterministic given the seed.
    The meta-training portion is carved out of the train allocation.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    class_sizes = [int((ds.labels == c).sum()) for c in range(ds.class_count)]
    for c, n_c in enumerate(class_sizes):
        if n_c < 4:
            raise ValueError(f"class {c} has only {n_c} samples; need at least 4")

    three_way = _stratified_counts(class_sizes, [spec.train_frac, spec.dsel_frac, spec.test_frac])
    pools = {"train": [], "meta": [], "dsel": [], "test": []}
    meta_shortfall = 0.0
    for c in range(ds.class_count):
        idx = np.flatnonzero(ds.labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_pool, n_dsel, n_test = three_way[c]
        pool_idx = idx[:n_pool]
        pools["dsel"].append(idx[n_pool:n_pool + n_dsel])
        pools["test"].append(idx[n_pool + n_dsel:n_pool + n_dsel + n_test])
        exact_meta = n_pool * spec.meta_frac_of_train
        # largest-remainder over (meta, train) with carried shortfall
        alloc = _allocate(np.array([exact_meta + meta_shortfall, n_pool - exact_meta - meta_shortfall]))
        n_meta = int(alloc[0])
        n_meta = min(max(n_meta, 1), n_pool - 1)
        meta_shortfall += exact_meta - n_meta
        pools["meta"].append(pool_idx[:n_meta])
        pools["train"].append(pool_idx[n_meta:])

    parts = {k: np.sort(np.concatenate(v)) for k, v in pools.items()}
    return (ds.subset(parts["train"]), ds.subset(parts["meta"]),
            ds.subset(parts["dsel"]), ds.subset(parts["test"]))


def scale_minmax(ds: Dataset):
    """Fit per-column min-max scaling on ``ds`` and return the scaled dataset
    together with the reusable ScaleParams."""
    params = ScaleParams(ds.features.min(axis=0), ds.features.max(axis=0))
    return params.apply_dataset(ds), params


# ---------------------------------------------------------------------------
# Synthetic two-class benchmark on [0, 10] x [0, 10].
#
# Four boundary curves partition the square; the class of a point flips each
# time a curve is crossed vertically (regions alternate between the classes,
# bottom region = class 0). Equivalently: a point belongs to class 1 iff it
# lies above an odd number of the four curves. The last curve's offset keeps
# the two class areas roughly equal, and the generator draws equal per-class
# sample counts, so emitted class priors are balanced by construction.
# ---------------------------------------------------------------------------

def p2_boundaries(x):
    """Evaluate the four boundary curves at abscissa ``x`` (array or scalar).

    Returns an array of shape (..., 4): sine band, left parabola, descending
    wave, right parabola.
    """
    x = np.asarray(x, dtype=float)
    return np.stack(
        [
            np.sin(x) + 5.0,
            (x - 2.0) ** 2 + 1.0,
            -0.1 * x ** 2 + 0.6 * np.sin(4.0 * x) + 8.0,
            (x - 10.0) ** 2 / 2.0 + 7.902,
        ],
        axis=-1,
    )


def p2_true_labels(points) -> np.ndarray:
    """Ground-truth class for points in the square: 1 iff the point lies
    strictly above an odd number of the four boundary curves."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    above = p2_boundaries(points[:, 0]) < points[:, 1][:, None]
    return (above.sum(axis=1) % 2).astype(int)


def generate_p2(n: int, seed: int = 0) -> Dataset:
    """Sample the synthetic two-class problem with balanced class counts.

    Candidate points are drawn uniformly over [0, 10]^2 and kept until each
    class quota (n//2 and n - n//2) is filled, so each class region is sampled
    uniformly and the emitted priors are balanced. Deterministic given seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    remaining = np.array([n - n // 2, n // 2])
    feats = np.empty((n, 2))
    labels = np.empty(n, dtype=int)
    pos = 0
    while pos < n:
        batch = rng.uniform(0.0, 10.0, size=(max(4 * (n - pos), 64), 2))
        lab = p2_true_labels(batch)
        # keep a candidate while its class, counted up to it in this batch,
        # still fits that class's remaining quota
        seen = np.where(lab == 1, np.cumsum(lab), np.cumsum(1 - lab))
        keep = np.flatnonzero(seen <= remaining[lab])
        feats[pos:pos + len(keep)] = batch[keep]
        labels[pos:pos + len(keep)] = lab[keep]
        remaining -= np.bincount(lab[keep], minlength=2)
        pos += len(keep)
    return Dataset(feats, labels, 2)
