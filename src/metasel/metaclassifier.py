"""The competence selector: a pooled-variance Gaussian naive-Bayes model
mapping a meta-feature vector to a competence support in [0, 1].

Per meta-feature j the fit takes the class means ``mu1``, ``mu0`` of the 0/1
meta-labels and the pooled within-class variance ``s2``. Two Gaussians that
share a variance have a linear log-likelihood ratio, so the model is

    w_j = (mu1 - mu0) / s2,   c_j = -w_j (mu1 + mu0) / 2,
    competence(v) = sigmoid(sum_j w_j v_j + log(n1 / n0) + sum_j c_j)

No term of column j depends on another column, so the selector that a fit on
a subset of the columns gives is the full fit's weights and offsets on that
subset (``MetaClassifier.masked``): one fit serves every mask of a search.
The fit is closed-form and needs no standardization (the ratio is invariant
to rescaling a column). META-DES.H (Cruz, Sabourin & Cavalcanti, IJCNN 2015)
compares meta-classifiers for this role, and later META-DES work reports
naive Bayes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["MetaClassifier", "train_meta"]

# a column's pooled variance is at least this fraction of its total variance
_VAR_FLOOR = 1e-9


@dataclass
class MetaClassifier:
    """Linear competence model on raw meta-features: sigmoid(w . v + b).

    A fit also keeps its per-column offsets ``c`` and its log prior odds,
    with ``b = prior + sum(c)`` over the columns in use. ``iterations`` is 0
    for the closed-form fit.
    """

    weights: np.ndarray
    bias: float
    offsets: np.ndarray | None = None
    prior: float = 0.0
    iterations: int = 0
    degenerate: bool = False

    @property
    def input_dim(self) -> int:
        return len(self.weights)

    def competence_batch(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got {rows.shape[1]}")
        return sigmoid(rows @ self.weights + self.bias)

    def masked(self, mask) -> "MetaClassifier":
        """The selector a fit on the ``mask`` columns alone gives, kept at
        full width with zero weights and offsets outside the mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.weights.shape:
            raise ValueError(f"mask of length {mask.size} for {self.input_dim} features")
        if self.offsets is None:
            raise ValueError("masked needs the per-column offsets of a train_meta fit")
        return MetaClassifier(np.where(mask, self.weights, 0.0),
                              float(self.prior + self.offsets[mask].sum()),
                              np.where(mask, self.offsets, 0.0), self.prior,
                              degenerate=self.degenerate)


def sigmoid(z) -> np.ndarray:
    """1 / (1 + exp(-clip(z, -35, 35))), in place in the float array ``z``."""
    np.clip(z, -35.0, 35.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def train_meta(rows, labels) -> MetaClassifier:
    """Fit the competence model on meta-feature rows with 0/1 labels.

    Needs at least two rows; a label other than 0 or 1 is a ValueError. If
    only one meta-class is present the model degenerates to a constant
    output at that class's value (flagged and warned). A column whose values
    are all equal gets weight 0. The rows are read one column at a time in
    float64, so float32 rows fit bit for bit as the same rows widened to
    float64. The labels are read as given (int8, bool, any integer or
    float 0/1): each product casts them as it multiplies, so no float64 copy
    is made and every dtype gives the same selector bits.
    """
    rows = np.atleast_2d(np.asarray(rows))
    labels = np.asarray(labels).reshape(-1)
    if len(rows) < 2:
        raise ValueError("need at least two training rows")
    if len(rows) != len(labels):
        raise ValueError("rows and labels length mismatch")
    others = labels == 0
    bad = labels[~others & (labels != 1)]
    if bad.size:
        raise ValueError(f"meta-labels must be 0 or 1, got {bad[0].item()!r}")
    n, p = rows.shape
    n1 = np.count_nonzero(labels)
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        warnings.warn("meta-training data contains a single meta-class; "
                      "competence model is constant", RuntimeWarning)
        bias = 35.0 if n1 else -35.0
        return MetaClassifier(np.zeros(p), bias, np.zeros(p), bias, degenerate=True)

    diff, mid, within = np.empty(p), np.empty(p), np.empty(p)
    x, scratch = np.empty(n), np.empty(n)
    for j in range(p):
        # one contiguous float64 column at a time, shifted by its first value
        # so that a constant column is exactly zero. No temporary grows with
        # the width, and with numpy's own sums (no BLAS) a column's
        # statistics are bit for bit the same whatever columns come with it
        # and however rows is laid out.
        first = float(rows[0, j])
        np.subtract(rows[:, j], first, out=x, dtype=float)
        mu1 = np.multiply(labels, x, out=scratch).sum() / n1
        mu0 = np.multiply(others, x, out=scratch).sum() / n0
        diff[j], mid[j] = mu1 - mu0, first + (mu1 + mu0) / 2
        x -= mu0                                  # minus the row's class mean
        x -= np.multiply(labels, diff[j], out=scratch)
        within[j] = np.square(x, out=x).sum() / n
    total = within + (n1 / n) * (n0 / n) * diff * diff
    var = np.maximum(within, _VAR_FLOOR * total)
    # total == 0 only for a column whose values are all equal: weight 0
    weights = np.divide(diff, var, out=np.zeros(p), where=total > 0)
    offsets = -weights * mid
    prior = float(np.log(n1 / n0))
    return MetaClassifier(weights, float(prior + offsets.sum()), offsets, prior)
