"""The competence selector: a regularized logistic model mapping a (masked)
meta-feature vector to a competence support in [0, 1].

Inputs are standardized with constants learned from the training rows, then
fit by Newton iterations on the L2-penalized logistic loss; the returned
model folds the constants in (``w / std``, ``b - mean . w / std``) and scores
raw rows. Training is deterministic: weights start at zero and every step is
a function of the data alone, so row order cannot change the result beyond
floating-point summation noise.

Precision: the decision ``Z w + b``, the sigmoid, the gradient, the solve,
the iterate and the stopping test are float64. Only the curvature is float32:
each step's bordered Hessian is the Gram matrix of ``[Z * root | root]``,
``root = sqrt(sample weight * p * (1 - p))``, taken by one float32 ``syrk``
and then widened, with the penalty added to its weight diagonal in float64.
A less exact Hessian changes only the path of the iterates (an inexact Newton
method, Dembo, Eisenstat & Steihaug 1982): a step is zero exactly where the
float64 gradient is, so the fit stops at the same regularized optimum, to
within the step tolerance, possibly after a different number of iterations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["MetaTrainConfig", "MetaClassifier", "train_meta"]


@dataclass
class MetaTrainConfig:
    l2: float = 1e-2
    max_iter: int = 30
    tol: float = 1e-10
    positive_class_weight: float = 1.0

    def validate(self):
        # "not ok" rather than "bad", so that NaN fails too
        if not self.l2 >= 0:
            raise ValueError("l2 must be >= 0")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        for name in ("tol", "positive_class_weight"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class MetaClassifier:
    """Linear competence model on raw (masked) meta-features: sigmoid(w . v + b)."""

    weights: np.ndarray
    bias: float
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


def sigmoid(z) -> np.ndarray:
    """1 / (1 + exp(-clip(z, -35, 35))), in place in the float array ``z``."""
    np.clip(z, -35.0, 35.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def train_meta(rows, labels, config: MetaTrainConfig | None = None,
               standardized: tuple | None = None) -> MetaClassifier:
    """Fit the competence model on masked meta-feature rows with 0/1 labels.

    Needs at least two rows; if only one meta-class is present the model
    degenerates to a constant output at that class's value (flagged and
    warned). The L2 penalty applies to the weights, not the bias.

    ``standardized=(mean, std)`` says that ``rows`` are already standardized
    with these column constants (std already guarded against zero), so the
    column reductions are skipped; the returned model scores raw rows as
    usual.
    """
    config = config or MetaTrainConfig()
    config.validate()
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    labels = np.asarray(labels, dtype=float).reshape(-1)
    if len(rows) < 2:
        raise ValueError("need at least two training rows")
    if len(rows) != len(labels):
        raise ValueError("rows and labels length mismatch")
    p = rows.shape[1]

    if standardized is None:
        mean, std = standardize_constants(rows)
        Z = (rows - mean) / std
    else:
        (mean, std), Z = standardized, rows

    classes = np.unique(labels)
    if len(classes) < 2:
        warnings.warn("meta-training data contains a single meta-class; "
                      "competence model is constant", RuntimeWarning)
        return MetaClassifier(np.zeros(p), 35.0 if classes[0] >= 0.5 else -35.0,
                              degenerate=True)

    w = np.zeros(p)
    b = 0.0
    sample_w = np.where(labels == 1.0, config.positive_class_weight, 1.0)
    # the curvature-scaled, bias-bordered design [Z * root | root]: its Gram
    # matrix is the bordered Hessian without the penalty, one ssyrk per step
    S = np.empty((len(Z), p + 1), dtype=np.float32, order="F")
    diag = slice(0, p * (p + 2), p + 2)      # first p diagonal entries, flat
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        prob = sigmoid(Z @ w + b)
        resid = sample_w * (prob - labels)
        grad = np.concatenate([Z.T @ resid + config.l2 * w, [resid.sum()]])
        # cast Z and root into S, then scale in float32: a float64 product
        # cast on its way out goes through numpy's buffered casting loop,
        # which takes longer than both steps together
        S[:, :p] = Z
        S[:, p] = np.sqrt(np.maximum(sample_w * prob * (1.0 - prob), 1e-9))
        S[:, :p] *= S[:, p:]
        Hb = (S.T @ S).astype(float)
        Hb.flat[diag] += config.l2
        step = np.linalg.solve(Hb, grad)
        w -= step[:p]
        b -= step[p]
        if np.abs(step).max() < config.tol:
            break
    weights = w / std
    return MetaClassifier(weights, float(b - mean @ weights), iterations=iterations)


def standardize_constants(rows):
    """Column mean and std of ``rows``; a std of 1e-12 or less becomes 1."""
    std = rows.std(axis=0)
    return rows.mean(axis=0), np.where(std > 1e-12, std, 1.0)
