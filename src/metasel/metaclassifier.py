"""The competence selector: a regularized logistic model mapping a (masked)
meta-feature vector to a competence support in [0, 1].

Inputs are standardized with constants learned from the training rows (stored
on the model), then fit by Newton iterations on the L2-penalized logistic
loss. Training is deterministic: weights start at zero and every step is a
function of the data alone, so row order cannot change the result beyond
floating-point summation noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetaTrainConfig", "MetaClassifier", "train_meta"]


@dataclass
class MetaTrainConfig:
    l2: float = 1e-2
    max_iter: int = 30
    tol: float = 1e-10
    seed: int = 0
    positive_class_weight: float = 1.0


@dataclass
class MetaClassifier:
    """Linear competence model; ``competence_batch`` yields sigmoid(w . v~ + b)."""

    weights: np.ndarray          # (p,) for standardized inputs
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    input_dim: int
    config: MetaTrainConfig = field(default_factory=MetaTrainConfig)
    iterations: int = 0
    degenerate: bool = False

    def decision(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} input features, got {rows.shape[1]}")
        z = (rows - self.feature_mean) / self.feature_std
        return np.clip(z @ self.weights + self.bias, -35.0, 35.0)

    def competence_batch(self, rows) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.decision(rows)))


def train_meta(rows, labels, config: MetaTrainConfig | None = None,
               standardized: tuple | None = None) -> MetaClassifier:
    """Fit the competence model on masked meta-feature rows with 0/1 labels.

    Needs at least two rows; if only one meta-class is present the model
    degenerates to a constant output at that class's value (flagged and
    warned). The L2 penalty applies to the weights, not the bias.

    ``standardized=(mean, std)`` says that ``rows`` are already standardized
    with these column constants (std already guarded against zero), so the
    column reductions are skipped; the returned model stores the constants
    and scores raw rows as usual.
    """
    config = config or MetaTrainConfig()
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
        value = float(classes[0])
        bias = 35.0 if value >= 0.5 else -35.0
        return MetaClassifier(np.zeros(p), bias, mean, std, p,
                              config=config, degenerate=True)

    w = np.zeros(p)
    b = 0.0
    sample_w = np.where(labels == 1.0, config.positive_class_weight, 1.0)
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        z = np.clip(Z @ w + b, -35.0, 35.0)
        prob = 1.0 / (1.0 + np.exp(-z))
        resid = sample_w * (prob - labels)
        grad_w = Z.T @ resid + config.l2 * w
        grad_b = resid.sum()
        curv = np.maximum(sample_w * prob * (1.0 - prob), 1e-9)
        H = (Z * curv[:, None]).T @ Z + config.l2 * np.eye(p)
        Hb = np.empty((p + 1, p + 1))
        Hb[:p, :p] = H
        Hb[:p, p] = Hb[p, :p] = Z.T @ curv
        Hb[p, p] = curv.sum()
        step = np.linalg.solve(Hb, np.concatenate([grad_w, [grad_b]]))
        w -= step[:p]
        b -= step[p]
        if np.abs(step).max() < config.tol:
            break
    return MetaClassifier(w, float(b), mean, std, p, config=config,
                          iterations=iterations)


def standardize_constants(rows):
    """Column mean and std of ``rows``; a std of 1e-12 or less becomes 1."""
    std = rows.std(axis=0)
    return rows.mean(axis=0), np.where(std > 1e-12, std, 1.0)
