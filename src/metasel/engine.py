"""Generalization-phase classification and the reference selection methods.

A trained model bundles the pool, the competence selector, the selected
meta-feature mask and everything needed to rebuild neighborhoods, so
classification of a raw sample is self-contained: scale, locate the region of
competence and profile neighborhood, extract the masked meta-features per
member, keep members whose competence clears the selection threshold and
combine them by competence-weighted majority voting. When no member clears
the threshold the single most competent member decides (flagged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, ScaleParams
from .metaclassifier import MetaClassifier
from .metafeatures import MetaFeatureExtractor, apply_mask
from .pool import ClassifierPool
from .regions import nearest_neighbors

__all__ = [
    "DesModel",
    "ClassifyDiagnostics",
    "classify",
    "classify_batch",
    "consensus_keep",
    "weighted_majority_vote",
    "BASELINE_METHODS",
    "baseline_predict_batch",
    "oracle_accuracy",
]


@dataclass
class ClassifyDiagnostics:
    competences: np.ndarray      # delta per pool member
    selected: np.ndarray         # indices of members in the voting ensemble
    fallback: bool               # True when no member cleared the threshold


@dataclass
class DesModel:
    """Serializable bundle produced by training; see ``experiment.train_des``."""

    pool: ClassifierPool
    meta: MetaClassifier
    mask: np.ndarray
    scale: ScaleParams | None
    dsel: Dataset
    k: int = 7
    kp: int = 5
    consensus_threshold: float = 0.7
    selection_threshold: float = 0.5
    _extractor: MetaFeatureExtractor | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        # threshold 0 selects the whole pool (degenerates to majority voting)
        if not (0.0 <= self.selection_threshold < 1.0):
            raise ValueError("selection threshold must lie in [0, 1)")

    @property
    def extractor(self) -> MetaFeatureExtractor:
        # rebuilt deterministically from the bundle; not serialized
        if self._extractor is None:
            self._extractor = MetaFeatureExtractor(self.pool, self.dsel, k=self.k, kp=self.kp)
        return self._extractor

    def prepare(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.scale.apply(X) if self.scale is not None else X


def weighted_majority_vote(labels, weights, class_count: int) -> int:
    """Argmax of per-class summed weights; ties go to the lowest class index.

    If every weight is zero the vote degrades to an unweighted majority so
    that the winner is always one of the voted labels.
    """
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    if weights.sum() <= 0.0:
        weights = np.ones_like(weights)
    totals = np.zeros(class_count)
    np.add.at(totals, labels, weights)
    return int(np.argmax(totals))


def classify_batch(model: DesModel, X):
    """Hybrid dynamic selection + weighted voting for a batch of raw samples.

    Returns (labels, diagnostics list).
    """
    Xs = model.prepare(X)
    feats, _, pred_labels = model.extractor.extract_batch(Xs)
    masked = apply_mask(feats.reshape(-1, model.extractor.layout.size), model.mask)
    delta = model.meta.competence_batch(masked).reshape(len(Xs), len(model.pool))
    out = np.empty(len(Xs), dtype=int)
    diags = []
    L = model.pool.class_count
    for j in range(len(Xs)):
        member_labels = pred_labels[:, j]
        selected = np.flatnonzero(delta[j] >= model.selection_threshold)
        fallback = selected.size == 0
        if fallback:
            selected = np.array([int(np.argmax(delta[j]))])
            out[j] = int(member_labels[selected[0]])
        else:
            out[j] = weighted_majority_vote(member_labels[selected],
                                            delta[j][selected], L)
        diags.append(ClassifyDiagnostics(delta[j], selected, fallback))
    return out, diags


def classify(model: DesModel, x):
    """Label and diagnostics for a single raw sample."""
    labels, diags = classify_batch(model, np.atleast_2d(x))
    return int(labels[0]), diags[0]


def consensus_keep(pool_labels, true_labels, threshold: float):
    """Boolean keep-mask for meta-training sample selection.

    A sample enters meta-training when the pool's consensus on its correct
    label falls below the threshold; a threshold of 1.0 (or more) disables
    filtering entirely.
    """
    frac = (np.asarray(pool_labels) == np.asarray(true_labels)[None, :]).mean(axis=0)
    if threshold >= 1.0:
        return np.ones(len(frac), dtype=bool)
    return frac < threshold


BASELINE_METHODS = ("ola", "lca", "knora_e", "knora_u", "single_best",
                    "static_selection", "majority_vote")


def baseline_predict_batch(method: str, pool: ClassifierPool, dsel: Dataset, X, k: int = 7):
    """Labels (Nq,) of the reference dynamic/static selection methods on the
    same pool, plus the member(s) a static method chose (else None).

    ola: member with the best accuracy over the k nearest reference samples.
    lca: member with the best accuracy among neighbors whose true class equals
        the member's predicted class for x.
    knora_e: members correct on every neighbor, shrinking k until non-empty,
        else plain majority vote; selected members vote equally.
    knora_u: one vote per correctly classified neighbor per member.
    single_best: member with the best accuracy on the whole reference set.
    static_selection: majority vote of the top half of members by reference
        accuracy.
    majority_vote: unweighted vote of the whole pool.

    All ties break toward the lower index.
    """
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {BASELINE_METHODS}")
    if k > len(dsel):
        raise ValueError("k cannot exceed the reference set size")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    M, L = len(pool), pool.class_count
    pred_q, _ = pool.predict_batch(X)                       # (M, Nq)
    dsel_labels, _ = pool.predict_batch(dsel.features)      # (M, N)
    correct = dsel_labels == dsel.labels[None, :]           # (M, N)
    out = np.empty(len(X), dtype=int)

    if method == "majority_vote":
        for j in range(len(X)):
            out[j] = weighted_majority_vote(pred_q[:, j], np.ones(M), L)
        return out, None
    if method == "single_best":
        best = int(np.argmax(correct.mean(axis=1)))
        return pred_q[best].astype(int).copy(), best
    if method == "static_selection":
        acc = correct.mean(axis=1)
        top = np.argsort(-acc, kind="stable")[: int(np.ceil(M / 2))]
        for j in range(len(X)):
            out[j] = weighted_majority_vote(pred_q[top, j], np.ones(len(top)), L)
        return out, top

    order, _ = nearest_neighbors(X, dsel.features, k)
    for j in range(len(X)):
        nbrs = order[j]
        local = correct[:, nbrs]                            # (M, k)
        if method == "ola":
            out[j] = pred_q[int(np.argmax(local.mean(axis=1))), j]
        elif method == "lca":
            same = dsel.labels[nbrs][None, :] == pred_q[:, j, None]     # (M, k)
            count = same.sum(axis=1)
            scores = np.divide((local & same).sum(axis=1), count, out=np.zeros(M),
                               where=count > 0)
            out[j] = pred_q[int(np.argmax(scores)), j]
        elif method == "knora_e":
            chosen = None
            for kk in range(k, 0, -1):
                all_ok = correct[:, order[j, :kk]].all(axis=1)
                if all_ok.any():
                    chosen = np.flatnonzero(all_ok)
                    break
            if chosen is None:
                out[j] = weighted_majority_vote(pred_q[:, j], np.ones(M), L)
            else:
                out[j] = weighted_majority_vote(pred_q[chosen, j], np.ones(len(chosen)), L)
        elif method == "knora_u":
            votes = local.sum(axis=1).astype(float)
            out[j] = weighted_majority_vote(pred_q[:, j], votes, L)
    return out, None


def oracle_accuracy(pool: ClassifierPool, test: Dataset) -> float:
    """Fraction of test samples for which at least one member is correct."""
    labels, _ = pool.predict_batch(test.features)
    return float((labels == test.labels[None, :]).any(axis=0).mean())
