"""Generalization-phase classification and the reference selection methods.

A trained model bundles the pool, the competence selector, the selected
meta-feature mask and everything needed to rebuild neighborhoods, so
classification of a raw sample is self-contained: scale, locate the region of
competence and profile neighborhood, and score each member with the linear
selector, one block of samples at a time. The extractor adds each selected
family's weighted share to the members' decisions as it gathers it, so no
meta-feature vector is materialised. Members whose competence clears the
selection threshold are combined by competence-weighted majority voting. When
no member clears the threshold the single most competent member decides
(flagged).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, ScaleParams
from .metaclassifier import MetaClassifier, sigmoid
from . import _blocks
from .metafeatures import MetaFeatureExtractor
from .pool import ClassifierPool
from .regions import nearest_neighbors

__all__ = [
    "DesModel",
    "ClassifyResult",
    "SampleResult",
    "classify",
    "classify_batch",
    "consensus_keep",
    "weighted_majority_vote",
    "BASELINE_METHODS",
    "NEIGHBORHOOD_METHODS",
    "baseline_predict_batch",
    "oracle_accuracy",
]


class SampleResult(NamedTuple):
    """One sample's decision, read from a ``ClassifyResult``."""

    competences: np.ndarray      # (M,) delta per pool member
    selected: np.ndarray         # indices of the members in the voting ensemble
    fallback: bool               # True when no member cleared the threshold


@dataclass(frozen=True, eq=False)
class ClassifyResult:
    """Per-sample decisions of ``classify_batch``, held as arrays.

    ``len``, integer indexing and iteration give one ``SampleResult`` per
    sample, built on access: its ``selected`` lists the members whose
    competence cleared the threshold, or only ``best`` on a fallback.
    """

    competences: np.ndarray      # (Nq, M) delta per sample and pool member
    selected: np.ndarray         # (Nq, M) True where a member cleared the threshold
    fallback: np.ndarray         # (Nq,) True where no member cleared it
    best: np.ndarray             # (Nq,) the most competent member

    def __len__(self):
        return len(self.fallback)

    def __getitem__(self, j) -> SampleResult:
        j = range(len(self))[operator.index(j)]   # one sample; negative counts from the end
        fallback = bool(self.fallback[j])
        members = self.best[j:j + 1] if fallback else np.flatnonzero(self.selected[j])
        return SampleResult(self.competences[j], members, fallback)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass
class DesModel:
    """Serializable bundle produced by training; see ``experiment.train_des``.

    The extractor alone holds the pool, the scaled reference set and K, Kp;
    the model reads them from it. A mask, selector or scale whose width
    does not fit them raises ValueError when the model is built.
    """

    extractor: MetaFeatureExtractor
    meta: MetaClassifier
    mask: np.ndarray
    scale: ScaleParams | None
    selection_threshold: float = 0.5

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        # threshold 0 selects the whole pool (degenerates to majority voting)
        if not (0.0 <= self.selection_threshold < 1.0):
            raise ValueError("selection threshold must lie in [0, 1)")
        width, meta = self.extractor.layout.size, self.meta
        if not (self.mask.shape == meta.weights.shape == (width,)
                and (meta.offsets is None or meta.offsets.shape == (width,))):
            raise ValueError(f"mask and selector must have the layout's {width} columns")
        d, scale = self.dsel.feature_count, self.scale
        if scale is not None and not scale.col_min.shape == scale.col_max.shape == (d,):
            raise ValueError(f"scale must have {d} columns")
        if meta.weights[~self.mask].any() or (
                meta.offsets is not None and meta.offsets[~self.mask].any()):
            raise ValueError("selector weights and offsets must be zero outside the mask")

    @property
    def pool(self) -> ClassifierPool:
        return self.extractor.pool

    @property
    def dsel(self) -> Dataset:
        return self.extractor.dsel

    @property
    def k(self) -> int:
        return self.extractor.layout.k

    @property
    def kp(self) -> int:
        return self.extractor.layout.kp

    def prepare(self, X) -> np.ndarray:
        """Raw samples (Nq, d), or one sample (d,), scaled as the reference
        set was; a wrong width or a non-finite value is a ValueError."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = self.dsel.feature_count
        if X.ndim != 2 or X.shape[1] != d:
            raise ValueError(f"expected {d} features per sample, got {X.shape[-1]}")
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite values")
        return self.scale.apply(X) if self.scale is not None else X


def weighted_majority_vote(labels, weights, class_count: int) -> int | np.ndarray:
    """Argmax of per-class summed weights; ties go to the lowest class index.

    ``labels`` and ``weights`` have the same shape ``(..., m)``: each row of
    the last axis is one vote of m members, and the result has shape ``(...)``
    (a plain int for a 1-D call). Within a row the weights are added in
    member order, so a stacked call equals the per-row calls bit for bit. If
    every weight in a row is zero the row degrades to an unweighted majority,
    so that the winner is always one of the voted labels.
    """
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    if labels.shape != weights.shape:
        raise ValueError("labels and weights must have the same shape")
    lead, m = labels.shape[:-1], labels.shape[-1]
    rows = math.prod(lead)
    weights = np.where(weights.sum(axis=-1, keepdims=True) <= 0.0, 1.0, weights)
    totals = np.zeros((rows, class_count))
    np.add.at(totals, (np.arange(rows)[:, None], labels.reshape(rows, m)),
              weights.reshape(rows, m))
    winners = totals.argmax(axis=1).reshape(lead)
    return int(winners) if labels.ndim == 1 else winners


def classify_batch(model: DesModel, X):
    """Hybrid dynamic selection + weighted voting for a batch of raw samples.

    Returns (labels, ``ClassifyResult``). The samples are extracted and
    scored in the extractor's ``query_blocks``, so memory does not grow with
    the batch. A block's competences are ``sigmoid(decision + bias)``, where the
    extractor sums the selector's weighted meta-features over the mask
    family by family; they equal scoring the full-width feature block up to
    summation order.
    """
    Xs = model.prepare(X)
    ex = model.extractor
    M = len(model.pool)
    delta = np.empty((len(Xs), M))
    # in the reference labels' type, the narrowest that holds every class
    pred_labels = np.empty((M, len(Xs)), dtype=ex.dsel_pred_labels.dtype)
    for blk in ex.query_blocks(len(Xs)):
        decision, _, pred_labels[:, blk] = ex.extract_batch(Xs[blk], mask=model.mask,
                                                            weights=model.meta.weights)
        decision += model.meta.bias
        delta[blk] = sigmoid(decision)
    return _select_and_vote(delta, pred_labels, model.selection_threshold,
                            model.pool.class_count)


def _select_and_vote(delta, pred_labels, threshold: float, class_count: int):
    """``classify_batch``'s decision from competences ``delta`` (Nq, M) and
    member labels ``pred_labels`` (M, Nq): the members at or above
    ``threshold`` vote weighted by competence, else the most competent member
    decides (flagged). Returns (labels, ``ClassifyResult``)."""
    selected = delta >= threshold                                   # (Nq, M)
    # Unselected members vote with weight 0, so a row's weights are all zero
    # exactly when it is a fallback row, whose vote the best member's label
    # overwrites below. At threshold 0 no row is: ``sigmoid`` clips at +-35,
    # so every competence is at least ~6.3e-16.
    out = weighted_majority_vote(pred_labels.T, np.where(selected, delta, 0.0), class_count)
    fallback = ~selected.any(axis=1)
    best = delta.argmax(axis=1)
    rows = np.flatnonzero(fallback)
    out[rows] = pred_labels[best[rows], rows]
    return out, ClassifyResult(delta, selected, fallback, best)


def classify(model: DesModel, x):
    """Label and ``SampleResult`` of a single raw sample."""
    labels, result = classify_batch(model, np.atleast_2d(x))
    return int(labels[0]), result[0]


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
# the baselines that read each query's k nearest reference rows
NEIGHBORHOOD_METHODS = ("ola", "lca", "knora_e", "knora_u")


def baseline_predict_batch(method: str, pool: ClassifierPool, dsel: Dataset, X, k: int = 7,
                           *, dsel_pred_labels=None, neighbors=None):
    """Labels (Nq,) of the reference dynamic/static selection methods on the
    same pool, plus the member(s) a static method chose (else None).

    ``dsel_pred_labels`` (M, N), the pool's labels on the reference set, and
    ``neighbors`` (Nq, k), the first index array ``nearest_neighbors(X,
    dsel.features, k)`` returns, may be passed in when several methods are
    scored on the same queries; each is computed here when it is not given.

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
    if dsel_pred_labels is None:
        dsel_pred_labels, _ = pool.predict_batch(dsel.features)
    elif np.shape(dsel_pred_labels) != (M, len(dsel)):
        raise ValueError(f"dsel_pred_labels of shape {np.shape(dsel_pred_labels)}, "
                         f"expected {(M, len(dsel))}")
    correct = dsel_pred_labels == dsel.labels[None, :]      # (M, N)
    votes = pred_q.T                                        # (Nq, M)

    if method == "majority_vote":
        return weighted_majority_vote(votes, np.ones(votes.shape), L), None
    if method == "single_best":
        best = int(np.argmax(correct.mean(axis=1)))
        return pred_q[best].astype(int), best
    if method == "static_selection":
        acc = correct.mean(axis=1)
        top = np.argsort(-acc, kind="stable")[: int(np.ceil(M / 2))]
        return weighted_majority_vote(votes[:, top], np.ones((len(X), len(top))), L), top

    if neighbors is None:
        neighbors, _ = nearest_neighbors(X, dsel.features, k)
    elif np.shape(neighbors) != (len(X), k):
        raise ValueError(f"neighbors of shape {np.shape(neighbors)}, expected {(len(X), k)}")
    # neighbour-major: the counts below add k (M, Nq) planes, and integer
    # sums do not depend on their order
    order = np.asarray(neighbors).T                         # (k, Nq)
    local = correct[:, order].transpose(1, 0, 2)            # (k, M, Nq)
    queries = np.arange(len(X))
    if method == "ola":
        return pred_q[local.sum(axis=0).argmax(axis=0), queries], None
    if method == "lca":
        same = dsel.labels[order][:, None, :] == pred_q[None, :, :]
        count = same.sum(axis=0)
        scores = np.divide((local & same).sum(axis=0), count,
                           out=np.zeros(count.shape), where=count > 0)
        return pred_q[scores.argmax(axis=0), queries], None
    if method == "knora_e":
        # streak[t, i, j]: member i is correct on query j's first t + 1 neighbours
        streak = np.logical_and.accumulate(local, axis=0)
        depth = streak.any(axis=1).sum(axis=0)              # (Nq,)
        # at depth 0 the row holds no True, so the vote falls back to all members
        chosen = streak[np.maximum(depth - 1, 0), :, queries]   # (Nq, M)
        return weighted_majority_vote(votes, chosen.astype(float), L), None
    # knora_u
    return weighted_majority_vote(votes, local.sum(axis=0).T.astype(float), L), None


def oracle_accuracy(pool: ClassifierPool, test: Dataset) -> float:
    """Fraction of test samples for which at least one member is correct.

    The samples are labelled in blocks of one budget (see ``_blocks``) of
    (member, sample, class) supports, keeping one flag per sample, so memory
    does not grow with the test set."""
    hit = np.empty(len(test), dtype=bool)
    for blk in _blocks.pieces(len(test), len(pool) * pool.class_count):
        labels, _ = pool.predict_batch(test.features[blk])
        hit[blk] = (labels == test.labels[None, blk]).any(axis=0)
    return float(hit.mean())
