"""Linear perceptron base classifiers and bootstrap-aggregated pool generation.

A pool of M perceptrons over d features and L classes is one stacked weight
tensor ``weights`` of shape (M, L, d+1) (one row per class, bias last) plus
one support scale per member. Every prediction is a single batched matrix
product over the members, a lone sample's included (``_scores``).

Training is the classic error-driven update; the initial weights describe a
random hyperplane anchored at a random training point, which keeps pool
members spread out when training data is not separable. All members train
in lockstep: each step scores one sample per member with one stacked matrix
product and applies every member's update as one dense tensor operation
whose coefficients are -1, 0 or +1, so the pool equals, byte for byte,
members trained one at a time (see ``bagging``). The pools of several
datasets of one shape can train in one such lockstep.

Class supports are calibrated so that downstream probabilistic criteria get a
normalized support vector: for two classes, a logistic squash of the signed
perpendicular distance to the decision boundary (scaled by the largest
training margin); for more classes, a softmax over the linear scores.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset

__all__ = ["ClassifierPool", "bagging"]

SUPPORT_GAIN = 4.0  # logistic steepness for binary support calibration


def _scores(weights, Xb):
    """Class scores (M, N, L) of bias-extended samples ``Xb``, shared or per
    member. numpy hands a one-row product to BLAS's vector path, whose bits
    can differ from a block's matrix path, so a lone row is scored as two
    copies: on narrow data (d <= 10, L <= 3) a row then gets the same bits
    in any block, a block of one included."""
    lone = Xb.shape[-2] == 1
    s = (np.repeat(Xb, 2, axis=-2) if lone else Xb) @ weights.transpose(0, 2, 1)
    return s[:, :1] if lone else s


def _boundary_distances(weights, Xb):
    """Signed perpendicular distances (M, N) of bias-extended samples to each
    member's decision boundary.

    ``Xb`` is (N, d+1) shared by all members or (M, N, d+1) per member.
    Two classes: distance to the single separating hyperplane, positive on
    the class-0 side. More classes: margin between the top two scores,
    normalized by the corresponding weight-difference norm (non-negative).
    """
    s = _scores(weights, Xb)                              # (M, N, L)
    if weights.shape[1] == 2:
        u = weights[:, 0, :-1] - weights[:, 1, :-1]       # (M, d)
        # sqrt of one dot product per member, as np.linalg.norm takes a 1-D
        # norm (its axis= form sums the squares in another order)
        norms = np.maximum(np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0]), 1e-300)
        return (s[:, :, 0] - s[:, :, 1]) / norms
    order = np.argsort(-s, axis=2, kind="stable")
    top, second = order[:, :, :1], order[:, :, 1:2]
    members = np.arange(len(weights))[:, None]
    diff = weights[members, top[:, :, 0], :-1] - weights[members, second[:, :, 0], :-1]
    norms = np.maximum(np.linalg.norm(diff, axis=2), 1e-300)
    return (np.take_along_axis(s, top, 2)[:, :, 0]
            - np.take_along_axis(s, second, 2)[:, :, 0]) / norms


def _with_bias(X):
    return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)


@dataclass
class ClassifierPool:
    """M one-vs-all linear classifiers sharing d and L.

    ``weights`` is (M, L, d+1) with the bias in the last column;
    ``dist_scale`` (M,) scales each member's binary support calibration.
    """

    weights: np.ndarray
    dist_scale: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.dist_scale = np.asarray(self.dist_scale, dtype=float)
        if self.weights.ndim != 3 or len(self.weights) == 0:
            raise ValueError("pool must contain at least one classifier "
                             "(weights of shape (M, L, d+1))")
        if self.dist_scale.shape != (len(self.weights),):
            raise ValueError(f"dist_scale has shape {self.dist_scale.shape}, "
                             f"expected ({len(self.weights)},)")
        if not np.isfinite(self.weights).all():
            raise ValueError("pool weights must be finite")
        if not (np.isfinite(self.dist_scale) & (self.dist_scale > 0)).all():
            raise ValueError("dist_scale values must be finite and > 0")

    def __len__(self):
        return len(self.weights)

    @property
    def class_count(self):
        return self.weights.shape[1]

    @property
    def feature_count(self):
        return self.weights.shape[2] - 1

    def _bias_extended(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.feature_count:
            raise ValueError(f"expected {self.feature_count} features, got {X.shape[1]}")
        return _with_bias(X)

    def scores(self, X) -> np.ndarray:
        """Linear class scores (M, N, L); see ``_scores``."""
        return _scores(self.weights, self._bias_extended(X))

    def boundary_distances(self, X) -> np.ndarray:
        """Signed boundary distances (M, N); see ``_boundary_distances``."""
        return _boundary_distances(self.weights, self._bias_extended(X))

    def predict_batch(self, X):
        """Labels (M, N) and supports (M, N, L) for all members.

        Each label is the argmax of its member's supports.
        """
        if self.class_count == 2:
            m = self.boundary_distances(X)
            # far on the class-1 side exp overflows to inf, which gives s0 = 0.0
            with np.errstate(over="ignore"):
                s0 = 1.0 / (1.0 + np.exp(-SUPPORT_GAIN * m / self.dist_scale[:, None]))
            supports = np.stack([s0, 1.0 - s0], axis=2)
        else:
            s = self.scores(X)
            z = s - s.max(axis=2, keepdims=True)
            e = np.exp(z)
            supports = e / e.sum(axis=2, keepdims=True)
        return supports.argmax(axis=2), supports


def _member_draws(ds: Dataset, i: int, seed: int, size: int | None, max_retries: int):
    """What member ``i`` draws before training: bootstrap rows, initial
    hyperplane and anchor row, each from its own seeded stream, and the
    member's ``Generator``, which then draws one visiting order per epoch."""
    if size is None:
        rows = np.arange(len(ds))
    else:
        boot_rng = np.random.default_rng([seed, 9157, i])
        for _ in range(max_retries + 1):
            rows = boot_rng.integers(0, len(ds), size=size)
            # a count per class: np.unique would load numpy.ma for its mask check
            if np.bincount(ds.labels[rows], minlength=ds.class_count).all():
                break
        else:
            raise ValueError(
                f"bootstrap for member {i} kept missing a class after {max_retries} retries"
            )
    rng = np.random.default_rng(seed + i)
    direction = rng.normal(0.0, 1.0, size=(ds.class_count, ds.feature_count))
    anchor = rows[rng.integers(0, len(rows))]
    return rows, direction, anchor, rng


def _train_lockstep(W, Xb, truth, onehot, rngs, epochs, lr):
    """Train every member in place on ``W`` (R*m, L, d+1) for ``epochs``
    epochs over its bias-extended samples ``Xb`` (R*m, s, d+1) and their
    one-hot truths (R*m, s, L, 1), rows of ``onehot`` (L, L, 1), each epoch
    in an order drawn from the member's ``Generator`` in ``rngs``.

    One epoch's orders and gathered samples live in buffers allocated once
    per call, so no epoch allocates (or page-faults) anew, and they are
    freed when the call returns."""
    members, s = len(W), Xb.shape[1]
    # member j's samples are rows j*s .. j*s + s - 1 of the flattened arrays
    flat_x, flat_t = Xb.reshape(-1, Xb.shape[2]), truth.reshape((-1,) + truth.shape[2:])
    first_row = np.arange(members)[:, None] * s
    order = np.empty((members, s), dtype=np.intp)
    xs = np.empty((s, members, Xb.shape[2]))              # (s, R*m, d+1)
    lx = np.empty_like(xs)
    ts = np.empty((s, members) + truth.shape[2:])         # (s, R*m, L, 1)
    for _ in range(epochs):
        # each member's stream shuffles its row of arange(s) in place, the
        # draw ``rng.permutation(s)`` makes
        order[:] = np.arange(s)
        for row, rng in zip(order, rngs):
            rng.shuffle(row)
        order += first_row
        # "clip" never moves these in-range indices; it spares ``take`` the
        # extra output buffer it makes with ``out=`` in its "raise" mode
        np.take(flat_x, order.T, axis=0, out=xs, mode="clip")
        np.take(flat_t, order.T, axis=0, out=ts, mode="clip")
        np.multiply(lr, xs, out=lx)
        for x, l_x, t in zip(xs[:, :, :, None], lx[:, :, None, :], ts):
            pred = (W @ x)[:, :, 0].argmax(axis=1)
            W -= (onehot.take(pred, axis=0) - t) * l_x


def bagging(ds: Dataset | Sequence[Dataset], m: int, bootstrap_frac: float = 0.5,
            seed: int | Sequence[int] = 0, epochs: int = 50, lr: float = 0.01,
            max_retries: int = 10) -> ClassifierPool | list[ClassifierPool]:
    """Generate a pool of ``m`` perceptrons on bootstrap replicates.

    Member ``i`` trains on a with-replacement sample of
    ``ceil(bootstrap_frac * N)`` rows drawn from ``default_rng([seed, 9157, i])``;
    a bootstrap missing a class entirely is redrawn up to ``max_retries``
    times. ``bootstrap_frac >= 1.0`` disables resampling: each member trains
    on the full data. ``epochs`` must be >= 0, ``lr`` and ``bootstrap_frac``
    finite and > 0.

    ``ds`` may also be a sequence of datasets that share length, width and
    class count, with ``seed`` a sequence of one seed each. All their members
    then train in one lockstep, and the result is a list of one pool per
    dataset, each byte-equal to ``bagging(ds[r], m, seed=seed[r], ...)``.
    Datasets that differ in shape, or a seed count that differs from the
    dataset count, raise ValueError.

    Member ``i`` trains with its own ``default_rng(seed + i)``: the initial
    weights place a random hyperplane through a random training sample; each
    epoch visits the member's rows in a fresh order drawn from that stream and
    applies the standard update on misclassified samples (add ``lr * x`` to
    the true row, subtract it from the predicted row). Non-separable data
    simply yields imperfect weights; ``epochs=0`` keeps the random initial
    weights.

    The draws come first, one member stream at a time (numpy cannot batch
    across Generators). Then all members step in lockstep, one epoch's
    samples gathered at a time. A step scores each member's sample with one
    stacked matrix product, whose member products do not depend on the
    stack's height, and subtracts ``(onehot(pred) - onehot(truth)) * lr * x``
    from the whole weight tensor. This dense update is exact, so the pool
    equals members trained one by one, byte for byte:

    - a coefficient of -1 or +1 times ``lr * x`` is exact, and ``W - (-v)``
      is ``W + v`` in IEEE arithmetic, so a wrong step's two rows get the
      sums the scattered update gives;
    - every other row, and every row of a correct step, has coefficient +0
      and subtracts ``+0 * lr * x``. That is ``W - (+0) = W`` where ``x``
      has its sign bit clear, and ``W - (-0)``, which only turns a -0.0
      weight into +0.0, where it is set. A -0.0 weight can only be an
      initial one (a sum is -0.0 only of two -0.0 terms): the bias, whose
      input is 1, or a direction drawn as exactly -0.0.

    Each epoch's visiting orders are drawn when the epoch starts, one
    permutation per member from its own stream, in member order, so only
    one epoch's orders are held at a time. A call's memory scales with
    members x ``ceil(bootstrap_frac * N)`` rows (the bias-extended rows,
    their one-hot truths and one epoch's gathered samples), not with
    ``epochs``.
    """
    many = not isinstance(ds, Dataset)
    datasets, seeds = (list(ds), list(seed)) if many else ([ds], [seed])
    if m < 1:
        raise ValueError("pool size must be >= 1")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if not (np.isfinite(bootstrap_frac) and bootstrap_frac > 0):
        raise ValueError(f"bootstrap_frac must be finite and > 0, got {bootstrap_frac}")
    if not datasets or len(seeds) != len(datasets):
        raise ValueError(f"need one seed per dataset, got {len(seeds)} seeds "
                         f"for {len(datasets)} datasets")
    shapes = {(len(d), d.feature_count, d.class_count) for d in datasets}
    if len(shapes) > 1:
        raise ValueError(f"datasets must share length, width and class count, got "
                         f"(length, width, classes) {sorted(shapes)}")
    first = datasets[0]
    size = None if bootstrap_frac >= 1.0 else int(np.ceil(bootstrap_frac * len(first)))
    draws = [_member_draws(d, i, s, size, max_retries)
             for d, s in zip(datasets, seeds) for i in range(m)]
    *stacked, rngs = zip(*draws)
    rows, direction, anchor = (np.stack(a) for a in stacked)
    owner = np.repeat(np.arange(len(datasets)), m)         # member j's dataset
    features = np.stack([d.features for d in datasets])    # (R, N, d)
    labels = np.stack([d.labels for d in datasets])        # (R, N)
    Xb = _with_bias(features[owner[:, None], rows])        # (R*m, s, d+1)
    # (L, L, 1): row c is class c's one-hot column
    onehot = np.eye(first.class_count)[:, :, None]
    truth = onehot[labels[owner[:, None], rows]]           # (R*m, s, L, 1)

    anchor = features[owner, anchor][:, :, None]           # (R*m, d, 1)
    W = np.concatenate([direction, -(direction @ anchor)], axis=2)
    _train_lockstep(W, Xb, truth, onehot, rngs, epochs, lr)
    margins = np.abs(_boundary_distances(W, Xb))
    dist_scale = np.maximum(margins.max(axis=1), 1e-12)
    pools = [ClassifierPool(w, s) for w, s in zip(np.split(W, len(datasets)),
                                                  np.split(dist_scale, len(datasets)))]
    return pools if many else pools[0]
