"""Extraction of the fifteen competence criteria for (sample, classifier)
pairs into a fixed-layout vector.

Layout (D = K*8 + Kp + 6 scalars per pair)::

    [ hard(K) | prob(K) | overall | cond | conf | amb
      | log(K) | prc(K) | md(K) | ent(K) | exp(K) | kl(K)
      | op(Kp) | rank | rank_op ]

Per-neighbor criteria depend only on (classifier, reference row), so they are
precomputed once per reference set as (M, N) tables; extraction then reduces
to gathers along neighbor indices. Supports are clamped to
[1e-12, 1 - 1e-10] inside logarithm and ratio expressions, keeping the
analytic identities (zero entropy for one-hot supports, zero divergence for
uniform ones) accurate to well below 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .pool import ClassifierPool
from .regions import nearest_neighbors

__all__ = [
    "FeatureLayout",
    "MetaDataset",
    "MetaFeatureExtractor",
    "apply_mask",
    "rrc_competence",
    "meta_dataset_to_csv",
]

SUPPORT_FLOOR = 1e-12
SUPPORT_CEIL = 1.0 - 1e-10
# (query, member, position) correctness flags one gather of the rank scan
# reads at once (its index array takes 8 bytes per flag), and the width of
# the scan's first position chunk
_RANK_BLOCK = 1 << 19
_RANK_CHUNK = 8
# randomized reference classifier: Beta concentration, logit-space grid, and
# the (pair, class, grid point) values the quadrature holds at once
_RRC_CONCENTRATION = 10.0
_RRC_GRID = np.linspace(-20.0, 20.0, 121)
_RRC_BLOCK = 1 << 14

SET_NAMES = ("hard", "prob", "overall", "cond", "conf", "amb",
             "log", "prc", "md", "ent", "exp", "kl", "op", "rank", "rank_op")


class FeatureLayout:
    """Fixed ordering of the fifteen criterion families for given (K, Kp)."""

    def __init__(self, k: int, kp: int):
        if k < 1 or kp < 1:
            raise ValueError("K and Kp must be >= 1")
        self.k = k
        self.kp = kp
        widths = {"hard": k, "prob": k, "overall": 1, "cond": 1, "conf": 1,
                  "amb": 1, "log": k, "prc": k, "md": k, "ent": k, "exp": k,
                  "kl": k, "op": kp, "rank": 1, "rank_op": 1}
        self.segments = []
        start = 0
        for name in SET_NAMES:
            self.segments.append((name, start, widths[name]))
            start += widths[name]
        self.size = start

    @property
    def set_count(self):
        return len(self.segments)

    def slice_of(self, name: str) -> slice:
        for seg, start, width in self.segments:
            if seg == name:
                return slice(start, start + width)
        raise KeyError(name)

    def set_of(self, bit: int) -> str:
        """Criterion family owning feature index ``bit``."""
        for seg, start, width in self.segments:
            if start <= bit < start + width:
                return seg
        raise IndexError(bit)

    def column_names(self):
        names = []
        for seg, _, width in self.segments:
            if width == 1:
                names.append(seg)
            else:
                names.extend(f"{seg}_{j}" for j in range(width))
        return names


@dataclass
class MetaDataset:
    """Stacked meta-feature rows, sample-major then classifier-minor."""

    rows: np.ndarray          # (R, D)
    labels: np.ndarray        # (R,) in {0, 1}
    sample_ids: np.ndarray    # (R,)
    classifier_ids: np.ndarray  # (R,)
    layout: FeatureLayout

    def __len__(self):
        return len(self.rows)


def apply_mask(values, mask):
    """Keep the entries of ``values`` whose mask bit is set, preserving order.

    Works on a single vector or a row matrix. An all-zero mask is an error.
    """
    mask = np.asarray(mask, dtype=bool)
    values = np.asarray(values)
    if values.shape[-1] != len(mask):
        raise ValueError(f"mask length {len(mask)} does not match vector length {values.shape[-1]}")
    if not mask.any():
        raise ValueError("mask selects no features")
    return values[..., mask]


def rrc_competence(supports, correct_class):
    """Probability that a randomized classifier whose class supports fluctuate
    around ``supports`` ranks the correct class first: each class draws from
    Beta(10 s, 10 (1 - s)) around its support s, clipped to [1e-6, 1 - 1e-6],
    and P(c wins) = integral of f_c(t) prod_{j != c} F_j(t) dt.

    ``supports`` is (..., L); ``correct_class`` broadcasts against its leading
    axes, which shape the result (a scalar for one vector). The integral is a
    quadrature in z = logit(t), where the Beta(a, b) density is
    g = sigma(z)^a sigma(-z)^b / B(a, b) and g' = g (a - 10 t): each CDF is a
    cumulative trapezoid with Euler-Maclaurin corrections up to g''' plus the
    tail masses t0^a / a and (1 - t1)^b / b off the grid, normalised by the
    total mass; the outer trapezoid gets its g' end correction and both tails.
    """
    s = np.clip(np.asarray(supports, dtype=float), 1e-6, 1.0 - 1e-6)
    shape, L = s.shape[:-1], s.shape[-1]
    s = s.reshape(-1, L, 1)
    c = np.broadcast_to(np.asarray(correct_class, dtype=int), shape).reshape(-1)
    conc, z = _RRC_CONCENTRATION, _RRC_GRID
    dz = z[1] - z[0]
    log_t, log_1mt = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
    t = np.exp(log_t)
    # cumulative-trapezoid error -dz^2/12 g' + dz^4/720 g''' is g times a cubic
    # in u = a - 10 t, with u' = -10 t (1 - t) and u'' = u' (1 - 2 t)
    du = -conc * t * (1.0 - t)
    em0 = dz ** 4 / 720 * du * (1.0 - 2.0 * t)
    em1 = -dz ** 2 / 12 + dz ** 4 / 720 * 3.0 * du
    em3 = dz ** 4 / 720
    ends = [0, -1]
    out = np.empty(len(s))
    step = max(1, _RRC_BLOCK // (L * len(z)))
    for start in range(0, len(s), step):
        a = conc * s[start:start + step]                      # (P, L, 1)
        b = conc - a
        rows, cls = np.arange(len(a)), c[start:start + step]
        g = np.exp(a * log_t + b * log_1mt)                   # (P, L, G)
        u = a - conc * t
        em = ((em3 * u * u + em1) * u + em0) * g
        cdf = dz * (np.cumsum(g, axis=2) - 0.5 * (g + g[:, :, :1])) + em - em[:, :, :1]
        tail_lo, tail_hi = np.exp(a * log_t[0]) / a, np.exp(b * log_1mt[-1]) / b
        cdf += tail_lo
        mass = cdf[:, :, -1:] + tail_hi
        for arr in (cdf, g, tail_lo, tail_hi):
            arr /= mass
        g_c, u_c = g[rows, cls], u[rows, cls]
        lo_c, hi_c = tail_lo[rows, cls, 0], tail_hi[rows, cls, 0]
        cdf[rows, cls], g[rows, cls] = 1.0, 0.0
        others = cdf.prod(axis=1)                             # (P, G), class c left out
        h = g_c * others
        # h' = h (u_c + sum_{j != c} g_j / F_j), needed at the grid ends only
        dh = h[:, ends] * (u_c[:, ends] + (g[:, :, ends] / cdf[:, :, ends]).sum(axis=1))
        out[start:start + step] = (dz * (h.sum(axis=1) - 0.5 * (h[:, 0] + h[:, -1]))
                                   - dz ** 2 / 12 * (dh[:, 1] - dh[:, 0])
                                   + lo_c * others[:, 0] + hi_c * others[:, -1])
    return out.reshape(shape)[()]


class MetaFeatureExtractor:
    """Computes meta-feature vectors against a fixed reference set.

    Builds the per-(classifier, reference-row) criterion tables once; the
    min-max bounds for the confidence criterion are taken over the signed
    boundary distances of all reference samples.
    """

    def __init__(self, pool: ClassifierPool, dsel: Dataset, k: int = 7, kp: int = 5):
        if k > len(dsel) or kp > len(dsel):
            raise ValueError("K and Kp cannot exceed the reference set size")
        self.pool = pool
        self.dsel = dsel
        self.layout = FeatureLayout(k, kp)

        M, L = len(pool), pool.class_count
        labels, supports = pool.predict_batch(dsel.features)
        self.dsel_pred_labels = labels                    # (M, N)
        self.dsel_supports = supports                     # (M, N, L)
        self.dsel_correct = labels == dsel.labels[None, :]
        self.dsel_profiles = np.transpose(supports, (1, 0, 2)).reshape(len(dsel), -1)

        clipped = np.clip(supports, SUPPORT_FLOOR, SUPPORT_CEIL)
        self._clipped = clipped
        true_idx = dsel.labels[None, :, None]
        slk = np.take_along_axis(clipped, np.broadcast_to(true_idx, (M, len(dsel), 1)), axis=2)[:, :, 0]
        self.t_prob = slk
        self.t_log = 2.0 * slk ** (np.log(2.0) / np.log(L)) - 1.0
        self.t_ent = -(clipped * np.log(clipped)).sum(axis=2)
        only_true = np.zeros_like(clipped, dtype=bool)
        np.put_along_axis(only_true, np.broadcast_to(true_idx, (M, len(dsel), 1)), True, axis=2)
        self.t_md = np.where(only_true, np.inf, clipped).min(axis=2) - slk
        slk_safe = np.minimum(slk, SUPPORT_CEIL)
        self.t_exp = 1.0 - 2.0 ** (-((L - 1) * slk_safe / (1.0 - slk_safe)))
        self.t_kl = (clipped * np.log(clipped * L)).sum(axis=2)
        self.t_prc = rrc_competence(supports, dsel.labels[None, :])

        dists = pool.boundary_distances(dsel.features)    # (M, N)
        self.conf_min = dists.min(axis=1)
        self.conf_max = dists.max(axis=1)

    # -- batch extraction ---------------------------------------------------

    def extract_batch(self, X, y=None, self_indices=None):
        """Vectorized extraction for a batch of queries.

        Returns ``(features, meta_labels, pred_labels)`` with shapes
        (Nq, M, D), (Nq, M) and (M, Nq). ``self_indices`` gives, per query,
        its own row in the reference set to exclude from every neighborhood
        (used when the queries are reference samples themselves).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self_indices is not None and (np.asarray(self_indices) < 0).any():
            raise ValueError("self_indices must name a reference row for every query")
        # every reference row by distance: the region of competence is its
        # first K, the rank criterion scans all of it
        width = len(self.dsel) - (0 if self_indices is None else 1)
        order, _ = nearest_neighbors(X, self.dsel.features, width, exclude=self_indices)
        pred_labels, q_supports = self.pool.predict_batch(X)
        profiles = np.transpose(q_supports, (1, 0, 2)).reshape(len(X), -1)
        phi, _ = nearest_neighbors(profiles, self.dsel_profiles, self.layout.kp,
                                   exclude=self_indices)
        return self._extract(X, y, order, phi, pred_labels, q_supports)

    def build_meta_dataset(self, X, y, self_indices=None, sample_ids=None) -> MetaDataset:
        """All (sample, classifier) rows for labeled queries, sample-major."""
        feats, metas, _ = self.extract_batch(X, y, self_indices=self_indices)
        nq, M, D = feats.shape
        if sample_ids is None:
            sample_ids = np.arange(nq)
        return MetaDataset(
            rows=feats.reshape(-1, D),
            labels=metas.reshape(-1),
            sample_ids=np.repeat(np.asarray(sample_ids, dtype=int), M),
            classifier_ids=np.tile(np.arange(M), nq),
            layout=self.layout,
        )

    # -- internals -----------------------------------------------------------

    def _extract(self, X, y, order, phi, pred_labels, q_supports):
        """Feature tensor (Nq, M, D) from the queries' reference rows by
        distance, their profile neighborhoods and the pool's labels (M, Nq)
        and supports (M, Nq, L) for them."""
        pool, dsel, layout = self.pool, self.dsel, self.layout
        M = len(pool)
        k, kp = layout.k, layout.kp
        nq = len(X)
        theta = order[:, :k]

        feats = np.empty((nq, M, layout.size))
        seg = {name: feats[:, :, layout.slice_of(name)] for name in SET_NAMES}

        # per-neighbor tables (M, N) gathered at each query's neighbors
        for name, table, nbrs in (("hard", self.dsel_correct, theta), ("prob", self.t_prob, theta),
                                  ("log", self.t_log, theta), ("prc", self.t_prc, theta),
                                  ("md", self.t_md, theta), ("ent", self.t_ent, theta),
                                  ("exp", self.t_exp, theta), ("kl", self.t_kl, theta),
                                  ("op", self.dsel_correct, phi)):
            seg[name][...] = table[:, nbrs].transpose(1, 0, 2)
        seg["overall"][:, :, 0] = seg["hard"].mean(axis=2)

        # conditional accuracy w.r.t. the class each member assigns to x
        assigned = pred_labels.T                              # (Nq, M)
        sup_assigned = self._clipped[np.arange(M)[None, :, None], theta[:, None, :],
                                     assigned[:, :, None]]    # (Nq, M, K)
        same_class = dsel.labels[theta][:, None, :] == assigned[:, :, None]
        num = (sup_assigned * same_class).sum(axis=2)
        den = sup_assigned.sum(axis=2)
        seg["cond"][:, :, 0] = np.divide(num, den, out=np.zeros_like(num), where=den > 0)

        span = self.conf_max - self.conf_min
        scaled = (pool.boundary_distances(X).T - self.conf_min) / np.where(span > 0, span, 1.0)
        seg["conf"][:, :, 0] = np.where(span > 0, np.clip(scaled, 0.0, 1.0), 0.5)

        s_sorted = np.sort(q_supports, axis=2)
        seg["amb"][:, :, 0] = (s_sorted[:, :, -1] - s_sorted[:, :, -2]).T

        corr_phi = self.dsel_correct[:, phi]                  # (M, Nq, Kp)
        seg["rank_op"][:, :, 0] = np.where(corr_phi.all(axis=2), kp,
                                           (~corr_phi).argmax(axis=2)).T
        seg["rank"][:, :, 0] = self._rank(order)

        metas = None if y is None else (assigned == np.asarray(y)[:, None]).astype(int)
        return feats, metas, pred_labels

    def _rank(self, order):
        """Per (query, member): how many reference rows, in ``order`` of
        distance to the query, the member classifies correctly before its
        first error (the row count ``width`` when it makes none).

        Scans position chunks of growing width (8, 16, 32, ...) for the pairs
        that have not erred yet, each gather holding at most ``_RANK_BLOCK``
        flags, so the work follows the ranks rather than ``width``."""
        (nq, width), M = order.shape, len(self.pool)
        wrong = ~self.dsel_correct                            # (M, N)
        rank = np.full((nq, M), float(width))
        q_open, m_open = np.divmod(np.arange(nq * M), M)      # pairs not yet erred
        lo, chunk = 0, _RANK_CHUNK
        while q_open.size and lo < width:
            hi = min(lo + chunk, width)
            piece = max(1, _RANK_BLOCK // (hi - lo))
            still = np.ones(q_open.size, dtype=bool)
            for p in range(0, q_open.size, piece):
                qs, ms = q_open[p:p + piece], m_open[p:p + piece]
                err = wrong[ms[:, None], order[qs, lo:hi]]    # (pairs, hi - lo)
                hit = err.any(axis=1)
                rank[qs[hit], ms[hit]] = lo + err[hit].argmax(axis=1)
                still[p:p + piece] = ~hit
            q_open, m_open = q_open[still], m_open[still]
            lo, chunk = hi, 2 * chunk
        return rank


def meta_dataset_to_csv(md: MetaDataset, path):
    """Write a meta-dataset as CSV: one column per meta-feature plus
    meta_label, classifier_index and sample_id."""
    header = md.layout.column_names() + ["meta_label", "classifier_index", "sample_id"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(len(md)):
            cells = [format(v, ".10g") for v in md.rows[r]]
            cells += [str(int(md.labels[r])), str(int(md.classifier_ids[r])),
                      str(int(md.sample_ids[r]))]
            fh.write(",".join(cells) + "\n")
