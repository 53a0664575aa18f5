"""Extraction of the fifteen competence criteria for (sample, classifier)
pairs into a fixed-layout vector.

Layout (D = K*8 + Kp + 6 scalars per pair)::

    [ hard(K) | prob(K) | overall | cond | conf | amb
      | log(K) | prc(K) | md(K) | ent(K) | exp(K) | kl(K)
      | op(Kp) | rank | rank_op ]

Per-neighbor criteria depend only on (classifier, reference row), so they are
precomputed once per reference set as (M, N) tables; extraction then reduces
to gathers along neighbor indices. The randomized-reference table (``prc``)
takes a quadrature per pair for more than two classes; a two-class support
vector is read as (s_c, 1 - s_c), and its value is looked up in an
interpolant of that quadrature in logit(s_c), built once per process. A mask
limits extraction to the families and neighbor positions it selects (the
other columns read 0.0). Given a linear selector's weights, extraction
returns each pair's weighted sum over the mask's columns instead of the
vectors, built family by family from the same gathers, so no (queries,
members, D) block is allocated. Supports are clamped to [1e-12, 1 - 1e-10]
inside logarithm and ratio expressions, keeping the analytic identities
(zero entropy for one-hot supports, zero divergence for uniform ones)
accurate to well below 1e-9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _blocks
from .data import Dataset, ScaleParams
from .pool import ClassifierPool
from .regions import nearest_neighbors

__all__ = [
    "FeatureLayout",
    "MetaDataset",
    "MetaFeatureExtractor",
    "rrc_competence",
    "meta_dataset_to_csv",
]

SUPPORT_FLOOR = 1e-12
SUPPORT_CEIL = 1.0 - 1e-10
# randomized reference classifier: support clip, Beta concentration,
# logit-space grid and the two-class interpolant's node count
_RRC_CLIP = 1e-6
_RRC_CONCENTRATION = 10.0
_RRC_GRID = np.linspace(-20.0, 20.0, 121)
_RRC_NODES = 4097

SET_NAMES = ("hard", "prob", "overall", "cond", "conf", "amb",
             "log", "prc", "md", "ent", "exp", "kl", "op", "rank", "rank_op")
# families gathered at the region of competence from a per-(member,
# reference row) table, and the extractor attribute holding it
_REGION_TABLES = {"hard": "dsel_correct", "prob": "t_prob", "log": "t_log", "prc": "t_prc",
                  "md": "t_md", "ent": "t_ent", "exp": "t_exp", "kl": "t_kl"}


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
    """Stacked meta-feature rows, sample-major then classifier-minor: each
    of the S samples has one row per member, so R = S * M.

    ``build_meta_dataset`` stores the rows as float32, each the float64
    feature rounded once; the fits and scores that read them widen one
    column or one row block at a time. It stores the labels as int8 and one
    id per sample, as int32 (intp when an id passes 2^31 - 1); each row's
    ``sample_ids`` and ``classifier_ids`` are derived from them, in that
    dtype, when read.
    """

    rows: np.ndarray          # (R, D) float32
    labels: np.ndarray        # (R,) int8 in {0, 1}
    ids: np.ndarray           # (S,) int32 or intp, one per sample
    layout: FeatureLayout

    def __post_init__(self):
        if len(self.rows) != len(self.ids) * self.members:
            raise ValueError(f"{len(self.rows)} rows for {len(self.ids)} samples")

    def __len__(self):
        return len(self.rows)

    @property
    def members(self) -> int:
        """Rows per sample, the pool's size (0 without samples)."""
        return len(self.rows) // len(self.ids) if len(self.ids) else 0

    @property
    def sample_ids(self) -> np.ndarray:
        """(R,) the sample of each row."""
        return np.repeat(self.ids, self.members)

    @property
    def classifier_ids(self) -> np.ndarray:
        """(R,) the member of each row."""
        return np.tile(np.arange(self.members, dtype=self.ids.dtype), len(self.ids))


def rrc_competence(supports, correct_class):
    """Probability that a randomized classifier whose class supports fluctuate
    around ``supports`` ranks the correct class first: each class draws from
    Beta(10 s, 10 (1 - s)) around its support s, clipped to [1e-6, 1 - 1e-6],
    and P(c wins) = integral of f_c(t) prod_{j != c} F_j(t) dt.

    ``supports`` is (..., L); ``correct_class`` broadcasts against its leading
    axes, which shape the result (a scalar for one vector). A class outside
    [0, L) is a ValueError.

    A two-class vector is read as (s_c, 1 - s_c), as ``ClassifierPool``
    produces it: only the correct class's support s_c is read, and the value
    is a cubic Hermite interpolant in logit(s_c) whose ``_RRC_NODES`` nodes
    ``_rrc_quadrature`` computes once per process (within 1e-9 of it on the
    whole clip range). A NaN s_c gives NaN. With more classes every vector
    is one quadrature.
    """
    s = np.asarray(supports, dtype=float)
    shape, L = s.shape[:-1], s.shape[-1]
    c = np.broadcast_to(np.asarray(correct_class, dtype=int), shape)
    if ((c < 0) | (c >= L)).any():
        raise ValueError(f"correct class outside [0, {L})")
    if L != 2:
        return _rrc_quadrature(s.reshape(-1, L), c.reshape(-1)).reshape(shape)[()]
    out = np.where(c == 0, s[..., 0], s[..., 1])
    lo, step, coef = _rrc_table()
    flat = out.reshape(-1)
    # a pair's largest share of a piece: its interval's 4 coefficients
    for blk in _blocks.pieces(flat.size, 4):
        u = np.clip(flat[blk], _RRC_CLIP, 1.0 - _RRC_CLIP)
        u /= 1.0 - u
        np.log(u, out=u)
        u -= lo
        u /= step
        np.clip(u, 0.0, _RRC_NODES - 1.0, out=u)
        i = np.minimum(np.floor(u), _RRC_NODES - 2.0)
        u -= i
        # a NaN support keeps t = u NaN, so the interval it reads is moot
        v = coef[:, np.nan_to_num(i, copy=False).astype(np.intp)]
        acc = v[3]
        for j in (2, 1, 0):
            acc *= u
            acc += v[j]
        flat[blk] = acc
    return out[()]


@functools.cache
def _rrc_table():
    """The two-class interpolant of ``rrc_competence``: the first node's
    logit, the node spacing and the (4, nodes - 1) cubic coefficients of
    each interval in t = (x - node) / spacing, built on first use. Node i
    sits at x_i = logit(1e-6) + i * spacing, up to logit(1 - 1e-6); its
    value is the quadrature's at (sigmoid(x_i), 1 - sigmoid(x_i)), and its
    slope per node comes from fourth-order differences of the values
    (central inside, one-sided at the two end nodes of each side)."""
    lo = np.log(_RRC_CLIP / (1.0 - _RRC_CLIP))
    hi = np.log((1.0 - _RRC_CLIP) / _RRC_CLIP)
    step = (hi - lo) / (_RRC_NODES - 1)
    s = 1.0 / (1.0 + np.exp(-(lo + step * np.arange(_RRC_NODES))))
    f = _rrc_quadrature(np.stack([s, 1.0 - s], axis=1), np.zeros(_RRC_NODES, dtype=int))
    ends = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
    m = np.empty_like(f)
    m[2:-2] = (f[:-4] - f[4:] + 8.0 * (f[3:-1] - f[1:-3])) / 12.0
    m[:2] = ends @ f[:5]
    m[:-3:-1] = -(ends @ f[:-6:-1])
    df = np.diff(f)
    coef = np.stack([f[:-1], m[:-1], 3.0 * df - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * df])
    coef.setflags(write=False)       # shared by every caller in the process
    return lo, step, coef


def _rrc_quadrature(s, c):
    """``rrc_competence`` of (P, L) supports and their (P,) classes by
    quadrature in z = logit(t), where the Beta(a, b) density is
    g = sigma(z)^a sigma(-z)^b / B(a, b) and g' = g (a - 10 t): each CDF is a
    cumulative trapezoid with Euler-Maclaurin corrections up to g''' plus the
    tail masses t0^a / a and (1 - t1)^b / b off the grid, normalised by the
    total mass; the outer trapezoid gets its g' end correction and both tails.
    """
    s = np.clip(s, _RRC_CLIP, 1.0 - _RRC_CLIP)[:, :, None]
    L = s.shape[1]
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
    for blk in _blocks.pieces(len(s), L * len(z)):
        a = conc * s[blk]                                     # (P, L, 1)
        b = conc - a
        rows, cls = np.arange(len(a)), c[blk]
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
        out[blk] = (dz * (h.sum(axis=1) - 0.5 * (h[:, 0] + h[:, -1]))
                    - dz ** 2 / 12 * (dh[:, 1] - dh[:, 0])
                    + lo_c * others[:, 0] + hi_c * others[:, -1])
    return out


class MetaFeatureExtractor:
    """Computes meta-feature vectors against a fixed reference set.

    Builds the per-(classifier, reference-row) criterion tables once; the
    confidence criterion min-max scales each member's signed boundary
    distance by its range over the reference samples (``conf_scale``). The
    pool's supports on the reference set are held once, unclipped, as
    ``dsel_profiles`` (N, M*L), and its labels ``dsel_pred_labels`` in the
    narrowest integer type that holds every class.
    ``t_prc``, when given, is the (M, N) randomized-reference table
    ``rrc_competence`` would compute (a saved model carries it); it must be
    finite and lie in [0, 1].
    """

    def __init__(self, pool: ClassifierPool, dsel: Dataset, k: int = 7, kp: int = 5,
                 t_prc=None):
        if k > len(dsel) or kp > len(dsel):
            raise ValueError("K and Kp cannot exceed the reference set size")
        if t_prc is not None:
            t_prc = np.asarray(t_prc, dtype=float)
            if t_prc.shape != (len(pool), len(dsel)):
                raise ValueError(f"RRC table has shape {t_prc.shape}, "
                                 f"expected {(len(pool), len(dsel))}")
            # NaN fails both comparisons
            if not ((t_prc >= 0.0) & (t_prc <= 1.0)).all():
                raise ValueError("RRC table values must lie in [0, 1]")
        self.pool = pool
        self.dsel = dsel
        self.layout = FeatureLayout(k, kp)

        M, L = len(pool), pool.class_count
        labels, supports = pool.predict_batch(dsel.features)
        # (M, N); the narrowest signed type that holds -L holds L - 1
        self.dsel_pred_labels = labels.astype(np.min_scalar_type(-L))
        self.dsel_correct = labels == dsel.labels[None, :]
        del labels
        self.dsel_profiles = np.transpose(supports, (1, 0, 2)).reshape(len(dsel), -1)

        self.t_prc = (rrc_competence(supports, dsel.labels[None, :]) if t_prc is None
                      else t_prc)
        # the tables below read the supports clipped, so they are clipped in
        # place, and freed with the tables built
        clipped = np.clip(supports, SUPPORT_FLOOR, SUPPORT_CEIL, out=supports)
        true_idx = dsel.labels[None, :, None]
        slk = np.take_along_axis(clipped, np.broadcast_to(true_idx, (M, len(dsel), 1)), axis=2)[:, :, 0]
        self.t_prob = slk
        self.t_log = 2.0 * slk ** (np.log(2.0) / np.log(L)) - 1.0
        self.t_ent = -(clipped * np.log(clipped)).sum(axis=2)
        only_true = np.zeros_like(clipped, dtype=bool)
        np.put_along_axis(only_true, np.broadcast_to(true_idx, (M, len(dsel), 1)), True, axis=2)
        self.t_md = np.where(only_true, np.inf, clipped).min(axis=2) - slk
        self.t_exp = 1.0 - 2.0 ** (-((L - 1) * slk / (1.0 - slk)))
        self.t_kl = (clipped * np.log(clipped * L)).sum(axis=2)
        del supports, clipped, only_true

        dists = pool.boundary_distances(dsel.features)    # (M, N)
        self.conf_scale = ScaleParams(dists.min(axis=1), dists.max(axis=1))

    # -- batch extraction ---------------------------------------------------

    def extract_batch(self, X, y=None, self_indices=None, mask=None, weights=None, out=None):
        """Vectorized extraction for a batch of queries.

        Returns ``(features, meta_labels, pred_labels)`` with shapes
        (Nq, M, D), (Nq, M) and (M, Nq). ``self_indices`` gives, per query,
        its own row in the reference set to exclude from every neighborhood
        (used when the queries are reference samples themselves). ``mask``
        (D,) selects the columns to compute (default: all of them); the
        others are 0.0, and neither a family nor a neighborhood that no
        selected column reads is computed.

        With ``weights`` (D,), ``features`` is instead the (Nq, M) sum over
        the mask's columns of ``weights[j] * v[j]``, the decision of a linear
        selector without its bias. Each family adds its share as it is
        gathered (a K-wide family contracted one piece of queries at a time,
        a scalar family as one scaled add), so the sum equals
        ``features @ weights`` of the tensor up to summation order.

        ``out``, an (Nq, M, D) array, takes the features in place of a new
        float64 tensor and is returned as ``features``: each value is
        computed in float64 and rounded once to ``out``'s dtype as it is
        written. It does not go with ``weights``.

        In both modes the families gathered over the queries' neighbours
        (the region tables, ``overall``, ``cond`` and ``op``) go one piece of
        queries at a time, of one budget of values (``_blocks``). The
        feature-space neighbours are fetched as the K-row region of
        competence; only the rank scan asks for more rows, and only for the
        queries that need them (``_rank``).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        layout, dsel = self.layout, self.dsel
        k, kp = layout.k, layout.kp
        if mask is None:
            mask = np.ones(layout.size, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (layout.size,):
            raise ValueError(f"mask of shape {mask.shape} for {layout.size} features")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (layout.size,):
                raise ValueError(f"weights of shape {weights.shape} for {layout.size} features")
            if out is not None:
                raise ValueError("out takes the feature tensor, not the weighted sums")
        if self_indices is not None:
            self_indices = np.atleast_1d(np.asarray(self_indices, dtype=int))
            if ((self_indices < 0) | (self_indices >= len(dsel))).any():
                raise ValueError("self_indices must name a reference row for every query")
        # selected positions within each family, and their feature columns:
        # a slice when they are contiguous (a strided copy, twice as fast as
        # an index array's scatter)
        cols, dest = {}, {}
        for name, start, width in layout.segments:
            at = np.flatnonzero(mask[start:start + width])
            if at.size:
                cols[name] = at
                dest[name] = (slice(start + at[0], start + at[-1] + 1)
                              if at[-1] - at[0] + 1 == at.size else start + at)
        used = cols.keys()

        pred_labels, q_supports = self.pool.predict_batch(X)
        M, nq = pred_labels.shape
        assigned = pred_labels.T                              # (Nq, M)

        # values of queries ``qs``: (q, M) for a scalar family, (M, q, c) for
        # the selected positions of a K-wide family
        if weights is None:
            if out is None:
                out = np.zeros((nq, M, layout.size))
            elif out.shape == (nq, M, layout.size):
                out[...] = 0.0
            else:
                raise ValueError(f"out of shape {out.shape} for features of shape "
                                 f"{(nq, M, layout.size)}")

            def put(name, values, qs=slice(None)):
                out[qs, :, dest[name]] = (values[:, :, None] if values.ndim == 2
                                          else values.transpose(1, 0, 2))
        else:
            out = np.zeros((nq, M))

            def put(name, values, qs=slice(None)):
                w = weights[dest[name]]
                # contracted as (q, c, M) stacks: in place where a gather laid
                # the (M, q, c) values out member-fastest, else (one member, or
                # op's flags) copied, so q sets neither the layout nor the bits
                share = (w[0] * values if values.ndim == 2
                         else w @ np.ascontiguousarray(values.transpose(1, 2, 0)))
                np.add(out[qs], share, out=out[qs])

        def put_gathered(name, width, gather):
            # ``width`` values a (query, member): no (M, Nq, width) block
            for qs in _blocks.pieces(nq, M * width):
                put(name, gather(qs), qs)

        if used & {*_REGION_TABLES, "overall", "cond", "rank"}:
            # the region of competence is the first K rows by distance; the
            # rank scan starts from it and widens on demand
            theta = nearest_neighbors(X, dsel.features, k, exclude=self_indices)[0]
            for name, attr in _REGION_TABLES.items():
                if name in used:
                    table, at = getattr(self, attr), cols[name]
                    put_gathered(name, at.size, lambda qs: table[:, theta[qs, at]])
            if "overall" in used:
                put_gathered("overall", k, lambda qs: self.dsel_correct[:, theta[qs]].mean(axis=2).T)
            if "cond" in used:
                put_gathered("cond", k, lambda qs: self._cond(theta[qs], assigned[qs]))
            if "rank" in used:
                put("rank", self._rank(X, self_indices, theta))
            # a family's arrays are freed before the next family's are built
            del theta

        if "conf" in used:
            put("conf", self.conf_scale.apply(self.pool.boundary_distances(X).T))
        if "amb" in used:
            s_sorted = np.sort(q_supports, axis=2)
            put("amb", (s_sorted[:, :, -1] - s_sorted[:, :, -2]).T)
            del s_sorted
        if used & {"op", "rank_op"}:
            profiles = np.transpose(q_supports, (1, 0, 2)).reshape(nq, -1)
            phi = nearest_neighbors(profiles, self.dsel_profiles, kp, exclude=self_indices)[0]
            del profiles
            corr_phi = self.dsel_correct[:, phi]              # (M, Nq, Kp)
            if "op" in used:
                put_gathered("op", cols["op"].size, lambda qs: corr_phi[:, qs, cols["op"]])
            if "rank_op" in used:
                put("rank_op", np.where(corr_phi.all(axis=2), kp,
                                        (~corr_phi).argmax(axis=2)).T)

        metas = None if y is None else (assigned == np.asarray(y)[:, None]).astype(int)
        return out, metas, pred_labels

    def query_blocks(self, n):
        """Slices of ``n`` queries, in the blocks both ``classify_batch`` and
        ``build_meta_dataset`` extract: ``WIDE`` budgets of values (see
        ``_blocks``), counting per query at most M*D gathered meta-feature
        values and the rank scan's reference rows by distance with their
        distances (up to N each), so memory does not grow with ``n``."""
        per_query = len(self.pool) * self.layout.size + 2 * len(self.dsel)
        return _blocks.pieces(n, per_query, _blocks.WIDE)

    def build_meta_dataset(self, X, y, self_indices=None, sample_ids=None) -> MetaDataset:
        """All (sample, classifier) rows for labeled queries, sample-major.

        The rows are ``extract_batch``'s features rounded to float32, one
        query block (``query_blocks``) at a time, each written straight into
        its slice of the returned array, with its int8 meta labels. The
        sample and classifier ids are int32, or intp when one of them does
        not fit in int32. ``y``, and ``sample_ids`` and ``self_indices``
        when given, must hold one entry per query.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nq, M = len(X), len(self.pool)
        if sample_ids is None:
            sample_ids = np.arange(nq)
        named = [("y", y), ("sample_ids", sample_ids)]
        if self_indices is not None:
            self_indices = np.atleast_1d(np.asarray(self_indices, dtype=int))
            named.append(("self_indices", self_indices))
        for name, values in named:
            given = None if values is None else len(np.atleast_1d(values))
            if given != nq:
                raise ValueError(f"{name} has length {given}, expected {nq} (one per query)")
        y = np.asarray(y)
        sample_ids = np.asarray(sample_ids, dtype=int)
        ids = (np.int32 if M <= 2**31 and -2**31 <= sample_ids.min(initial=0)
               and sample_ids.max(initial=0) < 2**31 else np.intp)
        feats = np.empty((nq, M, self.layout.size), dtype=np.float32)
        metas = np.empty((nq, M), dtype=np.int8)
        for blk in self.query_blocks(nq):
            own = None if self_indices is None else self_indices[blk]
            _, metas[blk], _ = self.extract_batch(X[blk], y[blk], self_indices=own,
                                                  out=feats[blk])
        return MetaDataset(rows=feats.reshape(nq * M, -1), labels=metas.reshape(-1),
                           ids=sample_ids.astype(ids), layout=self.layout)

    # -- internals -----------------------------------------------------------

    def _cond(self, theta, assigned):
        """Per (query, member) of one piece of queries: the conditional
        accuracy with respect to the class the member assigns to the query
        (``assigned``, (q, M)), the share of the member's clipped support
        for that class over the region ``theta`` (q, K) that falls on rows
        of that class (0 when the support sums to 0). The supports are
        gathered from ``dsel_profiles`` and clipped where they were
        gathered. Each sum runs over one query's K contiguous values, so its
        bits do not depend on the piece."""
        M, L = assigned.shape[1], self.pool.class_count
        column = np.arange(0, M * L, L)[None, :] + assigned   # (q, M)
        sup = self.dsel_profiles[theta[:, None, :], column[:, :, None]]   # (q, M, K)
        np.clip(sup, SUPPORT_FLOOR, SUPPORT_CEIL, out=sup)
        same_class = self.dsel.labels[theta][:, None, :] == assigned[:, :, None]
        den = sup.sum(axis=2)
        # the product in place of the supports: no second (q, M, K) block
        num = np.multiply(sup, same_class, out=sup).sum(axis=2)
        return np.divide(num, den, out=np.zeros_like(den), where=den > 0)

    def _rank(self, X, exclude, order):
        """Per (query, member): how many reference rows, in order of distance
        to the query, the member classifies correctly before its first error
        (the available row count, N or N - 1 with ``exclude``, when it makes
        none).

        ``order`` holds an exact prefix of each query's rows by distance
        (``extract_batch`` passes the region of competence, K rows). Each
        newly fetched segment of positions is scanned once for the pairs
        that have not erred yet, each gather holding one budget of flags.
        Then only the queries with a pair still open are searched again at
        twice the width (``nearest_neighbors`` returns the rows of a full
        sort on any prefix), and the scan goes on where it stopped, so the
        segments double (K, K, 2K, 4K, ...) and the work follows the ranks
        rather than N. A member that errs on no reference row gets the row
        count at once."""
        nq, M = len(X), len(self.pool)
        avail = len(self.dsel) - (exclude is not None)
        wrong = ~self.dsel_correct                            # (M, N)
        rank = np.full((nq, M), float(avail))
        erring = np.flatnonzero(wrong.any(axis=1))
        # open pairs: query, member and the query's row in ``order``, as
        # int32, half the bytes of intp while every pair of the block is open
        q_open = np.repeat(np.arange(nq, dtype=np.int32), erring.size)
        m_open = np.tile(erring.astype(np.int32), nq)
        rows = q_open
        lo = 0
        while True:
            hi = order.shape[1]
            still = np.ones(q_open.size, dtype=bool)
            for p in _blocks.pieces(q_open.size, hi - lo):
                qs, ms = q_open[p], m_open[p]
                err = wrong[ms[:, None], order[rows[p], lo:hi]]   # (pairs, hi - lo)
                hit = err.any(axis=1)
                rank[qs[hit], ms[hit]] = lo + err[hit].argmax(axis=1)
                still[p] = ~hit
            q_open, m_open, rows = q_open[still], m_open[still], rows[still]
            if not q_open.size or hi == avail:
                return rank
            queries, rows = np.unique(q_open, return_inverse=True)
            order = nearest_neighbors(X[queries], self.dsel.features, min(2 * hi, avail),
                                      exclude=None if exclude is None else exclude[queries])[0]
            lo = hi


def meta_dataset_to_csv(md: MetaDataset, path):
    """Write a meta-dataset as CSV: one column per meta-feature plus
    meta_label, classifier_index and sample_id. The rows go out in blocks of
    one budget of values, each widened to one float64 table with its rows'
    ids, so the writer's memory does not grow with the meta-dataset."""
    header = md.layout.column_names() + ["meta_label", "classifier_index", "sample_id"]
    fmt = ["%.10g"] * md.rows.shape[1] + ["%d"] * 3
    M = md.members
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for blk in _blocks.pieces(len(md), len(fmt)):
            sample, member = np.divmod(np.arange(blk.start, blk.stop), M)
            # unnamed, so each table is freed before the next one is built
            np.savetxt(fh, np.column_stack([md.rows[blk], md.labels[blk],
                                            member, md.ids[sample]]),
                       fmt=fmt, delimiter=",")
