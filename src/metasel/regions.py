"""Neighborhoods used for competence estimation: k-NN over the reference set
in feature space (region of competence) and in decision space (output-profile
neighborhood).

Distances are Euclidean; ties are broken by the lower reference index so all
queries are deterministic. Queries originating from the reference set itself
pass ``exclude`` to omit their own row.

The search is exact in two stages. A candidate filter first scores every
reference row with the squared-norm expansion ||q||^2 + ||r||^2 - 2 q.r, one
matrix product per query block, and keeps each row whose score is at most
the k-th smallest score plus a rounding margin (derived in
``nearest_neighbors``). The margin is at least twice the largest gap between
a score and the brute-force squared distance, so any row it drops has k rows
strictly closer and cannot be among the k nearest. The candidates, in
ascending index order, are then scored again with the brute-force
difference, square and sum, and sorted stably: indices and distances are
bit for bit those of sorting every row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["nearest_neighbors"]

# (query, reference, feature) differences nearest_neighbors holds at once
_KNN_BLOCK = 1 << 22

_EPS = np.finfo(float).eps / 2          # unit roundoff u
_TINY = np.finfo(float).tiny            # largest error of one underflowing operation


def nearest_neighbors(queries, reference, k, exclude=None):
    """Exact k-NN of ``queries`` (Nq, d) in ``reference`` (Nr, d).

    Returns (indices, distances), each (Nq, k), sorted by distance with ties
    broken by lower reference index. ``exclude`` may be an array of one
    reference row per query to omit (-1 for none), or a scalar for a single
    query. Queries go through in blocks of at most ``_KNN_BLOCK`` differences,
    so memory stays bounded; a query's result does not depend on its block
    (nor on the arrays' memory layout: both are made C-contiguous, so each
    squared distance is one contiguous sum).

    When ``k`` is below the number of available rows, a block first keeps the
    candidate rows whose approximate squared distance s = ||q||^2 + ||r||^2 -
    2 q.r is at most its k-th smallest plus the margin 2 (a + b), where

        a, b <= 2 gamma_{w+3} (||q||^2 + max ||r||^2) + 2 (w + 3) tiny,

    gamma_n = n u / (1 - n u), u the unit roundoff, w the row width and tiny
    the smallest normal double. a bounds |s - D| for the exact squared
    distance D: each norm and the dot product are sums of w products, off by
    at most gamma_w times the sum of their magnitudes, and 2 |q.r| <=
    ||q||^2 + ||r||^2, so the three together are off by 2 gamma_w (||q||^2 +
    ||r||^2); the two additions, each of operands below 2 (||q||^2 +
    ||r||^2), add 4 u (||q||^2 + ||r||^2). b bounds the brute force's own
    error: each squared difference is off by gamma_3 relative, their sum by
    gamma_{w-1}, and D <= 2 (||q||^2 + ||r||^2). The tiny term covers
    underflow, and gamma_{w+3} in place of gamma_{w+2} covers the rounding of
    the cutoff itself. A row outside the margin is then strictly farther,
    by the brute force's own arithmetic, than each of the k rows at or below
    the k-th smallest score. If the cutoff is not finite (NaN or inf in the
    rows, or norms that overflow), every row of that query is a candidate.
    Candidates are re-scored with the brute force's difference, square and
    sum, so the result equals sorting all rows.
    """
    queries = np.ascontiguousarray(np.atleast_2d(np.asarray(queries, dtype=float)))
    reference = np.ascontiguousarray(reference, dtype=float)
    n_ref = len(reference)
    excl = None
    if exclude is not None:
        excl = np.atleast_1d(np.asarray(exclude, dtype=int))
        if len(excl) != len(queries):
            raise ValueError("exclude must provide one index per query")
    avail = n_ref - (0 if excl is None else 1)
    if k < 1 or k > avail:
        raise ValueError(f"k={k} out of range for reference of size {n_ref}"
                         + (" (with self-exclusion)" if excl is not None else ""))
    order = np.empty((len(queries), k), dtype=np.intp)
    dist = np.empty((len(queries), k))
    filtered = k < avail
    if filtered:
        with np.errstate(over="ignore"):
            ref_sq = np.einsum("ij,ij->i", reference, reference)
    step = max(1, _KNN_BLOCK // max(1, reference.size))
    for lo in range(0, len(queries), step):
        blk = slice(lo, lo + step)
        q = queries[blk]
        excl_blk = None if excl is None else excl[blk]
        if filtered:
            cand, counts = _candidates(q, reference, ref_sq, k, excl_blk)
            diff = reference[cand]
            np.subtract(q[:, None, :], diff, out=diff)
        else:
            diff = q[:, None, :] - reference[None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=2)
        del diff                      # freed before the next block is allocated
        if filtered:
            if excl_blk is not None:
                d2[cand == excl_blk[:, None]] = np.inf
            # padding sorts after every real candidate, NaN distances included
            d2[np.arange(cand.shape[1])[None, :] >= counts[:, None]] = np.nan
        elif excl_blk is not None:
            rows = np.flatnonzero(excl_blk >= 0)
            d2[rows, excl_blk[rows]] = np.inf
        pick = np.argsort(d2, axis=1, kind="stable")[:, :k]
        order[blk] = np.take_along_axis(cand, pick, axis=1) if filtered else pick
        dist[blk] = np.sqrt(np.take_along_axis(d2, pick, axis=1))
    return order, dist


def _candidates(q, reference, ref_sq, k, excl):
    """Rows of ``reference`` that may be among each query's k nearest:
    (cand, counts), cand (Nq, C) holding each query's candidate indices in
    ascending order, then other rows past its count."""
    w = reference.shape[1]
    # non-finite scores are expected here: they make the cutoff non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq = np.einsum("ij,ij->i", q, q)
        approx = q @ reference.T
        approx *= -2.0
        approx += q_sq[:, None]
        approx += ref_sq[None, :]
        if excl is not None:
            rows = np.flatnonzero(excl >= 0)
            approx[rows, excl[rows]] = np.inf
        gamma = (w + 3) * _EPS / (1.0 - (w + 3) * _EPS)
        cutoff = np.partition(approx, k - 1, axis=1)[:, k - 1]
        cutoff += 8.0 * gamma * (q_sq + ref_sq.max()) + 8.0 * (w + 3) * _TINY
        keep = approx <= cutoff[:, None]
    keep[~np.isfinite(cutoff)] = True
    counts = keep.sum(axis=1)
    # a stable sort of the flags lists each query's candidates first, in index order
    return np.argsort(~keep, axis=1, kind="stable")[:, :counts.max()], counts
