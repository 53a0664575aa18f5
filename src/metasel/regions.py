"""Neighborhoods used for competence estimation: k-NN over the reference set
in feature space (region of competence) and in decision space (output-profile
neighborhood).

Distances are Euclidean; ties are broken by the lower reference index so all
queries are deterministic. Queries originating from the reference set itself
pass ``exclude`` to omit their own row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["nearest_neighbors"]

# (query, reference, feature) differences nearest_neighbors holds at once
_KNN_BLOCK = 1 << 22


def nearest_neighbors(queries, reference, k, exclude=None):
    """Brute-force k-NN of ``queries`` (Nq, d) in ``reference`` (Nr, d).

    Returns (indices, distances), each (Nq, k), sorted by distance with ties
    broken by lower reference index. ``exclude`` may be an array of one
    reference row per query to omit (-1 for none), or a scalar for a single
    query. Queries go through in blocks of at most ``_KNN_BLOCK`` differences,
    so memory stays bounded; a query's result does not depend on its block.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    reference = np.asarray(reference, dtype=float)
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
    step = max(1, _KNN_BLOCK // max(1, reference.size))
    for lo in range(0, len(queries), step):
        blk = slice(lo, lo + step)
        diff = queries[blk, None, :] - reference[None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=2)
        del diff                      # freed before the next block is allocated
        if excl is not None:
            rows = np.flatnonzero(excl[blk] >= 0)
            d2[rows, excl[blk][rows]] = np.inf
        order[blk] = np.argsort(d2, axis=1, kind="stable")[:, :k]
        dist[blk] = np.sqrt(np.take_along_axis(d2, order[blk], axis=1))
    return order, dist

