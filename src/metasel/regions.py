"""Neighborhoods used for competence estimation: k-NN over the reference set
in feature space (region of competence) and in decision space (output-profile
neighborhood).

Distances are Euclidean; ties are broken by the lower reference index so all
queries are deterministic. Queries originating from the reference set itself
pass ``exclude`` to omit their own row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .pool import ClassifierPool

__all__ = [
    "RegionOfCompetence",
    "OutputProfile",
    "ProfileNeighborhood",
    "nearest_neighbors",
    "region_of",
    "output_profile",
    "dsel_output_profiles",
    "profile_neighborhood",
]

# (query, reference, feature) differences nearest_neighbors holds at once
_KNN_BLOCK = 1 << 22


@dataclass
class RegionOfCompetence:
    """Indices into the reference set of the K nearest samples, with their
    distances in ascending order."""

    indices: np.ndarray
    distances: np.ndarray


@dataclass
class OutputProfile:
    """Concatenated support vectors of all pool members for one sample
    (length M * L); each L-block sums to 1."""

    values: np.ndarray


@dataclass
class ProfileNeighborhood:
    """Indices of the Kp reference samples with the most similar output
    profiles, with profile-space distances ascending."""

    indices: np.ndarray
    distances: np.ndarray


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


def region_of(x, dsel: Dataset, k: int, exclude: int | None = None) -> RegionOfCompetence:
    """Region of competence of ``x``: its k nearest neighbors in the dynamic
    selection dataset."""
    excl = None if exclude is None else [exclude]
    idx, dist = nearest_neighbors(np.atleast_2d(x), dsel.features, k, exclude=excl)
    return RegionOfCompetence(idx[0], dist[0])


def output_profile(pool: ClassifierPool, x) -> OutputProfile:
    """Decision-space representation of ``x``: the pool members' support
    vectors concatenated in member order."""
    _, supports = pool.predict_batch(np.atleast_2d(x))
    return OutputProfile(supports[:, 0, :].reshape(-1))


def dsel_output_profiles(pool: ClassifierPool, dsel: Dataset) -> np.ndarray:
    """Profiles of every reference sample, shape (N, M * L). Row ``i`` equals
    ``output_profile(pool, dsel.features[i]).values``."""
    _, supports = pool.predict_batch(dsel.features)
    return np.transpose(supports, (1, 0, 2)).reshape(len(dsel), -1)


def profile_neighborhood(x_profile: OutputProfile | np.ndarray, dsel_profiles: np.ndarray,
                         kp: int, exclude: int | None = None) -> ProfileNeighborhood:
    """The kp reference samples whose output profiles are nearest the query's
    profile (Euclidean in decision space)."""
    values = x_profile.values if isinstance(x_profile, OutputProfile) else np.asarray(x_profile)
    excl = None if exclude is None else [exclude]
    idx, dist = nearest_neighbors(np.atleast_2d(values), dsel_profiles, kp, exclude=excl)
    return ProfileNeighborhood(idx[0], dist[0])
