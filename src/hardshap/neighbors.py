"""Euclidean neighbor ordering shared by valuation, Data-IQ, SMOTE, and eval.

Every ordering is by distance, then by column: of two training rows at the
same distance, the one stored first ranks first. Callers that pass id-sorted
rows therefore break distance ties by ascending row id, which gives every
consumer the same total order and makes results independent of row storage
order. Both kernels below return exactly what a stable argsort would.

``stable_order`` is the full order, which only the exact Shapley recursion
and the coalition oracles need. ``smallest_k`` finds the k nearest without
sorting whole rows: ``argpartition`` picks k candidates and only those are
sorted. Where the k-th distance equals the (k+1)-th, the partition may have
kept any of the tied columns, so the candidates at that distance are
replaced by the lowest columns at it, keeping the cut where a stable sort
puts it.

Distances must not be NaN; ``inf`` (a masked-out pair) is allowed.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from ._util import fixed_chunks
from .dataset import Dataset

QUERY_CHUNK = 256


def check_same_dimension(a: Dataset, b: Dataset) -> None:
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")


def id_sorted_view(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, original positions) with rows reordered by ascending id.

    In this view the column tie-break of the kernels below is the id
    tie-break.
    """
    order = np.argsort(ds.ids)
    return ds.features[order], ds.labels[order], order


def stable_order(dist: np.ndarray) -> np.ndarray:
    """Column order of each row of dist by (distance, column).

    Equals ``np.argsort(dist, axis=-1, kind="stable")`` for a row or a
    block. The unstable default sort is faster; rows where it met an equal
    pair of distances are sorted again stably.
    """
    order = np.argsort(dist, axis=-1)
    ranked = np.take_along_axis(dist, order, axis=-1)
    tied = (ranked[..., 1:] == ranked[..., :-1]).any(axis=-1)
    if dist.ndim == 1:
        return np.argsort(dist, kind="stable") if tied else order
    if tied.any():
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    return order


def smallest_k(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries of each row of a 2-D dist, by (distance, column).

    Equals ``np.argsort(dist, axis=1, kind="stable")[:, :k]``.
    """
    if k >= dist.shape[1]:
        return stable_order(dist)[:, :k]
    part = np.argpartition(dist, k, axis=1)
    cand = part[:, :k]
    cand_d = np.take_along_axis(dist, cand, axis=1)
    kth = cand_d.max(axis=1)
    next_d = np.take_along_axis(dist, part[:, k:k + 1], axis=1)[:, 0]
    tied = kth == next_d
    if tied.any():
        # All entries below the k-th distance are candidates already; the
        # slots at it go to the lowest columns at it, in column order.
        slots = tied[:, None] & (cand_d == kth[:, None])
        boundary = np.where(tied, kth, np.nan)
        rows, cols = np.nonzero(dist == boundary[:, None])
        rank_in_row = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        cand[slots] = cols[rank_in_row < slots.sum(axis=1)[rows]]
    order = np.lexsort((cand, cand_d), axis=1)
    return np.take_along_axis(cand, order, axis=1)


def rank_all(train_features: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Training-row order by increasing distance to each query row.

    Returns an (n_query, n_train) index matrix; ties keep the input row
    order (pass id-sorted features for id tie-breaking).
    """
    return stable_order(cdist(query, train_features))


def k_nearest(train_features: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest training rows per query row, tie-stable.

    Distances are computed QUERY_CHUNK query rows at a time, so memory
    stays linear in the training size.
    """
    if not 1 <= k <= train_features.shape[0]:
        raise ValueError(f"K={k} out of range for {train_features.shape[0]} training rows")
    out = np.empty((query.shape[0], k), dtype=np.intp)
    for lo, hi in fixed_chunks(query.shape[0], QUERY_CHUNK):
        out[lo:hi] = smallest_k(cdist(query[lo:hi], train_features), k)
    return out
