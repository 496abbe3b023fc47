"""Seeded k-means with greedy-spread initialization and deterministic ties.

Identical (points, k, seed) always produce the identical partition: restarts
pull their first centroid from one seeded generator, the remaining centroids
are placed greedily on the point farthest from the chosen set, and every
argmin/argmax tie resolves to the lowest index.

Summation order is part of the contract, because a last-bit change in a
distance can flip an argmin tie and with it a learner decision:

* squared distances are formed as ``sum((x - c)**2)`` per pair, never through
  the expansion ``|x|^2 - 2 x.c + |c|^2``;
* a centre is the sum of its member rows added one by one in point order,
  starting from zero, divided by the member count. ``np.add.at`` adds rows in
  index order and ``points[mask].mean(axis=0)`` reduces them in the same
  order, so both give the same bits. A one-hot matrix product would leave
  the order to the BLAS library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int
    restart: int


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _greedy_spread_init(points: np.ndarray, k: int, first: int) -> np.ndarray:
    idx = [first]
    d2 = ((points - points[first]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(d2))  # ties -> lowest index
        idx.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[idx].copy()


def _lloyd(
    points: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    rel_tol: float,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    n, k = points.shape[0], centers.shape[0]
    prev = np.inf
    labels = np.zeros(n, dtype=np.int64)
    it = 0
    for it in range(1, max_iter + 1):
        d2 = _pairwise_sq(points, centers)
        labels = d2.argmin(axis=1)  # ties -> lowest cluster index
        own = d2[np.arange(n), labels]
        sizes = np.bincount(labels, minlength=k)
        # Re-seat empty clusters, lowest index first, on the worst-served point
        # of a multi-member cluster. A re-seat never empties a cluster in turn,
        # so the empty set is known up front.
        for c in np.flatnonzero(sizes == 0):
            order = np.argsort(-own, kind="stable")
            pick = next(int(i) for i in order if sizes[labels[i]] > 1)
            sizes[labels[pick]] -= 1
            sizes[c] = 1
            labels[pick] = c
            own[pick] = 0.0
        inertia = float(own.sum())
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        centers = sums / sizes[:, None]
        if prev - inertia <= rel_tol * max(inertia, 1e-300):
            break
        prev = inertia
    d2 = _pairwise_sq(points, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, centers, inertia, it


def kmeans_fit(
    points: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = 16,
    max_iter: int = 200,
    rel_tol: float = 1e-8,
) -> KMeansResult:
    """Best-of-``n_restarts`` Lloyd iterations; lowest inertia wins, ties going
    to the earliest restart.

    The fit is a pure function of the restart's first point, so a restart
    whose first point an earlier restart already used is skipped: it could
    only tie, and ties go to the earlier one.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if not 1 <= k <= points.shape[0]:
        raise ValueError("need 1 <= k <= number of points")
    rng = np.random.default_rng(seed)
    firsts = rng.integers(0, points.shape[0], size=n_restarts)
    best: KMeansResult | None = None
    tried: set[int] = set()
    for r in range(n_restarts):
        first = int(firsts[r])
        if first in tried:
            continue
        tried.add(first)
        centers = _greedy_spread_init(points, k, first)
        labels, centers, inertia, n_iter = _lloyd(points, centers, max_iter, rel_tol)
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels, centers, inertia, n_iter, r)
    return best
