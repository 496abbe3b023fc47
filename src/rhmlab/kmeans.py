"""Seeded k-means with greedy-spread initialization and deterministic ties.

Identical (points, k, seed) always produce the identical partition: restarts
pull their first centroid from one seeded generator, the remaining centroids
are placed greedily on the point farthest from the chosen set, and every
argmin/argmax tie resolves to the lowest index. A restart is a pure function
of its first point, so each distinct first point is fitted once, and all of
them run in lockstep: one array operation serves every live restart, while
each restart still stops at its own iteration.

Summation order is part of the contract, because a last-bit change in a
distance can flip an argmin tie and with it a learner decision:

* squared distances are formed as ``sum((x - c)**2)`` per pair, never through
  the expansion ``|x|^2 - 2 x.c + |c|^2``. The init reduces ``(x - p)**2``
  with ``.sum`` over the last axis and Lloyd with one ``einsum`` over it;
  either reduction gives each pair the same bits whatever block the pair
  sits in, so the ``(points, rows or centres, coordinates)`` difference
  blocks are sized freely: ``_BLOCK_ELEMENTS`` elements, and at least one
  row or centre;
* lockstep init: the greedy-spread init runs for all distinct first points
  at once, and a point's distance row is computed once however many
  restarts choose it; so is the first Lloyd distance column of each point
  chosen as a centre;
* cached columns: a restart's distance column for a centre is recomputed
  only when the centre's bits change. An unchanged centre gives identical
  distances, so the cache changes nothing;
* a centre is the sum of its member rows added one by one in point order,
  starting from 0.0, divided by the member count. One flat ``np.bincount``
  over the ``(restart, cluster, coordinate)`` keys of every live restart adds
  in exactly that order, as ``np.add.at`` does, and as
  ``points[mask].mean(axis=0)`` does for two or more coordinates (numpy sums
  a single column pairwise). ``np.add.reduceat`` is forbidden: its sums differ in the last bits on
  most sweep inputs. So is a one-hot matrix product, which leaves the order
  to the BLAS library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grammar import _check_draw_count


@dataclass
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int
    restart: int
    restarts_run: int  # distinct first points fitted


# Most float64 elements of one difference block: one block per k = 16
# centres at the sweep's largest shape, 128 points of 16 coordinates.
_BLOCK_ELEMENTS = 1 << 15
# A restart stops once an iteration lowers its inertia by at most this
# fraction of the new inertia.
_REL_TOL = 1e-8


def _block_width(points: np.ndarray) -> int:
    """Centres (or rows) per difference block against every point."""
    return max(1, _BLOCK_ELEMENTS // points.size)


def _sq_columns(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from every point to each centre, one row per centre,
    one ``(n, c, d)`` difference block of :func:`_block_width` centres at a
    time."""
    out = np.empty((centers.shape[0], points.shape[0]))
    width = _block_width(points)
    for lo in range(0, centers.shape[0], width):
        diff = points[:, None, :] - centers[None, lo : lo + width, :]
        out[lo : lo + width] = np.einsum("nkd,nkd->nk", diff, diff).T
        del diff  # before the next block is formed
    return out


def _spread_init(points: np.ndarray, firsts: np.ndarray, k: int) -> np.ndarray:
    """Greedy-spread init of every restart at once, as ``(R, k)`` point
    indices. Restarts mostly pick the same far points, so each point's
    squared-distance row is computed once, :func:`_block_width` rows per
    block."""
    n = points.shape[0]
    idx = np.empty((firsts.size, k), dtype=np.int64)
    idx[:, 0] = firsts
    rows = np.empty((min(n, firsts.size * k), n))
    slot = np.full(n, -1)
    used = 0
    width = _block_width(points)
    d2 = np.full((firsts.size, n), np.inf)
    for j in range(1, k):
        chosen = idx[:, j - 1]
        new = np.unique(chosen[slot[chosen] < 0])
        slot[new] = np.arange(used, used + new.size)
        used += new.size
        for lo in range(0, new.size, width):
            block = new[lo : lo + width]
            diff = points[None] - points[block][:, None]
            rows[slot[block]] = np.square(diff, out=diff).sum(axis=2)
            del diff
        d2 = np.minimum(d2, rows[slot[chosen]])
        idx[:, j] = d2.argmax(axis=1)  # ties -> lowest index
    return idx


def kmeans_fit(
    points: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = 16,
    max_iter: int = 200,
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
    _check_draw_count(k, "k")
    _check_draw_count(n_restarts, "n_restarts")
    if not 1 <= k <= points.shape[0]:
        raise ValueError("need 1 <= k <= number of points")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    n, dim = points.shape
    firsts = np.random.default_rng(seed).integers(0, n, size=n_restarts)
    _, restart_of = np.unique(firsts, return_index=True)
    restart_of.sort()  # restart index of each distinct first point, in order
    n_run = restart_of.size

    idx = _spread_init(points, firsts[restart_of], k)
    centers = points[idx]
    # Each init centre is a point: one distance column per distinct point.
    init_points, slot = np.unique(idx, return_inverse=True)
    cols = _sq_columns(points, points[init_points])
    dist = cols[slot.reshape(idx.shape)].transpose(0, 2, 1).copy()  # (R, n, k)
    prev = np.full(n_run, np.inf)
    n_iter = np.zeros(n_run, dtype=np.int64)
    live = np.arange(n_run)
    coord = np.arange(dim)
    weights = np.tile(points.ravel(), n_run)  # every restart sums the same rows
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        a = live.size
        d2 = dist[live]
        labels = d2.argmin(axis=2)  # ties -> lowest cluster index
        own = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
        del d2
        offset = k * np.arange(a)[:, None]
        sizes = np.bincount((labels + offset).ravel(), minlength=a * k).reshape(a, k)
        # Re-seat empty clusters, lowest index first, on the worst-served point
        # of a multi-member cluster. A re-seat never empties a cluster in turn,
        # so the empty set is known up front.
        for row, c in zip(*np.nonzero(sizes == 0)):
            order = np.argsort(-own[row], kind="stable")
            pick = next(int(i) for i in order if sizes[row, labels[row, i]] > 1)
            sizes[row, labels[row, pick]] -= 1
            sizes[row, c] = 1
            labels[row, pick] = c
            own[row, pick] = 0.0
        inertia = own.sum(axis=1)
        new = np.bincount(
            ((labels + offset)[:, :, None] * dim + coord).ravel(),
            weights=weights[: a * n * dim],
            minlength=a * k * dim,
        ).reshape(a, k, dim)
        new /= sizes[:, :, None]  # the centres, from their sums
        # Only a centre whose bits changed needs its distance column again.
        r, c = np.nonzero((new != centers[live]).any(axis=2))
        r = live[r]
        centers[live] = new
        dist[r, :, c] = _sq_columns(points, centers[r, c])
        n_iter[live] = it
        done = prev[live] - inertia <= _REL_TOL * np.maximum(inertia, 1e-300)
        prev[live] = inertia
        live = live[~done]

    labels = dist.argmin(axis=2)
    inertia = np.take_along_axis(dist, labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    best = int(np.argmin(inertia))  # ties -> earliest restart
    return KMeansResult(
        labels[best],
        centers[best].copy(),
        float(inertia[best]),
        int(n_iter[best]),
        int(restart_of[best]),
        n_run,
    )
