"""Point-cloud containers, exact nearest-neighbour search, and Chamfer distance.

Nearest-neighbour queries are exact and deterministic: they return the same
(index, squared distance) pairs as an exhaustive scan, with ties broken
toward the lowest point index. One engine, `NearestNeighborIndex`, answers
every query. It scans blocks of nearby targets against blocks of nearby
queries, filling each (query block, target block) matrix of squared
distances one coordinate at a time in the order (dx² + dy²) + dz², and
skips a target block only when a bounding-box lower bound proves it holds
no closer or tied point. Skipping changes the cost, never the result.
"""

from __future__ import annotations

import contextlib

import numpy as np

NORM_EPS = 1e-12  # divisor clamp for degenerate clouds
DEFAULT_LEAF_SIZE = 512  # target block size

_QUERY_BLOCK = 256
_UFUNC_BUFSIZE = 64  # ufunc buffer elements inside the block scan

_CENTROID_TOL = 1e-5
_RADIUS_TOL = 1e-5


class PointCloud:
    """N x 3 coordinates with optional per-point integer labels.

    `normalized` marks a cloud as zero-centered with max radius 1; the flag
    is validated at construction so it can be trusted downstream.
    """

    __slots__ = ("points", "labels", "normalized")

    def __init__(self, points, labels=None, normalized: bool = False):
        pts = np.asarray(points)
        if not np.issubdtype(pts.dtype, np.floating):
            pts = pts.astype(np.float32)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be N x 3, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("empty point cloud")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        self.points = np.ascontiguousarray(pts)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (pts.shape[0],):
                raise ValueError(
                    f"labels shape {labels.shape} does not match {pts.shape[0]} points"
                )
        self.labels = labels
        self.normalized = bool(normalized)
        if self.normalized:
            centroid = self.points.mean(axis=0, dtype=np.float64)
            radius = np.sqrt((self.points**2).sum(axis=1)).max()
            if np.abs(centroid).max() > _CENTROID_TOL or radius > 1.0 + _RADIUS_TOL:
                raise ValueError(
                    "cloud flagged normalized but centroid/radius are off "
                    f"(|centroid| up to {np.abs(centroid).max():.2e}, radius {radius:.6f})"
                )

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        tag = ", normalized" if self.normalized else ""
        lab = ", labeled" if self.labels is not None else ""
        return f"PointCloud({len(self)} points{tag}{lab})"


def normalize_cloud(raw: PointCloud) -> PointCloud:
    """Zero-center and scale so the farthest point sits on the unit sphere.

    A degenerate cloud (all points identical) maps to all zeros via the
    divisor clamp. Float32 input is centred with a float32 mean, which far
    from the origin can leave a residual centroid above the tolerance;
    only then is the whole pass redone in float64 and cast once, so every
    cloud that centres well keeps its one-pass bytes.
    """
    pts = raw.points
    scaled = _centre_and_scale(pts).astype(pts.dtype)
    if np.abs(scaled.mean(axis=0, dtype=np.float64)).max() > _CENTROID_TOL:
        scaled = _centre_and_scale(pts.astype(np.float64)).astype(pts.dtype)
    return PointCloud(scaled, labels=raw.labels, normalized=True)


def _centre_and_scale(pts: np.ndarray) -> np.ndarray:
    centered = pts - pts.mean(axis=0)
    radius = np.sqrt((centered**2).sum(axis=1)).max()
    return centered / max(float(radius), NORM_EPS)


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"expected N x 3 points, got shape {pts.shape}")
    return pts


def _median_blocks(points: np.ndarray, size: int) -> list:
    """Index blocks of at most `size` rows, each from median splits on its
    widest axis (argpartition at n // 2), indices sorted within a block."""
    blocks, pending = [], [np.arange(points.shape[0], dtype=np.int64)]
    while pending:
        idx = pending.pop()
        if idx.size <= size:
            blocks.append(np.sort(idx))
            continue
        pts = points[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        mid = idx.size // 2
        order = np.argpartition(pts[:, axis], mid)
        pending += [idx[order[mid:]], idx[order[:mid]]]
    return blocks


def _exhaustive_nn(queries: np.ndarray, columns):
    """First-occurrence argmin and minimum of the squared distances from
    each query row to the targets given as x, y and z columns."""
    # Accumulate as (dx² + dy²) + dz², the order in which a sum over a
    # trailing xyz axis adds. Float addition is not associative, so any
    # other order can move the last bit and flip an exact tie.
    d2 = np.square(queries[:, 0:1] - columns[0])
    for axis in (1, 2):
        term = queries[:, axis : axis + 1] - columns[axis]
        d2 += np.square(term, out=term)
    idx = np.argmin(d2, axis=1)  # first occurrence: lowest index on ties
    return idx, d2[np.arange(d2.shape[0]), idx]


@contextlib.contextmanager
def _small_ufunc_buffer():
    # The block scan subtracts a query column from a row of targets, a
    # stride-0 broadcast. NumPy's ufunc iterator copies such operands
    # through its buffer (8192 elements by default) several rows at a time;
    # a buffer of _UFUNC_BUFSIZE elements sends them to the inner loop
    # almost directly. The size only decides how elementwise work is cut
    # into pieces. Inside run only elementwise arithmetic, compares, copies
    # and exact reductions (min, max, argmin), never a float sum, whose
    # pairwise blocking can follow the buffer; so no value depends on it.
    # NumPy 1.x keeps the size per thread rather than per context, hence
    # the explicit restore.
    previous = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(previous)


class NearestNeighborIndex:
    """Exact nearest-neighbour search over a fixed target cloud.

    The target is cut by median splits on the widest axis into blocks of at
    most `leaf_size` points, each keeping its original indices sorted; the
    queries are cut the same way into blocks of `_QUERY_BLOCK` rows. Each
    query block scans target blocks in ascending order of a bounding-box
    lower bound and stops at the first block whose bound is strictly above
    the block's worst current best. Equality must still scan: that block
    may hold a tied, lower index.

    The bound is exact, with no slack. It is computed in the scan's dtype
    and operation order, (gx² + gy²) + gz², from per-axis box gaps clamped
    at 0. Each gap is a rounded difference of two coordinates at least as
    close as any query/target pair of the two boxes, and IEEE
    round-to-nearest is monotone, so every rounded step of the bound is at
    most the matching step of every pair distance in the block. That holds
    in float32, float64, mixed dtypes (the float32 side widens exactly) and
    under underflow. A skipped target therefore never beats or ties a
    query's best.
    """

    def __init__(self, target, leaf_size: int = DEFAULT_LEAF_SIZE):
        self.points = _as_points(target)
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = int(leaf_size)
        self._blocks = _median_blocks(self.points, self.leaf_size)
        self._columns = [np.ascontiguousarray(self.points[b].T) for b in self._blocks]
        self._lo = np.array([c.min(axis=1) for c in self._columns])
        self._hi = np.array([c.max(axis=1) for c in self._columns])

    @_small_ufunc_buffer()  # the block kernels broadcast query columns
    def query(self, queries):
        """(index, squared distance) of the closest target point per query row.

        Ties break to the lowest target index. A query row with a NaN
        coordinate gets a NaN distance and an in-range index, and NaN
        target points never put an index out of range either.
        """
        q = _as_points(queries)
        out_idx = np.empty(q.shape[0], dtype=np.int64)
        out_d2 = np.empty(q.shape[0], dtype=np.result_type(q.dtype, self.points.dtype))
        for rows in _median_blocks(q, _QUERY_BLOCK):
            block = q[rows]
            gap = np.maximum(self._lo - block.max(axis=0), block.min(axis=0) - self._hi)
            np.maximum(gap, 0, out=gap)
            np.square(gap, out=gap)
            bound = (gap[:, 0] + gap[:, 1]) + gap[:, 2]
            order = np.argsort(bound, kind="stable")
            best_i = best_d = None
            worst = np.inf
            for j, lower in zip(order.tolist(), bound[order].tolist()):
                if lower > worst:
                    break
                local, d = _exhaustive_nn(block, self._columns[j])
                found = self._blocks[j][local]
                if best_d is None:
                    best_i, best_d = found, d
                else:
                    take = (d < best_d) | ((d == best_d) & (found < best_i))
                    best_i = np.where(take, found, best_i)
                    best_d = np.where(take, d, best_d)
                worst = float(best_d.max())
            out_idx[rows] = best_i
            out_d2[rows] = best_d
        return out_idx, out_d2


def nearest_neighbors(queries, target):
    """Exact nearest neighbour in `target` for every point of `queries`.

    Returns (indices, squared distances); ties break to the lowest target
    index.
    """
    return NearestNeighborIndex(target).query(queries)


def chamfer_distance(p, q):
    """Symmetric mean of squared nearest-neighbour distances.

    Returns (value, (match_pq, match_qp)): match_pq[i] indexes the point of
    `q` closest to p[i] and vice versa, so a caller can rebuild the loss
    with frozen correspondences for gradient routing.
    """
    idx_pq, d2_pq = nearest_neighbors(p, q)
    idx_qp, d2_qp = nearest_neighbors(q, p)
    value = float(np.mean(d2_pq) + np.mean(d2_qp))
    return value, (idx_pq, idx_qp)
