"""Point-cloud containers, exact nearest-neighbour search, and Chamfer distance.

Nearest-neighbour queries are exact and deterministic: they return the same
(index, squared distance) pairs as an exhaustive scan, with ties broken
toward the lowest point index. Two interchangeable engines sit behind
`nearest_neighbors`: a blocked scan for targets up to
`_EXHAUSTIVE_MAX_TARGET` points and a kd-tree for larger ones. The scan
fills a (query block, target) matrix of squared distances one coordinate
at a time, adding in the order (dx² + dy²) + dz²; its cost depends only on
the sizes. The kd-tree's cost depends on the data, and it beat the scan
only beyond about 12k target points (2048 queries, 2-core Xeon). Both
produce bit-identical results, so callers never observe which one ran.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12  # divisor clamp for degenerate clouds
DEFAULT_LEAF_SIZE = 16

_EXHAUSTIVE_MAX_TARGET = 12288  # measured scan/kd-tree crossover
_QUERY_BLOCK = 256

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
            centroid = self.points.mean(axis=0)
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
    divisor clamp.
    """
    pts = raw.points
    centered = pts - pts.mean(axis=0)
    radius = np.sqrt((centered**2).sum(axis=1)).max()
    scaled = centered / max(float(radius), NORM_EPS)
    return PointCloud(scaled.astype(pts.dtype), labels=raw.labels, normalized=True)


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"expected N x 3 points, got shape {pts.shape}")
    return pts


def _exhaustive_nn(queries: np.ndarray, target: np.ndarray):
    n = queries.shape[0]
    dtype = np.result_type(queries.dtype, target.dtype)
    columns = [np.ascontiguousarray(target[:, axis]) for axis in range(3)]
    rows = min(n, _QUERY_BLOCK)
    d2_buf = np.empty((rows, target.shape[0]), dtype=dtype)
    term_buf = np.empty_like(d2_buf)
    out_idx = np.empty(n, dtype=np.int64)
    out_d2 = np.empty(n, dtype=dtype)
    for start in range(0, n, _QUERY_BLOCK):
        block = queries[start : start + _QUERY_BLOCK]
        b = block.shape[0]
        d2, term = d2_buf[:b], term_buf[:b]
        # Accumulate as (dx² + dy²) + dz², the order in which a sum over a
        # trailing xyz axis adds. Float addition is not associative, so any
        # other order can move the last bit and flip an exact tie; the
        # kd-tree leaf scan sums the same way, which keeps both engines
        # bit-identical.
        np.subtract(block[:, 0:1], columns[0], out=d2)
        np.square(d2, out=d2)
        for axis in (1, 2):
            np.subtract(block[:, axis : axis + 1], columns[axis], out=term)
            np.square(term, out=term)
            d2 += term
        idx = np.argmin(d2, axis=1)  # first occurrence: lowest index on ties
        out_idx[start : start + b] = idx
        out_d2[start : start + b] = d2[np.arange(b), idx]
    return out_idx, out_d2


class NearestNeighborIndex:
    """Exact kd-tree over a fixed target cloud.

    Median split on the widest axis (argpartition at n // 2), leaves hold up
    to `leaf_size` points with their original indices kept sorted so that a
    first-occurrence argmin lands on the lowest index. A branch is pruned
    only when the squared distance to its splitting plane strictly exceeds
    the current best, which preserves lowest-index tie-breaking across
    branches.
    """

    def __init__(self, target, leaf_size: int = DEFAULT_LEAF_SIZE):
        self.points = _as_points(target)
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = int(leaf_size)
        self._root = self._build(np.arange(self.points.shape[0], dtype=np.int64))

    # nodes: ("leaf", sorted_indices) | ("split", axis, plane, left, right)
    def _build(self, idx: np.ndarray):
        if idx.size <= self.leaf_size:
            return ("leaf", np.sort(idx))
        pts = self.points[idx]
        extents = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(extents))
        coords = pts[:, axis]
        mid = idx.size // 2
        order = np.argpartition(coords, mid)
        plane = float(coords[order[mid]])
        return (
            "split",
            axis,
            plane,
            self._build(idx[order[:mid]]),
            self._build(idx[order[mid:]]),
        )

    def query(self, queries):
        """(index, squared distance) of the closest target point per query row."""
        q = _as_points(queries)
        n = q.shape[0]
        out_idx = np.empty(n, dtype=np.int64)
        out_d2 = np.empty(n, dtype=np.result_type(q.dtype, self.points.dtype))
        for i in range(n):
            best = [np.inf, -1]
            self._search(self._root, q[i], best)
            out_idx[i] = best[1]
            out_d2[i] = best[0]
        return out_idx, out_d2

    def _search(self, node, q, best):
        if node[0] == "leaf":
            idx = node[1]
            d2 = ((self.points[idx] - q) ** 2).sum(axis=1)
            j = int(np.argmin(d2))
            if d2[j] < best[0] or (d2[j] == best[0] and idx[j] < best[1]):
                best[0] = d2[j]
                best[1] = int(idx[j])
            return
        _, axis, plane, left, right = node
        delta = q[axis] - plane
        near, far = (left, right) if delta <= 0 else (right, left)
        self._search(near, q, best)
        # equality must still visit: the far side may hold a tied, lower index
        if delta * delta <= best[0]:
            self._search(far, q, best)


def nearest_neighbors(queries, target):
    """Exact nearest neighbour in `target` for every point of `queries`.

    Returns (indices, squared distances); ties break to the lowest target
    index.
    """
    q = _as_points(queries)
    t = _as_points(target)
    if t.shape[0] <= _EXHAUSTIVE_MAX_TARGET:
        return _exhaustive_nn(q, t)
    return NearestNeighborIndex(t).query(q)


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
