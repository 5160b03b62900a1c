"""Exact nearest neighbours and Chamfer distance.

Shows that the kd-tree answers match brute force bit for bit, measures
the speedup on a larger cloud, and reproduces two hand-computable
Chamfer values.
"""

import time

import numpy as np

from pointtree import geometry


def brute_force(queries, target):
    d2 = ((queries[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2.min(axis=1)


def main():
    rng = np.random.default_rng(1)

    # a cloud big enough that the library routes queries through the kd-tree
    target = rng.standard_normal((14000, 3)).astype(np.float32)
    queries = rng.standard_normal((500, 3)).astype(np.float32)

    t0 = time.time()
    idx, d2 = geometry.nearest_neighbors(queries, target)
    kd_time = time.time() - t0

    t0 = time.time()
    bidx, bd2 = brute_force(queries, target)
    brute_time = time.time() - t0

    print(f"kd-tree {kd_time * 1e3:.1f} ms, brute force {brute_time * 1e3:.1f} ms")
    print(f"indices identical: {np.array_equal(idx, bidx)}")
    print(f"distances identical: {np.array_equal(d2, bd2)}")

    # hand case 1: p = {(0,0,0), (1,0,0)}, q = {(0.5,0,0)} gives squared
    # distance 0.25 in both directions, so CD = 0.25 + 0.25 = 0.5
    p = np.array([[0.0, 0, 0], [1.0, 0, 0]], dtype=np.float32)
    q = np.array([[0.5, 0, 0]], dtype=np.float32)
    cd, _ = geometry.chamfer_distance(p, q)
    print(f"hand case A: CD = {cd} (expected 0.5)")

    # hand case 2: single points 5 apart (a 3-4-5 triangle), 25 each way
    a = np.array([[0.0, 0, 0]], dtype=np.float32)
    b = np.array([[3.0, 4.0, 0]], dtype=np.float32)
    cd2, _ = geometry.chamfer_distance(a, b)
    print(f"hand case B: CD = {cd2} (expected 50.0)")

    # normalization maps any cloud into the unit ball, centered
    raw = geometry.PointCloud(rng.standard_normal((500, 3)) * 7.0 + 3.0)
    unit = geometry.normalize_cloud(raw)
    radius = np.sqrt((unit.points**2).sum(axis=1)).max()
    print(f"normalized: centroid {np.abs(unit.points.mean(axis=0)).max():.2e}, "
          f"max radius {radius:.6f}")


if __name__ == "__main__":
    main()
