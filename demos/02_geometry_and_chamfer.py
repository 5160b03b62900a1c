"""Exact nearest neighbours and Chamfer distance.

Shows that the nearest-neighbour engine matches brute force bit for bit on
a 20000-point box surface queried from its interior, times both, and
reproduces two hand-computable Chamfer values.
"""

import time

import numpy as np

from pointtree import dataio, geometry


def brute_force(queries, target, rows=64):
    idx = np.empty(len(queries), dtype=np.int64)
    d2 = np.empty(len(queries), dtype=np.result_type(queries, target))
    for start in range(0, len(queries), rows):  # row chunks bound the memory
        dd = ((queries[start : start + rows, None, :] - target[None, :, :]) ** 2).sum(axis=2)
        idx[start : start + rows] = dd.argmin(axis=1)
        d2[start : start + rows] = dd.min(axis=1)
    return idx, d2


def main():
    rng = np.random.default_rng(1)

    # the synthetic box spans about [-0.78, 0.78] x [-0.54, 0.54] x [-0.31, 0.31]
    # after normalization; queries fill its inside
    target = dataio.synth_shape("box", 20000, seed=1).points
    queries = rng.uniform(-0.3, 0.3, size=(1000, 3)).astype(np.float32)

    t0 = time.perf_counter()
    idx, d2 = geometry.nearest_neighbors(queries, target)
    engine_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    bidx, bd2 = brute_force(queries, target)
    brute_time = time.perf_counter() - t0

    print(f"engine {engine_time * 1e3:.1f} ms, brute force {brute_time * 1e3:.1f} ms")
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
