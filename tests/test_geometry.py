import numpy as np
import pytest

from pointtree import geometry
from pointtree.geometry import (
    NearestNeighborIndex,
    PointCloud,
    chamfer_distance,
    nearest_neighbors,
    normalize_cloud,
)


def nn_oracle(queries, target):
    # exhaustive double loop, lowest index on ties via strict <
    idx = np.empty(len(queries), dtype=np.int64)
    d2 = np.empty(len(queries), dtype=np.result_type(queries.dtype, target.dtype))
    for i, row in enumerate(queries):
        dd = ((target - row) ** 2).sum(axis=1)
        best_j = 0
        for j in range(1, len(dd)):
            if dd[j] < dd[best_j]:
                best_j = j
        idx[i] = best_j
        d2[i] = dd[best_j]
    return idx, d2


def summed_scan_oracle(queries, target):
    # the earlier vectorized scan: one (block, m, 3) temporary summed over xyz
    idx = np.empty(len(queries), dtype=np.int64)
    d2 = np.empty(len(queries), dtype=np.result_type(queries.dtype, target.dtype))
    for start in range(0, len(queries), geometry._QUERY_BLOCK):
        block = queries[start : start + geometry._QUERY_BLOCK]
        dd = ((block[:, np.newaxis, :] - target[np.newaxis, :, :]) ** 2).sum(axis=2)
        best = np.argmin(dd, axis=1)
        idx[start : start + len(block)] = best
        d2[start : start + len(block)] = np.take_along_axis(dd, best[:, np.newaxis], axis=1)[:, 0]
    return idx, d2


def cd_oracle(p, q):
    _, d2_pq = nn_oracle(p, q)
    _, d2_qp = nn_oracle(q, p)
    return float(np.mean(d2_pq) + np.mean(d2_qp))


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), labels=np.array([1, 2]))
    with pytest.raises(ValueError):
        PointCloud(np.full((3, 3), 9.0), normalized=True)  # flag is a lie
    c = PointCloud(np.eye(3, dtype=np.float32), labels=[0, 1, 2])
    assert len(c) == 3 and c.labels.dtype == np.int64


def test_normalize_hand_case():
    raw = PointCloud(np.array([[2.0, 0.0, 0.0], [4.0, 0.0, 0.0]]))
    out = normalize_cloud(raw)
    np.testing.assert_array_equal(out.points, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert out.normalized


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 3))
    once = normalize_cloud(PointCloud(pts))
    twice = normalize_cloud(once)
    assert np.abs(twice.points - once.points).max() < 1e-6


def test_normalize_degenerate_cloud_maps_to_zeros():
    out = normalize_cloud(PointCloud(np.full((7, 3), 5.0)))
    np.testing.assert_array_equal(out.points, np.zeros((7, 3)))


def test_normalize_keeps_labels():
    raw = PointCloud(np.array([[0.0, 0, 0], [2.0, 0, 0]]), labels=[3, 4])
    out = normalize_cloud(raw)
    np.testing.assert_array_equal(out.labels, [3, 4])


def test_nearest_neighbors_forced_minimum():
    target = PointCloud(np.array([[1.0, 0, 0], [0, 2.0, 0]]))
    idx, d2 = nearest_neighbors(np.zeros((1, 3)), target)
    assert idx[0] == 0 and d2[0] == 1.0


def test_nearest_neighbors_identity():
    pts = np.random.default_rng(1).normal(size=(64, 3))
    idx, d2 = nearest_neighbors(pts, pts)
    np.testing.assert_array_equal(idx, np.arange(64))
    assert np.all(d2 == 0.0)


def test_nearest_neighbors_tie_breaks_low_index():
    target = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
    idx, d2 = nearest_neighbors(np.zeros((1, 3)), target)
    assert idx[0] == 0 and d2[0] == 1.0


def test_kdtree_matches_oracle_random_clouds():
    rng = np.random.default_rng(7)
    for _ in range(30):
        nt = int(rng.integers(1, 600))
        nq = int(rng.integers(1, 120))
        target = rng.normal(size=(nt, 3))
        queries = rng.normal(size=(nq, 3))
        tree = NearestNeighborIndex(target, leaf_size=int(rng.integers(1, 24)))
        got_i, got_d = tree.query(queries)
        want_i, want_d = nn_oracle(queries, target)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_d, want_d)


def test_kdtree_exact_on_tie_heavy_grid():
    # coordinates on a coarse grid force many exactly-tied distances
    rng = np.random.default_rng(11)
    for _ in range(20):
        target = rng.integers(0, 3, size=(rng.integers(2, 200), 3)) * 0.25
        queries = rng.integers(0, 3, size=(40, 3)) * 0.25
        target = target.astype(np.float32)
        queries = queries.astype(np.float32)
        got_i, got_d = NearestNeighborIndex(target, leaf_size=4).query(queries)
        want_i, want_d = nn_oracle(queries, target)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_d, want_d)


def test_kdtree_handles_all_identical_points():
    target = np.full((100, 3), 2.5)
    got_i, got_d = NearestNeighborIndex(target).query(np.zeros((3, 3)))
    np.testing.assert_array_equal(got_i, [0, 0, 0])
    np.testing.assert_allclose(got_d, 18.75)


def test_large_target_routes_through_kdtree_and_stays_exact(monkeypatch):
    rng = np.random.default_rng(13)
    target = rng.normal(size=(geometry._EXHAUSTIVE_MAX_TARGET + 1000, 3))
    queries = rng.normal(size=(25, 3))
    monkeypatch.setattr(geometry, "_exhaustive_nn", None)  # any call would fail
    got_i, got_d = nearest_neighbors(queries, target)
    want_i, want_d = nn_oracle(queries, target)
    np.testing.assert_array_equal(got_i, want_i)
    np.testing.assert_array_equal(got_d, want_d)


@pytest.mark.parametrize(
    "query_dtype, target_dtype",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
)
def test_exhaustive_scan_bit_identical_to_summed_scan(query_dtype, target_dtype):
    rng = np.random.default_rng(29)
    block = geometry._QUERY_BLOCK
    for n_queries in (1, block - 1, block + 37, 2 * block + 1):
        for n_target in (1, 2, 97, 700):
            queries = rng.normal(size=(n_queries, 3)).astype(query_dtype)
            target = rng.normal(size=(n_target, 3)).astype(target_dtype)
            # coarse-grid twins: duplicate targets and exact ties everywhere
            grid_queries = (rng.integers(0, 3, size=(n_queries, 3)) * 0.1).astype(query_dtype)
            grid_target = (rng.integers(0, 3, size=(n_target, 3)) * 0.1).astype(target_dtype)
            for q, t in ((queries, target), (grid_queries, grid_target)):
                got_i, got_d = geometry._exhaustive_nn(q, t)
                want_i, want_d = summed_scan_oracle(q, t)
                assert got_d.dtype == want_d.dtype
                assert np.array_equal(got_i, want_i)
                assert np.array_equal(got_d, want_d)


def test_exhaustive_scan_duplicate_targets_go_to_lowest_index():
    target = np.array([[0.5, 0, 0], [1.0, 1, 1], [0.5, 0, 0], [-0.5, 0, 0], [1.0, 1, 1]])
    queries = np.array([[0.5, 0, 0], [1.0, 1, 1], [0.0, 0, 0], [0.9, 0.9, 0.9]])
    idx, d2 = geometry._exhaustive_nn(queries, target)
    np.testing.assert_array_equal(idx, [0, 1, 0, 1])
    assert d2[0] == 0.0 and d2[1] == 0.0 and d2[2] == 0.25


def test_engines_agree_bitwise_at_the_cutoff():
    rng = np.random.default_rng(31)
    queries = rng.normal(size=(60, 3)).astype(np.float32)
    for n_target in (geometry._EXHAUSTIVE_MAX_TARGET, geometry._EXHAUSTIVE_MAX_TARGET + 1):
        target = rng.normal(size=(n_target, 3)).astype(np.float32)
        target[-20:] = target[:20]  # duplicates: ties must resolve to the first copy
        queries[:10] = target[-10:]
        got_i, got_d = nearest_neighbors(queries, target)
        tree_i, tree_d = NearestNeighborIndex(target).query(queries)
        scan_i, scan_d = geometry._exhaustive_nn(queries, target)
        for i, d in ((tree_i, tree_d), (scan_i, scan_d)):
            assert np.array_equal(got_i, i)
            assert np.array_equal(got_d, d)
        assert np.all(got_i[:10] < 20)


def test_translation_covariance_of_assignments():
    rng = np.random.default_rng(17)
    p = rng.normal(size=(80, 3))
    q = rng.normal(size=(60, 3))
    shift = np.array([10.0, -3.0, 0.5])
    base_i, _ = nearest_neighbors(p, q)
    moved_i, _ = nearest_neighbors(p + shift, q + shift)
    np.testing.assert_array_equal(base_i, moved_i)


def test_chamfer_hand_cases_exact():
    p = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    q = PointCloud(np.array([[0.0, 0, 0]]))
    assert chamfer_distance(p, q)[0] == 0.5
    a = PointCloud(np.array([[0.0, 0, 0]]))
    b = PointCloud(np.array([[3.0, 4.0, 0]]))
    assert chamfer_distance(a, b)[0] == 50.0


def test_chamfer_self_is_zero_and_symmetric():
    rng = np.random.default_rng(19)
    p = rng.normal(size=(50, 3))
    q = rng.normal(size=(70, 3))
    assert chamfer_distance(p, p)[0] == 0.0
    assert chamfer_distance(p, q)[0] == chamfer_distance(q, p)[0]


def test_chamfer_matches_oracle_and_returns_usable_matches():
    rng = np.random.default_rng(23)
    for dtype in (np.float32, np.float64):
        p = rng.normal(size=(33, 3)).astype(dtype)
        q = rng.normal(size=(57, 3)).astype(dtype)
        value, (m_pq, m_qp) = chamfer_distance(p, q)
        assert value == cd_oracle(p, q)
        rebuilt = float(
            np.mean(((p - q[m_pq]) ** 2).sum(axis=1))
            + np.mean(((q - p[m_qp]) ** 2).sum(axis=1))
        )
        assert rebuilt == pytest.approx(value, rel=1e-12)
