import numpy as np
import pytest

from pointtree import geometry
from pointtree.dataio import synth_shape
from pointtree.geometry import (
    NearestNeighborIndex,
    PointCloud,
    chamfer_distance,
    chamfer_matches,
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


def row_scan_oracle(queries, target):
    # one query row at a time, summed over xyz: cheap in memory for big targets
    idx = np.empty(len(queries), dtype=np.int64)
    d2 = np.empty(len(queries), dtype=np.result_type(queries.dtype, target.dtype))
    for i, row in enumerate(queries):
        dd = ((row - target) ** 2).sum(axis=1)
        idx[i] = np.argmin(dd)
        d2[i] = dd[idx[i]]
    return idx, d2


LEAF_SIZES = (1, 7, geometry.DEFAULT_LEAF_SIZE)


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


def test_normalized_flag_measures_centroid_with_float64_accumulator():
    # float32 surfaces whose float32 running mean drifts past 1e-5 although
    # their true centroid is about 1e-9
    for kind, seed in (("tee", 0), ("tee", 2), ("tee", 3), ("table", 2)):
        cloud = synth_shape(kind, 50000, seed=seed)
        assert cloud.normalized and cloud.points.dtype == np.float32
    unit = normalize_cloud(PointCloud(np.random.default_rng(3).normal(size=(500, 3))))
    half = unit.points * 0.5  # far inside the unit ball: only the centroid can fail
    PointCloud(half, normalized=True)
    with pytest.raises(ValueError, match="centroid"):
        PointCloud(half + [2e-5, 0.0, 0.0], normalized=True)


def _one_pass_normalize(pts):
    centered = pts - pts.mean(axis=0)
    radius = np.sqrt((centered**2).sum(axis=1)).max()
    return (centered / max(float(radius), geometry.NORM_EPS)).astype(pts.dtype)


def test_normalize_recentres_off_centre_float32_in_float64():
    # a float32 mean leaves a residual centroid of 2.6e-5 to 1.0e-4 here
    for seed in range(5):
        pts = (synth_shape("box", 2048, seed=seed).points + 10).astype(np.float32)
        assert np.abs(_one_pass_normalize(pts).mean(axis=0, dtype=np.float64)).max() > 1e-5
        out = normalize_cloud(PointCloud(pts))
        assert out.normalized and out.points.dtype == np.float32
        assert np.abs(out.points.mean(axis=0, dtype=np.float64)).max() < 1e-7


def test_normalize_keeps_one_pass_bytes_when_centred_well():
    rng = np.random.default_rng(59)
    for pts in (
        synth_shape("table", 2048, seed=1).points * 3 + 0.25,
        rng.normal(size=(300, 3)).astype(np.float32),
        rng.normal(size=(300, 3)) + 10,
    ):
        out = normalize_cloud(PointCloud(pts))
        assert out.points.dtype == pts.dtype
        assert out.points.tobytes() == _one_pass_normalize(pts).tobytes()


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


def test_nearest_neighbour_scan_runs_with_the_small_buffer_and_restores_it(monkeypatch):
    # the block scan sees the small ufunc buffer, and the caller's size
    # comes back afterwards, also when the scan raises
    seen = []
    scan = geometry._exhaustive_nn

    def spy(*args):
        seen.append(np.getbufsize())
        return scan(*args)

    monkeypatch.setattr(geometry, "_exhaustive_nn", spy)
    rng = np.random.default_rng(23)
    q = rng.normal(size=(8, 3)).astype(np.float32)
    t = rng.normal(size=(5, 3)).astype(np.float32)
    outer = np.getbufsize()
    try:
        np.setbufsize(4096)  # any caller's size, not only the default
        expected = nn_oracle(q, t)
        idx, d2 = nearest_neighbors(q, t)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(outer)
    assert seen and all(size == geometry._UFUNC_BUFSIZE for size in seen), seen
    assert idx.tolist() == expected[0].tolist() and d2.tobytes() == expected[1].tobytes()

    def fail(*args):
        raise ValueError("raised inside the scan")

    monkeypatch.setattr(geometry, "_exhaustive_nn", fail)
    with pytest.raises(ValueError, match="inside the scan"):
        nearest_neighbors(q, t)
    assert np.getbufsize() == outer


def test_scan_buffer_size_is_restored_in_a_worker_thread():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(29)
    q = rng.normal(size=(300, 3)).astype(np.float32)
    t = rng.normal(size=(70, 3)).astype(np.float32)
    outer = np.getbufsize()

    def work():
        before = np.getbufsize()
        out = nearest_neighbors(q, t)
        return before, np.getbufsize(), out

    with ThreadPoolExecutor(max_workers=1) as pool:
        before, after, (idx, d2) = pool.submit(work).result()
    assert before == after
    assert np.getbufsize() == outer
    ref_idx, ref_d2 = nearest_neighbors(q, t)
    assert idx.tobytes() == ref_idx.tobytes() and d2.tobytes() == ref_d2.tobytes()


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
                want_i, want_d = summed_scan_oracle(q, t)
                for leaf_size in LEAF_SIZES:
                    got_i, got_d = NearestNeighborIndex(t, leaf_size=leaf_size).query(q)
                    assert got_d.dtype == want_d.dtype
                    assert np.array_equal(got_i, want_i)
                    assert np.array_equal(got_d, want_d)


def test_exhaustive_scan_duplicate_targets_go_to_lowest_index():
    target = np.array([[0.5, 0, 0], [1.0, 1, 1], [0.5, 0, 0], [-0.5, 0, 0], [1.0, 1, 1]])
    queries = np.array([[0.5, 0, 0], [1.0, 1, 1], [0.0, 0, 0], [0.9, 0.9, 0.9]])
    for leaf_size in LEAF_SIZES:
        idx, d2 = NearestNeighborIndex(target, leaf_size=leaf_size).query(queries)
        np.testing.assert_array_equal(idx, [0, 1, 0, 1])
        assert d2[0] == 0.0 and d2[1] == 0.0 and d2[2] == 0.25


def box_surface(n, seed):
    return synth_shape("box", n, seed=seed).points


def sphere_surface(n, seed):
    v = np.random.default_rng(seed).normal(size=(n, 3))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
@pytest.mark.parametrize("surface", [box_surface, sphere_surface])
def test_engine_matches_oracle_on_20000_point_surfaces(surface, leaf_size):
    # interior queries are far from every target, so few blocks prune;
    # near-surface queries prune almost everything
    rng = np.random.default_rng(37)
    target = surface(20000, seed=5)
    interior = rng.uniform(-0.3, 0.3, size=(150, 3)).astype(np.float32)
    near = target[rng.integers(0, len(target), 150)] + rng.normal(scale=1e-3, size=(150, 3))
    queries = np.concatenate([interior, near.astype(np.float32)])
    got_i, got_d = NearestNeighborIndex(target, leaf_size=leaf_size).query(queries)
    want_i, want_d = row_scan_oracle(queries, target)
    assert np.array_equal(got_i, want_i)
    assert np.array_equal(got_d, want_d)


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
def test_engine_duplicates_split_across_blocks_go_to_lowest_index(leaf_size):
    rng = np.random.default_rng(41)
    copies = 2 * leaf_size + 3  # more copies than a block holds
    target = rng.normal(size=(copies + 200, 3)).astype(np.float32)
    spot = rng.permutation(len(target))[:copies]
    target[spot] = target[spot[0]]
    queries = np.concatenate([target[spot[:5]], target[spot[:5]] + 1e-3, rng.normal(size=(40, 3))])
    queries = queries.astype(np.float32)
    got_i, got_d = NearestNeighborIndex(target, leaf_size=leaf_size).query(queries)
    want_i, want_d = row_scan_oracle(queries, target)
    assert np.array_equal(got_i, want_i)
    assert np.array_equal(got_d, want_d)
    assert np.all(got_i[:5] == spot.min())


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
def test_engine_keeps_float32_underflow_tie_across_blocks(leaf_size):
    # (1e-23)² underflows to 0 in float32, so target 0 ties the exact copy
    # of the query at index leaf_size; the two sit in different blocks, and
    # the bound of target 0's block must not exceed 0
    target = np.zeros((2 * leaf_size, 3), dtype=np.float32)
    target[:leaf_size, 0] = np.float32(1e-23)
    tree = NearestNeighborIndex(target, leaf_size=leaf_size)
    got_i, got_d = tree.query(np.zeros((1, 3), dtype=np.float32))
    assert got_i[0] == 0 and got_d[0] == 0.0
    assert np.array_equal(got_i, row_scan_oracle(np.zeros((1, 3), np.float32), target)[0])
    # in float64 the same gap is a distance, so the exact copy wins
    got_i, got_d = NearestNeighborIndex(target.astype(np.float64), leaf_size).query(np.zeros((1, 3)))
    assert got_i[0] == leaf_size and got_d[0] == 0.0


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
@pytest.mark.parametrize(
    "query_dtype, target_dtype",
    [(np.float64, np.float64), (np.float32, np.float64), (np.float64, np.float32)],
)
def test_engine_matches_oracle_in_float64_and_mixed_dtypes(query_dtype, target_dtype, leaf_size):
    rng = np.random.default_rng(43)
    surface = box_surface(3000, seed=2).astype(target_dtype)
    grid = (rng.integers(0, 5, size=(3000, 3)) * 0.1).astype(target_dtype)
    for target in (surface, grid):
        queries = np.concatenate([
            rng.uniform(-0.3, 0.3, size=(100, 3)),
            target[rng.integers(0, len(target), 200)] + rng.normal(scale=1e-4, size=(200, 3)),
            (rng.integers(0, 5, size=(100, 3)) * 0.1),
        ]).astype(query_dtype)
        got_i, got_d = NearestNeighborIndex(target, leaf_size=leaf_size).query(queries)
        want_i, want_d = row_scan_oracle(queries, target)
        assert got_d.dtype == np.float64
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
def test_engine_nan_rows_get_in_range_indices(leaf_size):
    rng = np.random.default_rng(47)
    target = rng.normal(size=(600, 3)).astype(np.float32)
    queries = rng.normal(size=(300, 3)).astype(np.float32)
    queries[::7, 1] = np.nan
    nan_rows = np.isnan(queries).any(axis=1)
    got_i, got_d = NearestNeighborIndex(target, leaf_size=leaf_size).query(queries)
    assert np.all((got_i >= 0) & (got_i < len(target)))
    assert np.all(np.isnan(got_d[nan_rows]))
    want_i, want_d = row_scan_oracle(queries[~nan_rows], target)
    assert np.array_equal(got_i[~nan_rows], want_i)
    assert np.array_equal(got_d[~nan_rows], want_d)
    # NaN targets, as the leaves of a diverged generator are in the
    # data-to-leaves direction of the Chamfer loss
    got_i, _ = NearestNeighborIndex(queries, leaf_size=leaf_size).query(target)
    assert np.all((got_i >= 0) & (got_i < len(queries)))


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
    assert chamfer_distance(p, q) == 0.5
    a = PointCloud(np.array([[0.0, 0, 0]]))
    b = PointCloud(np.array([[3.0, 4.0, 0]]))
    assert chamfer_distance(a, b) == 50.0


def test_chamfer_self_is_zero_and_symmetric():
    rng = np.random.default_rng(19)
    p = rng.normal(size=(50, 3))
    q = rng.normal(size=(70, 3))
    assert chamfer_distance(p, p) == 0.0
    assert chamfer_distance(p, q) == chamfer_distance(q, p)


def test_chamfer_matches_oracle_and_returns_usable_matches():
    rng = np.random.default_rng(23)
    for dtype in (np.float32, np.float64):
        p = rng.normal(size=(33, 3)).astype(dtype)
        q = rng.normal(size=(57, 3)).astype(dtype)
        value = chamfer_distance(p, q)
        assert value == cd_oracle(p, q)
        (m_pq, d2_pq), (m_qp, d2_qp) = chamfer_matches(p, q)
        assert value == float(np.mean(d2_pq) + np.mean(d2_qp))
        for match, d2, (a, b) in ((m_pq, d2_pq, (p, q)), (m_qp, d2_qp, (q, p))):
            idx, dist = nearest_neighbors(a, b)
            assert match.tobytes() == idx.tobytes() and d2.tobytes() == dist.tobytes()
        rebuilt = float(
            np.mean(((p - q[m_pq]) ** 2).sum(axis=1))
            + np.mean(((q - p[m_qp]) ** 2).sum(axis=1))
        )
        assert rebuilt == pytest.approx(value, rel=1e-12)
