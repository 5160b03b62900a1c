import numpy as np
import pytest

from pointtree import metrics
from pointtree.geometry import PointCloud, chamfer_distance


def random_set(rng, n_clouds, n_points=24):
    return [PointCloud(rng.normal(size=(n_points, 3))) for _ in range(n_clouds)]


def mmd_oracle(ref, gen):
    total = 0.0
    for r in ref:
        total += min(chamfer_distance(r, g)[0] for g in gen)
    return total / len(ref)


def coverage_oracle(ref, gen):
    matched = set()
    for g in gen:
        dists = [chamfer_distance(g, r)[0] for r in ref]
        best = 0
        for i in range(1, len(dists)):
            if dists[i] < dists[best]:
                best = i
        matched.add(best)
    return len(matched) / len(ref)


def one_nna_oracle(ref, gen):
    union = list(ref) + list(gen)
    labels = [0] * len(ref) + [1] * len(gen)
    correct = 0
    for i, cloud in enumerate(union):
        best_j, best_d = -1, np.inf
        for j, other in enumerate(union):
            if j == i:
                continue
            d = chamfer_distance(cloud, other)[0]
            if d < best_d:
                best_d, best_j = d, j
        correct += labels[best_j] == labels[i]
    return correct / len(union)


def point(value):
    return PointCloud(np.array([[value, 0.0, 0.0]]))


def test_mmd_hand_case():
    a = np.sqrt(0.05)
    gen = [point(a)]
    ref = [point(0.0), point(a + np.sqrt(0.15))]
    # CD(single, single) is twice the squared gap: 0.1 and 0.3
    assert metrics.mmd(ref, gen) == pytest.approx(0.2, rel=1e-12)


def test_mmd_zero_when_generated_covers_reference():
    rng = np.random.default_rng(0)
    ref = random_set(rng, 3)
    gen = ref + random_set(rng, 2)
    assert metrics.mmd(ref, gen) == 0.0
    assert metrics.mmd(ref, ref) == 0.0


def test_coverage_trivial_cases():
    rng = np.random.default_rng(1)
    ref = random_set(rng, 5)
    assert metrics.coverage(ref, ref) == 1.0
    assert metrics.coverage(ref, ref[:1]) == pytest.approx(1 / 5)


def test_coverage_tie_goes_to_lowest_reference():
    ref = [point(0.0), point(0.0), point(5.0)]
    gen = [point(0.0)]
    # generated cloud ties between references 0 and 1
    assert metrics.coverage(ref, gen) == pytest.approx(1 / 3)


def test_one_nna_separated_and_interleaved():
    rng = np.random.default_rng(2)
    ref = [PointCloud(rng.normal(size=(16, 3)) + 100.0) for _ in range(4)]
    gen = [PointCloud(rng.normal(size=(16, 3)) - 100.0) for _ in range(4)]
    assert metrics.one_nna(ref, gen) == 1.0

    # every cloud's nearest neighbour is its near-twin in the other set
    bases = [rng.normal(size=(16, 3)) * (i + 1) for i in range(4)]
    ref = [PointCloud(b) for b in bases]
    gen = [PointCloud(b + 1e-4) for b in bases]
    assert metrics.one_nna(ref, gen) == 0.0


def test_metrics_match_exhaustive_oracles():
    rng = np.random.default_rng(3)
    for trial in range(4):
        ref = random_set(rng, int(rng.integers(2, 9)), n_points=int(rng.integers(8, 129)))
        gen = random_set(rng, int(rng.integers(2, 9)), n_points=int(rng.integers(8, 129)))
        assert metrics.mmd(ref, gen) == mmd_oracle(ref, gen)
        assert metrics.coverage(ref, gen) == coverage_oracle(ref, gen)
        assert metrics.one_nna(ref, gen) == one_nna_oracle(ref, gen)


def test_threading_does_not_change_values():
    rng = np.random.default_rng(4)
    ref = random_set(rng, 5)
    gen = random_set(rng, 6)
    assert metrics.mmd(ref, gen, threads=3) == metrics.mmd(ref, gen)
    assert metrics.coverage(ref, gen, threads=3) == metrics.coverage(ref, gen)
    assert metrics.one_nna(ref, gen, threads=3) == metrics.one_nna(ref, gen)
    union = ref + gen
    assert np.array_equal(
        metrics.cd_matrix(union, union, threads=3), metrics.cd_matrix(union, union)
    )


def counting_chamfer(monkeypatch):
    calls = []

    def counted(p, q):
        calls.append((id(p), id(q)))
        return chamfer_distance(p, q)

    monkeypatch.setattr(metrics, "chamfer_distance", counted)
    return calls


def test_union_matrix_computes_each_distinct_pair_once(monkeypatch):
    rng = np.random.default_rng(8)
    clouds = random_set(rng, 7)
    full = np.array([[chamfer_distance(p, q)[0] for q in clouds] for p in clouds])
    calls = counting_chamfer(monkeypatch)
    matrix = metrics.cd_matrix(clouds, clouds)
    assert len(calls) == 7 * 6 // 2
    assert len(set(frozenset(c) for c in calls)) == len(calls)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    assert np.array_equal(matrix, full)


def test_generation_metrics_equal_separate_metrics(monkeypatch):
    rng = np.random.default_rng(9)
    for n_ref, n_gen in ((2, 2), (5, 3), (1, 4)):
        ref = random_set(rng, n_ref, n_points=int(rng.integers(8, 65)))
        gen = random_set(rng, n_gen, n_points=int(rng.integers(8, 65)))
        ref[-1] = gen[0]  # a cloud in both sets: a zero off the diagonal
        want = [
            metrics.mmd(ref, gen),
            metrics.coverage(ref, gen),
            metrics.one_nna(ref, gen),
        ]
        calls = counting_chamfer(monkeypatch)
        records = metrics.generation_metrics(ref, gen)
        n = n_ref + n_gen
        assert len(calls) == n * (n - 1) // 2
        assert [r.name for r in records] == ["mmd", "coverage", "1-nna"]
        assert [r.value for r in records] == want
        assert all((r.n_reference, r.n_generated) == (n_ref, n_gen) for r in records)
        threaded = metrics.generation_metrics(ref, gen, threads=3)
        assert [r.value for r in threaded] == want
        monkeypatch.undo()


def test_metric_ranges():
    rng = np.random.default_rng(5)
    ref = random_set(rng, 6)
    gen = random_set(rng, 4)
    assert metrics.mmd(ref, gen) >= 0
    assert 0 < metrics.coverage(ref, gen) <= 1
    assert 0 <= metrics.one_nna(ref, gen) <= 1
    with pytest.raises(ValueError, match="empty cloud set"):
        metrics.mmd([], [point(0.0)])


def test_purity_cases():
    assert metrics.purity([0, 1, 2], [5, 6, 7]) == 1.0
    assert metrics.purity([0, 0], [1, 2]) == 0.5
    assert metrics.purity([0, 0, 1, 1], [0, 0, 0, 1]) == 0.75
    with pytest.raises(ValueError):
        metrics.purity([0, 1], [0])
    with pytest.raises(ValueError):
        metrics.purity([], [])


def test_reconstruction_cd_identity_stub():
    rng = np.random.default_rng(6)
    dataset = random_set(rng, 4)
    per_shape, mean = metrics.reconstruction_cd(dataset, lambda c: c.points)
    assert per_shape == [0.0, 0.0, 0.0, 0.0]
    assert mean == 0.0
    shifted, mean2 = metrics.reconstruction_cd(dataset, lambda c: c.points + 1.0)
    assert all(v > 0 for v in shifted) and mean2 > 0


def test_record_rendering():
    rec = metrics.MetricRecord("mmd", 1.5e-4, 8, 6, times_1e4=True)
    text = rec.render()
    assert "mmd" in text and "1.5" in text and "x 1e4" in text
    assert "reference 8" in text and "generated 6" in text
    plain = metrics.MetricRecord("coverage", 0.75, 8, 6)
    assert "x 1e4" not in plain.render()
    assert metrics.render_records([rec, plain]).count("\n") == 1


def test_transfer_labels_nearest_and_ties():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]], dtype=np.float32)
    labels = np.array([7, 8, 9])
    queries = np.array([[0.1, 0, 0], [1.9, 0, 0], [0.5, 0, 0]], dtype=np.float32)
    got = metrics.transfer_labels(src, labels, queries)
    # the 0.5 query ties between sources 0 and 1; lowest index wins
    np.testing.assert_array_equal(got, [7, 9, 7])
