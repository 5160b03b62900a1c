"""File formats, synthetic shapes, and PLY export.

Format tests use hand-packed byte fixtures rather than the writer, so a
bug shared by reader and writer cannot hide. Sampling distributions are
checked with chi-square statistics against area-derived expectations.
"""

import json
import os
import struct

import numpy as np
import pytest

from pointtree import dataio, model, training
from pointtree.geometry import PointCloud, normalize_cloud


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_text_load_hand_fixture(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# comment\n0.5 -1.25 3\n\n1e-3 2.5e2 -0.0\n")
    cloud = dataio.load_cloud(path)
    expected = np.array([[0.5, -1.25, 3.0], [1e-3, 250.0, -0.0]], dtype=np.float32)
    np.testing.assert_array_equal(cloud.points, expected)
    assert cloud.labels is None
    assert not cloud.normalized


def test_text_load_with_labels(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0 2\n1 0 0 0\n0 1 0 2\n")
    cloud = dataio.load_cloud(path)
    np.testing.assert_array_equal(cloud.labels, [2, 0, 2])


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("0 0 0\n1 2\n", 2),  # too few fields
        ("1 2 3 4 5\n", 1),  # too many fields
        ("0 0 0\n0 0 0\nx 0 0\n", 3),  # non-numeric
        ("0 0 0 1\n0 0 0\n", 2),  # label column appears then vanishes
        ("0 0 0\n0 0 0 1.5\n", 2),  # a label column only from line 2
        ("0 0 0 1\n0 0 0 1.5\n", 2),  # non-integer label
    ],
)
def test_text_load_malformed_reports_line(tmp_path, body, lineno):
    path = tmp_path / "bad.xyz"
    path.write_text(body)
    with pytest.raises(ValueError, match=f":{lineno}:"):
        dataio.load_cloud(path)


def test_text_load_empty_file(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no points"):
        dataio.load_cloud(path)


def test_text_round_trip_exact_float32(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((64, 3)).astype(np.float32) * rng.uniform(1e-4, 1e4)
    labels = rng.integers(0, 5, size=64)
    path = tmp_path / "cloud.xyz"
    dataio.save_cloud(path, PointCloud(pts, labels=labels))
    back = dataio.load_cloud(path)
    # %.9g carries enough digits to reconstruct every float32 exactly
    np.testing.assert_array_equal(back.points, pts)
    np.testing.assert_array_equal(back.labels, labels)


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------


def _pack_binary(points, version=1, count=None):
    pts = np.asarray(points, dtype="<f4")
    count = pts.shape[0] if count is None else count
    return b"RPGP" + struct.pack("<III", version, count, 0) + pts.tobytes()


def test_binary_load_hand_packed(tmp_path):
    pts = np.array([[0.5, -2.0, 8.25], [1.0, 0.0, -0.125]], dtype=np.float32)
    path = tmp_path / "cloud.rpgp"
    path.write_bytes(_pack_binary(pts))
    cloud = dataio.load_cloud(path)
    np.testing.assert_array_equal(cloud.points, pts)
    assert cloud.points.dtype == np.float32


def test_binary_round_trip_bitexact(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((257, 3)).astype(np.float32)
    path = tmp_path / "cloud.rpgp"
    dataio.save_cloud(path, PointCloud(pts), binary=True)
    raw = path.read_bytes()
    assert raw[:4] == b"RPGP"
    assert struct.unpack_from("<III", raw, 4) == (1, 257, 0)
    back = dataio.load_cloud(path)
    assert back.points.tobytes() == pts.tobytes()


def test_binary_version_and_count_errors(tmp_path):
    pts = np.zeros((4, 3), dtype=np.float32)
    bad_version = tmp_path / "v9.rpgp"
    bad_version.write_bytes(_pack_binary(pts, version=9))
    with pytest.raises(ValueError, match="version"):
        dataio.load_cloud(bad_version)
    bad_count = tmp_path / "count.rpgp"
    bad_count.write_bytes(_pack_binary(pts, count=6))
    with pytest.raises(ValueError, match="claims 6 points"):
        dataio.load_cloud(bad_count)
    short = tmp_path / "short.rpgp"
    short.write_bytes(b"RPGP\x01\x00")
    with pytest.raises(ValueError, match="truncated"):
        dataio.load_cloud(short)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_load_dataset_from_directory(tmp_path):
    for i in range(3):
        pts = np.random.default_rng(i).standard_normal((16, 3)).astype(np.float32)
        dataio.save_cloud(tmp_path / f"shape{i}.xyz", PointCloud(pts))
    ds = dataio.load_dataset(tmp_path)
    assert len(ds) == 3
    assert all(c.normalized for c in ds)
    for i, cloud in enumerate(ds):
        expected = normalize_cloud(dataio.load_cloud(tmp_path / f"shape{i}.xyz"))
        np.testing.assert_array_equal(cloud.points, expected.points)


def test_load_dataset_from_list_file(tmp_path):
    # listed out of name order: the list keeps the order of the paths
    for i in range(3):
        pts = np.random.default_rng(i).standard_normal((8, 3)) * (i + 1)
        dataio.save_cloud(tmp_path / f"c{i}.xyz", PointCloud(pts))
    listing = tmp_path / "clouds.txt"
    listing.write_text("c2.xyz\n# comment\nc0.xyz\nc1.xyz\n")
    ds = dataio.load_dataset(listing)
    assert type(ds) is list
    paths = dataio.resolve_cloud_paths(listing)
    assert [os.path.basename(p) for p in paths] == ["c2.xyz", "c0.xyz", "c1.xyz"]
    assert len(ds) == len(paths)
    for path, cloud in zip(paths, ds):
        assert cloud.normalized
        np.testing.assert_array_equal(cloud.points, normalize_cloud(dataio.load_cloud(path)).points)


def test_leading_comments_and_blanks_do_not_decide_a_files_kind(tmp_path):
    # the first line judged is the first that is neither blank nor `#`
    scan = tmp_path / "scan.xyz"
    scan.write_text("# a scan\n\n0 0 0\n1 0 0\n0 1 0\n")
    assert dataio.resolve_cloud_paths(scan) == [str(scan)]
    assert len(dataio.load_dataset(scan)) == 1
    dataio.save_cloud(tmp_path / "c0.xyz", PointCloud(np.eye(3, dtype=np.float32)))
    listing = tmp_path / "clouds.txt"
    listing.write_text("\n# clouds\nc0.xyz\n")
    assert dataio.resolve_cloud_paths(listing) == [str(tmp_path / "c0.xyz")]


def test_load_dataset_single_cloud_file(tmp_path):
    path = tmp_path / "one.xyz"
    dataio.save_cloud(path, PointCloud(np.eye(3, dtype=np.float32)))
    ds = dataio.load_dataset(path)
    assert len(ds) == 1
    np.testing.assert_array_equal(ds[0].points, normalize_cloud(dataio.load_cloud(path)).points)


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


def test_synth_deterministic_and_normalized():
    for kind in dataio.SHAPE_KINDS:
        a = dataio.synth_shape(kind, 256, seed=11)
        b = dataio.synth_shape(kind, 256, seed=11)
        assert a.points.tobytes() == b.points.tobytes(), kind
        assert a.normalized and a.points.shape == (256, 3)
        assert a.points.dtype == np.float32
        c = dataio.synth_shape(kind, 256, seed=12)
        assert c.points.tobytes() != a.points.tobytes(), kind


def test_synth_sphere_unit_norms():
    cloud = dataio.synth_shape("sphere", 2048, seed=5)
    norms = np.sqrt((cloud.points.astype(np.float64) ** 2).sum(axis=1))
    assert np.abs(norms - 1.0).max() < 1e-6


def test_synth_sphere_odd_count_adds_one_point():
    cloud = dataio.synth_shape("sphere", 9, seed=5)
    assert cloud.points.shape == (9, 3) and cloud.normalized
    norms = np.sqrt((cloud.points.astype(np.float64) ** 2).sum(axis=1))
    assert abs(norms.max() - 1.0) < 1e-6


def test_synth_labels():
    table = dataio.synth_shape("table", 2048, seed=1)
    assert set(np.unique(table.labels)) == {0, 1, 2, 3, 4}
    tee = dataio.synth_shape("tee", 512, seed=1)
    assert set(np.unique(tee.labels)) == {0, 1}
    assert dataio.synth_shape("sphere", 64, seed=1).labels is None
    assert dataio.synth_shape("box", 64, seed=1).labels is None


def test_synth_table_counts_match_area_weights():
    # chi-square of observed part counts against surface-area proportions,
    # 4 dof; 18.47 is the 0.001 critical value
    n = 4096
    cloud = dataio.synth_shape("table", n, seed=2)
    areas = np.array([dataio._box_area(half) for _, half in dataio._TABLE_PARTS])
    expected = n * areas / areas.sum()
    observed = np.bincount(cloud.labels, minlength=5)
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert chi2 < 18.47
    leg_counts = observed[1:]
    assert leg_counts.min() > 0.7 * leg_counts.max()


def test_synth_jitter_perturbs_but_stays_normalized():
    base = dataio.synth_shape("box", 128, seed=3, jitter=0.0)
    noisy = dataio.synth_shape("box", 128, seed=3, jitter=0.02)
    assert noisy.normalized
    assert not np.array_equal(base.points, noisy.points)
    # noise at 2% of scale moves points a small bounded amount
    delta = np.abs(noisy.points - base.points).max()
    assert 0 < delta < 0.2


def test_synth_bad_args():
    with pytest.raises(ValueError, match="unknown shape kind"):
        dataio.synth_shape("torus", 64)
    with pytest.raises(ValueError, match="at least 8"):
        dataio.synth_shape("sphere", 4)


# ---------------------------------------------------------------------------
# latent interpolation
# ---------------------------------------------------------------------------


def test_interpolate_endpoints_exact():
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal(16).astype(np.float32)
    z1 = rng.standard_normal(16).astype(np.float32)
    path = dataio.interpolate_latents(z0, z1, steps=5)
    assert len(path) == 5
    np.testing.assert_array_equal(path[0], z0)
    np.testing.assert_array_equal(path[-1], z1)
    for z in path:
        assert z.dtype == np.float32 and z.shape == (16,)


def test_interpolate_midpoint_and_spacing():
    z0 = np.zeros(4)
    z1 = np.full(4, 2.0)
    path = dataio.interpolate_latents(z0, z1, steps=3)
    np.testing.assert_allclose(path[1], np.full(4, 1.0), rtol=0, atol=0)
    path5 = dataio.interpolate_latents(z0, z1, steps=5)
    steps = [np.linalg.norm(b - a) for a, b in zip(path5, path5[1:])]
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def test_interpolate_errors():
    with pytest.raises(ValueError, match="shapes differ"):
        dataio.interpolate_latents(np.zeros(3), np.zeros(4), steps=3)
    with pytest.raises(ValueError, match="at least 2"):
        dataio.interpolate_latents(np.zeros(3), np.zeros(3), steps=1)


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------


def _tiny_trace(k_schedule=(2, 2)):
    config = model.GeneratorConfig(
        k_schedule=k_schedule, latent_width=8, embed_width=4, mlp_hidden=(8,)
    )
    params = model.init_parameters(config, seed=0)
    z = np.random.default_rng(1).standard_normal(8).astype(np.float32)
    return model.generate(z, params)


def _read_ply(path):
    # the package writes a fixed 10-line header, then "x y z red green blue"
    rows = np.loadtxt(path, skiprows=10, ndmin=2)
    return rows[:, :3].astype(np.float32), rows[:, 3:].astype(np.int64)


def test_ply_by_ancestor_colors_match_segmentation(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "parts.ply"
    written = dataio.export_ply(trace, path, color_mode="by_ancestor", ancestor_stage=1)
    assert written == [str(path)]
    assert path.read_text().startswith(
        "ply\nformat ascii 1.0\nelement vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
    )
    labels = model.segment(trace, 2, 1)
    pts, colors = _read_ply(path)
    assert pts.tobytes() == trace.leaf_points().tobytes()  # %.9g round-trips float32
    for row, label in enumerate(labels):
        assert tuple(colors[row]) == dataio.PALETTE[label % 16]


def test_ply_by_ancestor_defaults_to_the_models_part_stage(tmp_path):
    # stage 0 names the parts when there is no stage between the root and
    # the leaves, else stage 1
    for k_schedule, stage in (((4,), 0), ((2, 2), 1)):
        trace = _tiny_trace(k_schedule)
        path = tmp_path / f"parts_{len(k_schedule)}.ply"
        dataio.export_ply(trace, path, "by_ancestor")
        assert model.default_part_stage(trace.config) == stage
        labels = model.segment(trace, len(k_schedule), stage)
        _, colors = _read_ply(path)
        assert [tuple(c) for c in colors] == [dataio.PALETTE[label % 16] for label in labels]
    _, colors = _read_ply(tmp_path / "parts_1.ply")
    assert {tuple(c) for c in colors} == {dataio.PALETTE[0]}


def test_ply_by_stage_writes_one_file_per_stage(tmp_path):
    trace = _tiny_trace()
    written = dataio.export_ply(trace, tmp_path / "gen.ply", color_mode="by_stage")
    assert [os.path.basename(p) for p in written] == [
        "gen_d0.ply",
        "gen_d1.ply",
        "gen_d2.ply",
    ]
    for d, p in enumerate(written):
        pts, colors = _read_ply(p)
        assert pts.shape[0] == len(trace.stages[d])
        np.testing.assert_array_equal(pts, trace.stages[d].points)
        assert all(tuple(c) == dataio.PALETTE[d % 16] for c in colors)


def test_ply_errors(tmp_path):
    cloud = PointCloud(np.eye(3, dtype=np.float32))
    for mode in ("by_ancestor", "by_stage"):
        with pytest.raises(ValueError, match="generation trace"):
            dataio.export_ply(cloud, tmp_path / "x.ply", color_mode=mode)
    for mode in ("rainbow", "none"):
        with pytest.raises(ValueError, match="unknown color mode"):
            dataio.export_ply(_tiny_trace(), tmp_path / "x.ply", color_mode=mode)
    assert os.listdir(tmp_path) == []


def test_synth_then_save_load_preserves_labels(tmp_path):
    cloud = dataio.synth_shape("tee", 128, seed=6)
    path = tmp_path / "tee.xyz"
    dataio.save_cloud(path, cloud)
    back = normalize_cloud(dataio.load_cloud(path))
    np.testing.assert_array_equal(back.labels, cloud.labels)
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)


# ---------------------------------------------------------------------------
# truncated files and interrupted writes
# ---------------------------------------------------------------------------


def _small_checkpoint(path):
    config = model.GeneratorConfig(
        k_schedule=(2,), latent_width=2, embed_width=1, mlp_hidden=(2,)
    )
    training.save_checkpoint(path, model.init_parameters(config, seed=0), step=3)


_LABELLED = PointCloud(
    np.array([[0.5, -1.0, 0.25], [1.0, 2.0, -3.5]], dtype=np.float32), labels=np.array([0, 1])
)

# kind -> (writer, reader) for every file format a command reads
_FORMATS = {
    "rpgp": (lambda p: dataio.save_cloud(p, _LABELLED, binary=True), dataio.load_cloud),
    "xyz": (lambda p: dataio.save_cloud(p, _LABELLED), dataio.load_cloud),
    "rpgk": (_small_checkpoint, training.load_checkpoint),
}
# kind -> writer for every file a command writes; PLY exports are never read
_WRITERS = {kind: writer for kind, (writer, _) in _FORMATS.items()}
_WRITERS["ply"] = lambda p: dataio.export_ply(_tiny_trace(), p, color_mode="by_ancestor")


def _prefix_lengths(kind, raw):
    if kind != "rpgk":
        return range(len(raw))
    # every cut inside the header, cuts on and beside each slab edge, and a
    # stride through the payload (the float32 slabs are over 100 KB)
    (header_len,) = struct.unpack_from("<I", raw, 8)
    body = 12 + header_len
    manifest = json.loads(raw[12:body])["manifest"]
    edges = {body + e["offset"] + d for e in manifest for d in (-1, 0, 1, 2)}
    return sorted(set(range(body + 8)) | edges | set(range(body, len(raw), 509)))


@pytest.mark.parametrize("kind", sorted(_FORMATS))
def test_every_prefix_loads_or_raises_value_error(tmp_path, kind):
    writer, reader = _FORMATS[kind]
    full = tmp_path / f"full.{kind}"
    writer(full)
    raw = full.read_bytes()
    reader(full)
    cut = tmp_path / f"cut.{kind}"
    for n in _prefix_lengths(kind, raw):
        cut.write_bytes(raw[:n])
        try:
            reader(cut)
        except ValueError:
            pass


def test_every_header_bit_flip_loads_or_raises_value_error_naming_the_file(tmp_path):
    # a checkpoint with both configs and optimizer moments, so every header
    # key is present; each byte up to the end of the header JSON is flipped
    # under three masks (low bit, ASCII case bit, UTF-8 high bit)
    config = model.GeneratorConfig(
        k_schedule=(2,), latent_width=2, embed_width=1, mlp_hidden=(2,)
    )
    params = model.init_parameters(config, seed=0)
    state = training.OptimizerState.for_params(params)
    full = tmp_path / "full.rpgk"
    training.save_checkpoint(full, params, opt_state=state, train_config=training.TrainConfig(), step=3)
    raw = full.read_bytes()
    training.load_checkpoint(full)
    (header_len,) = struct.unpack_from("<I", raw, 8)
    flipped = tmp_path / "flipped.rpgk"
    outcomes = {"loaded": 0, "rejected": 0}
    for i in range(12 + header_len):
        for mask in (0x01, 0x20, 0x80):
            data = bytearray(raw)
            data[i] ^= mask
            flipped.write_bytes(bytes(data))
            try:
                training.load_checkpoint(flipped)
            except ValueError as exc:
                assert str(flipped) in str(exc), (i, mask, exc)
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
    assert outcomes["rejected"] > outcomes["loaded"] > 0


@pytest.mark.parametrize("binary", [False, True])
def test_atomic_write_keeps_previous_file_until_complete(tmp_path, binary):
    path = tmp_path / "out.dat"
    path.write_bytes(b"previous\n")
    plain_mode = os.stat(path).st_mode
    with pytest.raises(KeyboardInterrupt):
        with dataio.atomic_write(path, binary=binary) as fh:
            fh.write(b"partial" if binary else "partial")
            fh.flush()
            raise KeyboardInterrupt
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["out.dat"]
    with dataio.atomic_write(path, binary=binary) as fh:
        fh.write(b"done\n" if binary else "done\n")
    assert path.read_bytes() == b"done\n"
    assert os.listdir(tmp_path) == ["out.dat"]
    assert os.stat(path).st_mode == plain_mode  # as a plain open() would create it


@pytest.mark.parametrize("kind", ["ply", "rpgk", "rpgp", "xyz"])
def test_writers_replace_whole_files_or_nothing(tmp_path, monkeypatch, kind):
    writer = _WRITERS[kind]
    fresh, path = tmp_path / "fresh", tmp_path / "out"
    writer(fresh)
    path.write_bytes(b"previous\n")

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        writer(path)
    assert path.read_bytes() == b"previous\n"
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]
    monkeypatch.undo()
    writer(path)
    assert path.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]


def test_binary_writers_interrupted_mid_write_keep_previous_file(tmp_path, monkeypatch):
    # struct.pack runs after the magic bytes have gone out
    writers = {tmp_path / "c.rpgp": _FORMATS["rpgp"][0], tmp_path / "c.rpgk": _small_checkpoint}
    for path, writer in writers.items():
        writer(path)
    before = {path: path.read_bytes() for path in writers}

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(struct, "pack", interrupt)
    for path, writer in writers.items():
        with pytest.raises(KeyboardInterrupt):
            writer(path)
    monkeypatch.undo()
    assert {path: path.read_bytes() for path in writers} == before
    assert sorted(os.listdir(tmp_path)) == ["c.rpgk", "c.rpgp"]
