"""Point-cloud files, synthetic shapes, and colorized export.

File formats owned here, all byte-layouts documented in the README:

* text clouds: one "x y z" line per point, optional fourth integer column
  holding a part label;
* binary clouds: 16-byte header (magic "RPGP", u32 version, u32 count,
  u32 reserved, all little-endian) followed by count * 3 float32 values;
* exports: ASCII PLY written from a generation trace, a fixed 10-line
  header then xyz floats and an rgb byte colour per vertex. The package
  writes these and never reads them back.

Synthetic shapes replace a real scanned dataset at desk scale. The
composite kinds (table, tee) carry ground-truth part labels so that
segmentation quality is measurable against a known answer.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct

import numpy as np

from .geometry import PointCloud, normalize_cloud
from .model import GenerationTrace, default_part_stage, segment

CLOUD_MAGIC = b"RPGP"
CLOUD_VERSION = 1

# fixed 16-colour palette for part renders; label i uses PALETTE[i % 16]
PALETTE = (
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (250, 190, 212),
    (0, 128, 128),
    (220, 190, 255),
    (170, 110, 40),
    (255, 250, 200),
    (128, 0, 0),
    (170, 255, 195),
)

SHAPE_KINDS = ("sphere", "box", "cylinder", "table", "tee")


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a file object whose contents replace `path` only once complete.

    Writes go to a temp file in the same directory, which `os.replace`
    renames over `path` when the block exits normally. If the block raises,
    the temp file is removed and any previous file at `path` is untouched,
    so no reader ever sees a half-written file.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    # O_EXCL never opens an existing file; mode 0o666 leaves the umask in charge
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# cloud files
# ---------------------------------------------------------------------------


def load_cloud(path) -> PointCloud:
    """Read a text or binary cloud file; the binary magic decides which."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == CLOUD_MAGIC:
        return _load_cloud_binary(path)
    return _load_cloud_text(path)


def _load_cloud_binary(path) -> PointCloud:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated binary cloud header")
    magic, version, count, _ = struct.unpack_from("<4sIII", raw, 0)
    if magic != CLOUD_MAGIC:
        raise ValueError(f"{path}: bad magic")
    if version != CLOUD_VERSION:
        raise ValueError(f"{path}: unsupported cloud format version {version}")
    body = raw[16:]
    if len(body) != count * 12:
        raise ValueError(
            f"{path}: header claims {count} points but payload holds "
            f"{len(body) // 12}"
        )
    pts = np.frombuffer(body, dtype="<f4").reshape(count, 3).copy()
    return PointCloud(pts)


def _load_cloud_text(path) -> PointCloud:
    points = []
    labels = []
    has_labels = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) not in (3, 4):
                raise ValueError(
                    f"{path}:{lineno}: expected 'x y z' or 'x y z label', "
                    f"got {len(fields)} fields"
                )
            try:
                xyz = [float(f) for f in fields[:3]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric coordinate") from None
            labelled = len(fields) == 4
            if has_labels is None:
                has_labels = labelled
            elif has_labels != labelled:
                raise ValueError(f"{path}:{lineno}: inconsistent label column")
            if labelled:
                try:
                    labels.append(int(fields[3]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: label must be an integer") from None
            points.append(xyz)
    if not points:
        raise ValueError(f"{path}: no points")
    pts = np.array(points, dtype=np.float32)
    return PointCloud(pts, labels=np.array(labels) if has_labels else None)


def save_cloud(path, cloud: PointCloud, binary: bool = False):
    """Write a cloud; binary is lossless, text round-trips float32 via %.9g."""
    pts = cloud.points.astype(np.float32, copy=False)
    if binary:
        with atomic_write(path, binary=True) as fh:
            fh.write(CLOUD_MAGIC)
            fh.write(struct.pack("<III", CLOUD_VERSION, pts.shape[0], 0))
            fh.write(np.ascontiguousarray(pts, dtype="<f4").tobytes())
        return
    with atomic_write(path) as fh:
        for i, (x, y, z) in enumerate(pts):
            line = f"{x:.9g} {y:.9g} {z:.9g}"
            if cloud.labels is not None:
                line += f" {int(cloud.labels[i])}"
            fh.write(line + "\n")


def resolve_cloud_paths(source) -> list:
    """Expand a data source into cloud file paths.

    A directory yields all its files sorted by name. A file is either a
    single cloud (binary magic, or a first line that parses as a point) or
    a text list of paths, one per line. Blank and `#` lines are skipped in
    both, so the first line judged is the first other one.
    """
    if isinstance(source, (list, tuple)):
        return [str(p) for p in source]
    source = str(source)
    if os.path.isdir(source):
        names = sorted(
            n for n in os.listdir(source) if os.path.isfile(os.path.join(source, n))
        )
        if not names:
            raise ValueError(f"{source}: directory holds no files")
        return [os.path.join(source, n) for n in names]
    with open(source, "rb") as fh:
        head = fh.read(4)
    if head == CLOUD_MAGIC:
        return [source]
    with open(source, "r", encoding="utf-8") as fh:
        lines = (ln.strip() for ln in fh)
        first = next((ln.split() for ln in lines if ln and not ln.startswith("#")), [])
    try:
        [float(f) for f in first[:3]]
        is_cloud = len(first) in (3, 4)
    except ValueError:
        is_cloud = False
    if is_cloud:
        return [source]
    base = os.path.dirname(source)
    paths = []
    with open(source, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = line.strip()
            if entry and not entry.startswith("#"):
                paths.append(entry if os.path.isabs(entry) else os.path.join(base, entry))
    if not paths:
        raise ValueError(f"{source}: empty path list")
    return paths


def load_dataset(source) -> list:
    """The normalized clouds named by `source`, in `resolve_cloud_paths` order."""
    return [normalize_cloud(load_cloud(p)) for p in resolve_cloud_paths(source)]


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


def _sample_box(rng, n, center, half):
    """Uniform samples on a cuboid surface, faces weighted by area."""
    hx, hy, hz = half
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy], dtype=float)
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    pts = np.empty((n, 3))
    for f, (axis, sign) in enumerate([(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]):
        mask = face == f
        a, b = [i for i in range(3) if i != axis]
        pts[mask, axis] = sign * half[axis]
        pts[mask, a] = u[mask] * half[a]
        pts[mask, b] = v[mask] * half[b]
    return pts + np.asarray(center, dtype=float)


def _box_area(half):
    hx, hy, hz = half
    return 8.0 * (hx * hy + hy * hz + hx * hz)


def _sample_sphere(rng, n):
    # antipodal pairs cancel exactly, so the centroid is exactly zero and
    # normalization leaves every point on the unit sphere to within ulps
    half = n // 2
    v = rng.standard_normal((half, 3))
    v /= np.sqrt((v**2).sum(axis=1, keepdims=True))
    pts = np.empty((2 * half, 3))
    pts[0::2] = v
    pts[1::2] = -v
    if n % 2:
        extra = rng.standard_normal(3)
        extra /= np.linalg.norm(extra)
        pts = np.vstack([pts, extra])
    return pts


def _sample_cylinder(rng, n, radius=0.5, height=2.0):
    lateral = 2.0 * np.pi * radius * height
    cap = np.pi * radius * radius
    areas = np.array([lateral, cap, cap])
    part = rng.choice(3, size=n, p=areas / areas.sum())
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    side = part == 0
    pts[side, 0] = radius * np.cos(theta[side])
    pts[side, 2] = radius * np.sin(theta[side])
    pts[side, 1] = rng.uniform(-height / 2, height / 2, size=int(side.sum()))
    for which, y in ((1, height / 2), (2, -height / 2)):
        mask = part == which
        rr = radius * np.sqrt(rng.uniform(0.0, 1.0, size=int(mask.sum())))
        pts[mask, 0] = rr * np.cos(theta[mask])
        pts[mask, 2] = rr * np.sin(theta[mask])
        pts[mask, 1] = y
    return pts


# composite shapes as unions of labelled cuboids: (center, half_extents)
_TABLE_PARTS = [
    ((0.0, 0.9, 0.0), (1.0, 0.06, 0.6)),  # top slab
    ((0.82, 0.42, 0.48), (0.07, 0.42, 0.07)),
    ((-0.82, 0.42, 0.48), (0.07, 0.42, 0.07)),
    ((0.82, 0.42, -0.48), (0.07, 0.42, 0.07)),
    ((-0.82, 0.42, -0.48), (0.07, 0.42, 0.07)),
]

_TEE_PARTS = [
    ((0.0, 0.75, 0.0), (0.8, 0.15, 0.15)),  # cross bar
    ((0.0, -0.25, 0.0), (0.15, 0.85, 0.15)),  # stem
]


def _sample_parts(rng, n, parts):
    areas = np.array([_box_area(half) for _, half in parts])
    choice = rng.choice(len(parts), size=n, p=areas / areas.sum())
    pts = np.empty((n, 3))
    labels = np.empty(n, dtype=np.int64)
    cursor = 0
    for idx, (center, half) in enumerate(parts):
        count = int((choice == idx).sum())
        pts[cursor : cursor + count] = _sample_box(rng, count, center, half)
        labels[cursor : cursor + count] = idx
        cursor += count
    return pts, labels


def synth_shape(kind: str, n_points: int, seed: int = 0, jitter: float = 0.0) -> PointCloud:
    """Deterministic normalized surface samples of a named shape.

    Composite kinds carry part labels: table has 5 (top + 4 legs), tee has
    2 (bar + stem). `jitter` adds Gaussian noise before normalization.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}; known: {SHAPE_KINDS}")
    if n_points < 8:
        raise ValueError("n_points must be at least 8")
    rng = np.random.default_rng(seed)
    labels = None
    if kind == "sphere":
        pts = _sample_sphere(rng, n_points)
    elif kind == "box":
        pts = _sample_box(rng, n_points, (0.0, 0.0, 0.0), (1.0, 0.7, 0.4))
    elif kind == "cylinder":
        pts = _sample_cylinder(rng, n_points)
    elif kind == "table":
        pts, labels = _sample_parts(rng, n_points, _TABLE_PARTS)
    else:
        pts, labels = _sample_parts(rng, n_points, _TEE_PARTS)
    if jitter:
        pts = pts + rng.standard_normal(pts.shape) * jitter
    normalized = normalize_cloud(PointCloud(pts, labels=labels))
    return PointCloud(
        normalized.points.astype(np.float32), labels=labels, normalized=True
    )


# ---------------------------------------------------------------------------
# latent interpolation
# ---------------------------------------------------------------------------


def interpolate_latents(z_start, z_end, steps: int) -> list:
    """Evenly spaced linear blend, endpoints included exactly."""
    z0 = np.asarray(getattr(z_start, "data", z_start))
    z1 = np.asarray(getattr(z_end, "data", z_end))
    if z0.shape != z1.shape:
        raise ValueError(f"latent shapes differ: {z0.shape} vs {z1.shape}")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    out = [z0.copy()]
    for i in range(1, steps - 1):
        t = i / (steps - 1)
        out.append(((1.0 - t) * z0 + t * z1).astype(z0.dtype))
    out.append(z1.copy())
    return out


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------


def _write_ply(path, points, colors):
    points = np.asarray(points, dtype=np.float32)
    with atomic_write(path) as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for (x, y, z), (r, g, b) in zip(points, colors):
            fh.write(f"{x:.9g} {y:.9g} {z:.9g} {r} {g} {b}\n")


def _stage_suffix_path(path, stage):
    base, ext = os.path.splitext(str(path))
    return f"{base}_d{stage}{ext or '.ply'}"


def export_ply(trace, path, color_mode: str, ancestor_stage: int | None = None) -> list:
    """Write a generation trace as coloured ASCII PLY; returns the written paths.

    Modes: "by_ancestor" labels the leaf points by their ancestor at
    `ancestor_stage` and cycles the 16-colour palette; left as None, that
    stage is `model.default_part_stage`: 1, or 0 for a one-stage model.
    "by_stage" writes one file per stage (suffix _d<n>), each in its
    stage's palette colour.
    """
    if not isinstance(trace, GenerationTrace):
        raise ValueError(f"PLY export needs a generation trace, got {type(trace).__name__}")
    if color_mode == "by_ancestor":
        if ancestor_stage is None:
            ancestor_stage = default_part_stage(trace.config)
        labels = segment(trace, trace.config.stage_count, ancestor_stage)
        colors = [PALETTE[int(label) % len(PALETTE)] for label in labels]
        _write_ply(path, trace.leaf_points(), colors)
        return [str(path)]
    if color_mode == "by_stage":
        written = []
        for d, stage in enumerate(trace.stages):
            target = _stage_suffix_path(path, d)
            _write_ply(target, stage.points, [PALETTE[d % len(PALETTE)]] * len(stage))
            written.append(target)
        return written
    raise ValueError(f"unknown color mode {color_mode!r}")
