"""Output checks for the benchmark, computed independently in float64.

Each check reads what a CLI command wrote and printed, recomputes the
printed numbers with brute-force float64 code that shares nothing with the
program, and raises `CheckError` on a mismatch. Tolerances cover float32
rounding and the printed digits, so a change that legitimately reorders
float arithmetic still passes while a wrong vertex does not.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re

import numpy as np

REL_TOL = 1e-4  # printed %.6g values against float64 recomputes
PURITY_TOL = 1e-3  # a few near-tied nearest neighbours may resolve differently
TIE_MARGIN = 1e-4  # argmin decisions closer than this are treated as ties
_BLOCK = 32  # rows per brute-force block: keeps the checks out of peak RSS


class CheckError(Exception):
    """A command's output disagrees with the independent recompute."""


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# readers and float64 geometry
# ---------------------------------------------------------------------------


def read_text_cloud(path):
    """(points float64, labels or None) of an 'x y z [label]' text cloud."""
    table = np.loadtxt(path, ndmin=2)
    labels = table[:, 3].astype(np.int64) if table.shape[1] == 4 else None
    return table[:, :3], labels


def read_ply(path):
    """(vertices float64, rgb int) of an ASCII PLY with xyz then rgb."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "ply":
        raise CheckError(f"{path}: not a PLY file")
    count = None
    for i, line in enumerate(lines):
        if line.startswith("element vertex "):
            count = int(line.split()[2])
        if line == "end_header":
            body = lines[i + 1 :]
            break
    else:
        raise CheckError(f"{path}: no end_header")
    if count is None or len(body) != count:
        raise CheckError(f"{path}: header says {count} vertices, body has {len(body)}")
    table = np.loadtxt(body, ndmin=2)
    if table.shape[1] != 6:
        raise CheckError(f"{path}: expected x y z r g b columns")
    points = table[:, :3]
    if not np.all(np.isfinite(points)):
        raise CheckError(f"{path}: non-finite vertex")
    return points, table[:, 3:].astype(np.int64)


def normalize(points: np.ndarray) -> np.ndarray:
    centered = points - points.mean(axis=0)
    radius = np.sqrt((centered**2).sum(axis=1)).max()
    return centered / max(float(radius), 1e-12)


def nearest(queries: np.ndarray, target: np.ndarray):
    """Brute-force (index, squared distance) of each query's nearest target."""
    idx = np.empty(len(queries), dtype=np.int64)
    d2 = np.empty(len(queries))
    for start in range(0, len(queries), _BLOCK):
        block = queries[start : start + _BLOCK]
        dist = np.zeros((len(block), len(target)))
        for c in range(3):
            dist += (block[:, c : c + 1] - target[np.newaxis, :, c]) ** 2
        j = np.argmin(dist, axis=1)
        idx[start : start + len(block)] = j
        d2[start : start + len(block)] = dist[np.arange(len(block)), j]
    return idx, d2


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    return float(nearest(a, b)[1].mean() + nearest(b, a)[1].mean())


def purity(predicted: np.ndarray, truth: np.ndarray) -> float:
    agree = 0
    for segment in np.unique(predicted):
        agree += np.bincount(truth[predicted == segment]).max()
    return agree / len(truth)


def _printed(stdout: str, pattern: str) -> float:
    match = re.search(pattern, stdout)
    if match is None:
        raise CheckError(f"output lacks {pattern!r}: {stdout!r}")
    return float(match.group(1))


def _require_close(name, printed, expected, rel=REL_TOL):
    if not math.isclose(printed, expected, rel_tol=rel, abs_tol=1e-12):
        raise CheckError(f"{name}: printed {printed!r}, recomputed {expected!r}")


def _argmin(row: np.ndarray):
    """Index of the smallest entry, or None when the runner-up ties it."""
    order = np.argsort(row, kind="stable")
    best = row[order[0]]
    if len(row) > 1 and row[order[1]] - best <= TIE_MARGIN * abs(best):
        return None
    return int(order[0])


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_train(stdout, log_path, checkpoint_path, epochs, steps, load_checkpoint):
    """log.csv holds one finite row per epoch; the checkpoint loads at `steps`."""
    with open(log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        raise CheckError(f"{log_path}: expected epochs 0..{epochs - 1}")
    for row in rows:
        if not all(math.isfinite(float(row[k])) for k in ("cd", "reg", "kl", "total")):
            raise CheckError(f"{log_path}: non-finite row {row}")
    _require_close("final loss", _printed(stdout, r"final loss: (\S+)"),
                   float(rows[-1]["total"]), rel=1e-5)
    step = load_checkpoint(checkpoint_path)[3]
    if step != steps:
        raise CheckError(f"{checkpoint_path}: step {step}, expected {steps}")


def check_reconstruct(stdout, scan_path, ply_path, leaf_count):
    """The printed CD equals the float64 Chamfer of normalized scan and PLY."""
    leaves, _ = read_ply(ply_path)
    if len(leaves) != leaf_count:
        raise CheckError(f"{ply_path}: {len(leaves)} vertices, expected {leaf_count}")
    scan, _ = read_text_cloud(scan_path)
    printed = _printed(stdout, r"reconstruction cd: (\S+) \(x 1e4\)") * 1e-4
    _require_close("reconstruction cd", printed, chamfer(normalize(scan), leaves))


def check_segment(stdout, scan_path, ply_path, leaf_count):
    """The printed purity equals a float64 label transfer from PLY colours."""
    leaves, colors = read_ply(ply_path)
    if len(leaves) != leaf_count:
        raise CheckError(f"{ply_path}: {len(leaves)} vertices, expected {leaf_count}")
    scan, truth = read_text_cloud(scan_path)
    _, part = np.unique(colors, axis=0, return_inverse=True)
    idx, _ = nearest(normalize(scan), leaves)
    expected = purity(part.reshape(-1)[idx], truth)
    printed = _printed(stdout, r"purity: (\S+)")
    if abs(printed - expected) > PURITY_TOL:
        raise CheckError(f"purity: printed {printed!r}, recomputed {expected!r}")


def check_generate(ply_paths, leaf_count):
    for path in ply_paths:
        points, _ = read_ply(path)
        if len(points) != leaf_count:
            raise CheckError(f"{path}: {len(points)} vertices, expected {leaf_count}")


def check_eval(stdout, reference_paths, generated_plys):
    """MMD, COV and 1-NNA equal a float64 recompute from the same clouds.

    `generated_plys` must come from `generate` with eval's seed, which draws
    the same latents in the same order. Coverage and 1-NNA are compared
    exactly unless one of their nearest-cloud decisions is a near tie.
    """
    refs = [normalize(read_text_cloud(p)[0]) for p in reference_paths]
    gens = [read_ply(p)[0] for p in generated_plys]
    union = refs + gens
    n_ref = len(refs)
    matrix = np.zeros((len(union), len(union)))
    for i in range(len(union)):
        for j in range(i + 1, len(union)):
            matrix[i, j] = matrix[j, i] = chamfer(union[i], union[j])
    cross = matrix[:n_ref, n_ref:]
    _require_close("mmd", _printed(stdout, r"mmd: (\S+) \(x 1e4\)") * 1e-4,
                   float(cross.min(axis=1).mean()))

    matched = [_argmin(row) for row in cross.T]
    if None not in matched:
        expected = len(set(matched)) / n_ref
        _require_close("coverage", _printed(stdout, r"coverage: (\S+)"), expected)

    np.fill_diagonal(matrix, np.inf)
    nearest_other = [_argmin(row) for row in matrix]
    if None not in nearest_other:
        labels = np.array([0] * n_ref + [1] * len(gens))
        expected = float(np.mean(labels[nearest_other] == labels))
        _require_close("1-nna", _printed(stdout, r"1-nna: (\S+)"), expected)
