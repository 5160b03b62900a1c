"""Evaluation metrics for reconstruction, generation quality, and parts.

Set-level metrics (MMD, coverage, 1-NNA) compare a generated set of clouds
against a reference set under Chamfer distance. A brute-force double loop
over all cloud pairs defines each metric; the implementations build exactly
that pairwise matrix, optionally across a thread pool (cells are
independent, so threading cannot change values).

Chamfer distance is exactly symmetric (it adds two float means, and float
addition commutes) and exactly 0.0 from a cloud to itself. So a matrix of a
cloud list against itself computes only its upper triangle, mirrors each
value, and never computes the diagonal. `generation_metrics` builds that
matrix once over the union of both sets and reads all three metrics off its
blocks, with the same values as `mmd`, `coverage` and `one_nna` called one
by one.

Values are kept in natural units; reporting helpers expose the customary
x 10^4 scaling alongside.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import chamfer_distance, nearest_neighbors


def _clouds(x) -> list:
    out = list(x)
    if len(out) == 0:
        raise ValueError("empty cloud set")
    return out


def cd_matrix(rows, cols, threads: int = 1) -> np.ndarray:
    """Chamfer distance between every row cloud and every column cloud.

    When both sides hold the same cloud objects in the same order, only the
    cells above the diagonal are computed; the rest are mirrored or 0.0.
    """
    row_clouds = _clouds(rows)
    col_clouds = _clouds(cols)
    symmetric = len(row_clouds) == len(col_clouds) and all(
        r is c for r, c in zip(row_clouds, col_clouds)
    )
    out = np.zeros((len(row_clouds), len(col_clouds)), dtype=np.float64)
    cells = [
        (i, j)
        for i in range(len(row_clouds))
        for j in range(i + 1 if symmetric else 0, len(col_clouds))
    ]

    def fill(cell):
        i, j = cell
        out[i, j] = chamfer_distance(row_clouds[i], col_clouds[j])[0]
        if symmetric:
            out[j, i] = out[i, j]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, cells))
    else:
        for cell in cells:
            fill(cell)
    return out


def _mmd(ref_by_gen: np.ndarray) -> float:
    return float(np.mean(ref_by_gen.min(axis=1)))


def _coverage(gen_by_ref: np.ndarray) -> float:
    matched = np.unique(np.argmin(gen_by_ref, axis=1))
    return float(matched.size) / gen_by_ref.shape[1]


def _one_nna(union_matrix: np.ndarray, n_reference: int) -> float:
    labels = np.arange(union_matrix.shape[0]) >= n_reference
    masked = union_matrix.copy()
    np.fill_diagonal(masked, np.inf)
    nearest = np.argmin(masked, axis=1)
    return float(np.mean(labels[nearest] == labels))


def mmd(reference, generated, threads: int = 1) -> float:
    """Mean over reference clouds of the distance to the closest generated one."""
    return _mmd(cd_matrix(reference, generated, threads=threads))


def coverage(reference, generated, threads: int = 1) -> float:
    """Fraction of reference clouds that are the nearest reference of at
    least one generated cloud. Ties resolve to the lowest reference index."""
    return _coverage(cd_matrix(generated, reference, threads=threads))


def one_nna(reference, generated, threads: int = 1) -> float:
    """Leave-one-out 1-NN two-sample classification accuracy.

    Every cloud in the union is assigned the set label of its nearest other
    cloud; 0.5 means the sets are indistinguishable. Ties resolve to the
    lowest union index (reference clouds first).
    """
    ref = _clouds(reference)
    gen = _clouds(generated)
    union = ref + gen
    if len(union) < 2:
        raise ValueError("need at least two clouds in total")
    return _one_nna(cd_matrix(union, union, threads=threads), len(ref))


def generation_metrics(reference, generated, threads: int = 1) -> list:
    """MMD, coverage and 1-NNA as `MetricRecord`s, from one union matrix.

    Each value equals the one `mmd`, `coverage` or `one_nna` returns; the
    Chamfer distance of every pair of distinct union clouds is computed once.
    """
    ref = _clouds(reference)
    gen = _clouds(generated)
    union = ref + gen
    matrix = cd_matrix(union, union, threads=threads)
    r = len(ref)
    return [
        MetricRecord("mmd", _mmd(matrix[:r, r:]), r, len(gen), times_1e4=True),
        MetricRecord("coverage", _coverage(matrix[r:, :r]), r, len(gen)),
        MetricRecord("1-nna", _one_nna(matrix, r), r, len(gen)),
    ]


def purity(predicted_labels, ground_truth_labels) -> float:
    """Weighted majority-label agreement between segments and true parts."""
    pred = np.asarray(predicted_labels)
    truth = np.asarray(ground_truth_labels)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError("label lists must be equal-length, 1-D, non-empty")
    agree = 0
    for segment in np.unique(pred):
        _, counts = np.unique(truth[pred == segment], return_counts=True)
        agree += counts.max()
    return float(agree) / pred.size


def transfer_labels(source_points, source_labels, query_points) -> np.ndarray:
    """Label each query point like its nearest source point.

    Bridges label sets living on different point sets, e.g. part labels on
    generated leaves carried over to a scanned cloud before a purity check.
    """
    labels = np.asarray(source_labels)
    idx, _ = nearest_neighbors(query_points, source_points)
    return labels[idx]


def reconstruction_cd(dataset, reconstruct):
    """Per-shape Chamfer distance between each cloud and its reconstruction.

    `reconstruct` maps one cloud to an (n, 3) array. Returns (per-shape
    list, mean), in natural units.
    """
    clouds = _clouds(dataset)
    per_shape = [float(chamfer_distance(c, reconstruct(c))[0]) for c in clouds]
    return per_shape, float(np.mean(per_shape))


@dataclass
class MetricRecord:
    """One reported metric with enough context to read it unambiguously."""

    name: str
    value: float
    n_reference: int
    n_generated: int
    times_1e4: bool = False  # customary scaling for distance-flavoured metrics

    def render(self) -> str:
        shown = self.value * 1e4 if self.times_1e4 else self.value
        scale = " (x 1e4)" if self.times_1e4 else ""
        return (
            f"{self.name}: {shown:.6g}{scale}  "
            f"[reference {self.n_reference}, generated {self.n_generated}]"
        )


def render_records(records) -> str:
    return "\n".join(r.render() for r in records)
