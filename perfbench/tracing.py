"""Per-layer tracing by patching the names the program's callers look up.

Each patched name is wrapped from outside the package: the wrapper records
a span (name, start, end, parent) and bumps exact work counters. Spans are
kept in memory and written out once, when the benchmark ends. Nothing in
the program is edited; `install` swaps module and class attributes and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("autodiff", "model", "geometry", "training", "metrics", "dataio", "cli")
COMMANDS = ("train", "reconstruct", "segment", "generate", "eval")
PRIMITIVE_KINDS = (
    "matmul", "add", "mul", "scale", "div", "tanh", "sigmoid", "exp", "leaky_relu",
    "square", "norm", "sum", "mean", "max_reduce", "concat", "reshape", "transpose",
    "gather_rows",
)

# inclusive span time reported per layer metric: metric -> span name
SPAN_TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "model.encode_s": "model.encode",
    "model.expand_s": "model.expand",
    "geometry.nn_s": "geometry.nearest_neighbors",
    "geometry.kdtree_build_s": "geometry.kdtree_build",
    "geometry.kdtree_query_s": "geometry.kdtree_query",
    "training.loss_s": "training.total_loss",
    "training.chamfer_loss_s": "training.chamfer_loss",
    "training.adamw_s": "training.adamw_step",
    "training.checkpoint_write_s": "training.save_checkpoint",
    "training.checkpoint_read_s": "training.load_checkpoint",
    "metrics.cd_matrix_s": "metrics.cd_matrix",
    "dataio.read_s": "dataio.load_cloud",
    "dataio.write_s": "dataio.export_ply",
}
COUNTS = (
    "autodiff.matmul_macs", "model.encode_points", "model.expand_calls",
    "geometry.nn_calls", "geometry.nn_pairs", "geometry.kdtree_queries",
    "metrics.chamfer_calls", "dataio.bytes_written",
)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"cli.{c}.self_s": "s" for c in COMMANDS})
    units.update({m: "s" for m in SPAN_TIMES})
    for kind in PRIMITIVE_KINDS:
        units[f"autodiff.fwd_s.{kind}"] = "s"
        units[f"autodiff.fwd_calls.{kind}"] = "count"
    units.update({m: "count" for m in COUNTS})
    units["autodiff.tape_entries"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def _rows(x) -> int:
    return int(np.shape(getattr(x, "points", x))[0])


def _count_primitive(counts, args, kwargs, result):
    kind, inputs = args[0], tuple(args[1])
    counts[f"autodiff.fwd_calls.{kind}"] += 1
    if kind == "matmul":
        a, b = inputs
        # a (n,k) or (k,) against b (k,m) or (k,): multiply-adds from shapes
        counts["autodiff.matmul_macs"] += int(np.prod(a.shape)) * (b.shape[1] if b.ndim == 2 else 1)


def _count_backward(counts, args, kwargs, result):
    counts["autodiff.tape_entries_total"] += len(args[1])
    counts["autodiff.backward_calls"] += 1


def _count_encode(counts, args, kwargs, result):
    counts["model.encode_points"] += _rows(args[0])


def _count_expand(counts, args, kwargs, result):
    counts["model.expand_calls"] += 1


def _count_nn(counts, args, kwargs, result):
    counts["geometry.nn_calls"] += 1
    counts["geometry.nn_pairs"] += _rows(args[0]) * _rows(args[1])


def _count_kdtree_query(counts, args, kwargs, result):
    counts["geometry.kdtree_queries"] += _rows(args[1])


def _count_chamfer(counts, args, kwargs, result):
    counts["metrics.chamfer_calls"] += 1


def _count_written(counts, args, kwargs, result):
    counts["dataio.bytes_written"] += sum(os.path.getsize(p) for p in result)


def sites(modules) -> list:
    """(owner, attribute, span name, counter) for every wrapped name.

    Each owner is where the caller looks the name up: `training` imports
    `encode` and `expansion_graph` by name, `cli` calls `model.generate`,
    `metrics` imports `nearest_neighbors` and `chamfer_distance`.
    """
    ad, model, geometry, training, metrics, dataio, cli = (
        modules[m] for m in ("autodiff", "model", "geometry", "training", "metrics",
                             "dataio", "cli")
    )
    index = geometry.NearestNeighborIndex
    return [
        (ad, "apply_primitive", lambda args: f"autodiff.fwd.{args[0]}", _count_primitive),
        (ad, "backward", "autodiff.backward", _count_backward),
        (training, "fit", "training.fit", None),
        (training, "total_loss", "training.total_loss", None),
        (training, "chamfer_loss", "training.chamfer_loss", None),
        (training, "adamw_step", "training.adamw_step", None),
        (training, "save_checkpoint", "training.save_checkpoint", None),
        (training, "load_checkpoint", "training.load_checkpoint", None),
        (training, "encode", "model.encode", _count_encode),
        (training, "expansion_graph", "model.expand", _count_expand),
        (model, "encode", "model.encode", _count_encode),
        (model, "generate", "model.expand", _count_expand),
        (model, "segment", "model.segment", None),
        (geometry, "nearest_neighbors", "geometry.nearest_neighbors", _count_nn),
        (metrics, "nearest_neighbors", "geometry.nearest_neighbors", _count_nn),
        (index, "__init__", "geometry.kdtree_build", None),
        (index, "query", "geometry.kdtree_query", _count_kdtree_query),
        (metrics, "chamfer_distance", "geometry.chamfer_distance", _count_chamfer),
        (cli, "chamfer_distance", "geometry.chamfer_distance", None),
        (cli, "normalize_cloud", "geometry.normalize_cloud", None),
        (dataio, "normalize_cloud", "geometry.normalize_cloud", None),
        (metrics, "cd_matrix", "metrics.cd_matrix", None),
        *((metrics, name, f"metrics.{name}", None)
          for name in ("mmd", "coverage", "one_nna", "transfer_labels", "purity")),
        (dataio, "load_cloud", "dataio.load_cloud", None),
        (dataio, "load_dataset", "dataio.load_dataset", None),
        (dataio, "resolve_cloud_paths", "dataio.resolve_cloud_paths", None),
        (dataio, "export_ply", "dataio.export_ply", _count_written),
    ]


class Tracer:
    """Records spans and counters while a root span (one CLI command) is open."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._recording = False
        self._undo = []

    def _wrap(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, modules) -> None:
        for owner, attr, name, count in sites(modules):
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root(self, name, fn, *args):
        """Call `fn` as the root span `name`, recording everything beneath it."""
        self._recording = True
        try:
            return self._wrap(fn, name, None)(*args)
        finally:
            self._recording = False

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of the spans recorded since `reset`."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for (name, start, end, _), child_time in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name.split(".")[0]] += end - start - child_time
            if name.startswith("cli."):
                own[name] += end - start - child_time
        out = {f"{layer}.self_s": own[layer] for layer in LAYERS}
        out.update({f"cli.{c}.self_s": own[f"cli.{c}"] for c in COMMANDS})
        out.update({m: inclusive[span] for m, span in SPAN_TIMES.items()})
        seen = {n.rsplit(".", 1)[1] for n in inclusive if n.startswith("autodiff.fwd.")}
        for kind in (*PRIMITIVE_KINDS, *sorted(seen - set(PRIMITIVE_KINDS))):
            out[f"autodiff.fwd_s.{kind}"] = inclusive[f"autodiff.fwd.{kind}"]
            out[f"autodiff.fwd_calls.{kind}"] = self.counts[f"autodiff.fwd_calls.{kind}"]
        out.update({m: self.counts[m] for m in COUNTS})
        steps = self.counts["autodiff.backward_calls"]
        out["autodiff.tape_entries"] = (
            self.counts["autodiff.tape_entries_total"] / steps if steps else 0
        )
        return out
