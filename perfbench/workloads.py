"""The benchmark's workloads: their inputs, command cycles and output checks.

Run as a script, this module writes one workload's inputs into a directory

    python3 perfbench/workloads.py <workload> <seed> <directory>

and prints the seconds it took from its first import to its last write.
The benchmark runs it in a fresh interpreter, so set-up time covers the
imports as well as the writes, but not the interpreter's own start. Every
input derives from the seed alone.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the imports, which set-up time includes

import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists; the tables in README.md say which metric each
# one should move.
WORKLOADS = {
    "train-overfit": "acceptance overfit setup: tiny arrays and 1692 tape entries "
    "per step, so per-primitive Python overhead (the fixed-order matmul loop most) "
    "dominates; nearest neighbour is negligible",
    "train-2048": "2048 preset at batch 4: fixed-order matmul forward dominates, "
    "then the exhaustive 2048x2048 nearest neighbour; no kd-tree",
    "infer-2048": "tape-free reconstruct, segment, generate and eval: kd-tree on "
    "8192-point scans, the Chamfer matrix, PLY reads and writes",
}

OVERFIT_SHAPES, OVERFIT_POINTS, OVERFIT_EPOCHS = 10, 24, 20
TRAIN_2048_SHAPES, TRAIN_2048_POINTS = 4, 2048
SCAN_POINTS, REFERENCE_POINTS = 8192, 2048
EVAL_SHAPES = 2  # generated and reference clouds alike, so R = G
LABELLED_KINDS = ("table", "tee")


@dataclass
class Command:
    """One CLI invocation of a workload's cycle, run from the inputs directory."""

    kind: str  # the CLI subcommand
    argv: list
    shapes: int  # shapes the command trains on, reconstructs or samples
    outputs: list  # files whose hashes are recorded
    check: Callable[[str], None]  # raises checks.CheckError given stdout


def write_inputs(workload: str, seed: int, directory: str) -> None:
    """Write every input file of `workload` for `seed` into `directory`."""
    sys.path.insert(0, str(SRC))
    from pointtree import dataio, model, training

    rng = np.random.default_rng(seed)

    def shape_seed() -> int:
        return int(rng.integers(2**31))

    def write_clouds(subdir, kinds, n_points):
        os.makedirs(os.path.join(directory, subdir), exist_ok=True)
        for i, kind in enumerate(kinds):
            cloud = dataio.synth_shape(str(kind), n_points, seed=shape_seed())
            dataio.save_cloud(os.path.join(directory, subdir, f"{kind}_{i:02d}.xyz"), cloud)

    os.makedirs(directory, exist_ok=True)
    if workload == "train-overfit":
        kinds = rng.permutation(dataio.SHAPE_KINDS * (OVERFIT_SHAPES // len(dataio.SHAPE_KINDS)))
        write_clouds("data", kinds, OVERFIT_POINTS)
    elif workload == "train-2048":
        write_clouds("data", rng.choice(dataio.SHAPE_KINDS, TRAIN_2048_SHAPES), TRAIN_2048_POINTS)
    elif workload == "infer-2048":
        for i, kind in enumerate(LABELLED_KINDS):
            scan = dataio.synth_shape(kind, SCAN_POINTS, seed=shape_seed())
            dataio.save_cloud(os.path.join(directory, f"scan_{i}.xyz"), scan)
        write_clouds("refs", rng.choice(dataio.SHAPE_KINDS, EVAL_SHAPES), REFERENCE_POINTS)
        config = model.GeneratorConfig.from_dict(
            {**model.preset("2048").to_dict(), "vae_mode": True}
        )
        params = model.init_parameters(config, seed=0)
        training.save_checkpoint(os.path.join(directory, "model.rpgk"), params)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _train(seed, flags, epochs, n_shapes, batch):
    from pointtree import training

    steps = epochs * -(-n_shapes // batch)
    argv = ["train", "--data", "data", "--out", "out", *flags,
            "--batch-size", str(batch), "--epochs", str(epochs), "--seed", str(seed)]
    return Command(
        "train", argv, epochs * n_shapes, ["out/checkpoint.rpgk", "out/log.csv"],
        lambda stdout: checks.check_train(
            stdout, "out/log.csv", "out/checkpoint.rpgk", epochs, steps,
            training.load_checkpoint,
        ),
    )


def commands(workload: str, seed: int) -> list:
    """The cycle of CLI commands one round of `workload` runs, in order.

    Paths are relative to the inputs directory, the working directory of
    every command; outputs go to its `out` subdirectory.
    """
    os.makedirs("out", exist_ok=True)
    if workload == "train-overfit":
        flags = ["--k-schedule", "4,4,4", "--latent-width", "64", "--embed-width", "32",
                 "--mlp-hidden", "128,128", "--learning-rate", "5e-3",
                 "--final-lr-fraction", "0.01", "--weight-decay", "0",
                 "--reg-weight", "5e-5"]
        return [_train(seed, flags, OVERFIT_EPOCHS, OVERFIT_SHAPES, OVERFIT_SHAPES)]
    if workload == "train-2048":
        return [_train(seed, ["--preset", "2048"], 1, TRAIN_2048_SHAPES, TRAIN_2048_SHAPES)]
    if workload != "infer-2048":
        raise ValueError(f"unknown workload {workload!r}")
    leaves = 2048
    refs = sorted(os.path.join("refs", n) for n in os.listdir("refs"))
    gens = [f"out/gen/gen_{i:03d}.ply" for i in range(EVAL_SHAPES)]
    ckpt = ["--ckpt", "model.rpgk"]
    return [
        Command("reconstruct",
                ["reconstruct", *ckpt, "--input", "scan_0.xyz", "--out", "out/recon.ply"],
                1, ["out/recon.ply"],
                lambda out: checks.check_reconstruct(out, "scan_0.xyz", "out/recon.ply", leaves)),
        Command("segment",
                ["segment", *ckpt, "--input", "scan_1.xyz", "--out", "out/segment.ply"],
                1, ["out/segment.ply"],
                lambda out: checks.check_segment(out, "scan_1.xyz", "out/segment.ply", leaves)),
        Command("generate",
                ["generate", *ckpt, "--n", str(EVAL_SHAPES), "--seed", str(seed),
                 "--out", "out/gen"],
                EVAL_SHAPES, gens,
                lambda out: checks.check_generate(gens, leaves)),
        # same seed as generate, so eval samples exactly the clouds just written
        Command("eval",
                ["eval", *ckpt, "--reference", "refs", "--n-generated", str(EVAL_SHAPES),
                 "--seed", str(seed), "--threads", "1"],
                EVAL_SHAPES, [],
                lambda out: checks.check_eval(out, refs, gens)),
    ]


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(time.perf_counter() - _STARTED)
