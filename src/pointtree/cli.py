"""Command-line workflows: train, reconstruct, generate, interpolate,
segment, eval, inspect.

Exit codes: 0 on success, 1 for usage errors (bad flags or invocation),
2 for runtime failures (unreadable files, non-finite losses).

Configuration comes from an optional JSON file with "generator" and
"train" sections whose keys mirror the config dataclass fields; explicit
command-line flags override file values. Every command that writes
outputs also writes a manifest JSON recording the resolved configs, seed,
input paths, and toolkit version, and is deterministic given that
manifest. Manifests carry no timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__, dataio, metrics, model, training
from .geometry import chamfer_distance, normalize_cloud
from .model import GeneratorConfig
from .training import TrainConfig


class UsageError(Exception):
    """Bad invocation; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through UsageError
    # so main() can report status 1 instead
    def error(self, message):
        raise UsageError(message)


def _int_tuple(text: str) -> tuple:
    try:
        values = tuple(int(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# configuration resolution: defaults < preset < config file < flags
# ---------------------------------------------------------------------------


_CONFIG_SECTIONS = {"generator": GeneratorConfig, "train": TrainConfig}


def _load_config_file(path) -> dict:
    """Read a config file; each bad section or value is named as `section.key`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    unknown = set(raw) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ValueError(f"{path}: unknown config sections {sorted(unknown)}")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ValueError(f"{path}: config section {name!r} must be a JSON object")
        cls = _CONFIG_SECTIONS[name]
        known = sorted(f.name for f in fields(cls))
        for key, value in section.items():
            where = f"{path}: {name}.{key}"
            if key not in known:
                raise ValueError(f"{where}: unknown key; known keys are {known}")
            try:
                cls(**{key: value})  # the field's type and range checks, key by key
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from None
    return raw


def resolve_configs(args) -> tuple:
    """Merge preset, config file, and flags into the two config objects."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    gen = (
        model.preset(args.preset).to_dict()
        if getattr(args, "preset", None)
        else GeneratorConfig().to_dict()
    )
    gen.update(file_cfg.get("generator", {}))
    train = TrainConfig().to_dict()
    train.update(file_cfg.get("train", {}))
    # each flag's dest is the config field it sets; fields with no flag keep
    # their default or file value
    for cls, resolved in ((GeneratorConfig, gen), (TrainConfig, train)):
        for f in fields(cls):
            value = getattr(args, f.name, None)
            if value is not None:
                resolved[f.name] = value
    return GeneratorConfig.from_dict(gen), TrainConfig.from_dict(train)


def _write_manifest(path, command, inputs, output_dir, generator=None, train=None, **extra):
    payload = {
        "command": command,
        "generator": generator.to_dict() if generator is not None else None,
        "inputs": [str(p) for p in inputs],
        "output_dir": str(output_dir),
        "train": train.to_dict() if train is not None else None,
        "version": __version__,
    }
    payload.update(extra)
    with dataio.atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _latent(cloud, params) -> np.ndarray:
    """Deterministic code for a cloud: the posterior mean in vae mode."""
    out = model.encode(cloud, params)
    if params.config.vae_mode:
        return out[0].data
    return out.data


def _sampled_latents(seed: int, n: int, params):
    """The n latent codes that `generate` and `eval` draw for one --seed.

    The seed is checked at once; the codes are drawn one at a time as the
    caller iterates, so `generate` holds one code however large n is.
    """
    if seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    width, dtype = params.config.latent_width, params.dtype
    return (rng.standard_normal(width).astype(dtype) for _ in range(n))


def _load_params(path):
    params, _, train_config, step = training.load_checkpoint(path)
    return params, train_config, step


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    gen_config, train_config = resolve_configs(args)
    paths = dataio.resolve_cloud_paths(args.data)
    dataset = dataio.load_dataset(paths)
    os.makedirs(args.out, exist_ok=True)
    params, log = training.fit(dataset, gen_config, train_config, out_dir=args.out)
    log_path = os.path.join(args.out, "log.csv")
    with dataio.atomic_write(log_path) as fh:
        fh.write(",".join(log[0]) + "\n")
        for entry in log:
            fh.write(",".join(map(repr, entry.values())) + "\n")
    _write_manifest(
        os.path.join(args.out, "manifest.json"),
        "train",
        paths,
        args.out,
        generator=gen_config,
        train=train_config,
        seed=train_config.seed,
    )
    print(f"trained {train_config.epochs} epochs on {len(dataset)} shapes")
    print(f"final loss: {log[-1]['total']:.6g}")
    print(f"checkpoint: {os.path.join(args.out, 'checkpoint.rpgk')}")
    return 0


def _render_input(args, command, level=None):
    """The one path of `reconstruct` and `segment`.

    Loads the checkpoint, then normalizes, encodes and regenerates the
    input cloud, and writes the leaves coloured by their ancestor at
    `level` (`model.default_part_stage` when None) with the manifest beside
    them; `segment`'s manifest records the stage as "level". A level the
    model lacks is refused before the input is read. Returns the cloud,
    the trace and the stage.
    """
    params, _, _ = _load_params(args.ckpt)
    stage_count = params.config.stage_count
    if level is not None and not 0 <= level < stage_count:
        raise UsageError(f"--level must lie in [0, {stage_count - 1}] for this model")
    cloud = normalize_cloud(dataio.load_cloud(args.input))
    trace = model.generate(_latent(cloud, params), params)
    stage = model.default_part_stage(params.config) if level is None else level
    dataio.export_ply(trace, args.out, color_mode="by_ancestor", ancestor_stage=stage)
    base, _ = os.path.splitext(str(args.out))
    _write_manifest(
        base + ".manifest.json",
        command,
        [args.ckpt, args.input],
        os.path.dirname(str(args.out)) or ".",
        generator=params.config,
        **({"level": stage} if command == "segment" else {}),
    )
    return cloud, trace, stage


def _cmd_reconstruct(args) -> int:
    cloud, trace, _ = _render_input(args, "reconstruct")
    cd = chamfer_distance(cloud.points, trace.leaf_points())
    print(f"reconstruction cd: {cd * 1e4:.6g} (x 1e4)")
    print(f"wrote {args.out}")
    return 0


def _cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be a positive count")
    params, _, _ = _load_params(args.ckpt)
    if not params.config.vae_mode:
        raise UsageError(
            "sampling needs a variational checkpoint; this one is deterministic"
        )
    latents = _sampled_latents(args.seed, args.n, params)
    os.makedirs(args.out, exist_ok=True)
    for i, z in enumerate(latents):
        # no name keeps a trace, so each is freed before the next is drawn
        dataio.export_ply(
            model.generate(z, params),
            os.path.join(args.out, f"gen_{i:03d}.ply"),
            color_mode="by_ancestor",
        )
    _write_manifest(
        os.path.join(args.out, "manifest.json"),
        "generate",
        [args.ckpt],
        args.out,
        generator=params.config,
        seed=args.seed,
        n=args.n,
    )
    print(f"wrote {args.n} sampled shapes to {args.out}")
    return 0


def _cmd_interpolate(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    params, _, _ = _load_params(args.ckpt)
    cloud_a = normalize_cloud(dataio.load_cloud(args.a))
    cloud_b = normalize_cloud(dataio.load_cloud(args.b))
    path = dataio.interpolate_latents(
        _latent(cloud_a, params), _latent(cloud_b, params), args.steps
    )
    os.makedirs(args.out, exist_ok=True)
    for i, z in enumerate(path):
        trace = model.generate(z, params)
        target = os.path.join(args.out, f"step_{i:02d}.ply")
        dataio.export_ply(trace, target, color_mode="by_ancestor")
        if args.all_stages:
            dataio.export_ply(trace, target, color_mode="by_stage")
        del trace  # freed before the next step's trace is drawn
    _write_manifest(
        os.path.join(args.out, "manifest.json"),
        "interpolate",
        [args.ckpt, args.a, args.b],
        args.out,
        generator=params.config,
        steps=args.steps,
    )
    print(f"wrote {args.steps} interpolation steps to {args.out}")
    return 0


def _cmd_segment(args) -> int:
    cloud, trace, stage = _render_input(args, "segment", args.level)
    print(f"wrote {args.out}")
    if cloud.labels is not None:
        part = model.segment(trace, trace.config.stage_count, stage)
        predicted = metrics.transfer_labels(trace.leaf_points(), part, cloud.points)
        print(f"purity: {metrics.purity(predicted, cloud.labels):.6g}")
    return 0


def _cmd_eval(args) -> int:
    if args.n_generated < 1:
        raise UsageError("--n-generated must be a positive count")
    if args.threads < 1:
        raise UsageError("--threads must be a positive count")
    params, _, _ = _load_params(args.ckpt)
    if not params.config.vae_mode:
        raise UsageError(
            "evaluation samples new shapes; it needs a variational checkpoint"
        )
    reference = dataio.load_dataset(args.reference)
    if args.n_reference is not None:
        if not 1 <= args.n_reference <= len(reference):
            raise UsageError(
                f"--n-reference must lie in [1, {len(reference)}] for this set"
            )
        reference = reference[: args.n_reference]
    generated = [
        model.generate(z, params).leaf_points()
        for z in _sampled_latents(args.seed, args.n_generated, params)
    ]
    records = metrics.generation_metrics(reference, generated, threads=args.threads)
    print(metrics.render_records(records))
    return 0


def _cmd_inspect(args) -> int:
    params, train_config, step = _load_params(args.ckpt)
    config = params.config
    print("generator config:")
    print(f"  k_schedule: {list(config.k_schedule)}")
    print(f"  leaf_count: {config.leaf_count}")
    print(f"  latent_width: {config.latent_width}")
    print(f"  embed_width: {config.embed_width}")
    print(f"  mlp_hidden: {list(config.mlp_hidden)}")
    print(f"  vae_mode: {config.vae_mode}")
    if train_config is not None:
        print("train config:")
        for key, value in train_config.to_dict().items():
            print(f"  {key}: {value}")
    print(f"step: {step}")
    print("parameters:")
    for name, tensor in params.items():
        print(f"  {name}  {tuple(tensor.shape)}")
    print(f"total parameters: {params.total_count()}")
    print(f"encoder parameters: {params.encoder_count()}")
    print(f"generator parameters: {params.generator_count()}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_config_flags(sub):
    sub.add_argument("--config", help="JSON config file with generator/train sections")
    sub.add_argument("--preset", choices=tuple(model.PRESETS), help="named generator size")
    sub.add_argument("--k-schedule", dest="k_schedule", type=_int_tuple)
    sub.add_argument("--latent-width", dest="latent_width", type=int)
    sub.add_argument("--embed-width", dest="embed_width", type=int)
    sub.add_argument("--mlp-hidden", dest="mlp_hidden", type=_int_tuple)
    sub.add_argument("--vae", dest="vae_mode", action=argparse.BooleanOptionalAction)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--learning-rate", dest="learning_rate", type=float)
    sub.add_argument("--final-lr-fraction", dest="final_lr_fraction", type=float,
                     help="cosine-decay the rate down to this fraction (1 = constant)")
    sub.add_argument("--weight-decay", dest="weight_decay", type=float)
    sub.add_argument("--reg-weight", dest="reg_weight", type=float)
    sub.add_argument("--kl-weight", dest="kl_weight", type=float)
    sub.add_argument("--kl-warmup-fraction", dest="kl_warmup_fraction", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--save-every", dest="save_every", type=int)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pointtree", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="fit a model on a cloud directory or list")
    _add_config_flags(train)
    train.add_argument("--data", required=True, help="cloud directory, list file, or file")
    train.add_argument("--out", required=True, help="output directory")
    train.set_defaults(handler=_cmd_train)

    recon = subs.add_parser("reconstruct", help="encode and regenerate one cloud")
    recon.add_argument("--ckpt", required=True)
    recon.add_argument("--input", required=True)
    recon.add_argument("--out", required=True, help="output PLY path")
    recon.set_defaults(handler=_cmd_reconstruct)

    gen = subs.add_parser("generate", help="sample new shapes from a variational model")
    gen.add_argument("--ckpt", required=True)
    gen.add_argument("--n", type=int, required=True, help="number of shapes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(handler=_cmd_generate)

    interp = subs.add_parser("interpolate", help="walk the latent line between two clouds")
    interp.add_argument("--ckpt", required=True)
    interp.add_argument("--a", required=True, help="first cloud")
    interp.add_argument("--b", required=True, help="second cloud")
    interp.add_argument("--steps", type=int, default=5)
    interp.add_argument("--out", required=True, help="output directory")
    interp.add_argument("--all-stages", dest="all_stages", action="store_true",
                        help="also write every intermediate stage per step")
    interp.set_defaults(handler=_cmd_interpolate)

    seg = subs.add_parser("segment", help="color a cloud by learned ancestor parts")
    seg.add_argument("--ckpt", required=True)
    seg.add_argument("--input", required=True)
    seg.add_argument("--level", type=int, default=None,
                     help="ancestor stage for parts (default: 1, or 0 for a one-stage model)")
    seg.add_argument("--out", required=True, help="output PLY path")
    seg.set_defaults(handler=_cmd_segment)

    ev = subs.add_parser("eval", help="set-level generation metrics against a reference")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--reference", required=True, help="cloud directory or list file")
    ev.add_argument("--n-generated", dest="n_generated", type=int, required=True)
    ev.add_argument("--n-reference", dest="n_reference", type=int, default=None,
                    help="use only the first k reference clouds")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--threads", type=int, default=1)
    ev.set_defaults(handler=_cmd_eval)

    ins = subs.add_parser("inspect", help="print a checkpoint's configs and tensors")
    ins.add_argument("--ckpt", required=True)
    ins.set_defaults(handler=_cmd_inspect)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def main(argv=None) -> int:
    try:
        return run_cli(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help / --version exit directly
        code = exc.code
        return 0 if code in (0, None) else int(code)
    except (ValueError, TypeError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
