"""Objective assembly, AdamW, the training loop, and checkpoint files.

The objective is reconstruction Chamfer distance plus a small penalty on
the movement radii (which pushes sibling groups to tighten around their
parents), plus a KL term when the model is variational. Nearest-neighbour
correspondences are recomputed every step but held fixed inside each
gradient evaluation, the standard subgradient of a min.

Training is single-threaded and seeded; two runs with the same inputs
produce bit-identical parameters, logs, and checkpoint files.

A batch expands as one forest: the encoder's per-point layers and every
expansion stage run once over all of the batch's shapes (an `ad.Stack`),
while each shape keeps its own tape, which records one entry per primitive
with that shape's rows, exactly as encoding and expanding the shape alone
would. The shape tapes join the step's tape in shape order before the
cross-shape sums, so the record, and with it every gradient, checkpoint and
`log.csv` byte, is the one a shape-by-shape loop produces.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import geometry
from .dataio import atomic_write
from .model import (  # noqa: F401  (perfbench/tracing.py wraps training.encode)
    GeneratorConfig, Parameters, check_field_types, encode, encode_batch, expansion_graph,
    init_parameters, parameter_spec,
)

CHECKPOINT_MAGIC = b"RPGK"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    reg_weight: float = 5e-5  # weight of the radius penalty
    kl_weight: float = 1e-3  # weight of the KL term once warmed up
    kl_warmup_fraction: float = 0.1  # share of epochs over which KL ramps in
    learning_rate: float = 1e-3
    final_lr_fraction: float = 1.0  # cosine-decay floor as a share of learning_rate
    batch_size: int = 64
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-4
    epochs: int = 2000
    seed: int = 0
    save_every: int = 0  # checkpoint interval in epochs; 0 writes only the final one

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.final_lr_fraction <= 1.0:
            raise ValueError("final_lr_fraction must lie in (0, 1]")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be non-negative")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
        if not 0.0 <= self.kl_warmup_fraction <= 1.0:
            raise ValueError("kl_warmup_fraction must lie in [0, 1]")
        if self.save_every < 0:
            raise ValueError("save_every must be non-negative; 0 writes only the final checkpoint")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def _sum_chain(tensors):
    out = tensors[0]
    for t in tensors[1:]:
        out = ad.add(out, t)
    return out


def chamfer_loss(pred: ad.Tensor, target_points) -> ad.Tensor:
    """Differentiable symmetric Chamfer distance against a fixed cloud.

    `pred` is an (n, 3) tensor on the tape; `target_points` is data.
    Correspondences come from `geometry.chamfer_matches` and are frozen
    into gather indices, so the gradient is the exact subgradient of the
    min-based loss.
    """
    target = np.asarray(getattr(target_points, "points", target_points), dtype=pred.dtype)
    (nearest_data, _), (nearest_pred, _) = geometry.chamfer_matches(pred.data, target)
    target_const = ad.Tensor(target)
    # mean row-wise squared distance == mean over all entries times 3
    to_pred = ad.add(target_const, ad.scale(ad.gather_rows(pred, nearest_pred), -1.0))
    to_data = ad.add(pred, ad.scale(ad.gather_rows(target_const, nearest_data), -1.0))
    return ad.add(
        ad.scale(ad.tensor_mean(ad.square(to_pred)), 3.0),
        ad.scale(ad.tensor_mean(ad.square(to_data)), 3.0),
    )


def gaussian_kl(mu: ad.Tensor, logvar: ad.Tensor) -> ad.Tensor:
    """KL(N(mu, diag(exp(logvar))) || N(0, I)) = 0.5 sum(mu^2 + var - 1 - logvar)."""
    width = ad.Tensor(np.asarray(float(mu.size), dtype=mu.dtype))
    spread = ad.add(ad.tensor_sum(ad.square(mu)), ad.tensor_sum(ad.exp(logvar)))
    offset = ad.add(ad.tensor_sum(logvar), width)
    return ad.scale(ad.add(spread, ad.scale(offset, -1.0)), 0.5)


def total_loss(params: Parameters, batch, config: TrainConfig, rng=None, kl_weight=None):
    """Batch-mean objective and its components.

    Returns (scalar tensor, {"cd", "reg", "kl", "total"}). `kl_weight`
    overrides the config value (the fit loop passes the warmed-up weight);
    variational models need `rng` for the reparameterization draw.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    gen = params.config
    if gen.vae_mode and rng is None:
        raise ValueError("vae_mode needs an rng for the reparameterization draw")
    cd_terms, reg_terms, kl_terms = [], [], []
    with ad.shape_tapes(len(batch)) as tapes:
        latents = []
        for code, tape in zip(encode_batch(batch, params, tapes), tapes):
            with tape:
                if gen.vae_mode:
                    mu, logvar = code
                    noise = ad.Tensor(rng.standard_normal(gen.latent_width).astype(params.dtype))
                    latents.append(ad.add(mu, ad.mul(ad.exp(ad.scale(logvar, 0.5)), noise)))
                    kl_terms.append(gaussian_kl(mu, logvar))
                else:
                    latents.append(code)
        points, _, scales, _ = expansion_graph(ad.stack(latents, tapes), params)
        for i, (cloud, tape) in enumerate(zip(batch, tapes)):
            with tape:
                cd_terms.append(chamfer_loss(points[-1].parts[i], cloud))
                stage_means = [ad.tensor_mean(s.parts[i]) for s in scales[1:]]
                reg_terms.append(ad.scale(_sum_chain(stage_means), 1.0 / gen.stage_count))
    inv_batch = 1.0 / len(batch)
    cd = ad.scale(_sum_chain(cd_terms), inv_batch)
    reg = ad.scale(_sum_chain(reg_terms), inv_batch)
    total = ad.add(cd, ad.scale(reg, config.reg_weight))
    components = {"cd": cd.item(), "reg": reg.item(), "kl": 0.0}
    if kl_terms:
        kl = ad.scale(_sum_chain(kl_terms), inv_batch)
        beta = config.kl_weight if kl_weight is None else kl_weight
        total = ad.add(total, ad.scale(kl, beta))
        components["kl"] = kl.item()
    components["total"] = total.item()
    return total, components


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: Parameters) -> "OptimizerState":
        return cls(
            m={n: np.zeros_like(t.data) for n, t in params.items()},
            v={n: np.zeros_like(t.data) for n, t in params.items()},
        )


def adamw_step(params: Parameters, grads: dict, state: OptimizerState,
               config: TrainConfig, lr=None):
    """One decoupled-weight-decay Adam update, in place on params and state.

    `lr` overrides the config rate; the fit loop passes the scheduled value.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr = config.learning_rate if lr is None else lr
    for name, tensor in params.items():
        g = grads[tensor].data
        if g.shape != tensor.shape:
            raise ValueError(f"gradient shape {g.shape} mismatches {name} {tensor.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + config.adam_eps) + lr * config.weight_decay * tensor.data
    return state


def kl_ramp(epoch: int, config: TrainConfig) -> float:
    """Linear KL warm-up multiplier for the given zero-based epoch."""
    warmup = max(1, int(round(config.kl_warmup_fraction * config.epochs)))
    return min(1.0, (epoch + 1) / warmup)


def scheduled_lr(epoch: int, config: TrainConfig) -> float:
    """Cosine decay from learning_rate down to its final_lr_fraction.

    The default fraction of 1 keeps the rate constant. With one epoch the
    schedule is a single point, so the full rate applies.
    """
    if config.final_lr_fraction == 1.0 or config.epochs == 1:
        return config.learning_rate
    floor = config.learning_rate * config.final_lr_fraction
    span = config.learning_rate - floor
    phase = 0.5 * (1.0 + np.cos(np.pi * epoch / (config.epochs - 1)))
    return float(floor + span * phase)


def fit(dataset, gen_config: GeneratorConfig, config: TrainConfig, out_dir=None):
    """Train from scratch on a list of normalized clouds, such as the one
    `dataio.load_dataset` returns.

    Returns (Parameters, log) where the log holds one dict per epoch with
    the mean loss components. When `out_dir` is given, checkpoints land
    there: one per `save_every` epochs plus `checkpoint.rpgk` at the end.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    params = init_parameters(gen_config, seed=config.seed)
    state = OptimizerState.for_params(params)
    rng = np.random.default_rng(config.seed)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        sums = {"cd": 0.0, "reg": 0.0, "kl": 0.0, "total": 0.0}
        for batch_index, start in enumerate(range(0, len(dataset), config.batch_size)):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            comps = _train_step(params, batch, state, config, rng, epoch, batch_index)
            for key in sums:
                sums[key] += comps[key] * len(batch)
        record = {"epoch": epoch}
        record.update({k: sums[k] / len(dataset) for k in ("cd", "reg", "kl", "total")})
        log.append(record)
        if out_dir is None:
            continue
        due = []
        if config.save_every and (epoch + 1) % config.save_every == 0:
            due.append(f"checkpoint_epoch{epoch + 1:05d}.rpgk")
        if epoch + 1 == config.epochs:
            due.append("checkpoint.rpgk")
        for name in due:
            save_checkpoint(
                f"{out_dir}/{name}", params, opt_state=state, train_config=config, step=state.step
            )
    return params, log


def _train_step(params, batch, state, config, rng, epoch, batch_index):
    """One AdamW step on `batch`; returns its loss components.

    The step's tape and gradients die with the call, so neither the next
    step's forward nor a checkpoint write runs beside them.
    """
    with ad.Tape() as tape:
        loss, comps = total_loss(
            params,
            batch,
            config,
            rng=rng,
            kl_weight=config.kl_weight * kl_ramp(epoch, config),
        )
    if not np.isfinite(comps["total"]):
        raise RuntimeError(f"non-finite loss at epoch {epoch}, batch {batch_index}: {comps}")
    grads = ad.backward(loss, tape, leaves=[t for _, t in params.items()])
    adamw_step(params, grads, state, config, lr=scheduled_lr(epoch, config))
    return comps


# ---------------------------------------------------------------------------
# checkpoint file format
#
# magic "RPGK" | u32 version | u32 header length | header JSON (utf-8) |
# payload of raw little-endian float32, one slab per manifest entry.
# The header carries both configs, the optimizer step, and the manifest
# (name, shape, byte offset). The manifest is the layout the generator
# config implies (`checkpoint_layout`): the parameters in `parameter_spec`
# order, then, with optimizer state, every opt.m.<param> and every
# opt.v.<param>, each slab right after the one before. A file loads only if
# its manifest equals that layout, as canonical JSON, and its payload ends
# with the last slab.
# ---------------------------------------------------------------------------


def checkpoint_layout(config: GeneratorConfig, has_optimizer: bool):
    """The manifest a checkpoint of `config` holds, and its payload length.

    One entry {"name", "shape", "offset"} per slab, the offset in bytes
    from the start of the payload; shapes and offsets are Python ints.
    """
    slabs = [(name, shape) for name, shape, _, _ in parameter_spec(config)]
    if has_optimizer:
        slabs += [(f"opt.{m}.{name}", shape) for m in "mv" for name, shape in slabs]
    manifest, offset = [], 0
    for name, shape in slabs:
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    return manifest, offset


def save_checkpoint(path, params: Parameters, opt_state=None, train_config=None, step=0):
    manifest, _ = checkpoint_layout(params.config, opt_state is not None)
    arrays = [tensor.data for _, tensor in params.items()]
    if opt_state is not None:
        arrays += [moments[n] for moments in (opt_state.m, opt_state.v) for n in params.names()]
    for entry, array in zip(manifest, arrays):
        if list(array.shape) != entry["shape"]:
            raise ValueError(f"{entry['name']} has shape {array.shape}, "
                             f"its config needs {tuple(entry['shape'])}")
    header = {
        "generator": params.config.to_dict(),
        "train": train_config.to_dict() if train_config is not None else None,
        "step": int(step),
        "has_optimizer": opt_state is not None,
        "manifest": manifest,
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for array in arrays:  # each slab straight from its array, no joined payload
            fh.write(np.ascontiguousarray(array, dtype="<f4"))


def load_checkpoint(path):
    """Restore (params, opt_state, train_config, step) from a checkpoint file.

    The manifest and the payload length are checked against the layout the
    header's generator config implies before any array is made; each slab
    is then read straight into its own array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(12)
        if len(prefix) < 12 or prefix[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        version, header_len = struct.unpack_from("<II", prefix, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if size < 12 + header_len:
            raise ValueError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise ValueError(f"{path}: header is not UTF-8 JSON: {exc}") from None
        config = _header_value(path, header, "generator", GeneratorConfig.from_dict)
        train_config = _header_value(
            path, header, "train", lambda d: None if d is None else TrainConfig.from_dict(d)
        )
        step = _header_value(path, header, "step", _of_type(int))
        has_optimizer = _header_value(path, header, "has_optimizer", _of_type(bool))
        manifest, payload_len = checkpoint_layout(config, has_optimizer)
        found = _header_value(path, header, "manifest", _of_type(list))
        if _canonical(found) != _canonical(manifest):
            raise ValueError(f"{path}: {_first_difference(found, manifest)}")
        body_len = size - 12 - header_len
        if body_len < payload_len:
            raise ValueError(f"{path}: truncated payload: {body_len} bytes, "
                             f"the manifest needs {payload_len}")
        if body_len > payload_len:
            raise ValueError(
                f"{path}: {body_len - payload_len} trailing bytes after the last manifest slab"
            )
        arrays = []
        for entry in manifest:
            arrays.append(np.empty(entry["shape"], dtype="<f4"))
            if fh.readinto(arrays[-1]) != arrays[-1].nbytes:  # the file shrank
                raise ValueError(f"{path}: truncated payload at {entry['name']}")

    count = len(manifest) // 3 if has_optimizer else len(manifest)
    names = [entry["name"] for entry in manifest[:count]]
    params = Parameters(
        config, {n: ad.Tensor(a, requires_grad=True) for n, a in zip(names, arrays)}
    )
    opt_state = None
    if has_optimizer:  # zip stops at the last name: m's slabs, then v's
        opt_state = OptimizerState(
            m=dict(zip(names, arrays[count:])), v=dict(zip(names, arrays[2 * count :])), step=step
        )
    return params, opt_state, train_config, step


def _header_value(path, header, key, parse):
    """`parse(header[key])`; any failure is a ValueError naming the file and key."""
    try:
        return parse(header[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: checkpoint header key {key!r}: {exc!r}") from None


def _of_type(kind):
    def check(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    return check


def _canonical(value) -> str:
    # compact JSON with sorted keys: 8, 8.0 and true differ, as they must
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _first_difference(found, manifest) -> str:
    # names the first entry where a manifest leaves the layout
    for i in range(max(len(found), len(manifest))):
        got = _canonical(found[i]) if i < len(found) else "missing"
        want = _canonical(manifest[i]) if i < len(manifest) else "nothing"
        if got != want:
            return f"manifest entry {i} is {got}, the config implies {want}"
