"""The recursive point cloud generator.

A shape is produced coarse to fine: starting from a single root point at
the origin with the whole latent code as its structural representation and
a movement radius of 1, every stage splits each point into k(d) children.
One shared pair of matrices turns a parent's position and representation
into the representation its children inherit; one shared MLP, fed that
representation next to a per-child stage embedding, emits each child's
offset direction and a contraction of the movement radius. Offsets are
normalized by the largest sibling offset, so every child lands inside its
parent's radius and radii shrink monotonically along any root-to-leaf path.

Because children occupy contiguous output slots, the stages form an
explicit tree; labelling leaves by their ancestor at a chosen stage yields
an unsupervised part segmentation.

Everything here is built from the autodiff primitives, whose products
accumulate in fixed index order. Batched stage computation is therefore
bit-identical to expanding one point at a time, and the encoder is exactly
permutation invariant, not approximately so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad

ENCODER_WIDTHS = (64, 128, 256)  # shared per-point MLP, applied to every point
OFFSET_NORM_FLOOR = 1e-12  # sibling offsets may all vanish; never divide by zero


@dataclass
class GeneratorConfig:
    """Architecture description; the branching schedule fixes the leaf count."""

    k_schedule: tuple = (8, 4, 4, 4, 4)
    latent_width: int = 512
    embed_width: int = 64
    mlp_hidden: tuple = (256, 256)
    vae_mode: bool = False

    def __post_init__(self):
        self.k_schedule = tuple(int(k) for k in self.k_schedule)
        self.mlp_hidden = tuple(int(w) for w in self.mlp_hidden)
        if len(self.k_schedule) < 1:
            raise ValueError("k_schedule must name at least one stage")
        if any(k < 1 for k in self.k_schedule):
            raise ValueError(f"branching factors must be >= 1, got {self.k_schedule}")
        if min(self.latent_width, self.embed_width) < 1:
            raise ValueError("latent_width and embed_width must be positive")
        if len(self.mlp_hidden) < 1 or any(w < 1 for w in self.mlp_hidden):
            raise ValueError("mlp_hidden needs at least one positive width")

    @property
    def stage_count(self) -> int:
        return len(self.k_schedule)

    @property
    def leaf_count(self) -> int:
        return int(np.prod(self.k_schedule, dtype=np.int64))

    def stage_sizes(self) -> list:
        """Point count after each stage, length stage_count + 1, starts at 1."""
        sizes = [1]
        for k in self.k_schedule:
            sizes.append(sizes[-1] * k)
        return sizes

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        return cls(**d)


# named default architectures, keyed by their leaf count: the branching
# schedule of each; every other field keeps its default
PRESETS = {"2048": (8, 4, 4, 4, 4), "3125": (5, 5, 5, 5, 5)}


def preset(name: str) -> GeneratorConfig:
    """A fresh config for one of the `PRESETS`."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return GeneratorConfig(k_schedule=PRESETS[name])


def parameter_spec(config: GeneratorConfig) -> list:
    """Canonical ordered list of (name, shape, init_kind, fan_in).

    The order is the initialization draw order and the checkpoint manifest
    order, so it must stay stable.
    """
    spec = []

    def linear(prefix, n_in, n_out):
        spec.append((f"{prefix}.w", (n_in, n_out), "uniform", n_in))
        spec.append((f"{prefix}.b", (n_out,), "uniform", n_in))

    prev = 3
    for i, width in enumerate(ENCODER_WIDTHS):
        linear(f"enc.pp{i}", prev, width)
        prev = width
    if config.vae_mode:
        linear("enc.mu", prev, config.latent_width)
        linear("enc.logvar", prev, config.latent_width)
    else:
        linear("enc.head", prev, config.latent_width)

    u = config.latent_width
    spec.append(("sub.ms", (u, 3), "uniform", 3))
    spec.append(("sub.mh", (u, u), "uniform", u))

    prev = config.embed_width + u
    for i, width in enumerate(config.mlp_hidden):
        linear(f"exp.l{i}", prev, width)
        prev = width
    linear("exp.offset", prev, 3)
    linear("exp.scale", prev, 1)

    for d, k in enumerate(config.k_schedule):
        spec.append((f"emb.d{d}", (k, config.embed_width), "embed", 0))
    return spec


class Parameters:
    """All trainable weights, keyed by name, plus the config they belong to."""

    def __init__(self, config: GeneratorConfig, tensors: dict):
        self.config = config
        self.tensors = tensors
        expected = [name for name, *_ in parameter_spec(config)]
        if list(tensors) != expected:
            raise ValueError("parameter set does not match the config's spec")

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.tensors[name]

    def names(self) -> list:
        return list(self.tensors)

    def items(self):
        return self.tensors.items()

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype

    def total_count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def encoder_count(self) -> int:
        return sum(t.size for n, t in self.tensors.items() if n.startswith("enc."))

    def generator_count(self) -> int:
        return self.total_count() - self.encoder_count()

    def astype(self, dtype) -> "Parameters":
        return Parameters(
            self.config,
            {
                n: ad.Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
                for n, t in self.tensors.items()
            },
        )

    def copy(self) -> "Parameters":
        return self.astype(self.dtype)


def init_parameters(config: GeneratorConfig, seed: int = 0, dtype=np.float32) -> Parameters:
    """Deterministic weights: fan-in-scaled uniform, embeddings normal x 0.1."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, kind, fan_in in parameter_spec(config):
        if kind == "embed":
            data = rng.standard_normal(shape) * 0.1
        else:
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = ad.Tensor(data.astype(dtype), requires_grad=True)
    return Parameters(config, tensors)


def _as_tensor(x, dtype) -> ad.Tensor:
    if isinstance(x, ad.Tensor):
        if x.dtype != dtype:
            raise TypeError(f"expected dtype {dtype}, got {x.dtype}")
        return x
    return ad.Tensor(np.asarray(x, dtype=dtype))


def encode_batch(clouds, params: Parameters, tapes=None) -> list:
    """Latent codes of several clouds, in order, each on its own shape's tape.

    The shared per-point layers run once over every cloud's points, as a
    Stack with one tape per cloud (`tapes`, from `ad.shape_tapes`); the
    max-pool and the head then run per cloud, on its tape. Without `tapes`
    there is one cloud, computed as plain tensors where the caller records.
    Each code is what `encode` returns for that cloud, byte for byte.
    """
    clouds = list(clouds)
    if tapes is None and len(clouds) != 1:
        raise ValueError("encoding several clouds at once needs one tape per cloud")
    points = []
    for cloud in clouds:
        pts = np.asarray(getattr(cloud, "points", cloud))
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"expected N x 3 points, got shape {pts.shape}")
        points.append(ad.Tensor(pts.astype(params.dtype, copy=False)))
    h = points[0] if tapes is None else ad.stack(points, tapes)
    for i in range(len(ENCODER_WIDTHS)):
        h = ad.linear(h, params[f"enc.pp{i}.w"], params[f"enc.pp{i}.b"], leaky=True)
    return ad.per_shape(h, lambda features: _encoder_head(features, params))


def _encoder_head(features, params: Parameters):
    pooled = ad.max_reduce(features, axis=0)  # (features,)
    if params.config.vae_mode:
        mu = ad.linear(pooled, params["enc.mu.w"], params["enc.mu.b"])
        logvar = ad.linear(pooled, params["enc.logvar.w"], params["enc.logvar.b"])
        return mu, logvar
    return ad.linear(pooled, params["enc.head.w"], params["enc.head.b"])


def encode(cloud, params: Parameters):
    """Whole-shape latent code from a point cloud.

    Shared per-point MLP, max-pool over points per feature, fully-connected
    head. Returns a (latent_width,) tensor, or (mu, log variance) when the
    config is variational. Exactly invariant to point order and duplication:
    per-point rows are computed independently and max is order-free.
    """
    return encode_batch([cloud], params)[0]


def extract_substructure(s, h, params: Parameters) -> ad.Tensor:
    """Representation handed to the children of a point: tanh(Ms s + Mh h).

    Takes one point, s (3,) with h (U,), or one per row, s (n, 3) with
    h (n, U). Each row is bit-identical to the one-point call: `s @ Ms^T`
    forms the products of `Ms @ s` and adds them in the same order, on
    the fixed-order kernel. Past the root, h is the previous stage's child
    representations, a gather of each parent's row once per sibling:
    `h @ Mh^T` reads that declared structure, computes each parent's row
    once and repeats it, with the same bytes. It is one `rep_update` entry
    on the tape, which keeps only the output.
    """
    s = _as_tensor(s, params.dtype)
    h = _as_tensor(h, params.dtype)
    u = params.config.latent_width
    if s.ndim not in (1, 2) or s.shape[-1] != 3 or h.shape != s.shape[:-1] + (u,):
        raise ValueError(f"expected shapes (3,) and ({u},), or (n, 3) and (n, {u})")
    return ad.rep_update(s, h, params["sub.ms"], params["sub.mh"])


def _expand_stage(points, reps, scales, stage: int, params: Parameters):
    """Split every point of one stage into its k(stage) children.

    points (n,3), reps (n,U), scales (n,1) -> child triple plus the parent
    index per child. Children of point i occupy slots [i*k, (i+1)*k).

    Sibling rows are declared, never copied in full: the child reps gather
    the parents' updated rows by the parent index (each row k times in
    turn) and the embeddings gather the k slot rows tiled over the parents.
    exp.l0 reads the blocks `[embeds, child_reps]` as their concatenation:
    its kernel forms each slot's chain over the embedding columns once, on
    the k slot rows, and continues every child's chain from its slot's
    prefix over its parent's row, so no joined per-child copy exists. The
    next stage's `h @ Mh^T` reads the parent index and runs once per
    parent, its rows repeated to the siblings, bit for bit.

    The three inputs may be Stacks, one row block per shape of a forest;
    the embedding gather and the offset floor are then made per shape.
    """
    config = params.config
    k = config.k_schedule[stage]
    n = points.shape[0]
    dtype = params.dtype

    parent_idx = np.repeat(np.arange(n, dtype=np.int64), k)
    sub = extract_substructure(points, reps, params)
    child_reps = ad.gather_rows(sub, parent_idx)  # siblings share one row
    slots = np.arange(k, dtype=np.int64)
    embeds = ad.each_shape(  # per shape, as in a one-shape expansion
        points, lambda p: ad.gather_rows(params[f"emb.d{stage}"], np.tile(slots, p.shape[0]))
    )

    t = [embeds, child_reps]
    for i in range(len(config.mlp_hidden)):
        w, b = params[f"exp.l{i}.w"], params[f"exp.l{i}.b"]
        t = ad.linear(t, w, b, leaky=True)
    offsets = ad.linear(t, params["exp.offset.w"], params["exp.offset.b"])
    raw_scale = ad.linear(t, params["exp.scale.w"], params["exp.scale.b"])

    child_scales = ad.mul(ad.sigmoid(raw_scale), ad.gather_rows(scales, parent_idx))

    # normalize offsets by the largest sibling offset so the farthest child
    # lands exactly on its shrunken radius and the rest stay inside it; the
    # floor sits last, so a tie still routes the gradient to the sibling
    floor = ad.each_shape(
        points, lambda p: ad.Tensor(np.full((p.shape[0], 1), OFFSET_NORM_FLOOR, dtype=dtype))
    )
    clamped = ad.max_reduce(ad.concat([ad.reshape(ad.norm(offsets), (n, k)), floor], axis=1))
    denom = ad.gather_rows(ad.reshape(clamped, (n, 1)), parent_idx)
    denom3 = ad.concat([denom, denom, denom], axis=1)
    radius3 = ad.concat([child_scales, child_scales, child_scales], axis=1)
    displacement = ad.mul(ad.div(offsets, denom3), radius3)

    child_points = ad.add(ad.gather_rows(points, parent_idx), displacement)
    return child_points, child_reps, child_scales, parent_idx


def expand_point(s, h, alpha: float, stage: int, params: Parameters):
    """Children of a single point: (k,3) positions, (k,U) reps, (k,) radii."""
    config = params.config
    if not 0 <= stage < config.stage_count:
        raise ValueError(f"stage {stage} outside 0..{config.stage_count - 1}")
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"movement radius must be positive, got {alpha}")
    pts = ad.reshape(_as_tensor(s, params.dtype), (1, 3))
    reps = ad.reshape(_as_tensor(h, params.dtype), (1, config.latent_width))
    scales = ad.Tensor(np.full((1, 1), alpha, dtype=params.dtype))
    cp, cr, cs, _ = _expand_stage(pts, reps, scales, stage, params)
    k = config.k_schedule[stage]
    return cp, cr, ad.reshape(cs, (k,))


@dataclass
class StageState:
    """One stage of an expansion: positions, radii and tree links.

    The structural representations are the generator's internal state, not
    part of its output; `expansion_graph` returns them as lazy gathers.
    """

    points: np.ndarray  # (n, 3)
    scales: np.ndarray  # (n,) movement radii, positive
    parent: np.ndarray | None  # (n,) index into the previous stage; None at root

    def __len__(self):
        return self.points.shape[0]


@dataclass
class GenerationTrace:
    """The tree of one generated shape, a stage per level, root first.

    The last stage is the output cloud; its parent links chain every leaf
    to its ancestor at each earlier stage.
    """

    config: GeneratorConfig
    stages: list = field(default_factory=list)

    def leaf_points(self) -> np.ndarray:
        return self.stages[-1].points


def expansion_graph(z, params: Parameters):
    """Differentiable unroll of all stages.

    Returns (points, reps, scales, parents) lists of tensors per stage,
    index 0 being the root. Callers wanting gradients run this under an
    active tape; `generate` wraps it for plain inference.

    `z` is one (latent_width,) code, or an `ad.stack` of several, one per
    shape: the shapes then expand together as a forest of roots, every
    stage a Stack, each shape's entries on its own tape, byte for byte as
    when expanded alone. Parent indices then run over the whole forest.
    """
    config = params.config
    z = _as_tensor(z, params.dtype)
    roots = len(ad.parts(z))
    if any(part.shape != (config.latent_width,) for part in ad.parts(z)):
        raise ValueError(f"latent code must have shape ({config.latent_width},)")
    points = [ad.each_shape(z, lambda _: ad.Tensor(np.zeros((1, 3), dtype=params.dtype)))]
    reps = [ad.reshape(z, (roots, config.latent_width))]
    scales = [ad.each_shape(z, lambda _: ad.Tensor(np.ones((1, 1), dtype=params.dtype)))]
    parents = [None]
    for stage in range(config.stage_count):
        cp, cr, cs, parent_idx = _expand_stage(points[-1], reps[-1], scales[-1], stage, params)
        points.append(cp)
        reps.append(cr)
        scales.append(cs)
        parents.append(parent_idx)
    return points, reps, scales, parents


def generate(z, params: Parameters) -> GenerationTrace:
    """Run the full expansion and keep its tree: points, radii, parent links."""
    points, _, scales, parents = expansion_graph(z, params)
    trace = GenerationTrace(config=params.config)
    for pt, sc, par in zip(points, scales, parents):
        trace.stages.append(StageState(points=pt.data, scales=sc.data.reshape(-1), parent=par))
    return trace


def default_part_stage(config: GeneratorConfig) -> int:
    """The ancestor stage that names parts unless one is chosen.

    Stage 1, the root's children; a one-stage model has no stage between
    the root and its leaves, so there it is 0, one part.
    """
    return 1 if config.stage_count >= 2 else 0


def segment(trace: GenerationTrace, d: int, d_ancestor: int) -> np.ndarray:
    """Label stage-d points by their ancestor's index at stage d_ancestor."""
    if not 0 <= d_ancestor < d <= trace.config.stage_count:
        raise ValueError(
            f"need 0 <= ancestor stage < stage <= {trace.config.stage_count}, "
            f"got ancestor {d_ancestor}, stage {d}"
        )
    labels = np.arange(len(trace.stages[d_ancestor]), dtype=np.int64)
    for j in range(d_ancestor + 1, d + 1):
        labels = labels[trace.stages[j].parent]
    return labels
