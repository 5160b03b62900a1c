"""Acceptance gate: the eight headline behaviours, one test each.

Every test prints a single PASS line with its measured numbers once its
assertions hold, so a verbose run reads as a checklist. Tolerances are
stated inline next to each assertion. The two training criteria (5, 6)
run real multi-minute fits with pinned hyperparameters; their seeds are
documented constants below, chosen once and then left alone.
"""

import json
import time

import numpy as np
import pytest

from gradcheck import check_grads, check_param_grads, rel_err
from pointtree import autodiff as ad
from pointtree import cli, dataio, geometry, metrics, model, training
from pointtree.geometry import NearestNeighborIndex, PointCloud, chamfer_distance

# ---------------------------------------------------------------------------
# shared experiment definitions
# ---------------------------------------------------------------------------

# The scaled-down experiment: ten 24-point labelled shapes, table-heavy so
# the shared generator sees enough of one category for consistent part
# splits, against a generator whose three quadrupling stages emit 64 leaves.
# Every seed below is pinned; the runs are deterministic end to end.
OVERFIT_SHAPES = (
    ("sphere", 10), ("box", 11), ("cylinder", 12), ("table", 13), ("tee", 14),
    ("table", 18), ("box", 16), ("table", 21), ("table", 3), ("tee", 19),
)
OVERFIT_POINTS = 24
OVERFIT_TABLE_INDEX = 7  # the table instance whose segmentation is scored
OVERFIT_GEN = dict(k_schedule=(4, 4, 4), latent_width=64, embed_width=32,
                   mlp_hidden=(128, 128))
OVERFIT_TRAIN = dict(epochs=2000, batch_size=10, learning_rate=5e-3,
                     final_lr_fraction=0.01, weight_decay=0.0,
                     reg_weight=5e-5, seed=0)

VAE_TRAIN = dict(epochs=1200, batch_size=10, learning_rate=5e-3,
                 final_lr_fraction=0.01, weight_decay=0.0,
                 reg_weight=5e-5, kl_weight=1e-3, kl_warmup_fraction=0.1,
                 seed=0)
VAE_SAMPLE_SEED = 3


def overfit_dataset():
    """Ten pinned surface samples over the five shape kinds."""
    return [
        dataio.synth_shape(kind, OVERFIT_POINTS, seed=s)
        for kind, s in OVERFIT_SHAPES
    ]


def reconstructor(params):
    def recon(cloud):
        code = model.encode(cloud, params)
        code = code[0] if params.config.vae_mode else code
        return model.generate(code.data, params).leaf_points()
    return recon


# ---------------------------------------------------------------------------
# criterion 1: gradients match finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Every primitive, both model operators, and the full loss agree with
    central finite differences at 64-bit within relative error 1e-4,
    in under a minute."""
    started = time.monotonic()
    rng = np.random.default_rng(0)

    def away_from_zero(shape, margin=0.1):
        return rng.uniform(margin, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    def distinct(shape):
        flat = np.arange(np.prod(shape), dtype=np.float64)
        rng.shuffle(flat)
        return (flat / flat.size + rng.uniform(-1e-4, 1e-4, size=flat.size)).reshape(shape)

    def proj(expr):
        seed_arr = np.asarray(expr.data)
        weights = ad.Tensor(np.linspace(0.3, 1.7, seed_arr.size).reshape(seed_arr.shape))
        return ad.tensor_sum(ad.mul(expr, weights))

    def clear_of_the_kink(rows, inner, width, margin=0.1):
        # x, w and b whose pre-activations x @ w + b keep off the leaky
        # ReLU's kink at 0, where finite differences are meaningless
        while True:
            x, w, b = (rng.standard_normal(s) for s in ((rows, inner), (inner, width), (width,)))
            if np.abs(x @ w + b).min() > margin:
                return x, w, b

    gathers = np.array([0, 2, 2, 1])
    leaky = clear_of_the_kink(4, 3, 5)
    x, w, b = clear_of_the_kink(4, 5, 3)
    blocks = [x[:, :2].copy(), x[:, 2:].copy(), w, b]
    primitives = [
        ("linear", lambda ts: ad.linear(*ts),
         [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal(5)]),
        ("linear leaky", lambda ts: ad.linear(*ts, leaky=True), list(leaky)),
        ("linear blocks", lambda ts: ad.linear(ts[:2], *ts[2:], leaky=True), blocks),
        ("rep_update", lambda ts: ad.rep_update(*ts),
         [rng.standard_normal((4, 3)), rng.standard_normal((4, 5)),
          rng.standard_normal((5, 3)), rng.standard_normal((5, 5))]),
        ("rep_update vec", lambda ts: ad.rep_update(*ts),
         [rng.standard_normal(3), rng.standard_normal(5),
          rng.standard_normal((5, 3)), rng.standard_normal((5, 5))]),
        ("add", lambda ts: ad.add(ts[0], ts[1]),
         [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("mul", lambda ts: ad.mul(ts[0], ts[1]),
         [rng.standard_normal((2, 5)), rng.standard_normal((2, 5))]),
        ("scale", lambda ts: ad.scale(ts[0], -1.7), [rng.standard_normal((3, 3))]),
        ("div", lambda ts: ad.div(ts[0], ts[1]),
         [rng.standard_normal((4, 2)), away_from_zero((4, 2), margin=0.5)]),
        ("sigmoid", lambda ts: ad.sigmoid(ts[0]), [rng.standard_normal((2, 3)) * 3]),
        ("exp", lambda ts: ad.exp(ts[0]), [rng.standard_normal((4,))]),
        ("square", lambda ts: ad.square(ts[0]), [rng.standard_normal((2, 4))]),
        ("norm", lambda ts: ad.norm(ts[0]),
         [rng.standard_normal((5, 3)) + np.array([3.0, 0, 0])]),
        ("sum", lambda ts: ad.tensor_sum(ts[0]), [rng.standard_normal((3, 3))]),
        ("mean", lambda ts: ad.tensor_mean(ts[0]), [rng.standard_normal((4, 2))]),
        ("max_reduce", lambda ts: ad.max_reduce(ts[0]), [distinct((4, 6))]),
        ("concat", lambda ts: ad.concat([ts[0], ts[1]]),
         [rng.standard_normal((3, 2)), rng.standard_normal((3, 4))]),
        ("reshape", lambda ts: ad.reshape(ts[0], (2, 6)), [rng.standard_normal((3, 4))]),
        ("gather_rows", lambda ts: ad.gather_rows(ts[0], gathers),
         [rng.standard_normal((3, 4))]),
    ]
    assert {name.split()[0] for name, _, _ in primitives} == set(ad._REGISTRY)
    worst = 0.0
    for name, fn, arrays in primitives:
        worst = max(worst, check_grads(lambda ts, fn=fn: proj(fn(ts)), arrays))

    config = model.GeneratorConfig(k_schedule=(2, 2), latent_width=8,
                                   embed_width=4, mlp_hidden=(8,), vae_mode=True)
    params = model.init_parameters(config, seed=1).astype(np.float64)

    s0 = rng.standard_normal(3)
    h0 = rng.standard_normal(config.latent_width)
    worst = max(worst, check_grads(
        lambda ts: proj(model.extract_substructure(ts[0], ts[1], params)), [s0, h0]
    ))
    worst = max(worst, check_param_grads(
        lambda p: proj(model.extract_substructure(
            ad.Tensor(np.asarray(s0, np.float64)), ad.Tensor(np.asarray(h0, np.float64)), p)),
        params, rng, coords_per_tensor=3,
    ))

    def expand_proj(ts):
        pts, reps, scales = model.expand_point(ts[0], ts[1], 0.7, 0, params)
        return ad.add(proj(pts), ad.add(proj(reps), proj(scales)))

    worst = max(worst, check_grads(expand_proj, [s0, h0]))
    worst = max(worst, check_param_grads(
        lambda p: proj(model.expand_point(
            ad.Tensor(np.asarray(s0, np.float64)), ad.Tensor(np.asarray(h0, np.float64)),
            0.7, 0, p)[0]),
        params, rng, coords_per_tensor=3,
    ))

    batch = [PointCloud(c) for c in (
        geometry.normalize_cloud(PointCloud(rng.standard_normal((9, 3)))).points,
        geometry.normalize_cloud(PointCloud(rng.standard_normal((7, 3)))).points,
    )]
    train_config = training.TrainConfig(batch_size=2, reg_weight=5e-5, kl_weight=1e-2)

    def loss_fn(p):
        return training.total_loss(
            p, batch, train_config, rng=np.random.default_rng(11)
        )[0]

    worst = max(worst, check_param_grads(loss_fn, params, rng, coords_per_tensor=3))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"\ncriterion 1 gradient suite: PASS "
          f"(worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# criterion 2: structural invariants over random configurations
# ---------------------------------------------------------------------------


def test_criterion_2_structural_invariants():
    """Cardinalities, shared child representations, shrinking radii from
    exactly 1, containment, and exact encoder permutation invariance,
    across 100 random configurations and seeds."""
    checked = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        depth = int(rng.integers(1, 4))
        config = model.GeneratorConfig(
            k_schedule=tuple(int(rng.integers(1, 5)) for _ in range(depth)),
            latent_width=int(rng.integers(4, 17)),
            embed_width=int(rng.integers(2, 9)),
            mlp_hidden=tuple(int(rng.integers(4, 17))
                             for _ in range(int(rng.integers(1, 3)))),
            vae_mode=bool(rng.integers(0, 2)),
        )
        params = model.init_parameters(config, seed=int(rng.integers(0, 2**31)))
        z = rng.standard_normal(config.latent_width).astype(np.float32)
        trace = model.generate(z, params)
        reps = model.expansion_graph(z, params)[1]

        sizes = [len(stage) for stage in trace.stages]
        assert sizes == config.stage_sizes()  # |next| = k(d) * |current|

        root = trace.stages[0]
        assert root.scales.shape == (1,) and root.scales[0] == 1.0

        for depth in range(1, len(trace.stages)):
            stage = trace.stages[depth]
            parent = trace.stages[depth - 1]
            # strict radius shrink along every parent edge
            assert np.all(stage.scales < parent.scales[stage.parent])
            # children stay inside the parent ball of their own radius
            drift = np.sqrt(((stage.points - parent.points[stage.parent]) ** 2).sum(axis=1))
            assert np.all(drift <= stage.scales * (1 + 1e-5))
            # all children of one parent receive byte-identical representations
            k = len(stage) // len(parent)
            if k > 1:
                fam = reps[depth].data.reshape(len(parent), k, -1)
                assert (fam == fam[:, :1, :]).all()

        cloud = rng.standard_normal((int(rng.integers(5, 41)), 3)).astype(np.float32)
        perm = rng.permutation(cloud.shape[0])
        if config.vae_mode:
            mu_a, lv_a = model.encode(cloud, params)
            mu_b, lv_b = model.encode(cloud[perm], params)
            np.testing.assert_array_equal(mu_a.data, mu_b.data)
            np.testing.assert_array_equal(lv_a.data, lv_b.data)
        else:
            za = model.encode(cloud, params)
            zb = model.encode(cloud[perm], params)
            np.testing.assert_array_equal(za.data, zb.data)
        checked += 1
    print(f"\ncriterion 2 structural invariants: PASS ({checked} random configs)")


# ---------------------------------------------------------------------------
# criterion 3: geometry equals brute force exactly
# ---------------------------------------------------------------------------


def _brute_nn(queries, target):
    d2 = ((queries[:, None, :].astype(np.float64)
           - target[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2.min(axis=1)


def test_criterion_3_geometry_oracle():
    """kd-tree nearest neighbours and Chamfer distances equal vectorized
    brute force bit for bit on 100 random cloud pairs of up to 1024
    points; the two hand cases come out exactly 0.5 and 50.0."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        n_t = int(rng.integers(1, 1025))
        n_q = int(rng.integers(1, 1025))
        style = trial % 3
        if style == 0:
            target = rng.standard_normal((n_t, 3))
            queries = rng.standard_normal((n_q, 3))
        elif style == 1:  # quantized grids force distance ties
            target = np.round(rng.uniform(-1, 1, (n_t, 3)) * 4) / 4
            queries = np.round(rng.uniform(-1, 1, (n_q, 3)) * 4) / 4
        else:  # duplicated rows
            base = rng.standard_normal((max(1, n_t // 3), 3))
            target = base[rng.integers(0, base.shape[0], n_t)]
            queries = base[rng.integers(0, base.shape[0], n_q)] + rng.standard_normal((n_q, 3)) * 0.1
        target = target.astype(np.float64)
        queries = queries.astype(np.float64)

        leaf = int(rng.integers(1, 33))
        idx, d2 = NearestNeighborIndex(target, leaf_size=leaf).query(queries)
        want_idx, want_d2 = _brute_nn(queries, target)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(d2, want_d2)

        got_cd = chamfer_distance(queries, target)
        want_cd = _brute_nn(queries, target)[1].mean() + _brute_nn(target, queries)[1].mean()
        assert got_cd == want_cd

    p = np.array([[0.0, 0, 0], [1.0, 0, 0]], dtype=np.float32)
    q = np.array([[0.5, 0, 0]], dtype=np.float32)
    assert chamfer_distance(p, q) == 0.5
    a = np.array([[0.0, 0, 0]])
    b = np.array([[3.0, 4.0, 0]])
    assert chamfer_distance(a, b) == 50.0
    print("\ncriterion 3 geometry oracle: PASS "
          "(100 exact pairs; hand cases 0.5 and 50.0)")


# ---------------------------------------------------------------------------
# criterion 4: metrics equal exhaustive computation
# ---------------------------------------------------------------------------


def test_criterion_4_metrics_oracle():
    """MMD, coverage, and 1-NNA equal their double-loop definitions on
    random sets of up to 8 clouds; the purity hand case is 0.75."""
    rng = np.random.default_rng(21)
    trials = 0
    for _ in range(6):
        n_ref = int(rng.integers(2, 9))
        n_gen = int(rng.integers(2, 9))
        ref = [rng.standard_normal((int(rng.integers(8, 65)), 3)) for _ in range(n_ref)]
        gen = [rng.standard_normal((int(rng.integers(8, 65)), 3)) for _ in range(n_gen)]

        cd = [[chamfer_distance(r, g) for g in gen] for r in ref]
        want_mmd = float(np.mean([min(row) for row in cd]))
        matched = {int(np.argmin(col)) for col in zip(*cd)}
        want_cov = len(matched) / n_ref
        # exhaustive leave-one-out 1-NN classification over the union
        union = ref + gen
        labels = [0] * n_ref + [1] * n_gen
        hits = 0
        for i, ci in enumerate(union):
            best, best_d = None, None
            for j, cj in enumerate(union):
                if i == j:
                    continue
                d = chamfer_distance(ci, cj)
                if best_d is None or d < best_d:
                    best, best_d = j, d
            hits += labels[best] == labels[i]
        want_nna = hits / len(union)

        assert metrics.mmd(ref, gen) == want_mmd
        assert metrics.coverage(ref, gen) == want_cov
        assert metrics.one_nna(ref, gen) == want_nna
        trials += 1

    assert metrics.purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
    print(f"\ncriterion 4 metrics oracle: PASS ({trials} exhaustive sets; purity 0.75)")


# ---------------------------------------------------------------------------
# criterion 5: the overfit experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit_run():
    dataset = overfit_dataset()
    gen_config = model.GeneratorConfig(**OVERFIT_GEN)
    train_config = training.TrainConfig(**OVERFIT_TRAIN)
    started = time.monotonic()
    params, log = training.fit(dataset, gen_config, train_config)
    elapsed = time.monotonic() - started
    return dataset, params, log, elapsed


def test_criterion_5_overfit_experiment(overfit_run):
    """Ten 24-point shapes, 64-leaf generator: mean reconstruction CD
    under 1e-3 in at most 2000 epochs and 10 CPU minutes; ancestor
    segmentation of the table reaches purity 0.8 at stage 1."""
    dataset, params, log, elapsed = overfit_run
    assert len(log) <= 2000
    assert elapsed < 600.0, f"overfit took {elapsed:.0f}s"

    per_shape, mean_cd = metrics.reconstruction_cd(dataset, reconstructor(params))
    assert mean_cd < 1e-3, f"mean reconstruction CD {mean_cd:.2e}"

    table = dataset[OVERFIT_TABLE_INDEX]
    trace = model.generate(model.encode(table, params).data, params)
    part = model.segment(trace, params.config.stage_count, 1)
    predicted = metrics.transfer_labels(trace.leaf_points(), part, table.points)
    table_purity = metrics.purity(predicted, table.labels)
    assert table_purity >= 0.8, f"table purity {table_purity:.3f}"
    print(f"\ncriterion 5 overfit: PASS (mean CD {mean_cd:.2e} < 1e-3 in "
          f"{len(log)} epochs, {elapsed:.0f}s; table purity {table_purity:.3f})")


# ---------------------------------------------------------------------------
# criterion 6: variational sampling and interpolation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def vae_run():
    dataset = overfit_dataset()
    gen_config = model.GeneratorConfig(vae_mode=True, **OVERFIT_GEN)
    train_config = training.TrainConfig(**VAE_TRAIN)
    params, _ = training.fit(dataset, gen_config, train_config)
    return dataset, params


def test_criterion_6_vae_sanity(vae_run):
    """Prior samples cover at least half the training shapes with 1-NNA
    at most 0.95, and latent interpolation moves in steps smaller than
    the endpoint gap."""
    dataset, params = vae_run
    rng = np.random.default_rng(VAE_SAMPLE_SEED)
    generated = []
    for _ in range(len(dataset)):
        z = rng.standard_normal(params.config.latent_width).astype(params.dtype)
        generated.append(model.generate(z, params).leaf_points())
    reference = [c.points for c in dataset]

    cov = metrics.coverage(reference, generated)
    nna = metrics.one_nna(reference, generated)
    assert cov >= 0.5, f"coverage {cov:.2f}"
    assert nna <= 0.95, f"1-NNA {nna:.2f}"

    mu_a, _ = model.encode(dataset[0], params)
    mu_b, _ = model.encode(dataset[OVERFIT_TABLE_INDEX], params)
    steps = dataio.interpolate_latents(mu_a.data, mu_b.data, steps=5)
    decoded = [model.generate(z, params).leaf_points() for z in steps]
    endpoint_cd = chamfer_distance(decoded[0], decoded[-1])
    consecutive = [
        chamfer_distance(decoded[i], decoded[i + 1])
        for i in range(len(decoded) - 1)
    ]
    assert all(c < endpoint_cd for c in consecutive), (consecutive, endpoint_cd)
    print(f"\ncriterion 6 vae sanity: PASS (coverage {cov:.2f} >= 0.5, "
          f"1-NNA {nna:.2f} <= 0.95, max step CD {max(consecutive):.4f} "
          f"< endpoint CD {endpoint_cd:.4f})")


# ---------------------------------------------------------------------------
# criterion 7: byte-level reproducibility
# ---------------------------------------------------------------------------


def test_criterion_7_reproducibility(tmp_path):
    """The same training command run twice yields byte-identical
    checkpoints and logs, and a checkpoint survives a load/save round
    trip byte for byte."""
    data = tmp_path / "data"
    data.mkdir()
    for i in range(3):
        dataio.save_cloud(data / f"c{i}.xyz", dataio.synth_shape("box", 32, seed=i))
    flags = ["--k-schedule", "2,2", "--latent-width", "8", "--embed-width", "4",
             "--mlp-hidden", "8", "--epochs", "3", "--batch-size", "2", "--seed", "5"]
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli.main(["train", "--data", str(data), "--out", str(out), *flags]) == 0
        outs.append(out)
    ckpt_a = (outs[0] / "checkpoint.rpgk").read_bytes()
    assert ckpt_a == (outs[1] / "checkpoint.rpgk").read_bytes()
    assert (outs[0] / "log.csv").read_bytes() == (outs[1] / "log.csv").read_bytes()
    manifest_a = json.loads((outs[0] / "manifest.json").read_text())
    manifest_b = json.loads((outs[1] / "manifest.json").read_text())
    manifest_a.pop("output_dir"), manifest_b.pop("output_dir")
    assert manifest_a == manifest_b

    params, opt, train_config, step = training.load_checkpoint(outs[0] / "checkpoint.rpgk")
    training.save_checkpoint(tmp_path / "again.rpgk", params, opt_state=opt,
                             train_config=train_config, step=step)
    assert (tmp_path / "again.rpgk").read_bytes() == ckpt_a
    print("\ncriterion 7 reproducibility: PASS "
          "(rerun and round trip both byte-identical)")


# ---------------------------------------------------------------------------
# criterion 8: default configurations
# ---------------------------------------------------------------------------


def test_criterion_8_config_fidelity(tmp_path, capsys):
    """The named presets carry the documented structure (3125 = five
    5-way stages; 2048 = 8*4*4*4*4 with width-512 codes and width-64
    child embeddings) and default training uses weight 5e-5, rate 1e-3,
    batch 64, all visible through the inspect command."""
    small = tmp_path / "c3125.rpgk"
    training.save_checkpoint(
        small, model.init_parameters(model.preset("3125"), seed=0),
        train_config=training.TrainConfig(),
    )
    assert cli.main(["inspect", "--ckpt", str(small)]) == 0
    out = capsys.readouterr().out
    assert "k_schedule: [5, 5, 5, 5, 5]" in out
    assert "leaf_count: 3125" in out

    big = tmp_path / "c2048.rpgk"
    training.save_checkpoint(
        big, model.init_parameters(model.preset("2048"), seed=0),
        train_config=training.TrainConfig(),
    )
    assert cli.main(["inspect", "--ckpt", str(big)]) == 0
    out = capsys.readouterr().out
    assert "k_schedule: [8, 4, 4, 4, 4]" in out
    assert "leaf_count: 2048" in out
    assert "latent_width: 512" in out
    assert "embed_width: 64" in out
    assert "reg_weight: 5e-05" in out
    assert "learning_rate: 0.001" in out
    assert "batch_size: 64" in out
    print("\ncriterion 8 config fidelity: PASS (both presets verified via inspect)")
