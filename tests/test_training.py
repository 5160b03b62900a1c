import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pointtree import autodiff as ad
from pointtree import dataio, geometry, training
from pointtree import model as m
from gradcheck import check_param_grads
from tapecheck import stored_arrays, tape_bytes, traced_peak
import unfused


def tiny_config(vae=False):
    return m.GeneratorConfig(
        k_schedule=(2, 2), latent_width=8, embed_width=4, mlp_hidden=(8,), vae_mode=vae
    )


def small_dataset(n_clouds=3, n_points=16, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [
        geometry.normalize_cloud(
            geometry.PointCloud(rng.normal(size=(n_points, 3)).astype(dtype))
        )
        for _ in range(n_clouds)
    ]


def test_diverged_fit_stops_with_non_finite_loss():
    # a huge step drives the leaves to NaN; nearest-neighbour lookups on
    # them must still give in-range indices so the loss check is reached
    config = training.TrainConfig(learning_rate=1e30, epochs=5, batch_size=3)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite loss"):
        training.fit(small_dataset(), tiny_config(), config)


def test_chamfer_loss_self_is_zero_and_matches_geometry():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    pred = ad.Tensor(pts, dtype=np.float64)
    assert training.chamfer_loss(pred, pts).item() == 0.0
    other = rng.normal(size=(15, 3))
    graph_value = training.chamfer_loss(pred, other).item()
    plain_value = geometry.chamfer_distance(pts, other)
    assert graph_value == pytest.approx(plain_value, rel=1e-12)


def test_chamfer_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(12, 3))
    pred0 = rng.normal(size=(9, 3))

    def build(ts):
        return training.chamfer_loss(ts[0], target)

    from gradcheck import check_grads

    check_grads(build, [pred0])


def test_gaussian_kl_hand_cases():
    zero = ad.Tensor(np.zeros(8), dtype=np.float64)
    assert training.gaussian_kl(zero, zero).item() == 0.0
    ones = ad.Tensor(np.ones(8), dtype=np.float64)
    assert training.gaussian_kl(ones, zero).item() == pytest.approx(0.5 * 8)


def test_total_loss_components_and_weights():
    params = m.init_parameters(tiny_config(), seed=0)
    batch = small_dataset(2)
    config = training.TrainConfig(reg_weight=0.0)
    total, comps = training.total_loss(params, batch, config)
    assert comps["kl"] == 0.0
    assert total.item() == comps["cd"]  # zero-weight penalty adds nothing
    config2 = training.TrainConfig(reg_weight=0.5)
    total2, comps2 = training.total_loss(params, batch, config2)
    assert comps2["cd"] == comps["cd"]
    assert 0.0 < comps2["reg"] <= 1.0  # radii live in (0, 1]
    assert total2.item() == pytest.approx(comps2["cd"] + 0.5 * comps2["reg"], rel=1e-6)


def test_total_loss_validation():
    params = m.init_parameters(tiny_config(), seed=0)
    with pytest.raises(ValueError):
        training.total_loss(params, [], training.TrainConfig())
    vae_params = m.init_parameters(tiny_config(vae=True), seed=0)
    with pytest.raises(ValueError):
        training.total_loss(vae_params, small_dataset(1), training.TrainConfig())


def test_total_loss_gradients_match_finite_differences():
    params = m.init_parameters(tiny_config(), seed=1, dtype=np.float64)
    batch = small_dataset(2, dtype=np.float64)
    config = training.TrainConfig(reg_weight=5e-5)
    rng = np.random.default_rng(3)

    def loss_fn(p):
        return training.total_loss(p, batch, config)[0]

    check_param_grads(loss_fn, params, rng, coords_per_tensor=4)


def test_total_loss_vae_gradients_match_finite_differences():
    params = m.init_parameters(tiny_config(vae=True), seed=2, dtype=np.float64)
    batch = small_dataset(1, dtype=np.float64)
    config = training.TrainConfig(reg_weight=5e-5, kl_weight=1e-2)
    rng = np.random.default_rng(5)

    def loss_fn(p):
        # fresh identically-seeded rng per call keeps the noise draw fixed
        return training.total_loss(p, batch, config, rng=np.random.default_rng(11))[0]

    check_param_grads(loss_fn, params, rng, coords_per_tensor=3)


def _shape_by_shape_loss(params, batch, config, rng=None, kl_weight=None):
    # total_loss as a loop that encodes and expands one shape at a time
    gen = params.config
    cd_terms, reg_terms, kl_terms = [], [], []
    for cloud in batch:
        if gen.vae_mode:
            mu, logvar = m.encode(cloud, params)
            noise = ad.Tensor(rng.standard_normal(gen.latent_width).astype(params.dtype))
            z = ad.add(mu, ad.mul(ad.exp(ad.scale(logvar, 0.5)), noise))
            kl_terms.append(training.gaussian_kl(mu, logvar))
        else:
            z = m.encode(cloud, params)
        points, _, scales, _ = m.expansion_graph(z, params)
        cd_terms.append(training.chamfer_loss(points[-1], cloud))
        stage_means = [ad.tensor_mean(s) for s in scales[1:]]
        reg_terms.append(ad.scale(training._sum_chain(stage_means), 1.0 / gen.stage_count))
    inv_batch = 1.0 / len(batch)
    cd = ad.scale(training._sum_chain(cd_terms), inv_batch)
    reg = ad.scale(training._sum_chain(reg_terms), inv_batch)
    total = ad.add(cd, ad.scale(reg, config.reg_weight))
    components = {"cd": cd.item(), "reg": reg.item(), "kl": 0.0}
    if kl_terms:
        kl = ad.scale(training._sum_chain(kl_terms), inv_batch)
        beta = config.kl_weight if kl_weight is None else kl_weight
        total = ad.add(total, ad.scale(kl, beta))
        components["kl"] = kl.item()
    components["total"] = total.item()
    return total, components


@pytest.mark.parametrize("vae", [False, True])
@pytest.mark.parametrize("k_schedule", [(4, 4, 4), (3, 1, 2)])
@pytest.mark.parametrize("sizes", [(24,), (24, 31, 17)])
def test_forest_loss_equals_shape_by_shape_bit_for_bit(vae, k_schedule, sizes):
    gen = m.GeneratorConfig(k_schedule=k_schedule, latent_width=16, embed_width=8,
                            mlp_hidden=(24, 16), vae_mode=vae)
    params = m.init_parameters(gen, seed=4)
    leaves = [t for _, t in params.items()]
    batch = [small_dataset(1, n_points=n, seed=20 + i)[0] for i, n in enumerate(sizes)]
    config = training.TrainConfig(reg_weight=5e-5)
    runs = []
    for loss_fn in (training.total_loss, _shape_by_shape_loss):
        with ad.Tape() as tape:
            loss, comps = loss_fn(params, batch, config, rng=np.random.default_rng(9),
                                  kl_weight=0.25)
        grads = ad.backward(loss, tape, leaves=leaves)
        runs.append((comps, len(tape), [grads[t].data.tobytes() for t in leaves]))
        if loss_fn is training.total_loss:
            assert tape.replay()
    assert runs[0] == runs[1]


def test_forest_step_gradients_equal_the_unfused_chain(monkeypatch):
    # a non-final stage's child representations feed two consumers: that
    # stage's exp.l0 and the next stage's h @ Mh^T. Their per-sibling
    # gradients are added first, and only then does the parent-index
    # gather sum them per parent. A recorded forest step must give every
    # parameter gradient of the unfused reference chain (`unfused`) byte for
    # byte: the gathered representations read in full, then concat, the
    # index-order product, add, leaky ReLU and tanh as entries of their
    # own, shape by shape
    gen = m.GeneratorConfig(k_schedule=(3, 4, 2), latent_width=16, embed_width=8,
                            mlp_hidden=(24, 12))
    params = m.init_parameters(gen, seed=4)
    leaves = [t for _, t in params.items()]
    batch = [small_dataset(1, n_points=n, seed=40 + i)[0] for i, n in enumerate((20, 24, 17))]

    def step():
        with ad.Tape() as tape:
            training.total_loss(params, batch, training.TrainConfig(reg_weight=5e-5))
        loss = tape.entries[-1].output
        grads = ad.backward(loss, tape, leaves=leaves)
        return [grads[t].data.tobytes() for t in leaves], Counter(e.kind for e in tape.entries)

    fused, kinds = step()
    assert kinds["rep_update"] == len(batch) * gen.stage_count
    unfused.install(monkeypatch)
    monkeypatch.setattr(ad, "linear", unfused.by_shape(unfused.linear_chain))
    monkeypatch.setattr(ad, "rep_update", unfused.by_shape(unfused.rep_update_chain))
    chain, kinds = step()
    assert kinds["linear"] == kinds["rep_update"] == 0 and kinds["concat"] > 0
    assert kinds["matmul"] > 0 and kinds["leaky_relu"] > 0 and kinds["tanh"] > 0
    assert fused == chain


@pytest.mark.parametrize("vae", [False, True])
def test_every_layer_records_one_linear_entry_per_shape(vae):
    # the acceptance overfit generator: each weight matrix enters the tape
    # through one linear entry per shape and stage, leaky on the hidden
    # layers, and no bias or leaky_relu is recorded apart from its layer
    gen = m.GeneratorConfig(k_schedule=(4, 4, 4), latent_width=64, embed_width=32,
                            mlp_hidden=(128, 128), vae_mode=vae)
    params = m.init_parameters(gen, seed=0)
    batch = small_dataset(3, n_points=24)
    with ad.Tape() as tape:
        training.total_loss(params, batch, training.TrainConfig(), rng=np.random.default_rng(1))
    names = {id(t): n[:-2] for n, t in params.items() if n.endswith((".w", ".b"))}
    layers = Counter()
    for e in tape.entries:
        if e.kind == "linear":  # inputs: the column blocks, then w and b
            w, b = (names[id(t)] for t in e.inputs[-2:])
            assert w == b and e.attrs.get("leaky", False) == w.startswith(("enc.pp", "exp.l"))
            assert len(e.inputs) == (4 if w == "exp.l0" else 3)  # [embeddings, reps] into l0
            layers[w] += 1
        else:
            assert e.kind != "leaky_relu" and not any(id(t) in names for t in e.inputs)
    per_shape = {n: gen.stage_count if n.startswith("exp.") else 1 for n in set(names.values())}
    assert layers == {n: len(batch) * count for n, count in per_shape.items()}


@pytest.mark.parametrize("vae", [False, True])
def test_step_tape_keeps_no_transposed_or_concatenated_layer_input(vae):
    # the acceptance overfit setup: max_reduce runs once per shape to pool
    # and once per shape and stage for the offset floor, no concat output
    # feeds a layer, and each leaky layer keeps its sign mask packed eight
    # elements to a byte along each row
    gen = m.GeneratorConfig(k_schedule=(4, 4, 4), latent_width=64, embed_width=32,
                            mlp_hidden=(128, 128), vae_mode=vae)
    params = m.init_parameters(gen, seed=0)
    batch = small_dataset(3, n_points=24)
    with ad.Tape() as tape:
        training.total_loss(params, batch, training.TrainConfig(), rng=np.random.default_rng(1))
    kinds = Counter(e.kind for e in tape.entries)
    assert kinds["max_reduce"] == len(batch) * (1 + gen.stage_count)
    concatenated = {id(e.output) for e in tape.entries if e.kind == "concat"}
    masks = 0
    for e in tape.entries:
        if e.kind != "linear":
            continue
        assert not any(id(t) in concatenated for t in e.inputs)
        if e.attrs.get("leaky"):
            width = e.inputs[-2].shape[1]
            assert e.saved.dtype == np.uint8 and e.saved.shape == (len(e.output.data), -(-width // 8))
            masks += 1
        else:
            assert e.saved is None
    assert masks == len(batch) * (len(m.ENCODER_WIDTHS) + gen.stage_count * len(gen.mlp_hidden))


def test_a_2048_step_keeps_each_parent_representation_once(monkeypatch):
    # one step of the 2048 preset at batch 4 keeps at most 55 MB on its
    # tape (about 48): a copy of each parent representation per sibling and
    # the update's two products and their sum would add about 42 MB. No
    # kept array as wide as a representation holds two bit-equal rows, the
    # accounting reads no gathered copy, and the record replays
    config = m.preset("2048")
    params = m.init_parameters(config, seed=0)
    kinds = ("sphere", "box", "table", "tee")
    batch = [dataio.synth_shape(kind, 2048, seed=i) for i, kind in enumerate(kinds)]
    with ad.Tape() as tape:
        training.total_loss(params, batch, training.TrainConfig())
    with monkeypatch.context() as patch:
        patch.setattr(ad.Gathered, "data", property(lambda t: pytest.fail("gathered a copy")))
        held, arrays = tape_bytes(tape), stored_arrays(tape)
    assert held <= 55e6
    wide = [a for a in arrays if a.ndim == 2 and a.shape[1] == config.latent_width]
    assert sum(len(a) for a in wide) > 0
    for a in wide:
        assert len(np.unique(a.view(f"u{a.itemsize}"), axis=0)) == len(a)
    assert tape.replay()


def test_fit_with_an_uneven_last_batch_equals_shape_by_shape(monkeypatch):
    # five clouds of different sizes in batches of three: every epoch ends
    # on a batch of two
    dataset = [small_dataset(1, n_points=n, seed=30 + n)[0] for n in (12, 15, 9, 12, 20)]
    config = training.TrainConfig(epochs=3, batch_size=3, seed=5)
    results = []
    forest = training.total_loss
    for vae in (False, True):
        for loss_fn in (forest, _shape_by_shape_loss):
            monkeypatch.setattr(training, "total_loss", loss_fn)
            params, log = training.fit(dataset, tiny_config(vae=vae), config)
            results.append((log, [t.data.tobytes() for _, t in params.items()]))
    assert results[0] == results[1]
    assert results[2] == results[3]


def test_variational_heads_receive_gradient():
    params = m.init_parameters(tiny_config(vae=True), seed=3)
    batch = small_dataset(1)
    with ad.Tape() as tape:
        loss, _ = training.total_loss(
            params, batch, training.TrainConfig(), rng=np.random.default_rng(0)
        )
    grads = ad.backward(loss, tape, leaves=[t for _, t in params.items()])
    assert np.abs(grads[params["enc.mu.w"]].data).max() > 0
    assert np.abs(grads[params["enc.logvar.w"]].data).max() > 0


def test_objective_is_linear_in_the_penalty_weight():
    params = m.init_parameters(tiny_config(), seed=4, dtype=np.float64)
    batch = small_dataset(2, dtype=np.float64)
    leaves = [t for _, t in params.items()]

    def grads_at(weight):
        with ad.Tape() as tape:
            loss, _ = training.total_loss(
                params, batch, training.TrainConfig(reg_weight=weight)
            )
        g = ad.backward(loss, tape, leaves=leaves)
        return {n: g[t].data for n, t in params.items()}

    g0 = grads_at(0.0)
    g1 = grads_at(1.0)
    g5 = grads_at(5.0)
    for name in g0:
        np.testing.assert_allclose(
            g5[name], g0[name] + 5.0 * (g1[name] - g0[name]), rtol=1e-9, atol=1e-12
        )


def test_adamw_single_step_hand_case():
    params = m.init_parameters(tiny_config(), seed=0)
    target = params["exp.scale.b"]
    target.data[:] = 0.0
    grads = {
        t: ad.Tensor(np.ones_like(t.data) if t is target else np.zeros_like(t.data))
        for _, t in params.items()
    }
    state = training.OptimizerState.for_params(params)
    config = training.TrainConfig(weight_decay=0.0)
    training.adamw_step(params, grads, state, config)
    assert state.step == 1
    assert float(target.data[0]) == pytest.approx(-9.99999995e-4, rel=1e-5)


def test_adamw_null_update_and_pure_decay():
    params = m.init_parameters(tiny_config(), seed=1)
    before = {n: t.data.copy() for n, t in params.items()}
    zero_grads = {t: ad.Tensor(np.zeros_like(t.data)) for _, t in params.items()}
    state = training.OptimizerState.for_params(params)

    no_decay = training.TrainConfig(weight_decay=0.0)
    training.adamw_step(params, zero_grads, state, no_decay)
    for n, t in params.items():
        np.testing.assert_array_equal(t.data, before[n])

    decay = training.TrainConfig(weight_decay=0.1, learning_rate=1e-2)
    training.adamw_step(params, zero_grads, state, decay)
    for n, t in params.items():
        np.testing.assert_allclose(t.data, before[n] * (1 - 1e-2 * 0.1), rtol=1e-6)


def test_kl_ramp_warms_up_linearly():
    config = training.TrainConfig(epochs=100, kl_warmup_fraction=0.1)
    assert training.kl_ramp(0, config) == pytest.approx(0.1)
    assert training.kl_ramp(9, config) == pytest.approx(1.0)
    assert training.kl_ramp(60, config) == 1.0


def test_lr_schedule_cosine_envelope():
    constant = training.TrainConfig(epochs=10, learning_rate=2e-3)
    assert all(training.scheduled_lr(e, constant) == 2e-3 for e in range(10))
    decayed = training.TrainConfig(
        epochs=11, learning_rate=1e-2, final_lr_fraction=0.01
    )
    rates = [training.scheduled_lr(e, decayed) for e in range(11)]
    assert rates[0] == 1e-2  # starts at the full rate
    assert rates[-1] == pytest.approx(1e-4)  # ends at the floor
    assert rates[5] == pytest.approx((1e-2 + 1e-4) / 2)  # cosine midpoint
    assert all(a > b for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValueError, match="final_lr_fraction"):
        training.TrainConfig(final_lr_fraction=0.0)


def test_lr_override_in_adamw_step():
    params = m.init_parameters(tiny_config(), seed=0)
    frozen = params.copy()
    state = training.OptimizerState.for_params(params)
    grads = {
        t: ad.Tensor(np.ones_like(t.data)) for _, t in params.items()
    }
    config = training.TrainConfig(learning_rate=1e-3, weight_decay=0.0)
    training.adamw_step(params, grads, state, config, lr=0.0)
    # zero rate means no movement regardless of gradients
    for name, tensor in params.items():
        np.testing.assert_array_equal(tensor.data, frozen[name].data)


def test_fit_is_deterministic_and_loss_decreases():
    dataset = small_dataset(2, n_points=12, seed=7)
    gen = tiny_config()
    config = training.TrainConfig(epochs=80, batch_size=2, seed=3, reg_weight=5e-5)

    params_a, log_a = training.fit(dataset, gen, config)
    params_b, log_b = training.fit(dataset, gen, config)
    assert log_a == log_b
    for n in params_a.names():
        np.testing.assert_array_equal(params_a[n].data, params_b[n].data)

    first = np.mean([r["total"] for r in log_a[:10]])
    last = np.mean([r["total"] for r in log_a[-10:]])
    assert last < first


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValueError):
        training.fit([], tiny_config(), training.TrainConfig())


def test_fit_writes_checkpoints(tmp_path):
    dataset = small_dataset(2, n_points=10)
    config = training.TrainConfig(epochs=4, batch_size=2, save_every=2)
    training.fit(dataset, tiny_config(), config, out_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "checkpoint.rpgk",
        "checkpoint_epoch00002.rpgk",
        "checkpoint_epoch00004.rpgk",
    ]


def test_fit_does_not_peak_inside_save_checkpoint(tmp_path, monkeypatch):
    # the last step's tape and gradients are gone before the final write,
    # and each write streams its slabs: no checkpoint write reaches the
    # traced peak of the training steps before it
    steps, saves = [], []
    save = training.save_checkpoint

    def traced_save(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        steps.append(peak)
        _, above = traced_peak(lambda: save(*args, **kwargs))
        saves.append(current + above)

    monkeypatch.setattr(training, "save_checkpoint", traced_save)
    config = training.TrainConfig(epochs=2, batch_size=2, save_every=1)
    traced_peak(lambda: training.fit(small_dataset(2, n_points=10), tiny_config(), config,
                                     out_dir=str(tmp_path)))
    assert len(saves) == 3
    assert max(saves) < max(steps)


def test_checkpoint_io_copies_no_payload(tmp_path):
    # save writes each slab from its array and load reads each slab into
    # its own array: the file is the header then the slabs in manifest
    # order, save's traced peak stays below one slab beyond the header,
    # load's below the arrays it returns, and every loaded array is
    # writable and owns its memory
    gen = m.GeneratorConfig(k_schedule=(2, 2), latent_width=32, embed_width=8,
                            mlp_hidden=(64, 64), vae_mode=True)
    params = m.init_parameters(gen, seed=3)
    state = training.OptimizerState.for_params(params)
    path = tmp_path / "ck.rpgk"
    _, peak = traced_peak(lambda: training.save_checkpoint(path, params, opt_state=state))
    slabs = [params[n].data for n in params.names()]
    slabs += [state.m[n] for n in params.names()] + [state.v[n] for n in params.names()]
    assert peak < max(a.nbytes for a in slabs) + 2**16
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    assert raw[12 + header_len :] == b"".join(a.astype("<f4").tobytes() for a in slabs)
    (loaded, opt, _, _), peak = traced_peak(lambda: training.load_checkpoint(path))
    assert peak < sum(a.nbytes for a in slabs) + 2**16
    for a in [loaded[n].data for n in loaded.names()] + [*opt.m.values(), *opt.v.values()]:
        assert a.flags.writeable and a.flags.owndata


def test_loading_a_2048_checkpoint_peaks_at_its_arrays(tmp_path):
    # the variational 2048 preset holds 3.0 MB of weights; holding the
    # file's bytes beside them would peak at twice that
    params = m.init_parameters(m.GeneratorConfig(k_schedule=(8, 4, 4, 4, 4), vae_mode=True))
    path = tmp_path / "ck.rpgk"
    training.save_checkpoint(path, params)
    (loaded, _, _, _), peak = traced_peak(lambda: training.load_checkpoint(path))
    arrays = sum(loaded[n].data.nbytes for n in loaded.names())
    assert arrays > 3 * 10**6
    assert peak < arrays + 2**19


def test_checkpoint_round_trip_bit_identical(tmp_path):
    params = m.init_parameters(tiny_config(vae=True), seed=9)
    state = training.OptimizerState.for_params(params)
    rng = np.random.default_rng(0)
    for n in params.names():
        state.m[n][:] = rng.normal(size=state.m[n].shape).astype(np.float32)
        state.v[n][:] = np.abs(rng.normal(size=state.v[n].shape)).astype(np.float32)
    state.step = 41
    config = training.TrainConfig(epochs=7)

    path = tmp_path / "ck.rpgk"
    training.save_checkpoint(path, params, opt_state=state, train_config=config, step=41)
    loaded, opt, tcfg, step = training.load_checkpoint(path)

    assert step == 41 and opt.step == 41
    assert tcfg == config
    assert loaded.config == params.config
    for n in params.names():
        np.testing.assert_array_equal(loaded[n].data, params[n].data)
        np.testing.assert_array_equal(opt.m[n], state.m[n])
        np.testing.assert_array_equal(opt.v[n], state.v[n])

    again = tmp_path / "ck2.rpgk"
    training.save_checkpoint(again, loaded, opt_state=opt, train_config=tcfg, step=step)
    assert path.read_bytes() == again.read_bytes()


def test_restored_parameters_generate_identically(tmp_path):
    params = m.init_parameters(tiny_config(), seed=10)
    z = np.random.default_rng(1).normal(size=8).astype(np.float32)
    before = m.generate(z, params).leaf_points()
    path = tmp_path / "ck.rpgk"
    training.save_checkpoint(path, params)
    loaded, opt, tcfg, _ = training.load_checkpoint(path)
    assert opt is None and tcfg is None
    np.testing.assert_array_equal(m.generate(z, loaded).leaf_points(), before)


def test_checkpoint_error_paths(tmp_path):
    params = m.init_parameters(tiny_config(), seed=11)
    path = tmp_path / "ck.rpgk"
    training.save_checkpoint(path, params, step=5)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.rpgk"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        training.load_checkpoint(bad_magic)

    bad_version = tmp_path / "bad_version.rpgk"
    import struct

    bad_version.write_bytes(raw[:4] + struct.pack("<I", 99) + bytes(raw[8:]))
    with pytest.raises(ValueError, match="version"):
        training.load_checkpoint(bad_version)

    truncated = tmp_path / "trunc.rpgk"
    truncated.write_bytes(bytes(raw[: len(raw) - 20]))
    with pytest.raises(ValueError, match="truncated"):
        training.load_checkpoint(truncated)

    trailing = tmp_path / "trailing.rpgk"
    trailing.write_bytes(bytes(raw) + b"\0\0\0\0")
    with pytest.raises(ValueError, match="trailing.rpgk: 4 trailing bytes"):
        training.load_checkpoint(trailing)

    # rewrite the header to claim a wider latent code: named shape mismatch
    import json

    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len].decode())
    header["generator"]["latent_width"] = 16
    blob = json.dumps(header, separators=(",", ":")).encode()
    mismatched = tmp_path / "mismatch.rpgk"
    mismatched.write_bytes(
        raw[:8] + struct.pack("<I", len(blob)) + blob + bytes(raw[12 + header_len :])
    )
    with pytest.raises(ValueError, match="enc.head.w"):
        training.load_checkpoint(mismatched)


def test_checkpoint_manifest_must_tile_the_payload(tmp_path):
    # every slab starts where the one before it ended, each name once; a
    # manifest pointing enc.pp0.b at enc.pp0.w's bytes would load silently
    import json
    import struct

    params = m.init_parameters(tiny_config(), seed=12)
    path = tmp_path / "ck.rpgk"
    training.save_checkpoint(path, params, step=3)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    body = raw[12 + header_len :]

    def rewritten(edit):
        header = json.loads(raw[12 : 12 + header_len].decode())
        edit(header["manifest"])
        blob = json.dumps(header, separators=(",", ":")).encode()
        out = tmp_path / "edited.rpgk"
        out.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + body)
        return out

    def set_offset(i, offset):
        return lambda manifest: manifest[i].update(offset=offset)

    def duplicate(manifest):
        manifest[2]["name"] = manifest[0]["name"]

    second = json.loads(raw[12 : 12 + header_len].decode())["manifest"][1]
    cases = {
        "overlapping": (set_offset(1, 0), f"{second['name']} starts at offset 0"),
        "gapped": (set_offset(1, second["offset"] + 4), f"{second['name']} starts at offset"),
        "negative": (set_offset(0, -4), "starts at offset -4, expected 0"),
        "not an integer": (set_offset(1, float(second["offset"])), "expected"),
        "duplicate": (duplicate, "enc.pp0.w appears twice"),
    }
    for name, (edit, message) in cases.items():
        with pytest.raises(ValueError, match="edited.rpgk: manifest entry") as err:
            training.load_checkpoint(rewritten(edit))
        assert message in str(err.value), name
    loaded, _, _, step = training.load_checkpoint(rewritten(lambda manifest: None))
    assert step == 3 and loaded["enc.pp0.b"].data.tobytes() == params["enc.pp0.b"].data.tobytes()


@pytest.mark.parametrize("entry,shape,message", [
    # 2**32 * 2**32 floats wrap to 0 in int64; sizes are checked against
    # the file in Python ints before any array is made
    (0, [2**32, 2**32], "truncated payload at enc.pp0.w"),
    # no bytes, but a dimension NumPy cannot make an array of
    (-1, [0, 2**62], "manifest entry emb.d1 has shape [0, 4611686018427387904], too large"),
])
def test_a_manifest_shape_no_array_can_hold_names_the_file(tmp_path, entry, shape, message):
    import json
    import math
    import re
    import struct

    path = tmp_path / "ck.rpgk"
    training.save_checkpoint(path, m.init_parameters(tiny_config(), seed=12), step=3)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len].decode())
    edited = header["manifest"][entry]
    edited["shape"] = shape
    # the payload ends where the edited slab would, or where the file does
    body = raw[12 + header_len :][: edited["offset"] + 4 * math.prod(shape)]
    blob = json.dumps(header, separators=(",", ":")).encode()
    huge = tmp_path / "huge.rpgk"
    huge.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + body)
    with pytest.raises(ValueError, match=re.escape(f"huge.rpgk: {message}")):
        training.load_checkpoint(huge)


def test_the_model_applies_exactly_the_registered_kinds(monkeypatch):
    # a plain and a variational training step with backward, and a
    # generation from each, apply every kind in the registry and no other:
    # a primitive the model stops using cannot stay behind unnoticed
    applied = set()
    apply = ad.apply_primitive

    def spy(kind, inputs, **attrs):
        applied.add(kind)
        return apply(kind, inputs, **attrs)

    monkeypatch.setattr(ad, "apply_primitive", spy)
    batch = small_dataset(2, n_points=12)
    for vae in (False, True):
        gen = m.GeneratorConfig(k_schedule=(2, 3), latent_width=8, embed_width=4,
                                mlp_hidden=(8,), vae_mode=vae)
        params = m.init_parameters(gen, seed=0)
        with ad.Tape() as tape:
            loss, _ = training.total_loss(params, batch, training.TrainConfig(),
                                          rng=np.random.default_rng(0))
        ad.backward(loss, tape)
        m.generate(np.zeros(gen.latent_width, dtype=np.float32), params)
    assert applied == set(ad._REGISTRY)
