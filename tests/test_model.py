import numpy as np
import pytest

from pointtree import autodiff as ad
from pointtree import dataio, training
from pointtree import model as m
from gradcheck import check_grads, check_param_grads
from tapecheck import stored, stored_arrays, traced_held

CONTAIN_SLACK = 1e-5  # float rounding can overshoot the radius bound by ulps


def random_config(rng, vae=False):
    depth = int(rng.integers(1, 4))
    return m.GeneratorConfig(
        k_schedule=tuple(int(rng.integers(1, 5)) for _ in range(depth)),
        latent_width=int(rng.integers(4, 24)),
        embed_width=int(rng.integers(2, 12)),
        mlp_hidden=tuple(
            int(rng.integers(4, 24)) for _ in range(int(rng.integers(1, 3)))
        ),
        vae_mode=vae,
    )


def tiny_params(seed=0, vae=False, dtype=np.float32):
    config = m.GeneratorConfig(
        k_schedule=(2, 2), latent_width=8, embed_width=4, mlp_hidden=(8,), vae_mode=vae
    )
    return m.init_parameters(config, seed=seed, dtype=dtype)


def test_config_validation_and_presets():
    with pytest.raises(ValueError):
        m.GeneratorConfig(k_schedule=())
    with pytest.raises(ValueError):
        m.GeneratorConfig(k_schedule=(2, 0))
    with pytest.raises(ValueError):
        m.GeneratorConfig(k_schedule=(2,), mlp_hidden=())
    with pytest.raises(ValueError):
        m.preset("1234")
    big = m.preset("2048")
    assert big.k_schedule == (8, 4, 4, 4, 4)
    assert big.leaf_count == 2048
    assert big.stage_sizes() == [1, 8, 32, 128, 512, 2048]
    assert big.latent_width == 512 and big.embed_width == 64
    assert m.preset("3125").leaf_count == 3125
    assert m.preset("3125").k_schedule == (5, 5, 5, 5, 5)


def test_init_is_deterministic_and_counts_add_up():
    config = m.GeneratorConfig(k_schedule=(3, 2), latent_width=16, embed_width=4)
    a = m.init_parameters(config, seed=7)
    b = m.init_parameters(config, seed=7)
    c = m.init_parameters(config, seed=8)
    for name in a.names():
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())
    assert a.total_count() == a.encoder_count() + a.generator_count()
    assert a["sub.mh"].size == 16 * 16
    assert m.init_parameters(m.preset("2048"), seed=0)["sub.mh"].size == 512 * 512


def test_encoder_permutation_invariance_is_exact():
    rng = np.random.default_rng(3)
    for trial in range(10):
        params = m.init_parameters(random_config(rng), seed=trial)
        pts = rng.normal(size=(int(rng.integers(2, 120)), 3)).astype(np.float32)
        base = m.encode(pts, params).data
        for _ in range(3):
            perm = rng.permutation(len(pts))
            np.testing.assert_array_equal(m.encode(pts[perm], params).data, base)


def test_encoder_duplication_idempotence_is_exact():
    rng = np.random.default_rng(5)
    params = m.init_parameters(random_config(rng), seed=1)
    pts = rng.normal(size=(40, 3)).astype(np.float32)
    doubled = np.concatenate([pts, pts])
    np.testing.assert_array_equal(
        m.encode(doubled, params).data, m.encode(pts, params).data
    )


def test_encoder_separates_random_clouds():
    rng = np.random.default_rng(7)
    params = m.init_parameters(
        m.GeneratorConfig(k_schedule=(2,), latent_width=16, embed_width=4), seed=0
    )
    codes = set()
    for _ in range(100):
        z = m.encode(rng.normal(size=(32, 3)).astype(np.float32), params).data
        codes.add(z.tobytes())
    assert len(codes) == 100


def test_encoder_vae_heads():
    params = tiny_params(vae=True)
    mu, logvar = m.encode(np.random.default_rng(0).normal(size=(16, 3)), params)
    assert mu.shape == (8,) and logvar.shape == (8,)


def test_substructure_zero_case_and_range():
    params = tiny_params()
    out = m.extract_substructure(np.zeros(3), np.zeros(8), params)
    np.testing.assert_array_equal(out.data, np.zeros(8, dtype=np.float32))
    rng = np.random.default_rng(11)
    for _ in range(20):
        out = m.extract_substructure(rng.normal(size=3), rng.normal(size=8), params)
        assert np.abs(out.data).max() < 1.0


def test_substructure_batched_rows_match_single_point_calls():
    params = tiny_params()
    rng = np.random.default_rng(17)
    s = rng.normal(size=(5, 3)).astype(np.float32)
    h = rng.normal(size=(5, 8)).astype(np.float32)
    batched = m.extract_substructure(s, h, params).data
    assert batched.shape == (5, 8)
    for i in range(5):
        np.testing.assert_array_equal(batched[i], m.extract_substructure(s[i], h[i], params).data)
    for bad_s, bad_h in ((s, h[:4]), (s[0], h), (s[:, :2], h), (s[None], h[None])):
        with pytest.raises(ValueError):
            m.extract_substructure(bad_s, bad_h, params)


def test_substructure_gradients_match_finite_differences():
    params = tiny_params(dtype=np.float64)
    rng = np.random.default_rng(13)
    s0 = rng.normal(size=3)
    h0 = rng.normal(size=8)
    w = rng.normal(size=8)

    def build(ts):
        out = m.extract_substructure(ts[0], ts[1], params)
        return ad.tensor_sum(ad.mul(out, ad.Tensor(w, dtype=np.float64)))

    check_grads(build, [s0, h0])

    def loss_fn(p):
        out = m.extract_substructure(s0, h0, p)
        return ad.tensor_sum(ad.mul(out, ad.Tensor(w, dtype=np.float64)))

    check_param_grads(loss_fn, params, rng)


def test_expand_point_shapes_and_bounds():
    rng = np.random.default_rng(17)
    for trial in range(10):
        config = random_config(rng)
        params = m.init_parameters(config, seed=trial)
        stage = int(rng.integers(config.stage_count))
        k = config.k_schedule[stage]
        s = rng.normal(size=3).astype(np.float32)
        h = rng.normal(size=config.latent_width).astype(np.float32)
        alpha = float(rng.uniform(0.1, 1.0))
        cp, cr, cs = m.expand_point(s, h, alpha, stage, params)
        assert cp.shape == (k, 3) and cr.shape == (k, config.latent_width)
        assert cs.shape == (k,)
        radii = cs.data
        assert np.all(radii > 0) and np.all(radii < alpha)
        dist = np.sqrt(((cp.data - s) ** 2).sum(axis=1))
        assert np.all(dist <= radii * (1 + CONTAIN_SLACK) + 1e-12)
        # the largest-offset sibling sits on its radius
        far = int(np.argmax(dist))
        assert dist[far] == pytest.approx(radii[far], rel=1e-5)
        # siblings share one representation row, bit for bit
        for row in range(1, k):
            np.testing.assert_array_equal(cr.data[row], cr.data[0])


def test_expand_point_single_child():
    params = tiny_params()
    config = m.GeneratorConfig(k_schedule=(1,), latent_width=8, embed_width=4, mlp_hidden=(8,))
    params = m.init_parameters(config, seed=4)
    cp, _, cs = m.expand_point(np.zeros(3), np.ones(8), 0.5, 0, params)
    dist = float(np.sqrt((cp.data[0] ** 2).sum()))
    assert dist == pytest.approx(float(cs.data[0]), rel=1e-5)


def test_expand_point_rejects_bad_arguments():
    params = tiny_params()
    with pytest.raises(ValueError):
        m.expand_point(np.zeros(3), np.zeros(8), 0.0, 0, params)
    with pytest.raises(ValueError):
        m.expand_point(np.zeros(3), np.zeros(8), -1.0, 0, params)
    with pytest.raises(ValueError):
        m.expand_point(np.zeros(3), np.zeros(8), 1.0, 5, params)


def test_expand_point_gradients_match_finite_differences():
    params = tiny_params(dtype=np.float64)
    rng = np.random.default_rng(19)
    s0 = rng.normal(size=3)
    h0 = rng.normal(size=8)

    def loss_fn(p):
        cp, cr, cs = m.expand_point(s0, h0, 0.7, 0, p)
        return ad.add(
            ad.tensor_mean(ad.square(cp)),
            ad.add(ad.tensor_mean(ad.square(cr)), ad.tensor_mean(cs)),
        )

    check_param_grads(loss_fn, params, rng)


def test_generation_structure_across_random_configs():
    rng = np.random.default_rng(23)
    for trial in range(30):
        config = random_config(rng)
        params = m.init_parameters(config, seed=trial)
        z = rng.normal(size=config.latent_width).astype(np.float32)
        trace = m.generate(z, params)
        reps = m.expansion_graph(z, params)[1]
        sizes = config.stage_sizes()
        assert [len(s) for s in trace.stages] == sizes
        assert trace.stages[0].scales[0] == 1.0
        np.testing.assert_array_equal(trace.stages[0].points, np.zeros((1, 3)))
        for d, k in enumerate(config.k_schedule):
            child = trace.stages[d + 1]
            parent = trace.stages[d]
            np.testing.assert_array_equal(
                child.parent, np.repeat(np.arange(sizes[d]), k)
            )
            # radii shrink strictly, stay positive
            assert np.all(child.scales > 0)
            assert np.all(child.scales < parent.scales[child.parent])
            # each child stays inside its shrunken radius
            gap = child.points - parent.points[child.parent]
            dist = np.sqrt((gap**2).sum(axis=1))
            assert np.all(dist <= child.scales * (1 + CONTAIN_SLACK) + 1e-12)
            # siblings carry identical representation rows
            family = reps[d + 1].data.reshape(sizes[d], k, -1)
            for j in range(1, k):
                np.testing.assert_array_equal(family[:, j], family[:, 0])


def test_generate_is_deterministic():
    params = tiny_params(seed=2)
    z = np.random.default_rng(29).normal(size=8).astype(np.float32)
    a = m.generate(z, params)
    b = m.generate(z, params)
    for sa, sb in zip(a.stages, b.stages):
        np.testing.assert_array_equal(sa.points, sb.points)
        np.testing.assert_array_equal(sa.scales, sb.scales)


def test_a_generate_trace_holds_only_the_tree():
    # points, radii and parent links of the 2731 points of a 2048-leaf
    # shape come to about 66 KB; a (n, 512) float32 representation per
    # stage would add 5.3 MB
    params = m.init_parameters(m.preset("2048"), seed=5)
    z = np.random.default_rng(53).normal(size=512).astype(np.float32)
    trace, held = traced_held(lambda: m.generate(z, params))
    assert [len(s) for s in trace.stages] == params.config.stage_sizes()
    assert held < 2**19


def _gathered_in_full(monkeypatch):
    # every primitive, forward, vjp and replay, reads a gather's rows in
    # full, as before sibling structure was declared
    monkeypatch.setattr(ad, "_operands", lambda kind, inputs: [t.data for t in inputs])


def test_shared_sibling_rows_leave_every_generate_stage_unchanged(monkeypatch):
    params = m.init_parameters(m.preset("2048"), seed=5)
    z = np.random.default_rng(53).normal(size=512).astype(np.float32)
    shared = m.generate(z, params), m.expansion_graph(z, params)[1]
    _gathered_in_full(monkeypatch)
    full = m.generate(z, params), m.expansion_graph(z, params)[1]
    for a, b in zip(shared[0].stages, full[0].stages, strict=True):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.scales.tobytes() == b.scales.tobytes()
    for a, b in zip(shared[1], full[1], strict=True):
        assert a.data.tobytes() == b.data.tobytes()


def test_sibling_groups_share_every_rep_column(monkeypatch):
    # a gather whose indices stop declaring the model's layout would quietly
    # fall back to full-cost products with the same bytes; pin that every
    # stage's h @ Mh^T past the root runs once per parent, on the parents'
    # rows, and that exp.l0 forms each slot's embedding chain once, over the
    # k slot rows, then continues every child's chain from its slot's prefix
    # over the parents' rows, never over a gathered copy
    config = m.preset("2048")
    params = m.init_parameters(config, seed=5)
    z = np.random.default_rng(53).normal(size=512).astype(np.float32)
    seen = []
    kernel = ad._rows_matmul

    def record(blocks, b, prefix=None):
        seen.append((blocks, b.shape, prefix))
        return kernel(blocks, b, prefix)

    monkeypatch.setattr(ad, "_rows_matmul", record)
    # one shape, then a forest of three expanded as one Stack per stage
    rng = np.random.default_rng(59)
    latents = [z] + [rng.normal(size=512).astype(np.float32) for _ in range(2)]
    e, u = config.embed_width, config.latent_width
    width = params["exp.l0.w"].shape[1]
    sizes = config.stage_sizes()
    for roots in (1, 3):
        seen.clear()
        if roots == 1:
            m.generate(z, params)
        else:
            with ad.shape_tapes(roots) as tapes:
                m.expansion_graph(ad.stack([ad.Tensor(x) for x in latents], tapes), params)
        assert not any(shape == (e + u, width) for _, shape, _ in seen)
        prefixes = [blocks for blocks, shape, _ in seen if shape == (e, width)]
        continued = [(blocks, p) for blocks, shape, p in seen if shape == (u, width)]
        assert len(prefixes) == len(continued) == config.stage_count
        for stage, k in enumerate(config.k_schedule):
            (slots,), ((parents,), prefix) = prefixes[stage], continued[stage]
            emb = params[f"emb.d{stage}"].data
            assert slots.shape == (k, e) and np.shares_memory(slots, emb)
            assert not isinstance(parents, ad.Gathered)
            assert parents.shape == (roots * sizes[stage], u) and prefix.shape == (k, width)
        mh = [blocks for blocks, shape, _ in seen if shape == (u, u)]
        # the roots' codes, then each stage's parents: the row count of the
        # stage before, where the update's output has a row per point
        assert [len(a) for a in mh] == [1] * config.stage_count
        assert not any(isinstance(a[0], ad.Gathered) for a in mh)
        assert [a[0].shape[0] for a in mh] == [roots * n for n in [1] + sizes[:-2]]


def test_recorded_expansions_still_read_every_siblings_rep():
    # on a tape the siblings' reps are kept as their parent's row: still
    # expand_point gives (k, U) reps, each the parent's update, and every
    # stage (n, U) reps, byte-equal to an unrecorded run
    config = m.GeneratorConfig(k_schedule=(4, 3), latent_width=16, embed_width=8,
                               mlp_hidden=(16,))
    params = m.init_parameters(config, seed=2)
    rng = np.random.default_rng(61)
    s, h, z = (rng.normal(size=n).astype(np.float32) for n in (3, 16, 16))
    with ad.Tape() as tape:
        _, reps, _ = m.expand_point(s, h, 0.5, 1, params)
        recorded = m.expansion_graph(z, params)
    plain = m.expansion_graph(z, params)
    assert isinstance(reps, ad.Gathered) and reps.shape == reps.data.shape == (3, 16)
    sub = m.extract_substructure(s, h, params).data
    assert reps.data.tobytes() == np.tile(sub, (3, 1)).tobytes()
    for a, b in zip(recorded[:3], plain[:3], strict=True):  # points, reps, scales
        for sa, sb, n in zip(a, b, config.stage_sizes(), strict=True):
            assert sa.data.shape[0] == n
            assert sa.data.tobytes() == sb.data.tobytes()
    assert recorded[1][-1].data.shape == (12, 16)
    assert tape.replay()


def test_forest_expansion_keeps_child_reps_as_their_parents_rows(monkeypatch):
    # under shape tapes each stage's child representations are held as the
    # parents' rows, never as one row per child: the gathered Stack and
    # each shape's part, counted without reading any gathered copy. No
    # representation-wide array on a tape is longer than the last stage's
    # parents, and every tape replays
    config = m.GeneratorConfig(k_schedule=(3, 4, 2), latent_width=16, embed_width=8,
                               mlp_hidden=(12,))
    params = m.init_parameters(config, seed=6)
    rng = np.random.default_rng(71)
    latents = [ad.Tensor(rng.normal(size=16).astype(np.float32), requires_grad=True)
               for _ in range(3)]
    sizes = config.stage_sizes()
    with ad.shape_tapes(3) as tapes:
        _, reps, _, _ = m.expansion_graph(ad.stack(latents, tapes), params)
    with monkeypatch.context() as patch:
        patch.setattr(ad.Gathered, "data", property(lambda t: pytest.fail("gathered a copy")))
        for stage in range(1, len(sizes)):
            assert reps[stage].shape == (3 * sizes[stage], 16)
            assert stored(reps[stage]).shape == (3 * sizes[stage - 1], 16)
            assert [stored(p).shape[0] for p in reps[stage].parts] == [sizes[stage - 1]] * 3
        weights = {id(t.data) for _, t in params.items()}
        for tape in tapes:
            wide = [a for a in stored_arrays(tape)
                    if a.ndim == 2 and a.shape[1] == 16 and id(a) not in weights]
            assert max(len(a) for a in wide) == sizes[-2]
    assert all(tape.replay() for tape in tapes)


def test_shared_sibling_rows_leave_the_gradient_unchanged(monkeypatch):
    # the acceptance overfit generator on three of its 24-point shapes
    config = m.GeneratorConfig(k_schedule=(4, 4, 4), latent_width=64, embed_width=32,
                               mlp_hidden=(128, 128))
    params = m.init_parameters(config, seed=0)
    batch = [dataio.synth_shape(kind, 24, seed=s) for kind, s in
             (("sphere", 10), ("box", 11), ("table", 13))]

    def gradient():
        with ad.Tape() as tape:
            loss, _ = training.total_loss(params, batch, training.TrainConfig(reg_weight=5e-5))
        grads = ad.backward(loss, tape, leaves=[t for _, t in params.items()])
        return len(tape), [g.data.tobytes() for g in grads.values()]

    shared = gradient()
    _gathered_in_full(monkeypatch)
    assert gradient() == shared


def test_isolated_path_replay_reproduces_representations_bitwise():
    rng = np.random.default_rng(31)
    for trial in range(5):
        config = random_config(rng)
        params = m.init_parameters(config, seed=trial)
        z = rng.normal(size=config.latent_width).astype(np.float32)
        trace = m.generate(z, params)
        reps = m.expansion_graph(z, params)[1]
        depth = config.stage_count
        for _ in range(3):
            leaf = int(rng.integers(config.leaf_count))
            chain = [leaf]
            for d in range(depth, 0, -1):
                chain.append(int(trace.stages[d].parent[chain[-1]]))
            chain.reverse()  # index of the ancestor at each stage 0..depth
            rep = reps[0].data[0]
            for d in range(depth):
                anchor = trace.stages[d].points[chain[d]]
                rep = m.extract_substructure(anchor, rep, params).data
            np.testing.assert_array_equal(rep, reps[depth].data[leaf])


def test_isolated_expansion_replay_reproduces_children_bitwise():
    rng = np.random.default_rng(37)
    config = random_config(rng)
    params = m.init_parameters(config, seed=9)
    z = rng.normal(size=config.latent_width).astype(np.float32)
    trace = m.generate(z, params)
    reps = [r.data for r in m.expansion_graph(z, params)[1]]
    for d, k in enumerate(config.k_schedule):
        stage = trace.stages[d]
        i = int(rng.integers(len(stage)))
        cp, cr, cs = m.expand_point(
            stage.points[i], reps[d][i], float(stage.scales[i]), d, params
        )
        lo, hi = i * k, (i + 1) * k
        np.testing.assert_array_equal(cp.data, trace.stages[d + 1].points[lo:hi])
        np.testing.assert_array_equal(cr.data, reps[d + 1][lo:hi])
        np.testing.assert_array_equal(cs.data, trace.stages[d + 1].scales[lo:hi])


def test_segment_hand_cases_and_group_sizes():
    params = tiny_params(seed=3)
    z = np.random.default_rng(41).normal(size=8).astype(np.float32)
    trace = m.generate(z, params)
    np.testing.assert_array_equal(m.segment(trace, 2, 1), [0, 0, 1, 1])
    np.testing.assert_array_equal(m.segment(trace, 2, 0), [0, 0, 0, 0])
    np.testing.assert_array_equal(m.segment(trace, 1, 0), [0, 0])
    with pytest.raises(ValueError):
        m.segment(trace, 1, 1)
    with pytest.raises(ValueError):
        m.segment(trace, 3, 0)

    rng = np.random.default_rng(43)
    config = random_config(rng)
    trace = m.generate(
        rng.normal(size=config.latent_width).astype(np.float32),
        m.init_parameters(config, seed=1),
    )
    depth = config.stage_count
    for d_anc in range(depth):
        labels = m.segment(trace, depth, d_anc)
        sizes = config.stage_sizes()
        group = int(np.prod(config.k_schedule[d_anc:], dtype=np.int64))
        assert len(set(labels.tolist())) == sizes[d_anc]
        counts = np.bincount(labels)
        assert np.all(counts == group)


def test_end_to_end_generation_gradients_match_finite_differences():
    params = tiny_params(dtype=np.float64, seed=5)
    rng = np.random.default_rng(47)
    z = rng.normal(size=8)
    w = rng.normal(size=(4, 3))

    def loss_fn(p):
        pts_per_stage, _, scales_per_stage, _ = m.expansion_graph(z, p)
        leaf = pts_per_stage[-1]
        weighted = ad.mul(leaf, ad.Tensor(w, dtype=np.float64))
        return ad.add(ad.tensor_sum(weighted), ad.tensor_mean(scales_per_stage[-1]))

    check_param_grads(loss_fn, params, rng)


def test_expansion_graph_validates_latent_shape():
    params = tiny_params()
    with pytest.raises(ValueError):
        m.expansion_graph(np.zeros(5), params)
    with pytest.raises(ValueError):
        m.encode(np.zeros((4, 2)), params)


def _openblas_corename():
    # the kernel family the OpenBLAS bundled in NumPy's wheel runs, or None
    # when there is no such library or it lacks the call
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def inference_digest():
    """sha256 over a table's plain and variational inference: every stage's
    points and radii of the generated tree, and the Chamfer distance to the
    table, from small configs at their initial weights."""
    import hashlib

    from pointtree.geometry import chamfer_distance

    digest = hashlib.sha256()
    table = dataio.synth_shape("table", 256, seed=5)
    for vae in (False, True):
        config = m.GeneratorConfig(k_schedule=(4, 4, 4), latent_width=32, embed_width=16,
                                   mlp_hidden=(32, 32), vae_mode=vae)
        params = m.init_parameters(config, seed=3)
        code = m.encode(table, params)
        trace = m.generate((code[0] if vae else code).data, params)
        for stage in trace.stages:
            digest.update(stage.points.tobytes() + stage.scales.tobytes())
        digest.update(np.float64(chamfer_distance(trace.leaf_points(), table.points)).tobytes())
    return digest.hexdigest()


def test_inference_bytes_are_equal_across_blas_kernel_families():
    # the forward never calls BLAS: encoding, generation and Chamfer scoring
    # give the same bytes when OpenBLAS runs another CPU family's kernels,
    # which would round a BLAS product differently. Each family runs in a
    # child process, since OpenBLAS picks its kernels when it loads
    import os
    import subprocess
    import sys

    if _openblas_corename() is None:
        pytest.skip("NumPy's OpenBLAS does not report its kernel family")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    script = ("import test_model as t; "
              "print(t._openblas_corename(), t.inference_digest())")
    expected = inference_digest()
    for family in ("Prescott", "Nehalem"):
        env = dict(os.environ, OPENBLAS_CORETYPE=family,
                   PYTHONPATH=os.pathsep.join([tests, src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests,
                               capture_output=True, text=True, timeout=120, check=True)
        corename, digest = child.stdout.split()
        assert digest == expected, (family, corename, _openblas_corename())
