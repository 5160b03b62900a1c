import numpy as np
import pytest

from pointtree import autodiff as ad
from gradcheck import check_grads, numeric_grad, rel_err


def proj_build(op, out_shape, seed=0):
    # weight the output by a fixed random projection so every element of the
    # intermediate influences the scalar loss differently
    w = np.random.default_rng(seed).normal(size=out_shape)

    def build(ts):
        return ad.tensor_sum(ad.mul(op(ts), ad.Tensor(w, dtype=np.float64)))

    return build


def test_matmul_gradients_all_rank_combos():
    rng = np.random.default_rng(11)
    cases = [
        ((4, 3), (3, 5), (4, 5)),
        ((4, 3), (3,), (4,)),
        ((3,), (3, 5), (5,)),
        ((3,), (3,), ()),
    ]
    for sa, sb, so in cases:
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)
        check_grads(proj_build(lambda ts: ad.matmul(ts[0], ts[1]), so), [a, b])


def _matmul_index_order(a, b):
    # reference kernel: one full-size rank-1 update per contraction index
    out = a[:, 0:1] * b[0, :]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[k, :]
    return out


def _with_zeros(x):
    # signed zeros make an element's bytes depend on which products it sums
    x[::5] = 0.0
    x[1::7] = -0.0
    return x


_QUIET_NAN = {4: 0x7FC00000, 8: 0x7FF8000000000000}  # bits by itemsize


def _with_nans(a):
    # quiet NaNs with two payloads, in the first and last rows of `a`; each
    # output element meets at most one of them, so its bytes carry that
    # payload (which of two NaNs a multiply or add keeps is NumPy's choice,
    # and varies with an element's position in its loop)
    quiet = _QUIET_NAN[a.itemsize]
    bits = a.view(f"u{a.itemsize}")
    bits[0, -1] = quiet | 1
    if len(a) > 1:
        bits[-1, 0] = quiet | 2
    return a


def _first_block_size(n, m):
    # output elements in the first block of an (n, ?) @ (?, m) product:
    # whole rows when n <= m, else _MATMUL_RUN rows by as many columns as fit
    if n > m:
        run = min(n, ad._MATMUL_RUN)
        return run * max(1, min(m, ad._MATMUL_BLOCK // run))
    return min(n, max(1, ad._MATMUL_BLOCK // m)) * m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [1, 3, 257])
def test_blocked_matmul_is_byte_equal_to_index_order_loop(dtype, m):
    # row counts on both sides of m (which orientation runs), on the edges
    # of a block of whole output rows and of a transposed block of
    # _MATMUL_RUN rows, and over several of each
    rng = np.random.default_rng(m)
    rows = max(1, ad._MATMUL_BLOCK // m)  # rows per block of whole rows
    run = ad._MATMUL_RUN  # rows per transposed block
    sizes = {0, 1, m - 1, m, m + 1, rows - 1, rows, rows + 1, 3 * rows + 7,
             run - 1, run, run + 1, 3 * run + 7}
    for n in sorted(sizes):
        for inner in (1, 2, 17):
            for nans in (False, True):
                a = _with_zeros(rng.normal(size=(n, inner)).astype(dtype))
                b = rng.normal(size=(inner, m)).astype(dtype)
                b[:, 0] = np.abs(b[:, 0])  # a -0.0 row of a keeps -0.0 in column 0
                b[-1, 1:] = -0.0
                if nans and n:
                    a = _with_nans(a)
                out, _ = ad._fwd_matmul([a, b], {})
                ref = _matmul_index_order(a, b)
                assert out.dtype == ref.dtype and out.shape == ref.shape
                assert out.tobytes() == ref.tobytes(), (n, inner, nans)
                col, _ = ad._fwd_matmul([a, b[:, -1].copy()], {})  # 1-D b
                assert col.tobytes() == ref[:, -1].tobytes(), (n, inner, nans)
                if n:
                    row, _ = ad._fwd_matmul([a[-1].copy(), b], {})  # 1-D a
                    assert row.tobytes() == ref[-1].tobytes(), (n, inner, nans)
    # contraction lengths on the edges of a chunk of products formed in one
    # multiply, for a small block and a mid-size one (4096 elements or so)
    for n in (2, 4096 // m + 1):
        chunk = ad._MATMUL_BLOCK // _first_block_size(n, m)
        assert chunk > 1, n
        for inner in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            a = _with_zeros(rng.normal(size=(n, inner)).astype(dtype))
            b = rng.normal(size=(inner, m)).astype(dtype)
            out, _ = ad._fwd_matmul([a, b], {})
            assert out.tobytes() == _matmul_index_order(a, b).tobytes(), (n, inner)
    # every product -0.0: each add keeps -0.0, where a sum started at +0.0
    # would give +0.0
    for n, inner in ((2, 40), (4096 // m + 1, 40)):
        a = np.full((n, inner), -0.0, dtype=dtype)
        b = np.abs(rng.normal(size=(inner, m))).astype(dtype) + 0.5
        out, _ = ad._fwd_matmul([a, b], {})
        assert np.all(out == 0.0) and np.signbit(out).all(), (n, inner)
    # a one-element output, whose chunk axis a reduction would sum pairwise
    if m == 1:
        for inner in (9, 17, 100, 1000):
            a = rng.normal(size=(1, inner)).astype(dtype)
            b = rng.normal(size=(inner, 1)).astype(dtype)
            out, _ = ad._fwd_matmul([a, b], {})
            assert out.tobytes() == _matmul_index_order(a, b).tobytes(), inner


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_single_nan_keeps_its_payload_in_every_kernel_path(dtype):
    # one NaN in `a` or in `b` reaches every element whose chain it joins
    # with its payload intact, whichever kernel path forms the product
    rng = np.random.default_rng(31)
    payload = _QUIET_NAN[np.dtype(dtype).itemsize] | 5
    utype = f"u{np.dtype(dtype).itemsize}"
    plain = {  # (n, inner, m): the path each shape takes
        "chunked whole rows": (3, 40, 5),
        "chunked transposed": (300, 40, 3),
        "whole rows, one multiply per index": (16, 5, 4096),
        "transposed, one multiply per index": (4096, 5, 32),
    }
    for name, (n, inner, m) in plain.items():
        chunk = ad._MATMUL_BLOCK // _first_block_size(n, m)
        assert (chunk > 1) == name.startswith("chunked"), name
        for operand, (i, j) in (("a", (n // 2, inner // 2)), ("b", (inner // 2, m // 2))):
            a = rng.normal(size=(n, inner)).astype(dtype)
            b = rng.normal(size=(inner, m)).astype(dtype)
            target = a if operand == "a" else b
            target.view(utype)[i, j] = payload
            out, _ = ad._fwd_matmul([a, b], {})
            hit = out[i] if operand == "a" else out[:, j]
            assert (hit.view(utype) == payload).all(), (name, operand)
            assert np.isfinite(out).sum() == out.size - hit.size, (name, operand)
    # grouped: one NaN value per column kind, in the leading run and after it
    r, groups = 4, 6
    for kinds in ("wan", "nwa"):
        for col, kind in enumerate(kinds):
            a = _grouped(rng, kinds, groups, r, dtype)
            b = rng.normal(size=(len(kinds), 33)).astype(dtype)
            rows = {"w": slice(4, 8), "a": slice(1, None, r), "n": slice(9, 10)}[kind]
            a.view(utype)[rows, col] = payload
            assert ad._column_kinds(a, r)[col] == _KIND_NAMES[kind]
            out, _ = ad._fwd_matmul([a, b], {"groups": r})
            assert (out[rows].view(utype) == payload).all(), (kinds, kind)
            assert np.isfinite(out).sum() == out.size - out[rows].size, (kinds, kind)


def test_matmul_row_is_independent_of_batch():
    # a row's bytes do not depend on the batch around it: computed alone
    # (2-D and 1-D, one row runs along the columns), at any position in a
    # batch spanning several transposed blocks, in a batch short enough to
    # run along the columns, or after the batch is permuted
    rng = np.random.default_rng(21)
    w = ad.Tensor(rng.normal(size=(37, 257)).astype(np.float32))
    rows, run = ad._MATMUL_BLOCK // 257, ad._MATMUL_RUN
    batch = _with_zeros(rng.normal(size=(3 * run + 5, 37)).astype(np.float32))
    full = ad.matmul(ad.Tensor(batch), w).data
    positions = (0, rows - 1, rows, run - 1, run, 2 * run + 3, len(batch) - 1)
    for i in positions:
        row = batch[i]
        assert ad.matmul(ad.Tensor(row[None]), w).data.tobytes() == full[i].tobytes()
        assert ad.matmul(ad.Tensor(row), w).data.tobytes() == full[i].tobytes()
        for j in positions:
            moved = batch[::-1].copy()
            moved[j] = row
            assert ad.matmul(ad.Tensor(moved), w).data[j].tobytes() == full[i].tobytes()
    for size in (rows + 1, 257, 258):  # whole-row blocks, then transposed
        assert ad.matmul(ad.Tensor(batch[:size]), w).data.tobytes() == full[:size].tobytes()
    perm = rng.permutation(len(batch))
    assert ad.matmul(ad.Tensor(batch[perm]), w).data.tobytes() == full[perm].tobytes()


def test_matmul_kernels_run_with_the_small_buffer_and_restore_it(monkeypatch):
    # every matmul kernel and the nearest-neighbour block scan see the small
    # ufunc buffer, and the caller's size comes back afterwards, also when
    # the kernel raises
    from pointtree import geometry

    seen = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            seen.append((name, np.getbufsize()))
            return real(*args)

        monkeypatch.setattr(module, name, wrapped)

    spy(ad, "_rows_matmul")
    spy(ad, "_grouped_matmul")
    spy(geometry, "_exhaustive_nn")
    rng = np.random.default_rng(23)
    a = ad.Tensor(rng.normal(size=(8, 5)).astype(np.float32))
    b = ad.Tensor(rng.normal(size=(5, 3)).astype(np.float32))
    outer = np.getbufsize()
    try:
        np.setbufsize(4096)  # any caller's size, not only the default
        ad.matmul(a, b)
        ad.matmul(a, b, groups=2)
        ad.matmul(ad.Tensor(a.data[0]), b)
        geometry.nearest_neighbors(a.data[:, :3], b.data)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(outer)
    assert {name for name, _ in seen} == {"_rows_matmul", "_grouped_matmul", "_exhaustive_nn"}
    assert all(size == ad._UFUNC_BUFSIZE for _, size in seen), seen

    def fail(*args):
        raise ad.ShapeMismatchError("raised inside the kernel")

    monkeypatch.setattr(ad, "_rows_matmul", fail)
    with pytest.raises(ad.ShapeMismatchError, match="inside the kernel"):
        ad.matmul(a, b)
    assert np.getbufsize() == outer


def test_matmul_buffer_size_is_restored_in_a_worker_thread():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(29)
    a = ad.Tensor(rng.normal(size=(300, 7)).astype(np.float32))
    b = ad.Tensor(rng.normal(size=(7, 9)).astype(np.float32))
    outer = np.getbufsize()

    def work():
        before = np.getbufsize()
        out = ad.matmul(a, b).data
        return before, np.getbufsize(), out

    with ThreadPoolExecutor(max_workers=1) as pool:
        before, after, out = pool.submit(work).result()
    assert before == after
    assert np.getbufsize() == outer
    assert out.tobytes() == ad.matmul(a, b).data.tobytes()


def _runs(rng, lengths, width, dtype):
    # consecutive runs of identical rows, one random row per run
    rows = rng.normal(size=(len(lengths), width)).astype(dtype)
    return np.ascontiguousarray(np.repeat(rows, lengths, axis=0))


def _grouped(rng, kinds, groups, r, dtype):
    # `groups` groups of r rows; column c is constant inside every group
    # ("w"), repeats slot by slot from group to group ("a"), or is free ("n")
    cols = {
        "w": lambda: np.repeat(rng.normal(size=groups), r),
        "a": lambda: np.tile(rng.normal(size=r), groups),
        "n": lambda: rng.normal(size=groups * r),
    }
    return np.ascontiguousarray(np.stack([cols[c]() for c in kinds], axis=1).astype(dtype))


_KIND_NAMES = {"w": "within", "a": "across", "n": "neither"}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_grouped_matmul_is_byte_equal_to_index_order_loop(dtype, r):
    rng = np.random.default_rng(59 + r)
    m = 257
    per_block = max(1, ad._MATMUL_BLOCK // (r * m))  # groups per row block
    orders = ["wan", "wna", "awn", "anw", "nwa", "naw", "aawwnwa", "wwwann", "www", "aaa", "nnn"]
    for groups in (1, 2, per_block - 1, per_block, per_block + 1, 2 * per_block + 3):
        for kinds in orders:
            a = _grouped(rng, kinds, groups, r, dtype)
            b = rng.normal(size=(len(kinds), m)).astype(dtype)
            b[-1, 1:] = -0.0
            out, _ = ad._fwd_matmul([a, b], {"groups": r})
            ref = _matmul_index_order(a, b)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes(), (groups, kinds)
            if groups > 1 and r > 1:  # one group or one slot makes every column both
                assert ad._column_kinds(a, r) == [_KIND_NAMES[c] for c in kinds]
            col = ad._fwd_matmul([a, b[:, :1].copy()], {"groups": r})[0]  # a 1-column b
            assert col.tobytes() == ref[:, :1].tobytes(), (groups, kinds)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_matmul_never_merges_unequal_bits(dtype):
    # a column that looks constant in a group but is not, bit for bit, must
    # not share a product: one element apart, 0.0 against -0.0, and NaNs
    # with different payloads
    rng = np.random.default_rng(61)
    r, groups, kinds = 4, 9, "awwnw"
    b = np.abs(rng.normal(size=(len(kinds), 33))).astype(dtype) + 0.5  # keeps signs visible
    nan = np.array(np.nan, dtype=dtype)
    other_nan = nan.copy()
    other_nan.view(f"u{nan.itemsize}")[...] ^= 5  # a second payload
    changes = {
        "one element apart": (6, 2, lambda x: x + 1),
        "signed zero": (2, 1, lambda x: -0.0),
        "nan payloads": (4, 3, lambda x: other_nan),
    }
    for name, (row, col, change) in changes.items():
        a = _grouped(rng, kinds, groups, r, dtype)
        if name == "signed zero":
            a[:, col] = 0.0
        if name == "nan payloads":
            a[:, col] = nan
        a[row, col] = change(a[row, col])
        assert ad._column_kinds(a, r)[col] != "within", name
        out, _ = ad._fwd_matmul([a, b], {"groups": r})
        assert out.tobytes() == _matmul_index_order(a, b).tobytes(), name
        equal = a.copy()
        equal[row, col] = equal[row ^ 1, col]  # the same bits again: the column shares
        assert ad._column_kinds(equal, r)[col] == "within", name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_rows_product_is_byte_equal_to_plain_product(dtype):
    # rows that are whole copies inside each group: every column is within,
    # so the chain runs once per group and is repeated
    rng = np.random.default_rng(41)
    m = 257
    block = ad._MATMUL_BLOCK // m  # rows per block
    b = rng.normal(size=(33, m)).astype(dtype)
    nan_row = np.full(33, np.nan, dtype=dtype)
    nan_row.view(f"u{nan_row.itemsize}")[:] |= 5  # one payload, not the default NaN
    other_nan = nan_row.copy()
    other_nan.view(f"u{nan_row.itemsize}")[0] ^= 2  # the first product carries its payload
    one_apart = _runs(rng, [4], 33, dtype)
    one_apart[2:, 7] += 1  # rows 2 and 3 differ from rows 0 and 1 in one element
    cases = {
        "groups of 1": (1, _runs(rng, [1] * 9, 33, dtype)),
        "groups of k": (4, _runs(rng, [4] * 6, 33, dtype)),
        "crosses a block edge": (8, _runs(rng, [8] * (block // 8 + 3), 33, dtype)),
        "one group": (2 * block + 6, _runs(rng, [2 * block + 6], 33, dtype)),
        "nan rows": (
            2, np.vstack([nan_row, nan_row, other_nan, nan_row, _runs(rng, [2], 33, dtype)])
        ),
        "signed zeros": (3, _with_zeros(_runs(rng, [3, 3], 33, dtype))),
        "one element apart": (2, one_apart),
    }
    for name, (r, a) in cases.items():
        plain, _ = ad._fwd_matmul([a, b], {})
        shared, _ = ad._fwd_matmul([a, b], {"groups": r})
        assert shared.dtype == plain.dtype and shared.shape == plain.shape, name
        assert shared.tobytes() == plain.tobytes(), name
        vec, _ = ad._fwd_matmul([a, b[:, 0].copy()], {"groups": r})
        assert vec.tobytes() == ad._fwd_matmul([a, b[:, 0].copy()], {})[0].tobytes(), name


def test_shared_rows_keeps_signed_zero_rows_apart():
    # 0.0 == -0.0 as floats, but a positive b sends an all -0.0 row to
    # -0.0 and an all 0.0 row to 0.0, so the two rows share no product
    b = np.abs(np.random.default_rng(43).normal(size=(6, 5))).astype(np.float32) + 0.5
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        a = np.array([[first] * 6, [second] * 6, [second] * 6, [second] * 6], dtype=np.float32)
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b), groups=2).data
        assert np.all(out == 0.0)
        signs = (first, second, second, second)
        assert np.signbit(out).tolist() == [[np.signbit(v)] * 5 for v in signs]


def test_shared_rows_hint_is_recorded_and_replays():
    rng = np.random.default_rng(47)
    h = ad.Tensor(_runs(rng, [4, 4, 4], 6, np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(6, 6)).astype(np.float32), requires_grad=True)
    with ad.Tape() as tape:
        ad.tensor_sum(ad.tanh(ad.add(ad.matmul(h, w, groups=4), ad.matmul(h, w))))
    hinted, plain = (e for e in tape.entries if e.kind == "matmul")
    assert hinted.attrs == {"groups": 4} and plain.attrs == {}
    assert hinted.output.data.tobytes() == plain.output.data.tobytes()
    assert tape.replay()
    h.data[0, 0] += 1.0  # breaks the first group; the product must follow
    assert not tape.replay()
    for groups in (5, 24):  # rows must split into whole groups
        with pytest.raises(ad.ShapeMismatchError, match=f"groups of {groups}"):
            ad.matmul(h, w, groups=groups)
    with pytest.raises(ad.ShapeMismatchError, match="groups of 2"):
        ad.matmul(ad.Tensor(h.data[0]), w, groups=2)


@pytest.mark.parametrize("op", [ad.add, ad.mul, ad.div])
def test_binary_elementwise_gradients(op):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    b = np.abs(b) + 0.5  # keep div denominators away from zero
    check_grads(proj_build(lambda ts: op(ts[0], ts[1]), (3, 4)), [a, b])
    # scalar-vs-tensor broadcast, both directions
    s = np.array([1.7])
    check_grads(proj_build(lambda ts: op(ts[0], ts[1]), (3, 4)), [a, s.reshape(1)])
    check_grads(proj_build(lambda ts: op(ts[0], ts[1]), (3, 4)), [s, np.abs(a) + 0.5])
    # row-vs-matrix broadcast, both directions
    r = np.abs(rng.normal(size=(4,))) + 0.5
    check_grads(proj_build(lambda ts: op(ts[0], ts[1]), (3, 4)), [a, r])
    check_grads(proj_build(lambda ts: op(ts[0], ts[1]), (3, 4)), [r, b])


@pytest.mark.parametrize("width", [1, 3, 256])
def test_row_bias_gradient_adds_rows_in_index_order(width):
    # the bias gradient of a direct row add must be bit-identical to the
    # explicit route it replaces: reshape to (1, w), gather n copies, add.
    # At width 1, 2048 float32 rows are enough for a pairwise sum to round
    # differently from the in-order scatter
    rng = np.random.default_rng(width)
    x = ad.Tensor(rng.normal(size=(2048, 5)).astype(np.float32))
    weight = ad.Tensor(rng.normal(size=(5, width)).astype(np.float32), requires_grad=True)
    proj = ad.Tensor(rng.normal(size=(2048, width)).astype(np.float32))
    b = ad.Tensor(rng.normal(size=(width,)).astype(np.float32), requires_grad=True)

    def bias_grad(route):
        with ad.Tape() as tape:
            y = ad.add(ad.matmul(x, weight), route(b))
            loss = ad.tensor_sum(ad.mul(ad.tanh(y), proj))
        return ad.backward(loss, tape, leaves=[b])[b].data

    direct = bias_grad(lambda b: b)
    gathered = bias_grad(
        lambda b: ad.gather_rows(ad.reshape(b, (1, width)), np.zeros(2048, dtype=np.int64))
    )
    assert direct.shape == (width,) and direct.dtype == np.float32
    np.testing.assert_array_equal(direct, gathered)


def test_row_broadcast_over_zero_rows_has_zero_gradient():
    b = ad.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.add(ad.Tensor(np.ones((0, 3))), b))
    np.testing.assert_array_equal(ad.backward(loss, tape, leaves=[b])[b].data, np.zeros(3))


def test_scale_gradient():
    x = np.random.default_rng(1).normal(size=(5,))
    check_grads(proj_build(lambda ts: ad.scale(ts[0], -2.5), (5,)), [x])


@pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.exp, ad.square, ad.leaky_relu])
def test_unary_gradients(op):
    rng = np.random.default_rng(3)
    # magnitudes in [0.2, 1.5] with random signs: stays clear of the
    # leaky_relu kink at zero where finite differences are meaningless
    x = rng.uniform(0.2, 1.5, size=(4, 6)) * rng.choice([-1.0, 1.0], size=(4, 6))
    check_grads(proj_build(lambda ts: op(ts[0]), (4, 6)), [x])


def test_leaky_relu_values():
    x = ad.Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    y = ad.leaky_relu(x)
    np.testing.assert_allclose(y.data, [-0.4, -0.1, 0.0, 0.5, 2.0], rtol=1e-6)


def test_norm_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3)) + 0.1
    check_grads(proj_build(lambda ts: ad.norm(ts[0]), (6,)), [x])
    v = rng.normal(size=(4,)) + 0.1
    check_grads(proj_build(lambda ts: ad.norm(ts[0]), ()), [v])


def test_norm_zero_row_subgradient_is_zero():
    x = ad.Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.norm(x))
    g = ad.backward(loss, tape, leaves=[x])[x]
    assert np.all(g.data == 0.0)
    assert not np.any(np.isnan(g.data))


@pytest.mark.parametrize("op,out_shape", [(ad.tensor_sum, ()), (ad.tensor_mean, ())])
def test_full_reduction_gradients(op, out_shape):
    x = np.random.default_rng(9).normal(size=(3, 5))
    check_grads(proj_build(lambda ts: op(ts[0]), out_shape), [x])


def test_max_reduce_gradients():
    rng = np.random.default_rng(13)
    # well-separated values so the argmax is stable under fd perturbation
    x = rng.permutation(np.arange(24, dtype=np.float64) * 0.37).reshape(4, 6)
    check_grads(proj_build(lambda ts: ad.max_reduce(ts[0]), (4,)), [x])


def test_max_reduce_tie_routes_to_lowest_index():
    x = ad.Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]), requires_grad=True, dtype=np.float64)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.max_reduce(x))
    assert loss.item() == 3.0
    g = ad.backward(loss, tape, leaves=[x])[x]
    np.testing.assert_array_equal(g.data, [[0.0, 1.0, 0.0, 0.0]])


def test_concat_gradients():
    rng = np.random.default_rng(17)
    parts = [rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))]
    check_grads(proj_build(lambda ts: ad.concat(ts, axis=0), (7, 3)), parts)
    cols = [rng.normal(size=(3, 2)), rng.normal(size=(3, 5))]
    check_grads(proj_build(lambda ts: ad.concat(ts, axis=1), (3, 7)), cols)


def test_reshape_transpose_gather_gradients():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(4, 6))
    check_grads(proj_build(lambda ts: ad.reshape(ts[0], (8, 3)), (8, 3)), [x])
    check_grads(proj_build(lambda ts: ad.transpose(ts[0]), (6, 4)), [x])
    idx = np.array([3, 0, 0, 2])
    check_grads(proj_build(lambda ts: ad.gather_rows(ts[0], idx), (4, 6)), [x])


def test_gather_rows_repeated_indices_accumulate():
    x = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True, dtype=np.float64)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.gather_rows(x, np.array([1, 1, 1, 0])))
    g = ad.backward(loss, tape, leaves=[x])[x]
    expect = np.zeros((4, 3))
    expect[1] = 3.0
    expect[0] = 1.0
    np.testing.assert_array_equal(g.data, expect)


def test_composite_graph_gradients():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(5, 3))
    w1 = rng.normal(size=(3, 8)) * 0.5
    b1 = rng.normal(size=(8,)) * 0.1
    w2 = rng.normal(size=(8, 4)) * 0.5

    def build(ts):
        xx, ww1, bb1, ww2 = ts
        # (h,) bias added straight onto the (n, h) rows, as the model does
        h = ad.leaky_relu(ad.add(ad.matmul(xx, ww1), bb1))
        t = ad.tanh(ad.matmul(h, ww2))
        pooled = ad.max_reduce(ad.transpose(t))  # per-feature max over rows
        return ad.add(ad.tensor_sum(ad.norm(pooled)), ad.tensor_mean(ad.square(h)))

    check_grads(build, [x, w1, b1, w2])


def test_fanout_reuse_accumulates():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6,))

    def build(ts):
        (t,) = ts
        return ad.add(ad.tensor_sum(ad.square(t)), ad.tensor_sum(ad.mul(t, ad.sigmoid(t))))

    check_grads(build, [x])


def test_backward_requires_scalar_loss():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.square(x)
    with pytest.raises(ValueError):
        ad.backward(y, tape)


def test_backward_unreached_leaf_gets_zero_gradient():
    x = ad.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    z = ad.Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.square(x))
        ad.tensor_sum(z)  # on the tape but not feeding the loss
    grads = ad.backward(loss, tape, leaves=[x, z])
    np.testing.assert_allclose(grads[x].data, 2.0 * np.ones(3))
    np.testing.assert_array_equal(grads[z].data, np.zeros(4))


def test_backward_discovers_leaves_when_not_given():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    c = ad.Tensor(np.full(3, 2.0))  # constant: must not appear in the map
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.mul(x, c))
    grads = ad.backward(loss, tape)
    assert set(grads) == {x}
    np.testing.assert_allclose(grads[x].data, c.data)


def test_backward_twice_gives_identical_gradients():
    x = ad.Tensor(np.arange(1.0, 5.0), requires_grad=True, dtype=np.float64)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.mul(ad.tanh(x), x))
    g1 = ad.backward(loss, tape, leaves=[x])[x]
    g2 = ad.backward(loss, tape, leaves=[x])[x]
    np.testing.assert_array_equal(g1.data, g2.data)


def test_nothing_recorded_without_tape_or_grad_flag():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    ad.square(x)  # no active tape
    with ad.Tape() as tape:
        ad.square(ad.Tensor(np.ones(3)))  # no requires_grad
    assert len(tape) == 0


def test_nested_tapes_record_on_innermost_only():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as outer:
        ad.square(x)
        with ad.Tape() as inner:
            ad.tanh(x)
        ad.exp(x)
    assert [e.kind for e in outer.entries] == ["square", "exp"]
    assert [e.kind for e in inner.entries] == ["tanh"]


def test_replay_is_bit_identical_until_leaves_change():
    x = ad.Tensor(np.random.default_rng(31).normal(size=(4, 4)), requires_grad=True)
    with ad.Tape() as tape:
        ad.tensor_sum(ad.tanh(ad.matmul(x, x)))
    assert tape.replay()
    x.data[0, 0] += 1.0
    assert not tape.replay()


def test_error_paths():
    f32 = ad.Tensor(np.ones(3, dtype=np.float32))
    f64 = ad.Tensor(np.ones(3), dtype=np.float64)
    with pytest.raises(ad.UnknownPrimitiveError):
        ad.apply_primitive("softmax", (f32,))
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(f32, ad.Tensor(np.ones(4, dtype=np.float32)))
    # a row must match the matrix's last axis and be 1-D
    for sa, sb in (((3, 4), (3,)), ((3, 4), (1, 4)), ((3, 3), (3, 1))):
        for x, y in ((sa, sb), (sb, sa)):
            with pytest.raises(ad.ShapeMismatchError):
                ad.add(ad.Tensor(np.ones(x)), ad.Tensor(np.ones(y)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.Tensor(np.ones((2, 2, 2))), ad.Tensor(np.ones((2, 2))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(3))], axis=0)
    with pytest.raises(ad.ShapeMismatchError):
        ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4)))], axis=0)
    with pytest.raises(ad.ShapeMismatchError):
        ad.reshape(f32, (5,))
    with pytest.raises(ad.ShapeMismatchError):
        ad.transpose(ad.Tensor(np.ones((2, 2, 2))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.gather_rows(f32, np.array([0, 3]))
    with pytest.raises(TypeError):
        ad.add(f32, f64)
    with pytest.raises(ValueError):
        ad.Tensor(np.ones((2, 2))).item()


def test_int_input_becomes_float32():
    t = ad.Tensor([1, 2, 3])
    assert t.dtype == np.float32


def test_float32_dtype_preserved_through_ops_and_grads():
    x = ad.Tensor(np.random.default_rng(37).normal(size=(3, 3)).astype(np.float32),
                  requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tensor_mean(ad.sigmoid(ad.matmul(x, x)))
    assert loss.dtype == np.float32
    g = ad.backward(loss, tape, leaves=[x])[x]
    assert g.dtype == np.float32


def test_sigmoid_is_stable_at_extremes():
    for dtype in (np.float32, np.float64):
        x = ad.Tensor(np.array([-500.0, -50.0, 0.0, 50.0, 500.0]), dtype=dtype)
        y = ad.sigmoid(x).data
        assert not np.any(np.isnan(y))
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert y[0] == 0.0 or y[0] < 1e-20
        assert y[-1] == 1.0 or y[-1] > 1.0 - 1e-7


def test_forward_and_gradients_are_deterministic():
    def run():
        x = ad.Tensor(np.random.default_rng(41).normal(size=(8, 8)).astype(np.float32),
                      requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.tensor_sum(ad.norm(ad.tanh(ad.matmul(x, ad.transpose(x)))))
        return loss.data.copy(), ad.backward(loss, tape, leaves=[x])[x].data.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_oracle_rejects_wrong_gradient():
    # guard on the harness itself: a deliberately wrong analytic gradient
    # must produce a large relative error against the numeric one
    x = np.random.default_rng(43).normal(size=(4,))
    fd = numeric_grad(lambda arrs: float(np.sum(arrs[0] ** 3)), [x], 0)
    assert rel_err(3.0 * x**2, fd) < 1e-6
    assert rel_err(2.0 * x, fd) > 1e-2
