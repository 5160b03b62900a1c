import os
import re
from fractions import Fraction

import numpy as np
import pytest

from pointtree import autodiff as ad
from gradcheck import check_grads, numeric_grad, rel_err
from tapecheck import tape_bytes, traced_peak
import unfused
from unfused import matmul_index_order as _matmul_index_order

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def proj_build(op, out_shape, seed=0):
    # weight the output by a fixed random projection so every element of the
    # intermediate influences the scalar loss differently
    w = np.random.default_rng(seed).normal(size=out_shape)

    def build(ts):
        return ad.tensor_sum(ad.mul(op(ts), ad.Tensor(np.asarray(w, np.float64))))

    return build


def test_matmul_gradients_all_rank_combos():
    # the product's vjp at every rank it serves: a 2-D or 1-D operand
    # against a matrix, as linear reads it and against the transpose, as
    # rep_update reads it
    rng = np.random.default_rng(11)
    for sa, so in (((4, 3), (4, 5)), ((3,), (5,))):
        a, w, b = rng.normal(size=sa), rng.normal(size=(3, 5)), rng.normal(size=5)
        check_grads(proj_build(lambda ts: ad.linear(*ts), so), [a, w, b])
        s, m = rng.normal(size=sa[:-1] + (2,)), rng.normal(size=(5, 2))
        check_grads(proj_build(lambda ts: ad.rep_update(*ts), so), [s, a, m, w.T.copy()])


def _product(blocks, b):
    # the fixed-order product kernel as linear runs it
    return ad._block_matmul("linear", blocks, b)


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


def _odd_offset(x):
    # a copy of x as a view that starts one element into its buffer, so its
    # rows sit off every SIMD alignment
    buf = np.empty(x.size + 1, dtype=x.dtype)
    view = buf[1:].reshape(x.shape)
    view[...] = x
    return view


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [1, 2, 3, 15, 16, 17, 31, 32, 33, 257])
def test_blocked_matmul_is_byte_equal_to_index_order_loop(dtype, m):
    # row counts on the edges of an einsum row block and over several of
    # them, widths on SIMD tails, on both sides of the narrow form's
    # crossover at _ROW_BLOCK and a one-column b (which einsum alone would
    # sum in another order), -0.0 products, and operands that start at an
    # odd element offset
    rng = np.random.default_rng(m)
    block = ad._ROW_BLOCK
    sizes = {0, 1, m - 1, m, m + 1, block - 1, block, block + 1, 3 * block + 7}
    for n in sorted(sizes):
        for inner in (1, 2, 17):
            for nans in (False, True):
                a = _with_zeros(rng.normal(size=(n, inner)).astype(dtype))
                b = rng.normal(size=(inner, m)).astype(dtype)
                b[:, 0] = np.abs(b[:, 0])  # a -0.0 row of a keeps -0.0 in column 0
                b[-1, 1:] = -0.0
                if nans and n:
                    a = _with_nans(a)
                out = _product([a], b)
                ref = _matmul_index_order(a, b)
                assert out.dtype == ref.dtype and out.shape == ref.shape
                assert out.tobytes() == ref.tobytes(), (n, inner, nans)
                odd = _product([_odd_offset(a)], _odd_offset(b))
                assert odd.tobytes() == ref.tobytes(), (n, inner, nans)
                col = _product([a], b[:, -1:].copy())  # one column
                assert col.tobytes() == ref[:, -1:].tobytes(), (n, inner, nans)
                if n:
                    row = _product([a[-1].copy()], b)  # 1-D a
                    assert row.tobytes() == ref[-1].tobytes(), (n, inner, nans)
    # long contraction axes, where a reordered sum would show
    for n in (1, 2, block + 1):
        for inner in (64, 256, 1000):
            a = _with_zeros(rng.normal(size=(n, inner)).astype(dtype))
            b = rng.normal(size=(inner, m)).astype(dtype)
            out = _product([a], b)
            ref = _matmul_index_order(a, b)
            assert out.tobytes() == ref.tobytes(), (n, inner)
            odd = _product([_odd_offset(a)], _odd_offset(b))
            assert odd.tobytes() == ref.tobytes(), (n, inner)
    # every product -0.0: each add keeps -0.0, where a sum started at +0.0
    # would give +0.0; on one row, across row blocks, and beside rows that
    # sum to +0.0 from products of both signs
    for n, inner in ((1, 40), (2, 40), (block + 1, 40)):
        a = np.full((n, inner), -0.0, dtype=dtype)
        b = np.abs(rng.normal(size=(inner, m))).astype(dtype) + 0.5
        out = _product([a], b)
        assert np.all(out == 0.0) and np.signbit(out).all(), (n, inner)
        a[-1, 1] = 0.0  # one +0.0 product ends the -0.0 chain of the last row
        out = _product([a], b)
        assert np.signbit(out[:-1]).all() and not np.signbit(out[-1]).any(), (n, inner)
    # one row against one column: a one-element output
    if m == 1:
        for inner in (9, 17, 100, 1000):
            a = rng.normal(size=(1, inner)).astype(dtype)
            b = rng.normal(size=(inner, 1)).astype(dtype)
            out = _product([a], b)
            assert out.tobytes() == _matmul_index_order(a, b).tobytes(), inner
            vec = _product([a[0].copy()], b)  # 1-D a
            assert vec.tobytes() == out.tobytes(), inner


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_rounds_every_multiply_and_add_on_its_own(dtype):
    # rows [1, x] against [[c], [x]] with c = -fl(x * x): the chain
    # c + fl(x * x) is exactly 0, where a fused multiply-add keeps the
    # rounding error of x * x (2**-24 for float32's x = 1 + 2**-12). A NumPy
    # build whose einsum loop fuses would change the bytes of every chain,
    # and fails here: in the narrow "->ji" form (one and two columns), the
    # wide "->ij" form, and the slot path, whose chain continues from the
    # prefix c through the product 1 * c
    x = dtype(1 + 2.0 ** -(np.finfo(dtype).nmant // 2 + 1))
    c = -(x * x)
    assert Fraction(float(x)) ** 2 != Fraction(float(x * x))  # x * x rounds
    a = np.array([[1, x]] * 3, dtype=dtype)
    b = np.array([[c], [x]], dtype=dtype)
    slots = ad.gather_rows(ad.Tensor(np.ones((2, 1), dtype=dtype)), np.tile([0, 1], 3))
    parents = ad.gather_rows(ad.Tensor(np.full((3, 1), x, dtype=dtype)), np.repeat(np.arange(3), 2))
    assert ad._slot_count([slots, parents]) == 2
    for width in (1, 2, ad._ROW_BLOCK + 1):
        bb = np.repeat(b, width, axis=1)
        for blocks in ([a], [slots, parents]):
            out = _product(blocks, bb)
            assert out.tobytes() == np.zeros_like(out).tobytes(), (width, len(blocks))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_single_nan_keeps_its_payload_in_every_kernel_path(dtype):
    # one NaN in `a` or in `b` reaches every element whose chain it joins
    # with its payload intact, whichever kernel path forms the product
    rng = np.random.default_rng(31)
    payload = _QUIET_NAN[np.dtype(dtype).itemsize] | 5
    utype = f"u{np.dtype(dtype).itemsize}"
    plain = {  # (n, inner, m)
        "one row block": (3, 40, 5),
        "several row blocks": (300, 40, 3),
        "one column": (70, 40, 1),
        "wide": (16, 5, 4096),
    }
    for name, (n, inner, m) in plain.items():
        for operand, (i, j) in (("a", (n // 2, inner // 2)), ("b", (inner // 2, m // 2))):
            a = rng.normal(size=(n, inner)).astype(dtype)
            b = rng.normal(size=(inner, m)).astype(dtype)
            target = a if operand == "a" else b
            target.view(utype)[i, j] = payload
            out = _product([a], b)
            hit = out[i] if operand == "a" else out[:, j]
            assert (hit.view(utype) == payload).all(), (name, operand)
            assert np.isfinite(out).sum() == out.size - hit.size, (name, operand)
    # declared: one NaN value in the rows of each kind of gathered column
    # block, first and later, in the layout whose products are shared and
    # in layouts gathered one row block at a time
    r, groups = 4, 6
    for kinds in ("aw", "aww", "w", "a", "wa", "nw"):
        for i, kind in enumerate(kinds):
            blocks = _declared(rng, kinds, groups, r, dtype)
            b = rng.normal(size=(2 * len(kinds), 33)).astype(dtype)
            source, rows = {"w": (1, slice(4, 8)), "a": (1, slice(1, None, r)),
                            "n": (groups * r - 10, slice(9, 10))}[kind]
            blocks[i].rows.view(utype)[source, 1] = payload
            out = _product(blocks, b)
            assert (out[rows].view(utype) == payload).all(), (kinds, kind)
            assert np.isfinite(out).sum() == out.size - out[rows].size, (kinds, kind)


def test_matmul_row_is_independent_of_batch():
    # a row's bytes do not depend on the batch around it: computed alone
    # (2-D and 1-D), at any position in a batch spanning several row
    # blocks, in a batch cut short inside a block, or after the batch is
    # permuted; widths on SIMD tails and one column
    rng = np.random.default_rng(21)
    block = ad._ROW_BLOCK
    batch = _with_zeros(rng.normal(size=(3 * block + 5, 37)).astype(np.float32))
    positions = (0, block - 1, block, 2 * block + 3, len(batch) - 1)
    for width in (1, 2, 15, 16, 17, 31, 32, 33, 257):
        w = rng.normal(size=(37, width)).astype(np.float32)
        full = _product([batch], w)
        for i in positions:
            row = batch[i]
            assert _product([row[None]], w).tobytes() == full[i].tobytes()
            assert _product([row], w).tobytes() == full[i].tobytes()
            for j in positions:
                moved = batch[::-1].copy()
                moved[j] = row
                assert _product([moved], w)[j].tobytes() == full[i].tobytes()
        for size in (1, block - 1, block + 1, 2 * block):
            assert _product([batch[:size]], w).tobytes() == full[:size].tobytes()
        perm = rng.permutation(len(batch))
        assert _product([batch[perm]], w).tobytes() == full[perm].tobytes()


def _declared(rng, kinds, groups, r, dtype, width=2):
    # one gathered column block of `width` columns per kind, over `groups`
    # groups of r output rows, declaring its layout by its indices alone:
    # `groups` parent rows each taken r times in turn ("w"), r slot rows
    # tiled group after group ("a"), or groups * r rows taken in reverse,
    # a pattern that is neither ("n")
    n = groups * r
    layouts = {
        "w": (groups, np.repeat(np.arange(groups), r)),
        "a": (r, np.tile(np.arange(r), groups)),
        "n": (n, np.arange(n)[::-1]),
    }
    blocks = []
    for c in kinds:
        m, idx = layouts[c]
        blocks.append(ad.gather_rows(ad.Tensor(rng.normal(size=(m, width)).astype(dtype)), idx))
    return blocks


def _dense_blocks(blocks):
    # the gathered blocks in full, side by side
    return np.concatenate([x.data for x in blocks], axis=1)


_SHARED_LAYOUTS = ("w", "aw")  # block layouts whose products are shared


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_grouped_matmul_is_byte_equal_to_index_order_loop(dtype, r, monkeypatch):
    # gathered column blocks in the layout whose products the declared
    # path shares (a lone block of parent rows, as `h @ Mh^T` reads) and in
    # layouts gathered one row block at a time, over group counts on the
    # edges of a row block, against the index-order loop over the gathered
    # blocks. The rows every sibling reads hold -0.0, a subnormal and a NaN
    # row; r = 1 is a stage of one child per point. Only the shared layout
    # runs the row kernel on fewer rows than the output has
    rng = np.random.default_rng(59 + r)
    m = 257
    per_block = max(1, ad._ROW_BLOCK // r)  # groups per row block
    orders = [*_SHARED_LAYOUTS, "aww", "ww", "a", "wa", "awa", "n", "nw", "an", "wn"]
    rows_seen = []
    rows_matmul = ad._rows_matmul

    def spy(blocks, b, prefix=None):
        rows_seen.append(blocks[0].shape[0])
        return rows_matmul(blocks, b, prefix)

    monkeypatch.setattr(ad, "_rows_matmul", spy)
    for groups in (1, 2, per_block - 1, per_block, per_block + 1, 2 * per_block + 3):
        for kinds in orders:
            blocks = _declared(rng, kinds, groups, r, dtype)
            for x in blocks:
                x.rows[-1, 0] = -0.0
                x.rows[0, -1] = np.finfo(dtype).smallest_subnormal
            blocks[-1].rows[len(blocks[-1].rows) // 2] = np.nan
            b = rng.normal(size=(2 * len(kinds), m)).astype(dtype)
            b[-1, 1:] = -0.0
            rows_seen.clear()
            out = _product(blocks, b)
            ref = _matmul_index_order(_dense_blocks(blocks), b)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes(), (groups, kinds)
            if groups > 1 and r > 1:  # one group or one slot makes layouts coincide
                assert (max(rows_seen) < groups * r) == (kinds in _SHARED_LAYOUTS), kinds
            col = _product(blocks, b[:, :1].copy())  # a 1-column b
            assert col.tobytes() == ref[:, :1].tobytes(), (groups, kinds)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_slot_prefix_product_is_byte_equal_to_index_order_loop(dtype, k, monkeypatch):
    # exp.l0's layout, [slot rows tiled over the parents, the parents' rows
    # each taken k times in turn]: each slot's chain over its own columns
    # is formed once, over the k slot rows, and every child's chain goes on
    # from its slot's prefix over its parent's row. Against the index-order
    # loop over the gathered blocks, for parent counts on the row-block
    # edges, widths on both sides of the narrow form, and k = 1: plain
    # values, a NaN embedding of its own payload, a chain whose every
    # product is -0.0, and subnormal embeddings, parents and products
    rng = np.random.default_rng(67 + k)
    block = ad._ROW_BLOCK
    e, u = 5, 7
    payload = _QUIET_NAN[np.dtype(dtype).itemsize] | 9
    utype = f"u{np.dtype(dtype).itemsize}"
    tiny = np.finfo(dtype).smallest_subnormal
    seen = []
    rows_matmul = ad._rows_matmul

    def spy(blocks, b, prefix=None):
        seen.append((blocks[0].shape[0], prefix is not None))
        return rows_matmul(blocks, b, prefix)

    monkeypatch.setattr(ad, "_rows_matmul", spy)
    for m in (1, 2, block - 1, block, block + 1, 2 * block + 3):
        for width in (1, 2, 3, block - 1, block, block + 1, 257):
            for case in ("plain", "nan", "negative zero", "subnormal"):
                emb = rng.normal(size=(k + 1, e)).astype(dtype)  # the last row is never read
                par = rng.normal(size=(m, u)).astype(dtype)
                b = rng.normal(size=(e + u, width)).astype(dtype)
                b[:, 0] = np.abs(b[:, 0]) + 0.5  # keeps -0.0 products in column 0
                if case == "nan":
                    emb.view(utype)[0, 1] = payload
                elif case == "negative zero":
                    emb[k - 1], par[m // 2] = -0.0, -0.0
                elif case == "subnormal":
                    emb[:, ::2], par[:, 1::3] = tiny, -tiny
                    b[e - 1] = 0.25  # products below the smallest subnormal
                blocks = [ad.gather_rows(ad.Tensor(emb), np.tile(np.arange(k), m)),
                          ad.gather_rows(ad.Tensor(par), np.repeat(np.arange(m), k))]
                seen.clear()
                out = _product(blocks, b)
                ref = _matmul_index_order(_dense_blocks(blocks), b)
                assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), (m, width, case)
                assert seen == [(k, False), (m, True)]
                if case == "nan":
                    assert (out[::k].view(utype) == payload).all(), (m, width)
                    assert np.isfinite(out).sum() == out.size - out[::k].size, (m, width)
                elif case == "negative zero":
                    assert np.signbit(out[m // 2 * k + k - 1, 0]), (m, width)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_matmul_never_merges_unequal_bits(dtype, monkeypatch):
    # the kernel reads indices, never compares rows: parent or slot rows
    # one element apart, 0.0 against -0.0, or NaNs with different payloads
    # keep their own products; and rows bit-equal within each group share
    # nothing unless their indices declare it
    rng = np.random.default_rng(61)
    r, groups, kinds = 4, 9, "aw"
    b = np.abs(rng.normal(size=(2 * len(kinds), 33))).astype(dtype) + 0.5  # keeps signs visible
    nan = np.array(np.nan, dtype=dtype)
    other_nan = nan.copy()
    other_nan.view(f"u{nan.itemsize}")[...] ^= 5  # a second payload
    changes = {
        "one element apart": lambda x: x + 1,
        "signed zero": lambda x: -0.0,
        "nan payloads": lambda x: other_nan,
    }
    for i in range(len(kinds)):
        for name, change in changes.items():
            blocks = _declared(rng, kinds, groups, r, dtype)
            x = blocks[i].rows
            if name == "signed zero":
                x[:, 1] = 0.0
            if name == "nan payloads":
                x[:, 1] = nan
            x[2, 1] = change(x[2, 1])
            out = _product(blocks, b)
            assert out.tobytes() == _matmul_index_order(_dense_blocks(blocks), b).tobytes(), name
    rows_seen = []
    rows_matmul = ad._rows_matmul
    monkeypatch.setattr(ad, "_rows_matmul",
                        lambda blocks, b: rows_seen.append(blocks[0].shape[0])
                        or rows_matmul(blocks, b))
    dense = _dense_blocks(_declared(rng, kinds, groups, r, dtype))
    for block in (dense, ad.gather_rows(ad.Tensor(dense), np.arange(groups * r))):
        rows_seen.clear()
        out = _product([block], b)
        assert out.tobytes() == _matmul_index_order(dense, b).tobytes()
        assert rows_seen == [groups * r]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_rows_product_is_byte_equal_to_plain_product(dtype):
    # a lone block of parent rows, each taken r times in turn: the chain
    # runs once per parent and is repeated, with the bytes of the product
    # of the gathered copy
    rng = np.random.default_rng(41)
    m = 257
    block = ad._MATMUL_BLOCK // m  # rows per block
    b = rng.normal(size=(33, m)).astype(dtype)
    nan_row = np.full(33, np.nan, dtype=dtype)
    nan_row.view(f"u{nan_row.itemsize}")[:] |= 5  # one payload, not the default NaN
    other_nan = nan_row.copy()
    other_nan.view(f"u{nan_row.itemsize}")[0] ^= 2  # the first product carries its payload
    one_apart = np.repeat(rng.normal(size=(1, 33)).astype(dtype), 2, axis=0)
    one_apart[1, 7] += 1  # two parents one element apart
    cases = {
        "groups of 1": (1, rng.normal(size=(9, 33)).astype(dtype)),
        "groups of k": (4, rng.normal(size=(6, 33)).astype(dtype)),
        "crosses a block edge": (8, rng.normal(size=(block // 8 + 3, 33)).astype(dtype)),
        "one group": (2 * block + 6, rng.normal(size=(1, 33)).astype(dtype)),
        "nan rows": (2, np.vstack([nan_row, other_nan, rng.normal(size=(1, 33)).astype(dtype)])),
        "signed zeros": (3, _with_zeros(rng.normal(size=(3, 33)).astype(dtype))),
        "one element apart": (2, one_apart),
    }
    for name, (r, parents) in cases.items():
        a = ad.gather_rows(ad.Tensor(parents), np.repeat(np.arange(len(parents)), r))
        plain = _product([a.data], b)
        shared = _product([a], b)
        assert shared.dtype == plain.dtype and shared.shape == plain.shape, name
        assert shared.tobytes() == plain.tobytes(), name
        col = _product([a], b[:, :1].copy())
        assert col.tobytes() == _product([a.data], b[:, :1].copy()).tobytes(), name


def test_shared_rows_keeps_signed_zero_rows_apart():
    # 0.0 == -0.0 as floats, but a positive b sends an all -0.0 row to -0.0
    # and an all 0.0 row to 0.0: two parents whose rows differ only so keep
    # their own products, each repeated to its two siblings
    b = np.abs(np.random.default_rng(43).normal(size=(6, 5))).astype(np.float32) + 0.5
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        parents = ad.Tensor(np.array([[first] * 6, [second] * 6], dtype=np.float32))
        out = _product([ad.gather_rows(parents, np.repeat(np.arange(2), 2))], b)
        assert np.all(out == 0.0)
        signs = (first, first, second, second)
        assert np.signbit(out).tolist() == [[np.signbit(v)] * 5 for v in signs]


def test_shared_rows_gather_is_recorded_and_replays():
    # a layer fed a parent-index gather records the gather and one linear
    # entry that reads it, with no attrs; its output is byte-equal to the
    # layer on the gathered copy, replays, and follows a changed parent row
    rng = np.random.default_rng(47)
    parents = ad.Tensor(rng.normal(size=(3, 6)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(6, 6)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.gather_rows(parents, np.repeat(np.arange(3), 4))
        shared = ad.linear(h, w, b)
        plain = ad.linear(ad.Tensor(h.data), w, b)
    gather, declared, _ = tape.entries
    assert gather.kind == "gather_rows" and gather.output is h
    assert declared.inputs[0] is h and declared.attrs == {}
    assert shared.data.tobytes() == plain.data.tobytes()
    assert tape.replay()
    parents.data[1, 0] += 1.0  # the second parent's four siblings must follow
    assert not tape.replay()


@pytest.mark.parametrize("op", [ad.add, ad.mul, ad.div])
def test_binary_elementwise_gradients(op):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    b = np.abs(b) + 0.5  # keep div denominators away from zero
    check_grads(proj_build(lambda ts: op(ts[0], ts[1]), (3, 4)), [a, b])


@pytest.mark.parametrize("width", [1, 2, 3, 256])
def test_row_bias_gradient_adds_rows_in_index_order(width):
    # linear's bias gradient must be bit-identical to the explicit route:
    # reshape the bias to (1, w), gather n copies, add. With the loss
    # sum(y * proj) the gradient reaching the bias is proj itself, so both
    # must be proj's rows added one after another. At width 1, 2048
    # float32 rows are enough for a pairwise sum to round differently. A
    # grad that is not C-contiguous (column-major, whose axis-0 reduce runs
    # pairwise, or a strided view) still adds its rows one after another
    rng = np.random.default_rng(width)
    x = ad.Tensor(rng.normal(size=(2048, width)).astype(np.float32))
    w = ad.Tensor(rng.normal(size=(width, width)).astype(np.float32))
    proj = rng.normal(size=(2048, width)).astype(np.float32)
    b = ad.Tensor(rng.normal(size=(width,)).astype(np.float32), requires_grad=True)
    zero = ad.Tensor(np.zeros(width, dtype=np.float32))

    def in_order(grad):
        total = grad[0].copy()
        for row in grad[1:]:
            total += row
        return total

    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.mul(ad.linear(x, w, b), ad.Tensor(proj)))
    direct = ad.backward(loss, tape, leaves=[b])[b].data
    with ad.Tape() as tape:
        rows = ad.gather_rows(ad.reshape(b, (1, width)), np.zeros(2048, dtype=np.int64))
        loss = ad.tensor_sum(ad.mul(ad.add(ad.linear(x, w, zero), rows), ad.Tensor(proj)))
    gathered = ad.backward(loss, tape, leaves=[b])[b].data
    assert direct.shape == (width,) and direct.dtype == np.float32
    assert direct.tobytes() == gathered.tobytes() == in_order(proj).tobytes()

    _, vjp = ad._REGISTRY["linear"]
    wide = rng.normal(size=(2048, 2 * width)).astype(np.float32)
    for grad in (wide[:, :width].copy(), np.asfortranarray(wide[:, :width]), wide[:, ::2]):
        gb = vjp(grad, [x.data, w.data, b.data], None, {})[-1]
        assert gb.tobytes() == in_order(grad).tobytes()


def test_row_broadcast_over_zero_rows_has_zero_gradient():
    # linear over no rows: the bias takes a zero gradient, one wide or not
    for width in (1, 3):
        w = ad.Tensor(np.ones((2, width)), requires_grad=True)
        b = ad.Tensor(np.ones(width), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.tensor_sum(ad.linear(ad.Tensor(np.ones((0, 2))), w, b))
        np.testing.assert_array_equal(ad.backward(loss, tape, leaves=[b])[b].data, np.zeros(width))


def _siblings(parents, k):
    # each parent row taken k times in turn, as a stage's parent index takes it
    return ad.gather_rows(parents, np.repeat(np.arange(parents.shape[0]), k))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("leaky", [False, True])
def test_linear_is_byte_equal_to_matmul_add_leaky_relu(dtype, k, leaky, monkeypatch):
    # forward bytes and every gradient against the three-step reference
    # chain (`unfused`), shape by shape and as one Stack of three shapes, on
    # parent rows each taken k times in turn: linear reads that declared
    # structure, the chain's index-order product the gathered copy. Column
    # 0 of w is zero and b[0] is the negative subnormal of least magnitude,
    # so that column's pre-activation is negative while its leaky output
    # rounds to -0.0: the vjp must take the slope from the pre-activation's
    # sign. The parents also hold -0.0 and one NaN
    rng = np.random.default_rng(79)
    rows = (8, 4, 12)  # whole groups of 4
    xs0 = [rng.normal(size=(r // k, 5)).astype(dtype) for r in rows]
    xs0[0][1, 3] = -0.0
    xs0[1][0, 4] = np.nan
    w0 = rng.normal(size=(5, 6)).astype(dtype)
    w0[:, 0] = 0.0
    b0 = rng.normal(size=6).astype(dtype)
    b0[0] = -np.finfo(dtype).smallest_subnormal
    projs = [rng.normal(size=(r, 6)).astype(dtype) for r in rows]

    def run(op, stacked):
        xs = [ad.Tensor(a.copy(), requires_grad=True) for a in xs0]
        w, b = (ad.Tensor(a.copy(), requires_grad=True) for a in (w0, b0))
        with ad.Tape() as tape:
            if stacked:
                with ad.shape_tapes(len(rows)) as tapes:
                    outs = op(_siblings(ad.stack(xs, tapes), k), w, b, leaky=leaky).parts
            else:
                outs = [op(_siblings(x, k), w, b, leaky=leaky) for x in xs]
            terms = [ad.tensor_sum(ad.mul(o, ad.Tensor(p))) for o, p in zip(outs, projs)]
            loss = ad.add(ad.add(terms[0], terms[1]), terms[2])
        grads = ad.backward(loss, tape, leaves=[*xs, w, b])
        assert tape.replay()
        return [o.data.tobytes() for o in outs] + [g.data.tobytes() for g in grads.values()]

    unfused.install(monkeypatch)
    reference = run(unfused.linear_chain, stacked=False)
    assert run(ad.linear, stacked=False) == reference
    assert run(ad.linear, stacked=True) == reference
    out = ad.linear(ad.Tensor(xs0[0]), ad.Tensor(w0), ad.Tensor(b0), leaky=leaky).data
    assert (out[:, 0] == (0 if leaky else b0[0])).all() and np.signbit(out[:, 0]).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("leaky", [False, True])
def test_block_linear_is_byte_equal_to_concat_then_linear(dtype, k, leaky):
    # a layer fed two gathered column blocks against the same layer fed
    # their concat: forward bytes, the gradient of every source row, w and
    # b, and replay, shape by shape and as one Stack of three shapes. The
    # first block tiles k slot rows that every shape shares and the second
    # takes each parent row k times in turn, a stage's [embeddings, parent
    # reps], which the kernel gathers a row block at a time; k = 1 is a
    # stage of one child per point. The rows hold -0.0, a subnormal and a NaN, and
    # w[:, 0] = 0 with b[0] the negative subnormal of least magnitude puts
    # a leaky output of -0.0 over a negative pre-activation. The block
    # layer records one entry fewer per shape, and its tape holds exactly
    # the concatenated copy fewer bytes
    rng = np.random.default_rng(83)
    rows = (8, 4, 12)
    slots0 = rng.normal(size=(k, 3)).astype(dtype)
    slots0[:, 1] = -0.0
    slots0[-1, 2] = np.finfo(dtype).smallest_subnormal
    parents0 = [rng.normal(size=(r // k, 4)).astype(dtype) for r in rows]
    parents0[2][4 // k : 8 // k, 3] = np.nan
    parents0[0][: 4 // k, 0] = -0.0
    w0 = rng.normal(size=(7, 6)).astype(dtype)
    w0[:, 0] = 0.0
    b0 = rng.normal(size=6).astype(dtype)
    b0[0] = -np.finfo(dtype).smallest_subnormal
    projs = [rng.normal(size=(r, 6)).astype(dtype) for r in rows]

    def run(blocked, stacked):
        slots = ad.Tensor(slots0.copy(), requires_grad=True)
        parents = [ad.Tensor(a.copy(), requires_grad=True) for a in parents0]
        w, b = (ad.Tensor(a.copy(), requires_grad=True) for a in (w0, b0))

        def embed(p):
            return ad.gather_rows(slots, np.tile(np.arange(k), p.shape[0]))

        def layer(pair):
            x = list(pair) if blocked else ad.concat(pair)
            return ad.linear(x, w, b, leaky=leaky)

        with ad.Tape() as tape:
            if stacked:
                with ad.shape_tapes(len(rows)) as tapes:
                    reps = ad.stack(parents, tapes)
                    outs = layer([ad.each_shape(reps, embed), _siblings(reps, k)]).parts
            else:
                outs = [layer([embed(p), _siblings(p, k)]) for p in parents]
            terms = [ad.tensor_sum(ad.mul(o, ad.Tensor(p))) for o, p in zip(outs, projs)]
            loss = ad.add(ad.add(terms[0], terms[1]), terms[2])
        grads = ad.backward(loss, tape, leaves=[slots, *parents, w, b])
        assert tape.replay()
        data = [o.data.tobytes() for o in outs] + [g.data.tobytes() for g in grads.values()]
        return data, len(tape), tape_bytes(tape)

    concat_bytes = sum(rows) * 7 * np.dtype(dtype).itemsize
    for stacked in (False, True):
        data, entries, held = run(blocked=True, stacked=stacked)
        ref_data, ref_entries, ref_held = run(blocked=False, stacked=stacked)
        assert data == ref_data, stacked
        assert entries == ref_entries - len(rows)
        assert held == ref_held - concat_bytes
    with pytest.raises(ad.ShapeMismatchError, match="^linear: column blocks .* equal row counts"):
        ad.linear([ad.Tensor(np.ones((8, 3), dtype)), ad.Tensor(np.ones((4, 4), dtype))],
                  ad.Tensor(w0), ad.Tensor(b0))
    with pytest.raises(ad.ShapeMismatchError, match="^linear: inner dimensions differ"):
        ad.linear([ad.Tensor(np.ones((8, 3), dtype))] * 2, ad.Tensor(w0), ad.Tensor(b0))
    with pytest.raises(ad.ShapeMismatchError, match="linear"):
        ad.linear([], ad.Tensor(w0), ad.Tensor(b0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4])
def test_rep_update_is_byte_equal_to_tanh_of_two_matmuls(dtype, k, monkeypatch):
    # forward bytes, the gradient of s, h's parent rows, ms and mh, and
    # replay against the four-step reference chain (`unfused`): 2-D rows shape by shape and
    # as one Stack of three shapes, and one point as 1-D vectors. h takes
    # each parent row k times in turn, a stage's child representations, so
    # the update runs the declared kernel (on h alone) while the chain's
    # product reads the gathered copy; the inputs hold -0.0, a subnormal and
    # a NaN. The chain records four entries per shape and keeps the two
    # products and their sum besides, which the one entry does not
    rng = np.random.default_rng(113)
    u, rows = 6, (8, 4, 12)
    ss0 = [rng.normal(size=(r, 3)).astype(dtype) for r in rows]
    ps0 = [rng.normal(size=(r // k, u)).astype(dtype) for r in rows]
    ss0[0][1, 2] = -0.0
    ps0[0][: 4 // k, 1] = -0.0
    ps0[1][:, 3] = np.finfo(dtype).smallest_subnormal
    ps0[2][4 // k : 8 // k, 0] = np.nan
    ms0 = rng.normal(size=(u, 3)).astype(dtype)
    mh0 = rng.normal(size=(u, u)).astype(dtype)
    mh0[2, 1] = -0.0
    projs = [rng.normal(size=(r, u)).astype(dtype) for r in rows]

    def run(op, stacked, point=False):
        ss = [ad.Tensor((a[1] if point else a).copy(), requires_grad=True) for a in ss0]
        ps = [ad.Tensor((a[1 // k] if point else a).copy(), requires_grad=True) for a in ps0]
        ms, mh = (ad.Tensor(a.copy(), requires_grad=True) for a in (ms0, mh0))
        with ad.Tape() as tape:
            if stacked:
                with ad.shape_tapes(len(rows)) as tapes:
                    s, h = ad.stack(ss, tapes), _siblings(ad.stack(ps, tapes), k)
                    outs = op(s, h, ms, mh).parts
            else:
                hs = ps if point else [_siblings(p, k) for p in ps]
                outs = [op(s, h, ms, mh) for s, h in zip(ss, hs)]
            terms = [ad.tensor_sum(ad.mul(o, ad.Tensor(p[1] if point else p)))
                     for o, p in zip(outs, projs)]
            loss = ad.add(ad.add(terms[0], terms[1]), terms[2])
        grads = ad.backward(loss, tape, leaves=[*ss, *ps, ms, mh])
        assert tape.replay()
        data = [o.data.tobytes() for o in outs] + [g.data.tobytes() for g in grads.values()]
        return data, len(tape), tape_bytes(tape)

    kernel, seen = ad._rows_matmul, []

    def spy(blocks, b):
        gathered = any(isinstance(x, ad.Gathered) for x in blocks)
        seen.append((blocks[0].shape[0], b.shape[0], gathered))
        return kernel(blocks, b)

    monkeypatch.setattr(ad, "_rows_matmul", spy)
    unfused.install(monkeypatch)
    kept = 3 * sum(rows) * u * np.dtype(dtype).itemsize  # two products and their sum
    for stacked, point in ((False, False), (True, False), (False, True)):
        seen.clear()
        data, entries, held = run(ad.rep_update, stacked, point)
        # h @ mh.T runs once per parent row, on the rows themselves: in the
        # forward, over the whole Stack when stacked, then in each shape's
        # replay
        per_shape = [1 if point else r // k for r in rows]
        parents = ([sum(rows) // k] if stacked else per_shape) + per_shape
        assert [n for n, inner, _ in seen if inner == u] == parents, (stacked, point)
        assert not any(gathered for *_, gathered in seen)
        ref_data, ref_entries, ref_held = run(unfused.by_shape(unfused.rep_update_chain),
                                              stacked, point)
        assert data == ref_data, (stacked, point)
        assert entries == ref_entries - 3 * len(rows)
        if not point:
            assert held == ref_held - kept
    s, ms, mh = ad.Tensor(ss0[2]), ad.Tensor(ms0), ad.Tensor(mh0)
    nan_rows = ad.rep_update(s, _siblings(ad.Tensor(ps0[2]), k), ms, mh)
    assert np.isnan(nan_rows.data[4:8]).all() and not np.isnan(nan_rows.data[:4]).any()
    with pytest.raises(ad.ShapeMismatchError, match="^rep_update: s @ ms.T and h @ mh.T differ"):
        ad.rep_update(ad.Tensor(ss0[0]), _siblings(ad.Tensor(ps0[1]), k), ms, mh)
    with pytest.raises(ad.ShapeMismatchError, match="^rep_update: inner dimensions differ"):
        ad.rep_update(ad.Tensor(ss0[0]), _siblings(ad.Tensor(ps0[0]), k), mh, mh)
    with pytest.raises(ad.ShapeMismatchError, match="^rep_update: the matrix must be 2-D"):
        ad.rep_update(ad.Tensor(ss0[0][0]), ad.Tensor(ps0[0][0]), ad.Tensor(ms0[0]), mh)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_slopes_are_byte_equal_to_a_select_on_the_sign(dtype):
    # the table lookup linear's vjp uses, on a bool mask and on the packed
    # one (a width that is no multiple of 8), gives the bytes of np.where
    # on the sign; the gradients hold -0.0, a NaN and infinities,
    # and the inputs 0.0, -0.0, a NaN and a negative subnormal
    rng = np.random.default_rng(109)
    x = rng.normal(size=(5, 19)).astype(dtype)
    x[0, :4] = [0.0, -0.0, np.nan, -np.finfo(dtype).smallest_subnormal]
    grad = rng.normal(size=x.shape).astype(dtype)
    grad[0, :4] = -0.0
    grad[1, :5] = [-0.0, 0.0, np.nan, np.inf, -np.inf]
    grad[2, 3] = np.nan
    ref = grad * np.where(x >= 0, dtype(1.0), dtype(ad.LEAKY_SLOPE))
    got = grad * ad._leaky_slopes((x >= 0).view(np.uint8), x.dtype)
    assert got.tobytes() == ref.tobytes()
    packed = np.packbits(x >= 0, axis=-1)
    assert packed.shape == (5, 3)
    keep = np.unpackbits(packed, axis=-1, count=x.shape[1])
    assert (grad * ad._leaky_slopes(keep, x.dtype)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_reduce_down_columns_is_byte_equal_to_transpose_then_max_reduce(dtype, monkeypatch):
    # forward bytes, gradient and replay against pooling a transposed copy
    # that a reference transpose entry (`unfused`) makes,
    # with columns whose maximum is a tie of 0.0 and -0.0 (NumPy's strided
    # and contiguous max reductions break it differently), a subnormal, a
    # NaN and a repeated maximum; the tape records no transpose
    rng = np.random.default_rng(107)
    x0 = rng.normal(size=(9, 6)).astype(dtype)
    x0[:, :2] = -np.abs(x0[:, :2]) - 1
    x0[[2, 5], 0] = [0.0, -0.0]
    x0[[3, 7], 1] = [-0.0, 0.0]
    x0[:, 2] = -1.0
    x0[4, 2] = np.finfo(dtype).smallest_subnormal
    x0[6, 3] = np.nan
    x0[[1, 8], 4] = 50.0
    proj = rng.normal(size=6).astype(dtype)
    proj[5] = -0.0

    def run(pool):
        x = ad.Tensor(x0.copy(), requires_grad=True)
        with ad.Tape() as tape:
            pooled = pool(x)
            loss = ad.tensor_sum(ad.mul(pooled, ad.Tensor(proj)))
        g = ad.backward(loss, tape, leaves=[x])[x]
        assert tape.replay()
        return [pooled.data.tobytes(), g.data.tobytes()], [e.kind for e in tape.entries]

    down, kinds = run(lambda x: ad.max_reduce(x, axis=0))
    unfused.install(monkeypatch)
    ref, ref_kinds = run(lambda x: ad.max_reduce(unfused.transpose(x)))
    assert down == ref
    assert kinds == [k for k in ref_kinds if k != "transpose"]
    g = np.frombuffer(down[1], dtype=dtype).reshape(x0.shape)
    assert g[1, 4] == proj[4] and g[8, 4] == 0 and g[6, 3] == proj[3]
    for bad in (lambda: ad.max_reduce(ad.Tensor(np.ones(3)), axis=0),
                lambda: ad.max_reduce(ad.Tensor(np.ones((0, 3))), axis=0),
                lambda: ad.max_reduce(ad.Tensor(np.ones((2, 3))), axis=1)):
        with pytest.raises(ad.ShapeMismatchError, match="max_reduce"):
            bad()


def _edge_values(rng, shape, dtype, edges):
    # random values with -0.0, a NaN, +-1 and subnormals of both signs,
    # those also on the rows or columns at each block edge
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([-0.0, 0.0, np.nan, 1.0, -1.0, tiny, -tiny, 3 * tiny], dtype=dtype)
    x = rng.normal(size=shape).astype(dtype)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(specials, size=int(pick.sum()))
    for e in edges:
        x[max(0, e - 1) : e + 1] = rng.choice(specials, size=x[max(0, e - 1) : e + 1].shape)
    return x


def _linear_reference(x, w, b, leaky):
    # the product, the bias and the leaky ReLU over the whole array, and
    # the packed sign
    pre = _matmul_index_order(x, w)
    pre += b
    if not leaky:
        return pre, None
    return np.maximum(pre * pre.dtype.type(ad.LEAKY_SLOPE), pre), np.packbits(pre >= 0, axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows, width", [(257, 256), (300, 219), (5, 65537), (0, 9), (None, 13)])
@pytest.mark.parametrize("leaky", [False, True])
def test_linear_row_blocks_are_byte_equal_to_the_whole_array(dtype, rows, width, leaky):
    # the bias, sign bits and leaky ReLU run one block of whole rows at a
    # time; against the same steps over the whole array, with row counts
    # and widths that are no multiple of the block or of 8, a block of one
    # row (width past _MATMUL_BLOCK), no rows and a 1-D head (rows None).
    # Each element's pre-activation is x[i] * w[j] + b[j] exactly (one
    # contraction index), so -0.0, NaN and subnormals of both signs land on
    # either side of every block edge; a negative subnormal times the
    # slope rounds to -0.0 while its sign bit stays 0
    rng = np.random.default_rng(rows or 1)
    step = max(1, ad._MATMUL_BLOCK // width)
    edges = range(step, rows or 0, step)
    x = _edge_values(rng, (1,) if rows is None else (rows, 1), dtype, edges)
    w = _edge_values(rng, (1, width), dtype, ())
    b = _edge_values(rng, (width,), dtype, ())
    attrs = {"leaky": True} if leaky else {}
    with np.errstate(all="ignore"):
        out, keep = ad._fwd_linear([x, w, b], attrs)
        ref, ref_keep = _linear_reference(x, w, b, leaky)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    if leaky:
        assert keep.shape == ref_keep.shape and keep.tobytes() == ref_keep.tobytes()
    else:
        assert keep is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_linear_row_blocks_are_byte_equal_per_shape(dtype):
    # three shapes as one Stack whose block edge (299 rows at width 219)
    # falls inside the second shape: each shape's output and recorded sign
    # bits are those of the whole-array steps on that shape alone
    rng = np.random.default_rng(113)
    rows, width = (100, 150, 87), 219
    xs0 = [_edge_values(rng, (r, 1), dtype, ()) for r in rows]
    w0, b0 = (_edge_values(rng, s, dtype, ()) for s in ((1, width), (width,)))
    xs = [ad.Tensor(x, requires_grad=True) for x in xs0]
    with ad.shape_tapes(len(rows)) as tapes, np.errstate(all="ignore"):
        out = ad.linear(ad.stack(xs, tapes), ad.Tensor(w0), ad.Tensor(b0), leaky=True)
        refs = [_linear_reference(x, w0, b0, True) for x in xs0]
    for part, tape, (ref, ref_keep) in zip(out.parts, tapes, refs):
        (entry,) = tape.entries
        assert part.data.tobytes() == ref.tobytes()
        assert entry.saved.tobytes() == ref_keep.tobytes()
        assert tape.replay()


def test_leaky_linear_transients_stay_within_a_block():
    # an encoder-sized layer allocates its output, its packed sign bits
    # and block-sized scratch, never a second output-sized array
    rng = np.random.default_rng(127)
    x = ad.Tensor(rng.normal(size=(8192, 128)).astype(np.float32))
    w = ad.Tensor(rng.normal(size=(128, 256)).astype(np.float32))
    b = ad.Tensor(rng.normal(size=256).astype(np.float32))
    out, peak = traced_peak(lambda: ad.linear(x, w, b, leaky=True))
    assert peak <= out.data.nbytes + x.data.nbytes + 2 * 2**20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows, width", [(1000, 200), (8192, 9), (7, 9), (65537, 3)])
def test_max_reduce_column_slabs_are_byte_equal_to_one_transposed_copy(dtype, rows, width):
    # axis-0 max_reduce finds its indices one slab of rows at a time (327,
    # 7281, all and 21845 rows here) and re-reduces columns whose max is 0
    # or NaN from copies one slab of columns at a time (65, 8, all and one
    # column); against one contiguous copy of x.T, with columns whose
    # maximum is a tie of 0.0 and -0.0, NaNs and subnormals on both sides
    # of every slab edge
    rng = np.random.default_rng(rows)
    x = -np.abs(_edge_values(rng, (width, rows), dtype, ())).T.copy()
    x[:, ::3] = rng.choice(np.array([0.0, -0.0], dtype=dtype), size=x[:, ::3].shape)
    x[:, 1::5] = rng.choice(np.array([-0.0, np.finfo(dtype).smallest_subnormal], dtype=dtype),
                            size=x[:, 1::5].shape)
    xt = np.ascontiguousarray(x.T)
    out, idx = ad._fwd_max_reduce([x], {"axis": 0})
    assert out.tobytes() == np.max(xt, axis=-1).tobytes()
    assert idx.tobytes() == np.argmax(xt, axis=-1).tobytes()


def test_max_reduce_down_columns_transients_stay_within_a_slab():
    x = ad.Tensor(np.random.default_rng(131).normal(size=(8192, 256)).astype(np.float32))
    out, peak = traced_peak(lambda: ad.max_reduce(x, axis=0))
    assert peak <= out.data.nbytes + 2**20


@pytest.mark.parametrize("leaky", [False, True])
def test_linear_gradients(leaky):
    rng = np.random.default_rng(89)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=3)
    # pre-activations clear of the leaky kink at zero
    assert np.abs(x @ w + b).min() > 1e-2 and np.abs(x[0] @ w + b).min() > 1e-2
    check_grads(proj_build(lambda ts: ad.linear(*ts, leaky=leaky), (4, 3)), [x, w, b])
    check_grads(proj_build(lambda ts: ad.linear(*ts, leaky=leaky), (3,)), [x[0], w, b])
    # two parent rows, each taken twice: the declared kernel and its vjp
    siblings = proj_build(lambda ts: ad.linear(_siblings(ts[0], 2), *ts[1:], leaky=leaky), (4, 3))
    check_grads(siblings, [x[:2], w, b])


def test_linear_vjp_leaves_a_gradient_it_shares_alone():
    # add's vjp hands one gradient array to both its inputs; the leaky
    # layer's vjp must scale its own copy, so the other input still gets
    # the upstream gradient itself
    rng = np.random.default_rng(137)
    x, w, b, y = (ad.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in ((6, 5), (5, 4), (4,), (6, 4)))
    proj = rng.normal(size=(6, 4)).astype(np.float32)
    with ad.Tape() as tape:
        out = ad.linear(x, w, b, leaky=True)
        loss = ad.tensor_sum(ad.mul(ad.add(out, y), ad.Tensor(proj)))
    assert (out.data < 0).any()
    assert ad.backward(loss, tape, leaves=[y])[y].data.tobytes() == proj.tobytes()


def test_linear_rejects_a_bias_that_is_not_one_row_of_w():
    x = ad.Tensor(np.ones((2, 3), dtype=np.float32))
    w = ad.Tensor(np.ones((3, 4), dtype=np.float32))
    for b in (np.ones(3), np.ones((1, 4)), np.ones(())):
        with pytest.raises(ad.ShapeMismatchError, match="linear"):
            ad.linear(x, w, ad.Tensor(b.astype(np.float32)))
    with pytest.raises(ad.ShapeMismatchError, match="linear"):
        ad.linear(x, ad.Tensor(np.ones(3, dtype=np.float32)), ad.Tensor(np.ones(1, np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_gather_rows_sibling_gradient_is_byte_equal_to_add_at(dtype, k):
    # a parent index (each row taken k times in a row) sums its gradient
    # rows by strided adds; the bytes must be np.add.at's, alone and per
    # shape of a Stack, with a NaN and signed zeros among the gradient rows
    rng = np.random.default_rng(97)
    rows = (3, 1, 5)
    projs = [rng.normal(size=(r * k, 4)).astype(dtype) for r in rows]
    projs[0][1] = -0.0
    projs[2][k, 2] = np.nan

    def expected(r, proj):
        gx = np.zeros((r, 4), dtype=dtype)
        np.add.at(gx, np.repeat(np.arange(r), k), proj)
        return gx.tobytes()

    for stacked in (False, True):
        xs = [ad.Tensor(rng.normal(size=(r, 4)).astype(dtype), requires_grad=True) for r in rows]
        with ad.Tape() as tape:
            if stacked:
                with ad.shape_tapes(len(rows)) as tapes:
                    x = ad.stack(xs, tapes)
                    outs = ad.gather_rows(x, np.repeat(np.arange(sum(rows)), k)).parts
            else:
                outs = [ad.gather_rows(x, np.repeat(np.arange(len(x.data)), k)) for x in xs]
            terms = [ad.tensor_sum(ad.mul(o, ad.Tensor(p))) for o, p in zip(outs, projs)]
            loss = ad.add(ad.add(terms[0], terms[1]), terms[2])
        grads = ad.backward(loss, tape, leaves=xs)
        assert [grads[x].data.tobytes() for x in xs] == \
            [expected(r, p) for r, p in zip(rows, projs)], stacked


def test_backward_runs_blas_on_one_thread_and_restores_the_count(monkeypatch):
    blas = ad._openblas_threads()
    if blas is None:
        pytest.skip("NumPy's BLAS exposes no thread count")
    get, put = blas
    rng = np.random.default_rng(101)
    x = ad.Tensor(rng.normal(size=(6, 5)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.linear(x, w, b, leaky=True))
    reference = ad.backward(loss, tape)
    fwd, vjp = ad._REGISTRY["linear"]
    seen = []

    def spy(grad, arrays, saved, attrs):
        seen.append(get())
        return vjp(grad, arrays, saved, attrs)

    def fail(grad, arrays, saved, attrs):
        raise RuntimeError("vjp failed")

    caller = get()
    try:
        put(2)
        monkeypatch.setitem(ad._REGISTRY, "linear", (fwd, spy))
        grads = ad.backward(loss, tape)
        assert seen == [1] and get() == 2
        assert [g.data.tobytes() for g in grads.values()] == \
            [g.data.tobytes() for g in reference.values()]
        monkeypatch.setitem(ad._REGISTRY, "linear", (fwd, fail))
        with pytest.raises(RuntimeError, match="vjp failed"):
            ad.backward(loss, tape)
        assert get() == 2
    finally:
        put(caller)
    # without the library's thread calls, backward runs as it is
    monkeypatch.setattr(ad, "_openblas_threads", lambda: None)
    monkeypatch.setitem(ad._REGISTRY, "linear", (fwd, vjp))
    assert ad.backward(loss, tape)[x].data.tobytes() == reference[x].data.tobytes()


def test_readme_counts_every_primitive():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (count,) = re.findall(r"(\d+) primitives", fh.read())
    assert int(count) == len(ad._REGISTRY)


def test_docs_name_no_groups_keyword():
    # sibling structure is declared by gather indices; no README line and
    # no docstring of the package names the `groups` keyword it replaced
    import ast

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        texts = {"README.md": fh.read()}
    package = os.path.join(ROOT, "src", "pointtree")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                    texts[f"{name}:{getattr(node, 'name', '')}"] = ast.get_docstring(node) or ""
    assert len(texts) > 100
    assert [where for where, text in texts.items() if re.search(r"\bgroups\s*=|`groups`", text)] == []


def test_scale_gradient():
    x = np.random.default_rng(1).normal(size=(5,))
    check_grads(proj_build(lambda ts: ad.scale(ts[0], -2.5), (5,)), [x])


@pytest.mark.parametrize("op", [ad.sigmoid, ad.exp, ad.square])
def test_unary_gradients(op):
    rng = np.random.default_rng(3)
    # magnitudes in [0.2, 1.5] with random signs
    x = rng.uniform(0.2, 1.5, size=(4, 6)) * rng.choice([-1.0, 1.0], size=(4, 6))
    check_grads(proj_build(lambda ts: op(ts[0]), (4, 6)), [x])


def test_leaky_relu_values():
    x = ad.Tensor(np.array([[-2.0], [-0.5], [0.0], [0.5], [2.0]]))
    y = ad.linear(x, ad.Tensor(np.ones((1, 1))), ad.Tensor(np.zeros(1)), leaky=True)
    np.testing.assert_allclose(y.data[:, 0], [-0.4, -0.1, 0.0, 0.5, 2.0], rtol=1e-6)


def test_norm_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3)) + 0.1
    check_grads(proj_build(lambda ts: ad.norm(ts[0]), (6,)), [x])


def test_norm_zero_row_subgradient_is_zero():
    x = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
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
    x = ad.Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.max_reduce(x))
    assert loss.item() == 3.0
    g = ad.backward(loss, tape, leaves=[x])[x]
    np.testing.assert_array_equal(g.data, [[0.0, 1.0, 0.0, 0.0]])


def test_concat_gradients():
    rng = np.random.default_rng(17)
    cols = [rng.normal(size=(3, 2)), rng.normal(size=(3, 5)), rng.normal(size=(3, 1))]
    check_grads(proj_build(lambda ts: ad.concat(ts), (3, 8)), cols)


def test_reshape_gather_gradients():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(4, 6))
    check_grads(proj_build(lambda ts: ad.reshape(ts[0], (8, 3)), (8, 3)), [x])
    idx = np.array([3, 0, 0, 2])
    check_grads(proj_build(lambda ts: ad.gather_rows(ts[0], idx), (4, 6)), [x])


def test_gather_rows_repeated_indices_accumulate():
    x = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
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
    b2 = rng.normal(size=(4,)) * 0.1

    def build(ts):
        xx, ww1, bb1, ww2, bb2 = ts
        h = ad.linear(xx, ww1, bb1, leaky=True)
        t = ad.sigmoid(ad.linear(h, ww2, bb2))
        pooled = ad.reshape(ad.max_reduce(t, axis=0), (1, 4))  # per-feature max over rows
        return ad.add(ad.tensor_sum(ad.norm(pooled)), ad.tensor_mean(ad.square(h)))

    check_grads(build, [x, w1, b1, w2, b2])


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
    x = ad.Tensor(np.ones(3), requires_grad=True)
    z = ad.Tensor(np.ones(4), requires_grad=True)
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
    x = ad.Tensor(np.arange(1.0, 5.0), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tensor_sum(ad.mul(ad.sigmoid(x), x))
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
            ad.sigmoid(x)
        ad.exp(x)
    assert [e.kind for e in outer.entries] == ["square", "exp"]
    assert [e.kind for e in inner.entries] == ["sigmoid"]


def test_replay_is_bit_identical_until_leaves_change():
    x = ad.Tensor(np.random.default_rng(31).normal(size=(4, 4)), requires_grad=True)
    with ad.Tape() as tape:
        ad.tensor_sum(ad.rep_update(x, x, x, x))
    assert tape.replay()
    x.data[0, 0] += 1.0
    assert not tape.replay()
    # bits are compared, not values: a NaN output matches itself, and a
    # zero whose sign flips does not match
    v = ad.Tensor(np.array([1.0, np.nan]), requires_grad=True)
    with ad.Tape() as tape:
        ad.sigmoid(v)
    assert tape.replay()
    z = ad.Tensor(np.array([0.0, 2.0]), requires_grad=True)
    with ad.Tape() as tape:
        ad.scale(z, 1.0)
    assert tape.replay()
    z.data[0] = -0.0
    assert not tape.replay()


def test_error_paths():
    f32 = ad.Tensor(np.ones(3, dtype=np.float32))
    f64 = ad.Tensor(np.ones(3))
    with pytest.raises(ad.UnknownPrimitiveError):
        ad.apply_primitive("softmax", (f32,))
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(f32, ad.Tensor(np.ones(4, dtype=np.float32)))
    for scalar in (np.float32(2.0), np.ones(1, dtype=np.float32)):  # no scalar broadcast
        with pytest.raises(ad.ShapeMismatchError):
            ad.mul(f32, ad.Tensor(scalar))
    # no broadcasting: not a row against a matrix, nor any other pair of
    # shapes (a bias row joins a batch only inside linear)
    for op in (ad.add, ad.mul, ad.div):
        for sa, sb in (((3, 4), (4,)), ((3, 4), (3,)), ((3, 4), (1, 4)), ((3, 3), (3, 1))):
            for x, y in ((sa, sb), (sb, sa)):
                with pytest.raises(ad.ShapeMismatchError, match=rf"^{op.__name__}\b"):
                    op(ad.Tensor(np.ones(x)), ad.Tensor(np.ones(y)))
    # norm and max_reduce reduce 2-D operands only
    for shape in ((3,), (2, 3, 4)):
        for op in (ad.norm, ad.max_reduce):
            with pytest.raises(ad.ShapeMismatchError, match=rf"^{op.__name__}\b"):
                op(ad.Tensor(np.ones(shape)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))), ad.Tensor(np.ones(2)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.linear(ad.Tensor(np.ones((2, 2, 2))), ad.Tensor(np.ones((2, 2))), ad.Tensor(np.ones(2)))
    # concat joins one or more 2-D operands with one row count, along axis 1
    for shapes in (((2, 3), (3,)), ((3,), (3,)), ((2, 3), (3, 3)), ((2, 3), (2, 1, 3)), ()):
        with pytest.raises(ad.ShapeMismatchError, match=r"^concat\b"):
            ad.concat([ad.Tensor(np.ones(shape)) for shape in shapes])
    with pytest.raises(ad.ShapeMismatchError):
        ad.reshape(f32, (5,))
    with pytest.raises(ad.ShapeMismatchError):
        ad.gather_rows(f32, np.array([0, 3]))
    with pytest.raises(TypeError):
        ad.add(f32, f64)
    # an ndarray's `data` is its buffer, so a raw array is refused before
    # any forward reads it
    x = ad.Tensor(np.ones((2, 2)))
    raw = {
        "add": lambda: ad.add(x, np.ones((2, 2))),
        "mul": lambda: ad.mul(np.ones((2, 2)), x),
        "scale": lambda: ad.scale(np.ones((2, 2)), 2.0),
        "concat": lambda: ad.concat([x, np.ones((2, 2))]),
        "linear": lambda: ad.linear(x, np.ones((2, 3)), ad.Tensor(np.ones(3))),
    }
    for kind, call in raw.items():
        with pytest.raises(TypeError, match=rf"^{kind}: inputs must be Tensors, got ndarray"):
            call()
    with pytest.raises(ValueError):
        ad.Tensor(np.ones((2, 2))).item()


def test_int_input_becomes_float32():
    t = ad.Tensor([1, 2, 3])
    assert t.dtype == np.float32
    assert ad.Tensor(np.ones(2, dtype=np.int64)).dtype == np.float32
    assert ad.Tensor(np.ones(2, dtype=np.float16)).dtype == np.float32  # float16 too
    assert ad.Tensor(np.ones(2)).dtype == np.float64
    with pytest.raises(TypeError):  # no dtype keyword: data is float32 or float64
        ad.Tensor(np.ones(2), dtype=np.float16)


@pytest.mark.parametrize("r", [1, 3])
def test_transposed_b_matmul_is_byte_equal_to_transpose_then_matmul(r, monkeypatch):
    # rep_update's products against ms.T and mh.T, forward and gradients,
    # against reference transpose entries (`unfused`) followed by plain
    # products; the rows of h repeated r times, as siblings' copies of a
    # parent row
    rng = np.random.default_rng(61)
    s0 = rng.normal(size=(4 * r, 3)).astype(np.float32)
    h0 = np.repeat(rng.normal(size=(4, 5)), r, axis=0).astype(np.float32)
    ms0, mh0 = (rng.normal(size=s).astype(np.float32) for s in ((5, 3), (5, 5)))
    w = ad.Tensor(rng.normal(size=(4 * r, 5)).astype(np.float32))

    def chain(s, h, ms, mh):
        products = (unfused.matmul(s, unfused.transpose(ms)),
                    unfused.matmul(h, unfused.transpose(mh)))
        return unfused.tanh(ad.add(*products))

    def run(op):
        leaves = [ad.Tensor(x.copy(), requires_grad=True) for x in (s0, h0, ms0, mh0)]
        with ad.Tape() as tape:
            out = op(*leaves)
            loss = ad.tensor_sum(ad.mul(out, w))
        grads = ad.backward(loss, tape, leaves=leaves)
        assert tape.replay()
        return [out.data.tobytes()] + [g.data.tobytes() for g in grads.values()], len(tape)

    unfused.install(monkeypatch)
    (fused, n_fused), (plain, n_plain) = run(ad.rep_update), run(chain)
    assert fused == plain
    assert n_fused == n_plain - 5  # no transposes, products, sum or tanh of their own


def _stacked(rows, width, rng, tapes, requires_grad=True):
    parts = [ad.Tensor(rng.normal(size=(r, width)).astype(np.float32),
                       requires_grad=requires_grad) for r in rows]
    return ad.stack(parts, tapes)


def _assert_entries_match_each_part(out, tapes, op, args, kind):
    # each shape's tape holds the entry a call on that shape's parts makes
    for i, tape in enumerate(tapes):
        with ad.Tape() as alone:
            ref = op(*[ad.parts(a)[i] for a in args])
        assert out.parts[i].data.tobytes() == ref.data.tobytes(), kind
        (entry,) = [e for e in tape.entries if e.output is out.parts[i]]
        (ref_entry,) = alone.entries[-1:]
        assert entry.kind == ref_entry.kind == kind
        assert [id(t) for t in entry.inputs] == [id(t) for t in ref_entry.inputs], kind
        assert repr(entry.attrs) == repr(ref_entry.attrs), kind
        if isinstance(ref_entry.saved, np.ndarray):
            assert entry.saved.tobytes() == ref_entry.saved.tobytes(), kind
        else:
            assert entry.saved == ref_entry.saved, kind
        assert tape.replay()
    assert out.data.tobytes() == b"".join(p.data.tobytes() for p in out.parts)


def test_stacked_primitive_records_what_each_shape_records_alone():
    # every row-separable kind on a Stack of three shapes, one of them a
    # single row: one forward, then per shape the output bytes and the tape
    # entry (inputs, saved values, attrs) of a call on that shape's part
    rng = np.random.default_rng(67)
    rows = (2, 1, 3)
    w = ad.Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
    wt = ad.Tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
    w8 = ad.Tensor(rng.normal(size=(8, 6)).astype(np.float32), requires_grad=True)
    wt2 = ad.Tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
    cases = [
        ("linear", lambda x, y: ad.linear(x, w, bias)),
        ("linear", lambda x, y: ad.linear(x, w, bias, leaky=True)),
        ("linear", lambda x, y: ad.linear([x, y], w8, bias, leaky=True)),
        ("rep_update", lambda x, y: ad.rep_update(x, y, wt, wt2)),
        ("add", lambda x, y: ad.add(x, y)),
        ("mul", lambda x, y: ad.mul(x, y)),
        ("div", lambda x, y: ad.div(x, y)),
        ("scale", lambda x, y: ad.scale(x, -0.5)),
        ("sigmoid", lambda x, y: ad.sigmoid(x)),
        ("exp", lambda x, y: ad.exp(x)),
        ("square", lambda x, y: ad.square(x)),
        ("norm", lambda x, y: ad.norm(x)),
        ("max_reduce", lambda x, y: ad.max_reduce(x)),
        ("concat", lambda x, y: ad.concat([x, y, x])),
        ("reshape", lambda x, y: ad.reshape(x, (x.shape[0] * 2, 2))),
        ("reshape", lambda x, y: ad.reshape(x, (x.size,))),
        ("gather_rows", lambda x, y: ad.gather_rows(x, np.repeat(np.arange(x.shape[0]), 2))),
    ]
    for kind, op in cases:
        tapes = [ad.Tape() for _ in rows]
        x = _stacked(rows, 4, rng, tapes)
        y = _stacked(rows, 4, rng, tapes)
        out = op(x, y)
        assert isinstance(out, ad.Stack) and len(out.parts) == len(rows)
        _assert_entries_match_each_part(out, tapes, op, (x, y), kind)
    # a 1-D stack reshaped back into rows, and products of gathered
    # siblings, which linear and rep_update read as declared structure
    tapes = [ad.Tape() for _ in rows]
    flat = ad.reshape(_stacked(rows, 6, rng, tapes), (sum(rows) * 6,))

    def op(f):
        return ad.reshape(f, (f.size // 3, 3))

    _assert_entries_match_each_part(op(flat), tapes, op, (flat,), "reshape")
    grouped = _siblings(_stacked((2, 1, 3), 4, rng, tapes), 2)
    assert isinstance(grouped, ad.Gathered) and isinstance(grouped, ad.Stack)

    def op(g):
        return ad.linear(g, w, bias, leaky=True)

    _assert_entries_match_each_part(op(grouped), tapes, op, (grouped,), "linear")

    def op(g):
        return ad.rep_update(g, g, wt, wt2)

    _assert_entries_match_each_part(op(grouped), tapes, op, (grouped,), "rep_update")


def test_gather_rows_on_a_stack_takes_each_shapes_indices_locally():
    rng = np.random.default_rng(71)
    tapes = [ad.Tape() for _ in range(3)]
    x = _stacked((2, 3, 1), 2, rng, tapes)
    out = ad.gather_rows(x, np.array([1, 0, 1, 4, 2, 2, 5]))
    assert [e.attrs["indices"].tolist() for t in tapes for e in t.entries] == \
        [[1, 0, 1], [2, 0, 0], [0]]
    assert [p.shape[0] for p in out.parts] == [3, 3, 1]
    empty = ad.gather_rows(x, np.array([2, 3]))  # the outer shapes take no rows
    assert [p.shape[0] for p in empty.parts] == [0, 2, 0]


def test_stack_rejects_every_primitive_that_would_mix_shapes():
    rng = np.random.default_rng(73)
    tapes = [ad.Tape() for _ in range(2)]
    x = _stacked((2, 3), 4, rng, tapes)
    other = _stacked((3, 2), 4, rng, tapes)
    foreign = _stacked((2, 3), 4, rng, [ad.Tape() for _ in range(2)])
    flat = ad.reshape(x, (20,))
    plain = ad.Tensor(np.ones((5, 4), dtype=np.float32))
    w = ad.Tensor(np.ones((4, 2), dtype=np.float32))
    b2 = ad.Tensor(np.ones(2, dtype=np.float32))
    w4 = ad.Tensor(np.ones((2, 4), dtype=np.float32))
    stacked_bias = ad.reshape(_stacked((1, 1), 1, rng, tapes), (2,))
    row = ad.Tensor(np.ones(4, dtype=np.float32))
    # a plain operand beside a Stack is rejected unless it is a weight
    beside = [
        ("add", lambda: ad.add(x, row)),
        ("mul", lambda: ad.mul(row, x)),
        ("div", lambda: ad.div(x, row)),
        ("concat", lambda: ad.concat([x, plain])),
    ]
    for kind, build in beside:
        with pytest.raises(ad.ShapeMismatchError, match=rf"^{kind} on a Stack: every operand"):
            build()
    mixing = [
        lambda: ad.tensor_sum(x),
        lambda: ad.tensor_mean(x),
        lambda: ad.norm(flat),
        lambda: ad.max_reduce(flat),
        lambda: ad.add(x, plain),
        lambda: ad.add(x, other),
        lambda: ad.add(x, foreign),
        lambda: ad.linear(x, w, stacked_bias),
        lambda: ad.linear(flat, ad.Tensor(np.ones((20, 2), dtype=np.float32)), b2),
        lambda: ad.linear([x, plain], ad.Tensor(np.ones((8, 2), dtype=np.float32)), b2),
        lambda: ad.linear([x, foreign], ad.Tensor(np.ones((8, 2), dtype=np.float32)), b2),
        lambda: ad.linear(x, _stacked((2, 3), 2, rng, tapes), b2),  # a stacked w
        lambda: ad.max_reduce(x, axis=0),
        lambda: ad.rep_update(x, plain, w4, w4),
        lambda: ad.rep_update(plain, x, w4, w4),
        lambda: ad.rep_update(x, foreign, w4, w4),
        lambda: ad.rep_update(x, other, w4, w4),
        lambda: ad.rep_update(x, x, x, w4),  # a stacked ms
        lambda: ad.rep_update(flat, flat, ad.Tensor(np.ones((2, 20), dtype=np.float32)),
                              ad.Tensor(np.ones((2, 20), dtype=np.float32))),
        lambda: ad.reshape(x, (4, 5)),
        lambda: ad.reshape(x, (2, 10)),
        lambda: ad.gather_rows(x, np.array([3, 0])),  # shapes out of order
        lambda: ad.gather_rows(x, np.array([[0, 1]])),
    ]
    recorded = [len(t) for t in tapes]
    for i, build in enumerate(mixing):
        with pytest.raises(ad.ShapeMismatchError):
            build()
            pytest.fail(f"case {i} did not raise")
    assert [len(t) for t in tapes] == recorded
    with pytest.raises(ValueError):
        ad.stack([x.parts[0]], tapes)
    with pytest.raises(TypeError):
        ad.stack([x.parts[0], ad.Tensor(np.ones((1, 4)))], tapes)


def test_shape_tapes_join_the_active_tape_in_shape_order():
    x = ad.Tensor(np.ones((1, 3)), requires_grad=True)
    with ad.Tape() as outer:
        ad.square(x)
        with ad.shape_tapes(2) as tapes:
            with tapes[1]:
                ad.exp(x)
            with tapes[0]:
                ad.sigmoid(x)
        ad.norm(x)
    assert [e.kind for e in outer.entries] == ["square", "sigmoid", "exp", "norm"]
    with ad.shape_tapes(1) as tapes:  # no active tape: nothing to join
        with tapes[0]:
            ad.exp(x)
    assert len(tapes[0]) == 1


def test_float32_dtype_preserved_through_ops_and_grads():
    x = ad.Tensor(np.random.default_rng(37).normal(size=(3, 3)).astype(np.float32),
                  requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tensor_mean(ad.sigmoid(ad.rep_update(x, x, x, x)))
    assert loss.dtype == np.float32
    g = ad.backward(loss, tape, leaves=[x])[x]
    assert g.dtype == np.float32


def test_sigmoid_is_stable_at_extremes():
    for dtype in (np.float32, np.float64):
        x = ad.Tensor(np.array([-500.0, -50.0, 0.0, 50.0, 500.0], dtype=dtype))
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
            loss = ad.tensor_sum(ad.norm(ad.rep_update(x, x, x, x)))
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
