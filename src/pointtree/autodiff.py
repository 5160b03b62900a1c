"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Every model and loss computation in this package runs on `Tensor` objects
through a fixed registry of primitives. Forward evaluation is eager (numpy);
when a `Tape` is active, each primitive application is recorded so that
`backward` can replay the record in reverse and accumulate vector-Jacobian
products.

Scope is deliberately small:

* float32 (training default) and float64 (verification) only, never mixed
  inside one operation;
* operands take the forms the model applies and no others: add, mul and
  div take two of one shape (no broadcasting; a bias row joins a batch
  only inside `linear`), norm and max_reduce reduce a 2-D operand, and
  concat joins 2-D operands side by side, along axis 1;
* no higher-order derivatives, no in-place mutation of tensors that are on
  a tape.

One deliberate trade: the products in linear and rep_update do not call
BLAS in the forward direction. They accumulate in index order along the
contraction axis, so each output element's value is independent of the
other array extents and of row position. That costs throughput but makes
batched computation bit-identical to per-row computation, which turns
several model guarantees (exact permutation invariance, exact isolated path
replay) from approximate into exact. The loop is NumPy's einsum (never
BLAS), called once per block of _ROW_BLOCK rows held transposed, as
"ki,kj->ij": the contraction index is the outermost loop, so every element
gets its multiply-then-add chain in index order, each step rounded on its
own, while one row of the matrix and the block's output stay hot. Outputs
narrower than a row block run as "ki,kj->ji" into a transposed tile, so the
innermost loop runs over the block's rows instead of two or three columns;
the chains are the same. Two of einsum's ways are mended, and change no
other byte: a one-column product gets a zero second column, which keeps
einsum from summing along the contraction axis in another order, and an
element whose every product is -0.0 gets back the -0.0 that einsum's +0.0
start loses. Gradients still use BLAS, on one thread while `backward`
runs: they only need determinism at fixed shapes.

The primitives are the ones the model runs, and no more. A model layer,
x @ w then a bias row then an optional leaky ReLU, is one `linear`
primitive: the three steps' roundings in their order, their three vjps
back to back, and one tape entry that keeps the output and the
pre-activation's sign, packed one bit per element, instead of three
arrays. Its input may come as column blocks, read as if concatenated along
axis 1 (a stage's embeddings beside its parents' representations); only
the vjp builds the concatenation, transiently, and frees it before forming
the input's gradient. The generator's representation update,
tanh(s @ ms^T + h @ mh^T), is one `rep_update` primitive in the same way:
each product against a contiguous copy of its matrix's transpose, the sum
and the tanh in place, four vjps back to back, and one entry that keeps
only the output. A max-pool over the rows of a 2-D tensor is
`max_reduce(x, axis=0)`, which records no transposed copy.

gather_rows returns a `Gathered` tensor that holds the input's array and
the indices; reading its `data` gathers afresh, with the same bytes every
time. So a stage's parent representations exist once, not once per
sibling. linear and rep_update never gather a Gathered operand in full:
the kernel gathers one row block at a time, column block beside column
block. Two layouts are declared sibling structure, and keep the bytes of
the gathered product. A lone operand whose indices take each row r times
in turn (a stage's parent index, as `h @ Mh^T` reads it) has its product
formed once per row and repeated. The blocks [slot rows tiled over the
parents, the parents' rows each taken k times in turn] (exp.l0's input)
form each slot's chain over the embedding columns once per stage, k rows
rather than one per child, and every child's chain continues from its
slot's prefix over its parent's row: a sum started at +0.0, as einsum's
is, never holds -0.0, so 0 + 1 * prefix is the prefix exactly. Only
indices are read, never float bits.

Transients are bounded by a block. linear applies its bias, sign bits and
leaky ReLU in place one block of whole rows at a time; axis-0 max_reduce
finds its indices one slab of rows at a time and re-reduces the columns
whose max is 0 or NaN from contiguous copies, one slab of columns at a
time; each is at most _MATMUL_BLOCK elements (or one row or column). The
product kernel gathers its operand _ROW_BLOCK rows at a time. So no
forward makes a second output-sized array, and each byte is the one the
whole-array steps give.

A tape may be consumed by `backward` any number of times; it is a pure
record, not a one-shot resource.

Several shapes can be computed as one `Stack` (their tensors stacked along
axis 0, one tape per shape): a primitive runs once over all rows and
records one entry per shape on that shape's tape, the entry a call on that
shape's rows alone would record. Only row-separable kinds accept a Stack,
and then every operand is a Stack over the same shapes and rows, except
the weights of linear (w, b) and rep_update (ms, mh), which are plain;
linear's column blocks and rep_update's s and h are 2-D. A reshape must
keep each shape's rows whole, and gather_rows's indices must take each
shape's rows from that shape, in shape order; a gathered Stack is a
`Gathered` too. sum, mean and axis-0 max_reduce raise: they would mix
shapes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

LEAKY_SLOPE = 0.2  # negative slope of linear's leaky ReLU
_MATMUL_BLOCK = 65536  # elements per product, linear or max_reduce block (256 KB of float32)
_ROW_BLOCK = 32  # rows of `a` per einsum call in the fixed-order product

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeMismatchError(ValueError):
    """Inputs do not conform to a primitive's shape rule."""


class UnknownPrimitiveError(ValueError):
    """Requested op-kind is not in the primitive registry."""


class Tensor:
    """Dense real array with an optional gradient-tracking flag.

    `data` is always a contiguous numpy array of float32 or float64. Any
    other input (Python lists, integer or float16 arrays) becomes float32.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote 0-d arrays to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=int))

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


class TapeEntry:
    """One recorded primitive application."""

    __slots__ = ("kind", "inputs", "output", "saved", "attrs")

    def __init__(self, kind, inputs, output, saved, attrs):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.saved = saved
        self.attrs = attrs


_tape_stack: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications.

    Used as a context manager; while entered it is the active tape and every
    primitive whose inputs carry `requires_grad` is appended. Entries are in
    topological order by construction (eager evaluation).
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        assert popped is self, "tapes must be exited in LIFO order"
        return False

    def __len__(self):
        return len(self.entries)

    def replay(self) -> bool:
        """Re-run every entry from its inputs' current data.

        Returns True when all recomputed outputs are bit-identical to the
        recorded ones. With unchanged leaf data this always holds: the
        primitives are deterministic. Bytes are compared, not values, so a
        recorded NaN matches itself and 0.0 does not match -0.0.
        """
        for entry in self.entries:
            fwd, _ = _REGISTRY[entry.kind]
            out, _ = fwd(_operands(entry.kind, entry.inputs), entry.attrs)
            recorded = entry.output.data
            if out.shape != recorded.shape or out.tobytes() != recorded.tobytes():
                return False
        return True


def _active_tape():
    return _tape_stack[-1] if _tape_stack else None


class Stack(Tensor):
    """Several shapes' tensors stacked along axis 0 and computed as one.

    `parts` are the shapes' own tensors, in shape order; their data,
    concatenated, is `data`. `tapes` holds one tape per shape. A primitive
    given a Stack runs once over all rows and returns a Stack whose parts
    are row views of its output; each shape's application is recorded on
    that shape's tape, with that shape's parts as inputs, its own attrs and
    its slice of the saved values, exactly as a call on the part alone
    would record it (see `apply_primitive`). Build one with `stack`.
    """

    __slots__ = ("parts", "tapes")

    def __init__(self, data, parts, tapes):
        super().__init__(data, requires_grad=any(p.requires_grad for p in parts))
        self.parts = parts
        self.tapes = tapes


class Gathered:
    """What gather_rows returns, on a tensor or a Stack: rows[indices] along
    axis 0, kept as its `rows` and int64 `indices`. Each read of `data`
    gathers afresh; `shape` and `dtype` are answered without gathering.
    """

    __slots__ = ()

    @property
    def data(self):
        return self.rows[self.indices]

    @property
    def shape(self) -> tuple:
        return self.indices.shape + self.rows.shape[1:]

    @property
    def dtype(self):
        return self.rows.dtype


class _GatheredRows(Gathered, Tensor):
    __slots__ = ("rows", "indices")

    def __init__(self, rows, indices, requires_grad):
        self.rows, self.indices, self.requires_grad = rows, indices, requires_grad


class _GatheredStack(Gathered, Stack):  # each part gathers its own shape's rows
    __slots__ = ("rows", "indices")

    def __init__(self, rows, indices, parts, tapes):
        self.rows, self.indices, self.parts, self.tapes = rows, indices, parts, tapes
        self.requires_grad = any(p.requires_grad for p in parts)


def stack(parts, tapes) -> Stack:
    """One Stack of the per-shape tensors `parts`, one tape per shape.

    Records nothing: the parts themselves stay the inputs of every later
    per-shape entry, so gradients reach them as if they were used alone.
    Parts that all gather from one array stack as one `Gathered` of it.
    """
    parts = tuple(parts)
    if not parts or len(parts) != len(tapes):
        raise ValueError(f"need one tape per part, got {len(parts)} parts and {len(tapes)} tapes")
    _check_dtypes("stack", parts)
    if any(p.ndim == 0 or p.shape[1:] != parts[0].shape[1:] for p in parts):
        _shape_error("stack", parts, "parts must share every axis but the first")
    rows = getattr(parts[0], "rows", None)
    if all(isinstance(p, Gathered) and p.rows is rows for p in parts):
        return _GatheredStack(rows, np.concatenate([p.indices for p in parts]), parts, tapes)
    return Stack(np.concatenate([p.data for p in parts]), parts, tapes)


def parts(x) -> tuple:
    """The per-shape tensors of a Stack; a plain tensor is its own one part."""
    return x.parts if isinstance(x, Stack) else (x,)


def per_shape(x, fn) -> list:
    """[fn(part)] for each shape's part of `x`, each run on that shape's tape.

    A plain tensor gives [fn(x)], recorded wherever the caller records.
    """
    if not isinstance(x, Stack):
        return [fn(x)]
    out = []
    for part, tape in zip(x.parts, x.tapes):
        with tape:
            out.append(fn(part))
    return out


def each_shape(x, fn) -> Tensor:
    """`per_shape(x, fn)` stacked like `x`: fn(x) itself for a plain tensor."""
    if not isinstance(x, Stack):
        return fn(x)
    return stack(per_shape(x, fn), x.tapes)


@contextlib.contextmanager
def shape_tapes(count: int):
    """One fresh tape per shape of a batch.

    On exit their entries join the active tape (if any), tape after tape in
    shape order, so the record is the one a shape-by-shape loop makes.
    """
    tapes = [Tape() for _ in range(count)]
    yield tapes
    outer = _active_tape()
    if outer is not None:
        for tape in tapes:
            outer.entries.extend(tape.entries)


# ---------------------------------------------------------------------------
# primitive registry
#
# Each forward takes (arrays, attrs) and returns (out_array, saved); each vjp
# takes (grad, arrays, saved, attrs) and returns one gradient array (or None)
# per input. Shape rules are enforced in the forward.
# ---------------------------------------------------------------------------


def _shape_error(kind, arrays, msg):
    shapes = ", ".join(str(a.shape) for a in arrays)
    raise ShapeMismatchError(f"{kind}: {msg} (got shapes {shapes})")


def _check_dtypes(kind, arrays):
    dts = {a.dtype for a in arrays}
    if len(dts) > 1:
        raise TypeError(f"{kind}: mixed dtypes {sorted(str(d) for d in dts)}")


def _same_shape(kind, a, b):
    if a.shape != b.shape:
        _shape_error(kind, (a, b), "operands must have one shape")


def _unbroadcast(grad, shape):
    # linear's bias gradient: a full-shape (n, w) gradient reduced onto its
    # (w,) row. Rows add in index order, not pairwise, the order a
    # gather_rows scatter would use. On a C-contiguous grad at least two
    # wide the axis-0 reduce adds whole rows into the accumulator one after
    # another; a (n, 1) or other-ordered grad would reduce along its
    # contiguous axis pairwise, so it takes the last row of a cumsum instead
    if grad.shape == shape:
        return grad
    if shape[0] > 1 and grad.flags["C_CONTIGUOUS"]:
        return np.add.reduce(grad, axis=0)
    return np.cumsum(grad, axis=0)[-1] if len(grad) else np.zeros(shape, grad.dtype)


def _fwd_add(arrays, attrs):
    a, b = arrays
    _same_shape("add", a, b)
    return a + b, None


def _vjp_add(grad, arrays, saved, attrs):
    return grad, grad


def _fwd_mul(arrays, attrs):
    a, b = arrays
    _same_shape("mul", a, b)
    return a * b, None


def _vjp_mul(grad, arrays, saved, attrs):
    a, b = arrays
    return grad * b, grad * a


def _fwd_div(arrays, attrs):
    a, b = arrays
    _same_shape("div", a, b)
    return a / b, None


def _vjp_div(grad, arrays, saved, attrs):
    a, b = arrays
    return grad / b, -grad * a / (b * b)


def _fwd_scale(arrays, attrs):
    (a,) = arrays
    return a * a.dtype.type(attrs["factor"]), None


def _vjp_scale(grad, arrays, saved, attrs):
    (a,) = arrays
    return (grad * a.dtype.type(attrs["factor"]),)


def _dense(x):
    # an operand as an array: a Gathered's rows gathered in full
    return x.data if isinstance(x, Gathered) else x


def _block_matmul(kind, blocks, b):
    # concatenate(blocks, axis=1) @ b for the primitive `kind`, reading a
    # C-contiguous copy of b when b is a transposed view. b is 2-D; one
    # block may be 1-D, several are 2-D with one row count. Two layouts of
    # Gathered blocks, read from the indices alone, are sibling structure:
    # a lone block that takes each of its rows r times in turn (a stage's
    # parent index) has its product formed once per row and repeated, and
    # [slot rows tiled over m parents, the parents' rows each taken k times
    # in turn] (`_slot_count`) forms each slot's chain over its own columns
    # once and continues every child's chain from it (`_rows_matmul`'s
    # prefix). Every other operand is gathered and concatenated one row
    # block at a time inside the kernel.
    #
    # Each output element is a fixed chain of multiply-then-add roundings in
    # index order (`_rows_matmul`) that depends only on the participating
    # operand values, never on the other extents or on row position, so
    # batched products agree bit for bit with their per-row counterparts. A
    # 1-D block runs as one row, which forms the same chains. Zeros get
    # their sign from the blocks as given (`_mend_zeros`).
    a = blocks[0]
    arrays = (*blocks, b)
    if b.ndim != 2:
        _shape_error(kind, arrays, "the matrix must be 2-D")
    if a.ndim not in (1, 2):
        _shape_error(kind, arrays, "operands must be 1-D or 2-D")
    if len(blocks) > 1 and any(x.ndim != 2 or x.shape[0] != a.shape[0] for x in blocks):
        _shape_error(kind, arrays, "column blocks must be 2-D with equal row counts")
    inner = sum(x.shape[-1] for x in blocks)
    if inner != b.shape[0]:
        _shape_error(kind, arrays, "inner dimensions differ")
    if inner == 0:
        _shape_error(kind, arrays, "empty contraction axis")
    b = np.ascontiguousarray(b)
    r = len(a.indices) // len(a.rows) if isinstance(a, Gathered) and len(a.rows) else 0
    if len(blocks) == 1 and _takes(a, r):
        out = np.repeat(_rows_matmul([a.rows], b), r, axis=0)
    elif k := _slot_count(blocks):
        e = a.shape[1]
        out = _rows_matmul([blocks[1].rows], b[e:], _rows_matmul([a.rows[:k]], b[:e]))
    else:
        blocks = [x if x.ndim == 2 else _dense(x).reshape(1, inner) for x in blocks]
        out = _rows_matmul(blocks, b)
    return _mend_zeros(blocks, b, out).reshape(a.shape[:-1] + b.shape[1:])


def _rows_matmul(blocks, b, prefix=None):
    # concatenate(blocks, axis=1) @ b for 2-D blocks with one row count,
    # each an array or a Gathered, on NumPy's einsum loop (never BLAS), one
    # call per _ROW_BLOCK rows. Each row block is joined, gathered where
    # declared, into a reused scratch held transposed, (inner, rows), and
    # read as "ki,kj->ij": the contraction index k is the outermost loop,
    # so one row of `b` and the block's output stay hot while every element
    # gets its multiply-then-add chain in index order from its row of `a`
    # and its column of `b` alone; a row's bytes do not depend on the rows
    # beside it. A `b` narrower than a row block runs as "ki,kj->ji" into a
    # (width, rows) tile, so the innermost loop runs over the block's rows
    # rather than over two or three columns; the chains are the same.
    #
    # With `prefix` (k, width), row i gives the output rows i*k + s, whose
    # chains continue from prefix[s]: the row is read as [1, row] against
    # [prefix[s]; b]. einsum starts each sum at +0.0, and a sum started at
    # +0.0 never holds -0.0, so 0 + 1 * prefix[s] is prefix[s] exactly, NaN
    # payloads too, and each later step rounds as if the chain had run
    # through the prefix's columns itself.
    #
    # On one row against one column einsum would sum along k with a SIMD
    # reduction in another order, so a one-column `b` gets a zero second
    # column and only the first is kept. NumPy's baseline build rounds each
    # multiply and each add on its own (no fused multiply-add), the chain
    # the index-order loop makes. (Where two NaNs meet, the loop picks the
    # payload by an element's position.)
    n = blocks[0].shape[0]
    width = b.shape[1]
    lead = 0 if prefix is None else 1
    if lead:
        b = np.concatenate([prefix[:1], b])  # row 0 takes each slot's prefix in turn
    if width == 1:
        b = np.concatenate([b, np.zeros_like(b)], axis=1)
    slots = [None] if prefix is None else prefix
    narrow = b.shape[1] < _ROW_BLOCK
    out = np.empty((n, len(slots), b.shape[1]), dtype=b.dtype)
    block = min(n, _ROW_BLOCK)
    scratch = np.empty((len(b), block), dtype=b.dtype)
    scratch[:lead] = 1
    tile = np.empty((b.shape[1], block) if narrow else (block, b.shape[1]), dtype=b.dtype)
    for r0 in range(0, n, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n - r0)
        at = scratch[:, :rows]
        _concat_rows(blocks, slice(r0, r0 + rows), at[lead:].T)
        for s, p in enumerate(slots):
            if lead:
                b[0, :width] = p
            if narrow:
                np.einsum("ki,kj->ji", at, b, out=tile[:, :rows], optimize=False)
                out[r0 : r0 + rows, s] = tile[:, :rows].T
            elif lead:  # a slot's rows are strided in `out`: einsum fills a tile faster
                np.einsum("ki,kj->ij", at, b, out=tile[:rows], optimize=False)
                out[r0 : r0 + rows, s] = tile[:rows]
            else:
                np.einsum("ki,kj->ij", at, b, out=out[r0 : r0 + rows, 0], optimize=False)
    out = out.reshape(-1, b.shape[1])
    return np.ascontiguousarray(out[:, :1]) if width == 1 else out


def _mend_zeros(blocks, b, out):
    # einsum starts each sum at +0.0, so where every product is -0.0 it
    # gives +0.0 and the chain -0.0: the products of the elements of `out`
    # (concatenate(blocks, axis=1) @ b) equal to 0 are re-formed from the
    # blocks, at most _MATMUL_BLOCK at a time, and -0.0 restored where each
    # one is -0.0. No other element can differ.
    inner, width = b.shape
    i, j = np.divmod(np.flatnonzero(out == 0), width)
    step = max(1, _MATMUL_BLOCK // inner)
    for e0 in range(0, len(i), step):
        ii, jj = i[e0 : e0 + step], j[e0 : e0 + step]
        products = _concat_rows(blocks, ii, np.empty((len(ii), inner), b.dtype)) * b[:, jj].T
        negative = ((products == 0) & np.signbit(products)).all(axis=1)
        out[ii[negative], jj[negative]] = -0.0
    return out


def _concat_rows(blocks, rows, out):
    # concatenate(blocks, axis=1)[rows] into `out`, a Gathered block's rows
    # gathered by its indices
    c0 = 0
    for x in blocks:
        c1 = c0 + x.shape[1]
        out[:, c0:c1] = x.rows[x.indices[rows]] if isinstance(x, Gathered) else x[rows]
        c0 = c1
    return out


def _slot_count(blocks) -> int:
    # k where the blocks are [slot rows tiled over m parents, the m parents'
    # rows each taken k times in turn] (exp.l0's input), else 0; only the
    # indices are read, never the rows
    if len(blocks) != 2 or not all(isinstance(x, Gathered) for x in blocks):
        return 0
    slots, parents = blocks
    m = len(parents.rows)
    k = len(parents.indices) // m if m else 0
    if not _takes(parents, k):
        return 0
    return k if bool((slots.indices.reshape(m, k) == np.arange(k)).all()) else 0


def _runs(idx, m, r) -> bool:
    # whether the indices take each of m rows r times in turn, 0,..,0,
    # 1,..,1, ...: a stage's parent index
    return r >= 1 and len(idx) == m * r and bool((idx.reshape(m, r) == np.arange(m)[:, None]).all())


def _takes(x, r):
    # whether the 2-D Gathered x takes each of its rows r times in turn
    # (`_runs`); only the indices are read, never the rows
    return isinstance(x, Gathered) and x.ndim == 2 and _runs(x.indices, x.rows.shape[0], r)


def _vjp_matmul(grad, a, b):
    # the gradients of a @ b for a 2-D b and a 1-D or 2-D a, on BLAS
    if a.ndim == 2:
        return grad @ b.T, a.T @ grad
    return b @ grad, np.outer(a, grad)


def _fwd_linear(arrays, attrs):
    # x @ w on the fixed-order kernel, then the bias row and the optional
    # leaky ReLU applied in place: each element gets exactly the bytes of
    # the three steps, each rounded on its own. `x` may arrive as several
    # column blocks (arrays[:-2]), read as their concatenation along axis 1,
    # each maybe a Gathered. Only the output and, when leaky, the sign of
    # the pre-activation are kept for the vjp, packed eight elements to a
    # byte along each row. The sign comes from the pre-activation: a tiny
    # negative value times the slope can round to -0.0, which reads as
    # non-negative.
    #
    # The leaky ReLU is max(slope * y, y), several times faster than a
    # select on the sign. Rounding is monotone, so the rounded slope * y is
    # at most y for y >= 0 and at least y below 0 (equal only at 0 and
    # infinities, which have the same bits either way); where y is NaN,
    # NumPy returns the first operand, slope * y, the value the select took.
    #
    # The bias, the sign bits and the leaky ReLU run in place, one block of
    # whole rows at a time (at most _MATMUL_BLOCK elements, or one row), so
    # the mask and the scaled copy never grow past a block. Each step is
    # elementwise or packs along its own row, so every byte is the one the
    # whole array would get.
    *blocks, w, b = arrays
    if not blocks or w.ndim != 2 or b.shape != w.shape[1:]:
        _shape_error("linear", arrays, "needs x, a 2-D w and b a row as wide as w")
    out = _block_matmul("linear", blocks, w)
    if not attrs.get("leaky"):
        out += b
        return out, None
    rows = out.reshape(-1, out.shape[-1])  # a 1-D head is one row
    step = max(1, _MATMUL_BLOCK // max(1, rows.shape[1]))
    keep = np.empty((len(rows), -(-rows.shape[1] // 8)), dtype=np.uint8)
    for r0 in range(0, len(rows), step):
        o = rows[r0 : r0 + step]
        o += b
        keep[r0 : r0 + step] = np.packbits(o >= 0, axis=-1)
        np.maximum(o * out.dtype.type(LEAKY_SLOPE), o, out=o)
    return out, keep.reshape(out.shape[:-1] + keep.shape[1:])


def _leaky_slopes(keep, dtype):
    # the leaky ReLU's derivative where `keep` (0 or 1 per element) marks a
    # non-negative input: a table lookup, the values np.where would select
    # in about a third of its time
    return np.take(np.array([LEAKY_SLOPE, 1.0], dtype=dtype), keep)


def _vjp_linear(grad, arrays, saved, attrs):
    # the vjps of the leaky ReLU, the bias add and the product in turn, as
    # three separate steps would run them back to back. Several column
    # blocks are written once into the concatenation the BLAS products
    # read, a block of repeated parent rows by broadcast from them; their
    # gradients are column views of gx, the values a concat's vjp would
    # copy out.
    #
    # The gradient is multiplied into the array of slopes, never into
    # `grad`, which add's vjp may have handed to another input too; and the
    # concatenation is freed after gw = x.T @ grad, before gx is formed.
    *blocks, w, b = arrays
    if saved is not None:
        slopes = _leaky_slopes(np.unpackbits(saved, axis=-1, count=grad.shape[-1]), w.dtype)
        grad = np.multiply(grad, slopes, out=slopes)
    gb = _unbroadcast(grad, b.shape)
    if len(blocks) == 1:
        return (*_vjp_matmul(grad, _dense(blocks[0]), w), gb)
    x = np.empty((grad.shape[0], w.shape[0]), dtype=w.dtype)
    edges = np.cumsum([0] + [blk.shape[1] for blk in blocks]).tolist()
    for blk, c0, c1 in zip(blocks, edges, edges[1:]):
        m = blk.rows.shape[0] if isinstance(blk, Gathered) else 0
        if _takes(blk, len(x) // max(1, m)):
            x.reshape(m, -1, x.shape[1])[:, :, c0:c1] = blk.rows[:, None]
        else:
            x[:, c0:c1] = _dense(blk)
    gw = x.T @ grad
    del x
    gx = grad @ w.T
    return (*(gx[:, c0:c1] for c0, c1 in zip(edges, edges[1:])), gw, gb)


def _fwd_rep_update(arrays, attrs):
    # tanh(s @ ms.T + h @ mh.T): the two fixed-order products, each against
    # a contiguous copy of its matrix's transpose, then the add and the tanh
    # in place, so each element gets the bytes of the four steps. Only the
    # output is kept, which tanh's vjp reads.
    s, h, ms, mh = arrays
    out = _block_matmul("rep_update", [s], ms.T)
    shared = _block_matmul("rep_update", [h], mh.T)
    if out.shape != shared.shape:
        _shape_error("rep_update", arrays, "s @ ms.T and h @ mh.T differ in shape")
    out += shared
    np.tanh(out, out=out)
    return out, out


def _vjp_rep_update(grad, arrays, saved, attrs):
    # the vjps of tanh, the add and the two products, in the order four
    # separate steps would run them; the add passes its gradient to both
    # products unchanged. Each product's gradients are those of the copy
    # m.T the forward read, then the copy a separate transpose's vjp makes
    s, h, ms, mh = arrays
    s, h = _dense(s), _dense(h)
    grad = _vjp_tanh(grad, saved)
    gh, gmh = _vjp_matmul(grad, h, np.ascontiguousarray(mh.T))
    gs, gms = _vjp_matmul(grad, s, np.ascontiguousarray(ms.T))
    return gs, gh, np.ascontiguousarray(gms.T), np.ascontiguousarray(gmh.T)


def _vjp_tanh(grad, out):
    # the gradient through tanh, read from its output
    return grad * (1.0 - out * out)


def _fwd_sigmoid(arrays, attrs):
    x = arrays[0]
    # exp of a non-positive argument never overflows, for either sign branch
    z = np.exp(np.where(x >= 0, -x, x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return out.astype(x.dtype, copy=False), out


def _vjp_sigmoid(grad, arrays, saved, attrs):
    return (grad * saved * (1.0 - saved),)


def _fwd_exp(arrays, attrs):
    out = np.exp(arrays[0])
    return out, out


def _vjp_exp(grad, arrays, saved, attrs):
    return (grad * saved,)


def _fwd_square(arrays, attrs):
    x = arrays[0]
    return x * x, None


def _vjp_square(grad, arrays, saved, attrs):
    return (grad * 2.0 * arrays[0],)


def _fwd_norm(arrays, attrs):
    x = arrays[0]
    if x.ndim != 2:
        _shape_error("norm", arrays, "operand must be 2-D")
    out = np.sqrt(np.sum(x * x, axis=-1))
    return out, out


def _vjp_norm(grad, arrays, saved, attrs):
    x = arrays[0]
    n = saved
    # subgradient 0 where the norm vanishes
    safe = np.where(n > 0, n, 1.0)
    coef = np.where(n > 0, grad / safe, 0.0)
    return (coef[:, np.newaxis] * x,)


def _fwd_sum(arrays, attrs):
    return np.sum(arrays[0]), None


def _vjp_sum(grad, arrays, saved, attrs):
    x = arrays[0]
    return (np.full(x.shape, grad, dtype=x.dtype),)


def _fwd_mean(arrays, attrs):
    return np.mean(arrays[0]), None


def _vjp_mean(grad, arrays, saved, attrs):
    x = arrays[0]
    return (np.full(x.shape, grad / x.size, dtype=x.dtype),)


def _fwd_max_reduce(arrays, attrs):
    # the max along each row of a 2-D array, or with axis 0 down each
    # column; ties route to the lowest index (argmax takes the first
    # occurrence). Axis 0 keeps the bytes of a last-axis max_reduce of one
    # contiguous copy of x.T, which the tape never keeps. One max over the
    # contiguous rows gives them wherever the max is unique in value; NumPy's
    # strided and contiguous reductions break a tie between 0.0 and -0.0
    # differently and may keep different NaNs, so the columns whose max is
    # 0 or NaN are reduced again from their contiguous copy, one slab of
    # columns at a time. The index is the first row equal to the max, found
    # one slab of rows at a time; a NaN column takes its argmax from the
    # copy. Each slab holds at most _MATMUL_BLOCK elements, or one row or
    # column.
    x = arrays[0]
    axis0 = attrs.get("axis", -1) == 0
    if x.ndim != 2:
        _shape_error("max_reduce", arrays, "operand must be 2-D")
    if x.shape[0 if axis0 else 1] == 0:
        _shape_error("max_reduce", arrays, "the reduced axis must be non-empty")
    if not axis0:
        return np.max(x, axis=-1), np.argmax(x, axis=-1)
    n, width = x.shape
    out = np.max(x, axis=0)
    idx = np.full(width, n, dtype=np.intp)
    columns = np.arange(width)
    step = max(1, _MATMUL_BLOCK // width)
    for r0 in range(0, n, step):
        equal = x[r0 : r0 + step] == out
        first = np.argmax(equal, axis=0)
        np.minimum(idx, np.where(equal[first, columns], first + r0, n), out=idx)
    redo = np.flatnonzero((out == 0) | np.isnan(out))
    step = max(1, _MATMUL_BLOCK // n)
    for c0 in range(0, len(redo), step):
        cols = redo[c0 : c0 + step]
        t = np.ascontiguousarray(x[:, cols].T)
        out[cols] = np.max(t, axis=-1)
        idx[cols] = np.argmax(t, axis=-1)
    return out, idx


def _vjp_max_reduce(grad, arrays, saved, attrs):
    x = arrays[0]
    axis = attrs.get("axis", -1)
    gx = np.zeros_like(x)
    grad = np.asarray(grad).astype(x.dtype)
    np.put_along_axis(gx, np.expand_dims(saved, axis), np.expand_dims(grad, axis), axis=axis)
    return (gx,)


def _fwd_concat(arrays, attrs):
    # 2-D operands side by side, along axis 1
    if not arrays:
        _shape_error("concat", arrays, "needs at least one operand")
    if any(a.ndim != 2 or a.shape[0] != arrays[0].shape[0] for a in arrays):
        _shape_error("concat", arrays, "operands must be 2-D with equal row counts")
    return np.concatenate(arrays, axis=1), [a.shape[1] for a in arrays]


def _vjp_concat(grad, arrays, saved, attrs):
    offsets = np.cumsum(saved)[:-1]
    return tuple(np.ascontiguousarray(g) for g in np.split(grad, offsets, axis=1))


def _fwd_reshape(arrays, attrs):
    x = arrays[0]
    shape = tuple(attrs["shape"])
    if np.prod(shape, dtype=int) != x.size:
        _shape_error("reshape", arrays, f"cannot reshape to {shape}")
    return x.reshape(shape), None


def _vjp_reshape(grad, arrays, saved, attrs):
    return (grad.reshape(arrays[0].shape),)


def _fwd_gather_rows(arrays, attrs):
    # what `replay` recomputes; apply_primitive checks the indices and
    # returns a Gathered instead
    return arrays[0][attrs["indices"]], None


def _vjp_gather_rows(grad, arrays, saved, attrs):
    # Indices that take each row k times in turn (`_runs`, a stage's parent
    # index) sum each row's k gradient rows with k strided adds from zero,
    # the adds np.add.at makes for them in the same order, without its
    # per-index cost. Any other pattern goes through np.add.at.
    x = arrays[0]
    idx = attrs["indices"]
    gx = np.zeros_like(x)
    n = len(x)
    k = len(idx) // n if n else 0
    if _runs(idx, n, k):
        for j in range(k):
            gx += grad[j::k]
    else:
        np.add.at(gx, idx, grad)
    return (gx,)


_REGISTRY = {
    "linear": (_fwd_linear, _vjp_linear),
    "rep_update": (_fwd_rep_update, _vjp_rep_update),
    "add": (_fwd_add, _vjp_add),
    "mul": (_fwd_mul, _vjp_mul),
    "scale": (_fwd_scale, _vjp_scale),
    "div": (_fwd_div, _vjp_div),
    "sigmoid": (_fwd_sigmoid, _vjp_sigmoid),
    "exp": (_fwd_exp, _vjp_exp),
    "square": (_fwd_square, _vjp_square),
    "norm": (_fwd_norm, _vjp_norm),
    "sum": (_fwd_sum, _vjp_sum),
    "mean": (_fwd_mean, _vjp_mean),
    "max_reduce": (_fwd_max_reduce, _vjp_max_reduce),
    "concat": (_fwd_concat, _vjp_concat),
    "reshape": (_fwd_reshape, _vjp_reshape),
    "gather_rows": (_fwd_gather_rows, _vjp_gather_rows),
}


def apply_primitive(kind: str, inputs, **attrs) -> Tensor:
    """Apply one primitive to `inputs` and record it on the active tape.

    Recording happens only when a tape is active and at least one input has
    `requires_grad`. Attribute arguments (`axis`, `shape`, `indices`,
    `factor`, `leaky`) parameterize the primitive and are
    never differentiated. With a `Stack` among the inputs the primitive runs
    once for all its shapes and records on the shapes' own tapes instead.
    gather_rows returns a `Gathered` tensor.
    """
    if kind not in _REGISTRY:
        raise UnknownPrimitiveError(
            f"unknown primitive {kind!r}; known kinds: {', '.join(sorted(_REGISTRY))}"
        )
    inputs = tuple(inputs)
    arrays = _operands(kind, inputs)
    _check_dtypes(kind, arrays)
    if "indices" in attrs:  # gather_rows, whose forward never runs here
        idx = attrs["indices"] = np.ascontiguousarray(attrs["indices"], dtype=np.int64)
        if arrays[0].ndim == 0:
            _shape_error(kind, arrays, "operand must have at least one axis")
        if idx.size and (idx.min() < 0 or idx.max() >= arrays[0].shape[0]):
            _shape_error(kind, arrays, "index out of range")
    fwd, _ = _REGISTRY[kind]
    if any(isinstance(t, Stack) for t in inputs):
        return _apply_stacked(kind, inputs, arrays, attrs, fwd)
    needs_grad = any(t.requires_grad for t in inputs)
    if kind == "gather_rows":
        out, saved = _GatheredRows(arrays[0], attrs["indices"], needs_grad), None
    else:
        out_array, saved = fwd(arrays, attrs)
        out = Tensor(out_array, requires_grad=needs_grad)
    tape = _active_tape()
    if tape is not None and needs_grad:
        tape.entries.append(TapeEntry(kind, inputs, out, saved, attrs))
    return out


def _operands(kind, inputs):
    # what a primitive's forward and vjp compute on: each input's data,
    # except that linear's column blocks and rep_update's s and h pass a
    # Gathered as it is, for its declared structure
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError(f"{kind}: inputs must be Tensors, got {type(t).__name__}")
    split = _ROW_OPERANDS.get(kind, 0)
    rows = [t if isinstance(t, Gathered) else t.data for t in inputs[:split]]
    return rows + [t.data for t in inputs[split:]]


# kinds whose every output row comes from one input row (or one row block
# of the leading axis), so a Stack's shapes stay apart
_ROW_SEPARABLE = frozenset((
    "linear", "rep_update", "add", "mul", "scale", "div", "sigmoid", "exp", "square",
    "norm", "max_reduce", "concat", "reshape", "gather_rows",
))
# kinds with weights: on a Stack, inputs[:n] are 2-D Stacks and the rest,
# the weights, plain
_ROW_OPERANDS = {"linear": -2, "rep_update": 2}


def _apply_stacked(kind, inputs, arrays, attrs, fwd):
    # One forward over every shape's rows, then one entry per shape on that
    # shape's tape. Row independence makes each row block of the output
    # byte-equal to the part's own forward, so the per-shape entries are
    # the ones a shape-by-shape loop records. A gather runs no forward: it
    # returns a gathered Stack of gathered parts. Anything that could mix
    # rows of different shapes raises instead.
    ref = next(t for t in inputs if isinstance(t, Stack))
    rows = [p.shape[0] for p in ref.parts]

    def mixes(why):
        raise ShapeMismatchError(f"{kind} on a Stack: {why}; it would mix shapes")

    if kind not in _ROW_SEPARABLE:
        mixes("not a row-separable kind")
    split = _ROW_OPERANDS.get(kind, len(inputs))
    for t in inputs[:split]:
        if not isinstance(t, Stack) or t.tapes is not ref.tapes:
            mixes("every operand but the weights must be a Stack of the same shapes")
        if [p.shape[0] for p in t.parts] != rows:
            mixes("operands stack different row counts")
    if any(isinstance(t, Stack) for t in inputs[split:]):
        mixes(f"{kind}'s weights must be plain")
    if kind in _ROW_OPERANDS and any(t.ndim != 2 for t in inputs[:split]):
        mixes(f"{kind} needs 2-D row operands")
    if kind == "max_reduce" and attrs.get("axis", -1) == 0:
        mixes("axis-0 max_reduce")

    out_array, saved = (None, None) if kind == "gather_rows" else fwd(arrays, attrs)
    per_attrs = [attrs] * len(rows)
    if kind == "gather_rows":
        idx = attrs["indices"]
        starts = np.cumsum([0] + rows[:-1])
        owner = np.searchsorted(starts, idx, side="right") - 1
        if idx.ndim != 1 or np.any(owner[1:] < owner[:-1]):
            mixes("indices must be 1-D and take the shapes' rows in shape order")
        local = idx - starts[owner]
        out_rows = np.bincount(owner, minlength=len(rows)).tolist()
        bounds = np.cumsum([0] + out_rows).tolist()
        per_attrs = [{"indices": local[o0:o1]} for o0, o1 in zip(bounds, bounds[1:])]
    elif kind == "reshape":
        shape = attrs["shape"]
        inner = int(np.prod(shape[1:], dtype=int)) if shape else 0
        per_row = int(np.prod(ref.shape[1:], dtype=int))
        sizes = [r * per_row for r in rows]
        if inner < 1 or any(n % inner for n in sizes):
            mixes(f"target shape {shape} cuts across the shapes' row blocks")
        out_rows = [n // inner for n in sizes]
        per_attrs = [{"shape": (r,) + shape[1:]} for r in out_rows]
    else:
        out_rows = rows

    columns = [t.parts if isinstance(t, Stack) else (t,) * len(rows) for t in inputs]
    slice_saved = isinstance(saved, np.ndarray)
    out_parts = []
    o0 = 0
    for ins, tape, part_attrs, n in zip(zip(*columns), ref.tapes, per_attrs, out_rows):
        o1 = o0 + n
        if kind == "gather_rows":
            out = _GatheredRows(ins[0].data, part_attrs["indices"], ins[0].requires_grad)
        else:  # a row block of a C-contiguous float array: what Tensor() would keep
            out = Tensor.__new__(Tensor)
            out.data = out_array[o0:o1]
            out.requires_grad = any(t.requires_grad for t in ins)
        if out.requires_grad:
            part_saved = saved[o0:o1] if slice_saved else saved
            tape.entries.append(TapeEntry(kind, ins, out, part_saved, part_attrs))
        out_parts.append(out)
        o0 = o1
    if kind == "gather_rows":
        return _GatheredStack(arrays[0], attrs["indices"], tuple(out_parts), ref.tapes)
    return Stack(out_array, tuple(out_parts), ref.tapes)


@functools.cache
def _openblas_threads():
    # (get, set) for the thread count of the OpenBLAS bundled in NumPy's
    # wheel, or None when there is no such library or it lacks the calls.
    # Loading it again returns the handle NumPy already uses.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    # The vjps' BLAS products are small: at the training shapes OpenBLAS's
    # thread hand-off costs more than it saves, and several times more when
    # another process holds a core. The count changes no value: fits of
    # the acceptance overfit setup give byte-equal weights either way.
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def backward(loss: Tensor, tape: Tape, leaves=None) -> dict:
    """Accumulate d(loss)/d(leaf) for every requires_grad leaf on the tape.

    `loss` must be a single-element tensor reachable from the tape's
    recorded outputs. When `leaves` is given, the returned map has exactly
    one entry per leaf, with zero tensors for leaves the loss does not
    reach; otherwise the map covers every requires_grad tensor that feeds
    the tape without being produced by it. BLAS runs on one thread
    meanwhile; the caller's thread count is restored on return.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    with _one_blas_thread():
        return _backward(loss, tape, leaves)


def _backward(loss, tape, leaves):
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    produced = {id(e.output) for e in tape.entries}
    found: dict[int, Tensor] = {}

    for entry in reversed(tape.entries):
        grad = adjoint.pop(id(entry.output), None)
        if grad is None:
            continue
        _, vjp = _REGISTRY[entry.kind]
        grads = vjp(grad, _operands(entry.kind, entry.inputs), entry.saved, entry.attrs)
        for inp, g in zip(entry.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in adjoint:
                adjoint[key] = adjoint[key] + g
            else:
                adjoint[key] = g
            if key not in produced:
                found[key] = inp

    if leaves is None:
        leaves = list(found.values())
    result = {}
    for leaf in leaves:
        g = adjoint.get(id(leaf))
        if g is None:
            g = np.zeros_like(leaf.data)
        result[leaf] = Tensor(np.asarray(g, dtype=leaf.data.dtype))
    return result


# ---------------------------------------------------------------------------
# functional wrappers
# ---------------------------------------------------------------------------


def linear(x, w, b, leaky: bool = False):
    """`x @ w + b` on the fixed-order kernel, then a leaky ReLU of slope
    LEAKY_SLOPE when `leaky`.

    One primitive with the bytes of those steps done one after another,
    each rounded on its own, forward and gradients, but one tape entry
    that keeps only the output and, when leaky, the sign of the
    pre-activation, one bit per element. `w` is 2-D and `b` one row as
    wide as `w`. `x` may be a list of 2-D column blocks with one row
    count, read as `concat(x)` with that concat's gradients; the
    entry's inputs are then the blocks, then `w` and `b`, and no
    concatenated copy is kept; the kernel gathers `gather_rows` blocks a
    row block at a time. A lone `gather_rows` block whose indices repeat
    each parent row r times has its product formed once per parent, and
    the blocks [slot rows tiled over the parents, parent rows each taken k
    times in turn] form each slot's chain over its columns once.
    """
    attrs = {"leaky": True} if leaky else {}
    blocks = tuple(x) if isinstance(x, (list, tuple)) else (x,)
    return apply_primitive("linear", (*blocks, w, b), **attrs)


def rep_update(s, h, ms, mh):
    """`tanh(s @ ms.T + h @ mh.T)` as one primitive, both products on the
    fixed-order kernel.

    The bytes of the four steps done one after another, each product
    against a contiguous copy of its matrix's transpose, forward and
    gradients, but one tape entry that keeps only the output. s and h are
    both 1-D, or both 2-D with one row per point. An h gathered by
    repeating each parent row r times has its product formed once per
    parent and repeated, and is never gathered.
    """
    return apply_primitive("rep_update", (s, h, ms, mh))


def add(a, b):
    return apply_primitive("add", (a, b))


def mul(a, b):
    return apply_primitive("mul", (a, b))


def scale(a, factor: float):
    return apply_primitive("scale", (a,), factor=float(factor))


def div(a, b):
    return apply_primitive("div", (a, b))


def sigmoid(a):
    return apply_primitive("sigmoid", (a,))


def exp(a):
    return apply_primitive("exp", (a,))


def square(a):
    return apply_primitive("square", (a,))


def norm(a):
    return apply_primitive("norm", (a,))


def tensor_sum(a):
    return apply_primitive("sum", (a,))


def tensor_mean(a):
    return apply_primitive("mean", (a,))


def max_reduce(a, axis: int = -1):
    """Max along each row of a 2-D `a`, or down each column with `axis=0`;
    the gradient goes to the first maximal element."""
    if axis not in (-1, 0):
        raise ShapeMismatchError(f"max_reduce: axis must be -1 or 0, got {axis}")
    attrs = {"axis": 0} if axis == 0 else {}
    return apply_primitive("max_reduce", (a,), **attrs)


def concat(tensors):
    """2-D tensors with equal row counts, side by side along axis 1."""
    return apply_primitive("concat", tensors)


def reshape(a, shape):
    return apply_primitive("reshape", (a,), shape=tuple(int(s) for s in shape))


def gather_rows(a, indices):
    return apply_primitive("gather_rows", (a,), indices=indices)
