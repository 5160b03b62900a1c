"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Every model and loss computation in this package runs on `Tensor` objects
through a fixed registry of primitives. Forward evaluation is eager (numpy);
when a `Tape` is active, each primitive application is recorded so that
`backward` can replay the record in reverse and accumulate vector-Jacobian
products.

Scope is deliberately small:

* float32 (training default) and float64 (verification) only, never mixed
  inside one operation;
* broadcasting is limited to scalar-vs-tensor (an operand with exactly one
  element) and row-vs-matrix (a (w,) operand against an (n, w) one, which is
  how a bias joins a batch); anything else batched is expressed with
  explicit stacked matrices or `gather_rows`;
* no higher-order derivatives, no in-place mutation of tensors that are on
  a tape.

One deliberate trade: matmul does not call BLAS in the forward direction.
It accumulates rank-1 updates in index order, so each output element's
value is independent of the other array extents and of row position. That
costs throughput but makes batched computation bit-identical to per-row
computation, which turns several model guarantees (exact permutation
invariance, exact isolated path replay) from approximate into exact. The
output is filled in cache-sized blocks; a block changes which elements are
in flight together, never the order of any element's adds. Each multiply is
a scalar times a run of values, taken along whichever output axis is
longer, and runs with NumPy's ufunc buffer cut to a few elements: the
default buffer copies the broadcast operands several rows at a time, which
made the multiply cost several times the add beside it. A small block
forms the products of several contraction indices in one multiply, since a
NumPy call costs about a microsecond however little it does, and still adds
them one index at a time. None of these choices touches a rounding. A matmul
applied with the `groups` hint (rows in consecutive groups, such as a
point's siblings) forms each rounded product that is bit-equal across a
group, or across groups slot by slot, once and adds it by broadcast; every
element keeps its chain, so the bytes are those of the full product.
Gradients still use BLAS: they only need determinism at fixed shapes.

A tape may be consumed by `backward` any number of times; it is a pure
record, not a one-shot resource.

Several shapes can be computed as one `Stack` (their tensors stacked along
axis 0, one tape per shape): a primitive runs once over all rows and
records one entry per shape on that shape's tape, the entry a call on that
shape's rows alone would record. Only row-separable kinds accept a Stack:
matmul (a 2-D Stack `a`, a plain `b`), the elementwise kinds against a
Stack of the same shapes or a plain scalar or row, last-axis norm and
max_reduce of a 2-D Stack, concat along axis 1, reshape that keeps each
shape's rows whole, and gather_rows whose indices take each shape's rows
from that shape, in shape order. transpose, sum, mean, axis-0 concat and a
reduction of a 1-D Stack raise: they would mix shapes.
"""

from __future__ import annotations

import contextlib

import numpy as np

LEAKY_SLOPE = 0.2  # fixed negative slope for leaky_relu
_MATMUL_BLOCK = 65536  # output elements per matmul block (256 KB of float32)
_MATMUL_RUN = 2048  # rows of `a` per block when a product has more rows than columns
_UFUNC_BUFSIZE = 64  # ufunc buffer elements inside the matmul and scan kernels

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeMismatchError(ValueError):
    """Inputs do not conform to a primitive's shape rule."""


class UnknownPrimitiveError(ValueError):
    """Requested op-kind is not in the primitive registry."""


class Tensor:
    """Dense real array with an optional gradient-tracking flag.

    `data` is always a contiguous numpy array of float32 or float64.
    Python lists and integer arrays are converted to float32 unless an
    explicit dtype is given or the input is already float64.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
            if not np.issubdtype(arr.dtype, np.floating):
                raise TypeError(f"Tensor requires a float dtype, got {arr.dtype}")
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote 0-d arrays to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # arithmetic sugar; python numbers become constants of the tensor's dtype
    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Tensor(np.full((), other, dtype=self.dtype))
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Tensor(np.full((), other, dtype=self.dtype))
        return add(self, scale(other, -1.0))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


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
        primitives are deterministic.
        """
        for entry in self.entries:
            fwd, _ = _REGISTRY[entry.kind]
            out, _ = fwd([t.data for t in entry.inputs], entry.attrs)
            if not np.array_equal(out, entry.output.data):
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


def stack(parts, tapes) -> Stack:
    """One Stack of the per-shape tensors `parts`, one tape per shape.

    Records nothing: the parts themselves stay the inputs of every later
    per-shape entry, so gradients reach them as if they were used alone.
    """
    parts = tuple(parts)
    if not parts or len(parts) != len(tapes):
        raise ValueError(f"need one tape per part, got {len(parts)} parts and {len(tapes)} tapes")
    arrays = [p.data for p in parts]
    _check_dtypes("stack", arrays)
    if any(a.ndim == 0 or a.shape[1:] != arrays[0].shape[1:] for a in arrays):
        _shape_error("stack", arrays, "parts must share every axis but the first")
    return Stack(np.concatenate(arrays), parts, tapes)


def parts(x) -> tuple:
    """The per-shape tensors of a Stack; a plain tensor is its own one part."""
    return x.parts if type(x) is Stack else (x,)


def per_shape(x, fn) -> list:
    """[fn(part)] for each shape's part of `x`, each run on that shape's tape.

    A plain tensor gives [fn(x)], recorded wherever the caller records.
    """
    if type(x) is not Stack:
        return [fn(x)]
    out = []
    for part, tape in zip(x.parts, x.tapes):
        with tape:
            out.append(fn(part))
    return out


def each_shape(x, fn) -> Tensor:
    """`per_shape(x, fn)` stacked like `x`: fn(x) itself for a plain tensor."""
    if type(x) is not Stack:
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


def _binary_out_shape(kind, a, b):
    if a.shape == b.shape:
        return a.shape
    if a.size == 1 or b.size == 1:
        return b.shape if a.size == 1 else a.shape
    if a.ndim == 2 and b.shape == a.shape[1:]:
        return a.shape
    if b.ndim == 2 and a.shape == b.shape[1:]:
        return b.shape
    _shape_error(kind, (a, b), "shapes must match, or one operand must be scalar or a row")


def _unbroadcast(grad, shape):
    # reduce a full-shape gradient back onto a row or scalar-like operand.
    # Rows add in index order (cumsum, not the pairwise sum), the order a
    # gather_rows scatter would use; the row rule comes first so that a (1,)
    # row against (n, 1) is summed that way too
    if grad.shape == shape:
        return grad
    if grad.ndim == 2 and shape == grad.shape[1:]:
        return np.cumsum(grad, axis=0)[-1] if len(grad) else np.zeros(shape, grad.dtype)
    return grad.sum().reshape(shape) if np.prod(shape, dtype=int) == 1 else grad.reshape(shape)


def _fwd_add(arrays, attrs):
    a, b = arrays
    _binary_out_shape("add", a, b)
    return a + b, None


def _vjp_add(grad, arrays, saved, attrs):
    a, b = arrays
    return _unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)


def _fwd_mul(arrays, attrs):
    a, b = arrays
    _binary_out_shape("mul", a, b)
    return a * b, None


def _vjp_mul(grad, arrays, saved, attrs):
    a, b = arrays
    return _unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)


def _fwd_div(arrays, attrs):
    a, b = arrays
    _binary_out_shape("div", a, b)
    return a / b, None


def _vjp_div(grad, arrays, saved, attrs):
    a, b = arrays
    ga = _unbroadcast(grad / b, a.shape)
    gb = _unbroadcast(-grad * a / (b * b), b.shape)
    return ga, gb


def _fwd_scale(arrays, attrs):
    (a,) = arrays
    return a * a.dtype.type(attrs["factor"]), None


def _vjp_scale(grad, arrays, saved, attrs):
    (a,) = arrays
    return (grad * a.dtype.type(attrs["factor"]),)


def _fwd_matmul(arrays, attrs):
    # Accumulates strictly in index order along the contraction axis, one
    # rank-1 update at a time. Each output element is then a fixed chain of
    # multiply-then-add roundings that depends only on the participating
    # operand values, never on the other extents or on row position. Batched
    # products therefore agree bit-for-bit with their per-row counterparts,
    # which several structural guarantees of the generator lean on (exact
    # encoder permutation invariance, exact isolated replay of one point's
    # expansion path). BLAS would not give that.
    #
    # 1-D operands run as one-row or one-column 2-D products, which form the
    # same chains. With the `groups` hint (rows of `a` in consecutive groups
    # of that size) the same chains are computed with each rounded product
    # formed once per value it can take; see _grouped_matmul. With
    # `transpose_b` the product is a @ b.T, formed from a contiguous copy of
    # b.T exactly as a separate transpose would have made it.
    a, b = arrays
    if attrs.get("transpose_b"):
        if b.ndim != 2:
            _shape_error("matmul", arrays, "a transposed b must be 2-D")
        b = np.ascontiguousarray(b.T)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        _shape_error("matmul", arrays, "operands must be 1-D or 2-D")
    if a.shape[-1] != b.shape[0]:
        _shape_error("matmul", arrays, "inner dimensions differ")
    inner = a.shape[-1]
    if inner == 0:
        _shape_error("matmul", arrays, "empty contraction axis")
    groups = attrs.get("groups", 1)
    if groups > 1 and (a.ndim != 2 or len(a) % groups):
        _shape_error("matmul", arrays, f"rows of a do not split into groups of {groups}")
    a2, b2 = a.reshape(-1, inner), b.reshape(inner, -1)
    with _small_ufunc_buffer():
        out = _grouped_matmul(a2, b2, groups) if groups > 1 else _rows_matmul(a2, b2)
    return out.reshape(a.shape[:-1] + b.shape[1:]), None


@contextlib.contextmanager
def _small_ufunc_buffer():
    # The kernels below multiply a per-row scalar by a run of values, a
    # stride-0 broadcast. NumPy's ufunc iterator copies such operands
    # through its buffer (8192 elements by default) several rows at a time,
    # which made the multiply cost about four times the add beside it on
    # runs of a few hundred elements. A buffer of _UFUNC_BUFSIZE elements
    # sends those operands to the inner loop almost directly. The size only
    # decides how elementwise work is cut into pieces. Inside run only
    # elementwise arithmetic, compares, copies and exact reductions (min,
    # max, argmin, all), never a float sum, whose pairwise blocking can
    # follow the buffer; so no value depends on it. The multiply that forms
    # a chunk of products at once is elementwise too, and the adds after it
    # stay one in-place add per contraction index. NumPy 1.x keeps the size
    # per thread rather than per context, hence the explicit restore.
    previous = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(previous)


def _rows_matmul(a, b):
    # The 2-D x 2-D index-order loop, run one block at a time
    # (_MATMUL_BLOCK output elements, which stay in L2 between updates)
    # instead of streaming the whole output through memory once per
    # contraction index. Inside a block the first product is written
    # straight into the accumulator and every later one is added to it in
    # index order, one in-place add per index, so each element still gets
    # the same multiply-then-add chain, bit for bit.
    #
    # Every multiply is a scalar times a run, along the longer output axis.
    # With no more rows than columns a block is whole rows of `out`: a[i, k]
    # times the run b[k, :]. With more rows a block holds out[rows, cols].T
    # for _MATMUL_RUN rows of `a`, copied once as a[rows].T, so the runs are
    # a[rows, k] against the scalars b[k, cols], and it is written back
    # transposed. Which operand supplies the run changes no product and no
    # add, only how NumPy iterates over them. (Where two NaNs meet, NumPy's
    # loops pick the payload by an element's position in the loop, in
    # either layout.)
    #
    # A NumPy call costs about a microsecond however few elements it
    # touches, so a small block forms the products of a chunk of
    # contraction indices in one multiply, into a reused scratch of at
    # most _MATMUL_BLOCK elements, and then adds them one index at a time.
    # A product is rounded on its own whichever call forms it, so only the
    # grouping of multiplies into calls changes, never a chain. A block of
    # half _MATMUL_BLOCK or more keeps one multiply per index on 2-D
    # slices, which ran faster there than one-index 3-D slices.
    n, inner = a.shape
    width = b.shape[1]
    out = np.empty((n, width), dtype=np.result_type(a, b))
    flip = n > width
    if flip:
        rows = min(n, _MATMUL_RUN)
        cols = max(1, min(width, _MATMUL_BLOCK // rows))
        a_runs = np.empty((inner, rows), dtype=a.dtype)
        acc_block = np.empty((cols, rows), dtype=out.dtype)
    else:
        rows, cols = max(1, _MATMUL_BLOCK // max(1, width)), width
    size = min(rows, n) * cols  # elements in the largest block
    work = np.empty(max(size, min(_MATMUL_BLOCK, (inner - 1) * size)), dtype=out.dtype)
    for r0 in range(0, n, rows):
        blk = a[r0 : r0 + rows]
        if flip:
            np.copyto(a_runs[:, : len(blk)], blk.T)
            x = a_runs[:, None, : len(blk)]  # (inner, 1, rows): a run per k
        else:
            x = blk.T[:, :, None]  # (inner, rows, 1): a scalar per row
        for c0 in range(0, width, cols):
            bc = b[:, c0 : c0 + cols]
            o = out[r0 : r0 + rows, c0 : c0 + cols]
            if flip:
                y = bc[:, :, None]  # (inner, cols, 1): a scalar per column
                acc = acc_block[: o.shape[1], : o.shape[0]]
            else:
                y = bc[:, None]  # (inner, 1, cols): a run per k
                acc = o
            np.multiply(x[0], y[0], out=acc)
            chunk = _MATMUL_BLOCK // acc.size  # indices whose products fit in `work`
            if chunk < 2:
                t = work[: acc.size].reshape(acc.shape)
                for k in range(1, inner):
                    np.multiply(x[k], y[k], out=t)
                    acc += t
            else:
                for k0 in range(1, inner, chunk):
                    k1 = min(k0 + chunk, inner)
                    prods = work[: (k1 - k0) * acc.size].reshape((k1 - k0,) + acc.shape)
                    np.multiply(x[k0:k1], y[k0:k1], out=prods)
                    for t in prods:
                        acc += t
            if flip:
                o[...] = acc.T
    return out


def _column_kinds(a, groups):
    """How each column of the 2-D `a` repeats over row groups of size `groups`.

    "within": one value inside every group; "across": not within, but every
    group holds the same value in the same slot; "neither". Values are
    compared as unsigned ints: a float compare would merge 0.0 with -0.0,
    whose products can differ in sign, and never find a NaN equal to itself.
    """
    bits = a.view(f"u{a.itemsize}").reshape(-1, groups, a.shape[1])
    within = (bits == bits[:, :1]).all(axis=(0, 1))
    across = np.zeros_like(within)
    rest = np.flatnonzero(~within)
    if len(rest):
        part = bits[:, :, rest]
        across[rest] = (part == part[:1]).all(axis=(0, 1))
    return ["within" if w else "across" if c else "neither"
            for w, c in zip(within.tolist(), across.tolist())]


def _grouped_matmul(a, b, r):
    # a @ b for 2-D operands whose rows of `a` come in consecutive groups of
    # r, with every output element's multiply-then-add chain unchanged.
    # Equal input bits give equal rounded products, so a "within" column's
    # product is formed once per group and an "across" column's once per
    # slot (per block of groups), then added by broadcast in index order.
    # The leading run of within or across columns runs its whole chain at
    # one row per group or at r rows and is copied into each block; when
    # every column is within (rows that are full copies) the chain runs
    # once per group and is repeated down the rows.
    #
    # A block accumulates slot-major, (r, groups, width), so a per-group
    # product is added to r contiguous runs rather than broadcast row by
    # row, and is copied back row-major once per block.
    n, inner = a.shape
    width = b.shape[1]
    kinds = _column_kinds(a, r)
    head_kind = kinds[0]
    lead = 1
    while lead < inner and kinds[lead] == head_kind:
        lead += 1
    if head_kind == "within":
        head = _rows_matmul(a[::r, :lead], b[:lead])
        if lead == inner:
            return np.repeat(head, r, axis=0)
        head = head[None]  # one row per group, the same in every slot
    elif head_kind == "across":
        head = _rows_matmul(a[:r, :lead], b[:lead])[:, None]  # one row per slot
    else:
        lead = 1
    rest = list(zip(range(lead, inner), kinds[lead:]))
    a3 = a.reshape(n // r, r, inner)
    out = np.empty((n, width), dtype=np.result_type(a, b))
    out3 = out.reshape(n // r, r, width)
    per_block = max(1, _MATMUL_BLOCK // max(1, r * width))  # groups per block
    acc_block = np.empty((r, min(per_block, len(a3)), width), dtype=out.dtype)
    scratch = np.empty_like(acc_block)
    for g0 in range(0, len(a3), per_block):
        blk = a3[g0 : g0 + per_block]
        acc, t_full = acc_block[:, : len(blk)], scratch[:, : len(blk)]
        t_group, t_slot = t_full[0], t_full[:, 0]
        if head_kind == "within":
            acc[...] = head[:, g0 : g0 + len(blk)]
        elif head_kind == "across":
            acc[...] = head
        else:
            np.multiply(blk[:, :, 0].T[:, :, None], b[0], out=acc)
        for k, kind in rest:
            if kind == "within":
                np.multiply(blk[:, 0, k : k + 1], b[k], out=t_group)
                acc += t_group
            elif kind == "across":
                np.multiply(a3[0, :, k : k + 1], b[k], out=t_slot)
                acc += t_slot[:, None]
            else:
                np.multiply(blk[:, :, k].T[:, :, None], b[k], out=t_full)
                acc += t_full
        out3[g0 : g0 + len(blk)] = acc.transpose(1, 0, 2)
    return out


def _vjp_matmul(grad, arrays, saved, attrs):
    a, b = arrays
    if attrs.get("transpose_b"):
        # the gradient of the copy b.T the forward used, then the copy a
        # transpose's own vjp would make
        ga, gbt = _vjp_matmul(grad, (a, np.ascontiguousarray(b.T)), saved, {})
        return ga, np.ascontiguousarray(gbt.T)
    if a.ndim == 2 and b.ndim == 2:
        return grad @ b.T, a.T @ grad
    if a.ndim == 2 and b.ndim == 1:
        return np.outer(grad, b), a.T @ grad
    if a.ndim == 1 and b.ndim == 2:
        return b @ grad, np.outer(a, grad)
    return grad * b, grad * a  # 1-D @ 1-D, grad is scalar


def _fwd_tanh(arrays, attrs):
    out = np.tanh(arrays[0])
    return out, out


def _vjp_tanh(grad, arrays, saved, attrs):
    return (grad * (1.0 - saved * saved),)


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


def _fwd_leaky_relu(arrays, attrs):
    x = arrays[0]
    return np.where(x >= 0, x, x.dtype.type(LEAKY_SLOPE) * x), None


def _vjp_leaky_relu(grad, arrays, saved, attrs):
    x = arrays[0]
    # slope 1 on the boundary x == 0
    return (grad * np.where(x >= 0, x.dtype.type(1.0), x.dtype.type(LEAKY_SLOPE)),)


def _fwd_square(arrays, attrs):
    x = arrays[0]
    return x * x, None


def _vjp_square(grad, arrays, saved, attrs):
    return (grad * 2.0 * arrays[0],)


def _fwd_norm(arrays, attrs):
    x = arrays[0]
    if x.ndim == 0:
        _shape_error("norm", arrays, "operand must have at least one axis")
    out = np.sqrt(np.sum(x * x, axis=-1))
    return out, out


def _vjp_norm(grad, arrays, saved, attrs):
    x = arrays[0]
    n = saved
    # subgradient 0 where the norm vanishes
    safe = np.where(n > 0, n, 1.0)
    coef = np.where(n > 0, grad / safe, 0.0)
    return (coef[..., np.newaxis] * x if x.ndim > 1 or n.ndim > 0 else coef * x,)


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
    x = arrays[0]
    if x.ndim == 0 or x.shape[-1] == 0:
        _shape_error("max_reduce", arrays, "last axis must be non-empty")
    idx = np.argmax(x, axis=-1)  # first occurrence: ties route to lowest index
    return np.max(x, axis=-1), idx


def _vjp_max_reduce(grad, arrays, saved, attrs):
    x = arrays[0]
    gx = np.zeros_like(x)
    np.put_along_axis(
        gx, saved[..., np.newaxis], np.asarray(grad)[..., np.newaxis].astype(x.dtype), axis=-1
    )
    return (gx,)


def _fwd_concat(arrays, attrs):
    axis = attrs["axis"]
    nd = arrays[0].ndim
    for a in arrays:
        if a.ndim != nd:
            _shape_error("concat", arrays, "operands must share rank")
    if not 0 <= axis < nd:
        _shape_error("concat", arrays, f"axis {axis} out of range for rank {nd}")
    ref = list(arrays[0].shape)
    for a in arrays:
        s = list(a.shape)
        s[axis] = ref[axis] = 0
        if s != ref:
            _shape_error("concat", arrays, "extents differ off the concat axis")
    return np.concatenate(arrays, axis=axis), [a.shape[axis] for a in arrays]


def _vjp_concat(grad, arrays, saved, attrs):
    offsets = np.cumsum(saved)[:-1]
    return tuple(np.ascontiguousarray(g) for g in np.split(grad, offsets, axis=attrs["axis"]))


def _fwd_reshape(arrays, attrs):
    x = arrays[0]
    shape = tuple(attrs["shape"])
    if np.prod(shape, dtype=int) != x.size:
        _shape_error("reshape", arrays, f"cannot reshape to {shape}")
    return x.reshape(shape), None


def _vjp_reshape(grad, arrays, saved, attrs):
    return (grad.reshape(arrays[0].shape),)


def _fwd_transpose(arrays, attrs):
    x = arrays[0]
    if x.ndim != 2:
        _shape_error("transpose", arrays, "operand must be 2-D")
    return np.ascontiguousarray(x.T), None


def _vjp_transpose(grad, arrays, saved, attrs):
    return (np.ascontiguousarray(grad.T),)


def _fwd_gather_rows(arrays, attrs):
    x = arrays[0]
    idx = attrs["indices"]
    if x.ndim == 0:
        _shape_error("gather_rows", arrays, "operand must have at least one axis")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        _shape_error("gather_rows", arrays, "index out of range")
    return x[idx], None


def _vjp_gather_rows(grad, arrays, saved, attrs):
    gx = np.zeros_like(arrays[0])
    np.add.at(gx, attrs["indices"], grad)
    return (gx,)


_REGISTRY = {
    "matmul": (_fwd_matmul, _vjp_matmul),
    "add": (_fwd_add, _vjp_add),
    "mul": (_fwd_mul, _vjp_mul),
    "scale": (_fwd_scale, _vjp_scale),
    "div": (_fwd_div, _vjp_div),
    "tanh": (_fwd_tanh, _vjp_tanh),
    "sigmoid": (_fwd_sigmoid, _vjp_sigmoid),
    "exp": (_fwd_exp, _vjp_exp),
    "leaky_relu": (_fwd_leaky_relu, _vjp_leaky_relu),
    "square": (_fwd_square, _vjp_square),
    "norm": (_fwd_norm, _vjp_norm),
    "sum": (_fwd_sum, _vjp_sum),
    "mean": (_fwd_mean, _vjp_mean),
    "max_reduce": (_fwd_max_reduce, _vjp_max_reduce),
    "concat": (_fwd_concat, _vjp_concat),
    "reshape": (_fwd_reshape, _vjp_reshape),
    "transpose": (_fwd_transpose, _vjp_transpose),
    "gather_rows": (_fwd_gather_rows, _vjp_gather_rows),
}


def apply_primitive(kind: str, inputs, **attrs) -> Tensor:
    """Apply one primitive to `inputs` and record it on the active tape.

    Recording happens only when a tape is active and at least one input has
    `requires_grad`. Attribute arguments (`axis`, `shape`, `indices`,
    `factor`, `groups`, `transpose_b`) parameterize the primitive and are
    never differentiated. With a `Stack` among the inputs the primitive runs
    once for all its shapes and records on the shapes' own tapes instead.
    """
    if kind not in _REGISTRY:
        raise UnknownPrimitiveError(
            f"unknown primitive {kind!r}; known kinds: {', '.join(sorted(_REGISTRY))}"
        )
    inputs = tuple(inputs)
    arrays = [t.data for t in inputs]
    _check_dtypes(kind, arrays)
    if "indices" in attrs:
        attrs["indices"] = np.ascontiguousarray(attrs["indices"], dtype=np.int64)
    fwd, _ = _REGISTRY[kind]
    if any(type(t) is Stack for t in inputs):
        return _apply_stacked(kind, inputs, attrs, fwd)
    out_array, saved = fwd(arrays, attrs)
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor(out_array, requires_grad=needs_grad)
    tape = _active_tape()
    if tape is not None and needs_grad:
        tape.entries.append(TapeEntry(kind, inputs, out, saved, attrs))
    return out


# kinds whose every output row comes from one input row (or one row block
# of the leading axis), so a Stack's shapes stay apart
_ROW_SEPARABLE = frozenset((
    "matmul", "add", "mul", "scale", "div", "tanh", "sigmoid", "exp", "leaky_relu",
    "square", "norm", "max_reduce", "concat", "reshape", "gather_rows",
))


def _apply_stacked(kind, inputs, attrs, fwd):
    # One forward over every shape's rows, then one entry per shape on that
    # shape's tape. Row independence makes each row block of the output
    # byte-equal to the part's own forward, so the per-shape entries are
    # the ones a shape-by-shape loop records. Anything that could mix rows
    # of different shapes raises instead.
    ref = next(t for t in inputs if type(t) is Stack)
    rows = [p.shape[0] for p in ref.parts]

    def mixes(why):
        raise ShapeMismatchError(f"{kind} on a Stack: {why}; it would mix shapes")

    if kind not in _ROW_SEPARABLE:
        mixes("not a row-separable kind")
    for t in inputs:
        if type(t) is Stack:
            if t.tapes is not ref.tapes or [p.shape[0] for p in t.parts] != rows:
                mixes("operands stack different shapes or row counts")
        elif kind == "concat":
            mixes("every concatenated operand must be a Stack")
        elif kind != "matmul" and not (t.size == 1 or t.shape == ref.shape[1:]):
            mixes("a plain operand may only be a scalar or a row")
    if kind == "matmul":
        a, b = inputs
        if type(a) is not Stack or type(b) is Stack or a.ndim != 2:
            mixes("matmul needs a 2-D Stack `a` and a plain `b`")
        if any(r % attrs.get("groups", 1) for r in rows):
            mixes("a shape's rows do not split into whole groups")
    elif kind in ("norm", "max_reduce") and ref.ndim < 2:
        mixes("a reduction of a 1-D stack")
    elif kind == "concat" and attrs["axis"] == 0:
        mixes("axis-0 concat")

    arrays = [t.data for t in inputs]
    out_array, saved = fwd(arrays, attrs)
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

    columns = [t.parts if type(t) is Stack else (t,) * len(rows) for t in inputs]
    slice_saved = isinstance(saved, np.ndarray)
    out_parts = []
    o0 = 0
    for ins, tape, part_attrs, n in zip(zip(*columns), ref.tapes, per_attrs, out_rows):
        o1 = o0 + n
        # a row block of a C-contiguous float array: what Tensor() would keep
        out = Tensor.__new__(Tensor)
        out.data = out_array[o0:o1]
        out.requires_grad = any(t.requires_grad for t in ins)
        if out.requires_grad:
            part_saved = saved[o0:o1] if slice_saved else saved
            tape.entries.append(TapeEntry(kind, ins, out, part_saved, part_attrs))
        out_parts.append(out)
        o0 = o1
    return Stack(out_array, tuple(out_parts), ref.tapes)


def backward(loss: Tensor, tape: Tape, leaves=None) -> dict:
    """Accumulate d(loss)/d(leaf) for every requires_grad leaf on the tape.

    `loss` must be a single-element tensor reachable from the tape's
    recorded outputs. When `leaves` is given, the returned map has exactly
    one entry per leaf, with zero tensors for leaves the loss does not
    reach; otherwise the map covers every requires_grad tensor that feeds
    the tape without being produced by it.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    produced = {id(e.output) for e in tape.entries}
    found: dict[int, Tensor] = {}

    for entry in reversed(tape.entries):
        grad = adjoint.pop(id(entry.output), None)
        if grad is None:
            continue
        _, vjp = _REGISTRY[entry.kind]
        grads = vjp(grad, [t.data for t in entry.inputs], entry.saved, entry.attrs)
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


def matmul(a, b, groups: int = 1, transpose_b: bool = False):
    """`a @ b`, or `a @ b.T` with `transpose_b`; `groups` hints that the
    rows of `a` come in consecutive groups.

    With the hint, a column that is constant inside every group, or that
    repeats slot by slot from group to group, has each rounded product
    formed once and shared. Columns are classified by an exact bitwise
    compare, so the output bytes and the gradient are the same with or
    without the hint; the rows of a 2-D `a` must split into whole groups.
    `transpose_b` gives the bytes of `matmul(a, transpose(b))`, forward and
    gradients, without recording the transpose.
    """
    attrs = {}
    if groups > 1:
        attrs["groups"] = int(groups)
    if transpose_b:
        attrs["transpose_b"] = True
    return apply_primitive("matmul", (a, b), **attrs)


def add(a, b):
    return apply_primitive("add", (a, b))


def mul(a, b):
    return apply_primitive("mul", (a, b))


def scale(a, factor: float):
    return apply_primitive("scale", (a,), factor=float(factor))


def div(a, b):
    return apply_primitive("div", (a, b))


def tanh(a):
    return apply_primitive("tanh", (a,))


def sigmoid(a):
    return apply_primitive("sigmoid", (a,))


def exp(a):
    return apply_primitive("exp", (a,))


def leaky_relu(a):
    return apply_primitive("leaky_relu", (a,))


def square(a):
    return apply_primitive("square", (a,))


def norm(a):
    return apply_primitive("norm", (a,))


def tensor_sum(a):
    return apply_primitive("sum", (a,))


def tensor_mean(a):
    return apply_primitive("mean", (a,))


def max_reduce(a):
    return apply_primitive("max_reduce", (a,))


def concat(tensors, axis: int = 0):
    return apply_primitive("concat", tensors, axis=int(axis))


def reshape(a, shape):
    return apply_primitive("reshape", (a,), shape=tuple(int(s) for s in shape))


def transpose(a):
    return apply_primitive("transpose", (a,))


def gather_rows(a, indices):
    return apply_primitive("gather_rows", (a,), indices=indices)
