"""Unfused reference chains for the fused layer primitives, on kernels of
their own.

`linear` promises the bytes of x @ w, the bias add and a leaky ReLU done
one after another, and `rep_update` those of two products against
transposed matrices, their sum and tanh. The chains here run those steps as
tape entries of test-local kinds (matmul, add_row, transpose, leaky_relu
and tanh) that `install` registers for one test. Their forward product is
the index-order loop below, one rank-1 update per contraction index, never
the package's kernel; their vjps are plain NumPy, and add_row's sums the
gradient's rows onto the bias one after another in a Python loop, sharing
no code with linear's own bias gradient. The kinds are not
row-separable, so over a Stack a chain runs shape by shape (`by_shape`).
"""

import numpy as np

from pointtree import autodiff as ad


def matmul_index_order(a, b):
    # reference kernel: one full-size rank-1 update per contraction index;
    # a 1-D `a` is one row
    rows = a.reshape(-1, a.shape[-1])
    out = rows[:, 0:1] * b[0, :]
    for k in range(1, rows.shape[1]):
        out += rows[:, k : k + 1] * b[k, :]
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _fwd_matmul(arrays, attrs):
    a, b = arrays
    if attrs.get("transpose_b"):
        b = np.ascontiguousarray(b.T)
    return matmul_index_order(a, b), None


def _vjp_matmul(grad, arrays, saved, attrs):
    a, b = arrays
    if attrs.get("transpose_b"):
        # through the contiguous copy of b.T the forward read, then back
        # through the copy a transpose entry's vjp makes
        ga, gbt = _vjp_matmul(grad, (a, np.ascontiguousarray(b.T)), None, {})
        return ga, np.ascontiguousarray(gbt.T)
    if a.ndim == 1:
        return b @ grad, np.outer(a, grad)
    return grad @ b.T, a.T @ grad


def _fwd_add_row(arrays, attrs):
    a, b = arrays  # b is one row as wide as a, or a's own shape
    return a + b, None


def _vjp_add_row(grad, arrays, saved, attrs):
    if grad.shape == arrays[1].shape:
        return grad, grad
    gb = grad[0].copy() if len(grad) else np.zeros_like(arrays[1])
    for row in grad[1:]:  # in index order, each add rounded on its own
        gb += row
    return grad, gb


def _fwd_transpose(arrays, attrs):
    return np.ascontiguousarray(arrays[0].T), None


def _vjp_transpose(grad, arrays, saved, attrs):
    return (np.ascontiguousarray(grad.T),)


def _fwd_leaky_relu(arrays, attrs):
    x = arrays[0]
    return np.where(x >= 0, x, x.dtype.type(ad.LEAKY_SLOPE) * x), None


def _vjp_leaky_relu(grad, arrays, saved, attrs):
    x = arrays[0]  # slope 1 on the boundary x == 0
    return (grad * np.where(x >= 0, x.dtype.type(1.0), x.dtype.type(ad.LEAKY_SLOPE)),)


def _fwd_tanh(arrays, attrs):
    out = np.tanh(arrays[0])
    return out, out


def _vjp_tanh(grad, arrays, saved, attrs):
    return (grad * (1.0 - saved * saved),)


KINDS = {
    "matmul": (_fwd_matmul, _vjp_matmul),
    "add_row": (_fwd_add_row, _vjp_add_row),
    "transpose": (_fwd_transpose, _vjp_transpose),
    "leaky_relu": (_fwd_leaky_relu, _vjp_leaky_relu),
    "tanh": (_fwd_tanh, _vjp_tanh),
}


def install(monkeypatch):
    """Register the reference kinds for the calling test."""
    for kind, fns in KINDS.items():
        monkeypatch.setitem(ad._REGISTRY, kind, fns)


def matmul(a, b, transpose_b=False):
    return ad.apply_primitive("matmul", (a, b), **({"transpose_b": True} if transpose_b else {}))


def transpose(a):
    return ad.apply_primitive("transpose", (a,))


def tanh(a):
    return ad.apply_primitive("tanh", (a,))


def linear_chain(x, w, b, leaky=False):
    """matmul, add_row and leaky_relu entries; column blocks are
    concatenated."""
    x = ad.concat(list(x)) if isinstance(x, (list, tuple)) else x
    y = ad.apply_primitive("add_row", (matmul(x, w), b))
    return ad.apply_primitive("leaky_relu", (y,)) if leaky else y


def rep_update_chain(s, h, ms, mh):
    """Two matmul entries against transposed matrices, add and tanh."""
    return tanh(ad.add(matmul(s, ms, transpose_b=True), matmul(h, mh, transpose_b=True)))


def by_shape(chain):
    """`chain`, run shape by shape when its first argument (or that list's
    first block) is a Stack: each shape's parts on that shape's tape, the
    outputs stacked again. Each tape gets the entries a call on that
    shape's parts alone records."""

    def part(x, i):
        if isinstance(x, (list, tuple)):
            return [part(t, i) for t in x]
        return x.parts[i] if isinstance(x, ad.Stack) else x

    def run(*args, **kwargs):
        first = args[0][0] if isinstance(args[0], (list, tuple)) else args[0]
        if not isinstance(first, ad.Stack):
            return chain(*args, **kwargs)
        outs = []
        for i, tape in enumerate(first.tapes):
            with tape:
                outs.append(chain(*(part(a, i) for a in args), **kwargs))
        return ad.stack(outs, first.tapes)

    return run
