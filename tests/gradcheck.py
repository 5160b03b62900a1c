"""Finite-difference gradient oracle shared by the test suite.

The oracle never looks at the library's vector-Jacobian products: it
perturbs raw float64 inputs, re-runs the forward function, and forms
central differences. Agreement between the two is the correctness
criterion for every differentiable code path.
"""

import numpy as np

from pointtree import autodiff as ad

FD_EPS = 1e-5
REL_TOL = 1e-4


def rel_err(a, b):
    """max_i |a_i - b_i| / max(1, |a_i| + |b_i|)"""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def numeric_grad(f, arrays, index, eps=FD_EPS):
    """Central-difference d f / d arrays[index].

    `f` maps the list of float64 arrays to a python float and must not
    mutate them.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    target = arrays[index]
    grad = np.zeros_like(target)
    flat_x = target.reshape(-1)
    flat_g = grad.reshape(-1)
    for j in range(flat_x.size):
        keep = flat_x[j]
        flat_x[j] = keep + eps
        f_plus = f(arrays)
        flat_x[j] = keep - eps
        f_minus = f(arrays)
        flat_x[j] = keep
        flat_g[j] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_param_grads(loss_fn, params, rng, coords_per_tensor=6, tol=REL_TOL, eps=FD_EPS):
    """Finite-difference check of d loss / d parameters at sampled coordinates.

    `loss_fn(params)` must build a fresh scalar-Tensor graph on each call;
    `params` is a float64 Parameters object whose tensors require grad. A
    random subset of coordinates per tensor keeps the runtime proportional
    to the tensor count, not the parameter count.
    """
    leaves = [t for _, t in params.items()]
    with ad.Tape() as tape:
        loss = loss_fn(params)
    grads = ad.backward(loss, tape, leaves=leaves)
    worst = 0.0
    for _, tensor in params.items():
        flat = tensor.data.reshape(-1)
        grad_flat = grads[tensor].data.reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        for j in picks:
            keep = flat[j]
            flat[j] = keep + eps
            f_plus = loss_fn(params).item()
            flat[j] = keep - eps
            f_minus = loss_fn(params).item()
            flat[j] = keep
            fd = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, rel_err(grad_flat[j], fd))
    assert worst < tol, f"parameter gradient mismatch: rel err {worst:.3e} >= {tol:g}"
    return worst


def check_grads(build, arrays, tol=REL_TOL, eps=FD_EPS):
    """Compare reverse-mode gradients of `build` against central differences.

    `build` takes a list of Tensors and returns a scalar Tensor. Returns the
    worst relative error over all inputs; asserts it is under `tol`.
    """
    tensors = [ad.Tensor(np.asarray(a, np.float64), requires_grad=True) for a in arrays]
    with ad.Tape() as tape:
        loss = build(tensors)
    grads = ad.backward(loss, tape, leaves=tensors)

    def forward_value(raw):
        ts = [ad.Tensor(np.asarray(a, np.float64)) for a in raw]
        return build(ts).item()

    worst = 0.0
    for i, t in enumerate(tensors):
        fd = numeric_grad(forward_value, arrays, i, eps=eps)
        worst = max(worst, rel_err(grads[t].data, fd))
    assert worst < tol, f"gradient mismatch: rel err {worst:.3e} >= {tol:g}"
    return worst
