"""A tour of the tape-based reverse-mode differentiation core.

Builds a tiny computation from the model's own layer primitive, records
it on a tape, and walks the tape backwards for exact gradients. Ends by
replaying the tape and checking one gradient against finite differences.
"""

import numpy as np

from pointtree import autodiff as ad


def main():
    rng = np.random.default_rng(0)

    # leaves: anything we want gradients for is marked requires_grad
    w = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    x = ad.Tensor(rng.standard_normal((5, 3)))

    with ad.Tape() as tape:
        # one model layer: x @ w, the bias row, a leaky ReLU, as one entry
        h = ad.linear(x, w, b, leaky=True)  # (5, 4)
        pooled = ad.max_reduce(h, axis=0)  # strongest point per feature
        loss = ad.tensor_sum(ad.square(pooled))

    print(f"loss = {loss.data:.6f}")
    print(f"tape recorded {len(tape.entries)} primitive applications")

    grads = ad.backward(loss, tape)
    gw = grads[w]
    print(f"dloss/dw shape {gw.shape}, largest entry {np.abs(gw.data).max():.4f}")

    # finite-difference spot check on one coordinate of w
    eps = 1e-6
    probe = (1, 2)

    def loss_at(value):
        saved = w.data[probe]
        w.data[probe] = value
        with ad.Tape():
            out = ad.tensor_sum(ad.square(ad.max_reduce(ad.linear(x, w, b, leaky=True), axis=0)))
        w.data[probe] = saved
        return float(out.data)

    center = w.data[probe]
    numeric = (loss_at(center + eps) - loss_at(center - eps)) / (2 * eps)
    print(f"analytic {gw.data[probe]:+.8f}  numeric {numeric:+.8f}")

    # tapes are replayable: recompute every recorded step and confirm
    # stored outputs are reproduced bit for bit
    print(f"replay consistent: {tape.replay()}")

    # gradients flow through gather/scatter routing too
    idx = np.array([0, 0, 2])
    src = ad.Tensor(np.eye(3), requires_grad=True)
    with ad.Tape() as tape2:
        picked = ad.gather_rows(src, idx)
        total = ad.tensor_sum(picked)
    g = ad.backward(total, tape2)[src]
    print("gather routes gradients back to rows:", g.data.sum(axis=1))


if __name__ == "__main__":
    main()
