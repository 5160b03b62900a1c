"""Set-level metrics for generated clouds.

MMD asks "is every reference shape matched closely by some generation?",
coverage asks "how many references are anyone's nearest neighbour?", and
1-NNA plays a two-sample test: 0.5 means the sets are indistinguishable.
"""

import numpy as np

from pointtree import dataio, metrics


def main():
    rng = np.random.default_rng(0)
    reference = [dataio.synth_shape("table", 128, seed=s).points for s in range(6)]

    # a "perfect generator": resamples of the same shapes
    good = [dataio.synth_shape("table", 128, seed=s + 100).points for s in range(6)]
    # a "bad generator": unrelated blobs
    bad = [rng.standard_normal((128, 3)).astype(np.float32) * 0.3 for _ in range(6)]

    for name, generated in (("resampled tables", good), ("noise blobs", bad)):
        # one Chamfer matrix over both sets serves all three metrics
        records = metrics.generation_metrics(reference, generated)
        print(f"{name}:")
        for line in metrics.render_records(records).splitlines():
            print(f"  {line}")

    # purity scores a segmentation against ground-truth parts
    cloud = dataio.synth_shape("tee", 256, seed=3)
    vertical_split = (cloud.points[:, 1] > 0.2).astype(np.int64)
    print(f"tee purity of a horizontal cut: "
          f"{metrics.purity(vertical_split, cloud.labels):.3f}")

    # threading only spreads the pairwise matrix across workers; values
    # are identical because every cell is independent
    m1 = metrics.mmd(reference, good, threads=1)
    m4 = metrics.mmd(reference, good, threads=4)
    print(f"threaded evaluation identical: {m1 == m4}")


if __name__ == "__main__":
    main()
