"""Variational training, sampling, and latent interpolation.

With the variational head on, the encoder outputs a distribution and the
model can dream up new shapes from prior noise. Walking a straight line
between two latent codes morphs one shape into another.
"""

import os
import tempfile

import numpy as np

from pointtree import dataio, geometry, model, training


def main():
    shapes = [dataio.synth_shape("box", 64, seed=s, jitter=0.02) for s in range(4)]
    shapes += [dataio.synth_shape("cylinder", 64, seed=s, jitter=0.02) for s in range(4)]

    gen_config = model.GeneratorConfig(
        k_schedule=(4, 4, 4), latent_width=32, embed_width=16,
        mlp_hidden=(64, 64), vae_mode=True,
    )
    train_config = training.TrainConfig(
        epochs=150, batch_size=4, learning_rate=3e-3, weight_decay=0.0,
        kl_weight=1e-3, seed=0,
    )
    params, log = training.fit(shapes, gen_config, train_config)
    print(f"trained {train_config.epochs} epochs; "
          f"final cd {log[-1]['cd']:.4f}, kl {log[-1]['kl']:.4f}")

    # sample new shapes from the prior
    rng = np.random.default_rng(7)
    out_dir = tempfile.mkdtemp(prefix="vae_demo_")
    for i in range(3):
        z = rng.standard_normal(gen_config.latent_width).astype(np.float32)
        trace = model.generate(z, params)
        dataio.export_ply(
            trace, os.path.join(out_dir, f"sample_{i}.ply"),
            color_mode="by_ancestor", ancestor_stage=1,
        )
    print(f"wrote 3 prior samples to {out_dir}")

    # interpolate between the posterior means of a box and a cylinder
    mu_a, _ = model.encode(shapes[0], params)
    mu_b, _ = model.encode(shapes[4], params)
    steps = dataio.interpolate_latents(mu_a.data, mu_b.data, steps=5)
    decoded = [model.generate(z, params).leaf_points() for z in steps]

    endpoint_cd = geometry.chamfer_distance(decoded[0], decoded[-1])
    print(f"endpoint CD {endpoint_cd:.4f}; consecutive steps:")
    for i in range(len(decoded) - 1):
        cd = geometry.chamfer_distance(decoded[i], decoded[i + 1])
        print(f"  step {i} -> {i + 1}: CD {cd:.4f}")
    print("small consecutive jumps relative to the endpoint gap = smooth morph")


if __name__ == "__main__":
    main()
