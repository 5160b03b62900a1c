"""The benchmark's output checks accept real CLI output and reject a tampered one.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from pointtree import cli, dataio, model, training  # noqa: E402


@pytest.fixture
def reconstruction(tmp_path):
    """(stdout, scan, ply, leaf count) of one small `reconstruct` run."""
    config = model.GeneratorConfig(k_schedule=(4, 4), latent_width=16, embed_width=8,
                                   mlp_hidden=(16,))
    ckpt = tmp_path / "model.rpgk"
    training.save_checkpoint(ckpt, model.init_parameters(config))
    scan = tmp_path / "scan.xyz"
    dataio.save_cloud(scan, dataio.synth_shape("table", 64, seed=1))
    ply = tmp_path / "recon.ply"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reconstruct", "--ckpt", str(ckpt), "--input", str(scan),
                         "--out", str(ply)])
    assert code == 0
    return out.getvalue(), scan, ply, config.leaf_count


def test_reconstruct_check_accepts_cli_output(reconstruction):
    checks.check_reconstruct(*reconstruction)


def test_perturbed_ply_vertex_fails_reconstruct_check(reconstruction):
    stdout, scan, ply, leaves = reconstruction
    lines = ply.read_text().splitlines()
    row = lines.index("end_header") + 1
    x, y, z, *rgb = lines[row].split()
    lines[row] = " ".join([repr(float(x) + 0.5), y, z, *rgb])
    ply.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="reconstruction cd"):
        checks.check_reconstruct(stdout, scan, ply, leaves)
