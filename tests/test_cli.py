"""End-to-end command-line workflows on tiny models.

Each fixture trains a small real model once per module; tests then drive
every subcommand through cli.main and check exit codes, printed output,
files on disk, and byte-level reproducibility.
"""

import json
import os
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

from pointtree import cli, dataio, model, training

TINY_FLAGS = [
    "--k-schedule", "2,2",
    "--latent-width", "8",
    "--embed-width", "4",
    "--mlp-hidden", "8",
    "--epochs", "2",
    "--batch-size", "4",
    "--seed", "0",
]


def _read_ply(path):
    # the package writes a fixed 10-line header, then "x y z red green blue"
    rows = np.loadtxt(path, skiprows=10, ndmin=2)
    return rows[:, :3].astype(np.float32), rows[:, 3:].astype(np.int64)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    data.mkdir()
    for i, kind in enumerate(("box", "cylinder", "tee")):
        dataio.save_cloud(data / f"{kind}.xyz", dataio.synth_shape(kind, 64, seed=i))
    return root, data


@pytest.fixture(scope="module")
def plain_ckpt(workspace):
    root, data = workspace
    out = root / "plain"
    code = cli.main(["train", "--data", str(data), "--out", str(out), *TINY_FLAGS])
    assert code == 0
    return out / "checkpoint.rpgk"


@pytest.fixture(scope="module")
def vae_ckpt(workspace):
    root, data = workspace
    out = root / "vae"
    code = cli.main(
        ["train", "--data", str(data), "--out", str(out), *TINY_FLAGS, "--vae"]
    )
    assert code == 0
    return out / "checkpoint.rpgk"


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_log_manifest(workspace, plain_ckpt):
    out = plain_ckpt.parent
    assert plain_ckpt.exists()
    log_lines = (out / "log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,cd,reg,kl,total"
    assert len(log_lines) == 3  # header + one row per epoch
    assert log_lines[1].startswith("0,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["generator"]["latent_width"] == 8
    assert manifest["train"]["epochs"] == 2
    assert len(manifest["inputs"]) == 3
    assert "time" not in json.dumps(manifest).lower()


def test_train_rerun_is_byte_identical(workspace, plain_ckpt):
    root, data = workspace
    out2 = root / "plain_again"
    assert cli.main(["train", "--data", str(data), "--out", str(out2), *TINY_FLAGS]) == 0
    first = plain_ckpt.parent
    assert (out2 / "checkpoint.rpgk").read_bytes() == plain_ckpt.read_bytes()
    assert (out2 / "log.csv").read_bytes() == (first / "log.csv").read_bytes()


def test_train_bad_data_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("0 0 0\n1 2\n")
    code = cli.main(["train", "--data", str(bad), "--out", str(tmp_path / "o"), *TINY_FLAGS])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_train_empty_sources_are_runtime_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    listing = tmp_path / "list.txt"
    listing.write_text("# no clouds yet\n\n# still none\n")
    for source, message in ((empty, "directory holds no files"), (listing, "empty path list")):
        out = tmp_path / "o"
        code = cli.main(["train", "--data", str(source), "--out", str(out), *TINY_FLAGS])
        assert code == 2
        assert f"{source}: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_train_takes_a_binary_cloud_as_data(tmp_path):
    cloud = tmp_path / "one.rpgp"
    dataio.save_cloud(cloud, dataio.synth_shape("box", 32, seed=2), binary=True)
    assert dataio.resolve_cloud_paths(cloud) == [str(cloud)]
    out = tmp_path / "o"
    assert cli.main(["train", "--data", str(cloud), "--out", str(out), *TINY_FLAGS]) == 0
    assert json.loads((out / "manifest.json").read_text())["inputs"] == [str(cloud)]


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _parse(argv):
    return cli._build_parser().parse_args(argv)


def test_config_precedence_file_over_default_flag_over_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"latent_width": 12}, "train": {"epochs": 7}}))
    base = ["train", "--data", "d", "--out", "o", "--config", str(cfg)]
    gen, train = cli.resolve_configs(_parse(base))
    assert gen.latent_width == 12 and train.epochs == 7
    gen2, _ = cli.resolve_configs(_parse(base + ["--latent-width", "16"]))
    assert gen2.latent_width == 16


def test_every_config_flag_sets_its_field():
    flags = [
        "--k-schedule", "3,2", "--latent-width", "9", "--embed-width", "5",
        "--mlp-hidden", "7,6", "--vae", "--epochs", "3", "--batch-size", "2",
        "--learning-rate", "0.5", "--final-lr-fraction", "0.25", "--weight-decay", "0.125",
        "--reg-weight", "2.5", "--kl-weight", "1.5", "--kl-warmup-fraction", "0.75",
        "--seed", "11", "--save-every", "4",
    ]
    gen, train = cli.resolve_configs(_parse(["train", "--data", "d", "--out", "o", *flags]))
    assert gen.to_dict() == {
        "k_schedule": (3, 2), "latent_width": 9, "embed_width": 5,
        "mlp_hidden": (7, 6), "vae_mode": True,
    }
    defaults = cli.TrainConfig()
    assert train.to_dict() == {
        **defaults.to_dict(), "epochs": 3, "batch_size": 2, "learning_rate": 0.5,
        "final_lr_fraction": 0.25, "weight_decay": 0.125, "reg_weight": 2.5,
        "kl_weight": 1.5, "kl_warmup_fraction": 0.75, "seed": 11, "save_every": 4,
    }
    gen, _ = cli.resolve_configs(_parse(["train", "--data", "d", "--out", "o", "--no-vae"]))
    assert gen.vae_mode is False


def test_config_preset_under_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"latent_width": 24}}))
    args = _parse(
        ["train", "--data", "d", "--out", "o", "--preset", "3125", "--config", str(cfg)]
    )
    gen, _ = cli.resolve_configs(args)
    assert gen.k_schedule == (5, 5, 5, 5, 5)
    assert gen.latent_width == 24


def test_config_unknown_section_rejected(tmp_path, capsys):
    # every bad section or value is reported with the file and `section.key`
    cases = [
        ([1, 2], "config root must be a JSON object"),
        ({"model": {}}, "unknown config sections"),
        ({"train": 3}, "config section 'train' must be a JSON object"),
        ({"generator": {"nope": 1}}, "generator.nope: unknown key"),
        ({"generator": {"k_schedule": 5}}, "generator.k_schedule: k_schedule must be a list of ints, got 5"),
        ({"generator": {"k_schedule": [2, 0]}}, "generator.k_schedule: branching factors"),
        ({"generator": {"vae_mode": 1}}, "generator.vae_mode: vae_mode must be a bool, got 1"),
        ({"train": {"epochs": "x"}}, "train.epochs: epochs must be an int, got 'x'"),
        ({"train": {"seed": 1.5}}, "train.seed: seed must be an int, got 1.5"),
        ({"train": {"batch_size": 0}}, "train.batch_size: batch_size and epochs must be positive"),
        ({"train": {"save_every": -1}}, "train.save_every: save_every must be non-negative"),
        ({"train": {"weight_decay": -1.0}}, "train.weight_decay: weight_decay must be non-negative"),
        ({"train": {"adam_beta1": 1.9}}, "train.adam_beta1: adam_beta1 and adam_beta2 must lie in [0, 1)"),
        ({"train": {"adam_beta1": -0.1}}, "train.adam_beta1: adam_beta1 and adam_beta2 must lie in [0, 1)"),
        ({"train": {"adam_beta2": 1.0}}, "train.adam_beta2: adam_beta1 and adam_beta2 must lie in [0, 1)"),
        ({"train": {"adam_eps": 0.0}}, "train.adam_eps: adam_eps must be positive"),
        ({"train": {"kl_warmup_fraction": 1.5}}, "train.kl_warmup_fraction: kl_warmup_fraction must lie in [0, 1]"),
        ({"train": {"kl_warmup_fraction": -0.5}}, "train.kl_warmup_fraction: kl_warmup_fraction must lie in [0, 1]"),
        ({"train": {"seed": -5}}, "train.seed: seed must be non-negative"),
    ]
    # json.dumps writes NaN and Infinity, which json.load reads back
    for key, default in training.TrainConfig().to_dict().items():
        if not isinstance(default, float):
            continue
        for value in (float("nan"), float("inf"), float("-inf"), 10**400):
            cases.append(({"train": {key: value}}, f"train.{key}: {key} must be a finite float"))
    cfg = tmp_path / "cfg.json"
    for content, message in cases:
        cfg.write_text(json.dumps(content))
        code = cli.main(
            ["train", "--data", "d", "--out", "o", "--config", str(cfg), *TINY_FLAGS]
        )
        assert code == 2, content
        assert f"{cfg}: {message}" in capsys.readouterr().err
    # the same range check holds for the flag
    code = cli.main(["train", "--data", "d", "--out", "o", "--save-every", "-1", *TINY_FLAGS])
    assert code == 2
    assert "save_every must be non-negative" in capsys.readouterr().err
    out = tmp_path / "o"
    code = cli.main(
        ["train", "--data", "d", "--out", str(out), "--learning-rate", "nan", *TINY_FLAGS]
    )
    assert code == 2
    assert "learning_rate must be a finite float" in capsys.readouterr().err
    assert not out.exists()


def test_list_flags_reject_what_is_not_comma_separated_ints(capsys):
    for text in ("4,x", ""):
        code = cli.main(["train", "--data", "d", "--out", "o", *TINY_FLAGS, "--k-schedule", text])
        assert code == 1, text
        assert "expected comma-separated ints" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_reports_config_and_counts(plain_ckpt, capsys):
    assert cli.main(["inspect", "--ckpt", str(plain_ckpt)]) == 0
    out = capsys.readouterr().out
    assert "k_schedule: [2, 2]" in out
    assert "leaf_count: 4" in out
    assert "latent_width: 8" in out
    assert "enc.pp0.w  (3, 64)" in out
    params, _, _, _ = training.load_checkpoint(plain_ckpt)
    assert f"total parameters: {params.total_count()}" in out
    assert f"encoder parameters: {params.encoder_count()}" in out
    assert f"generator parameters: {params.generator_count()}" in out
    assert "learning_rate: 0.001" in out


def test_inspect_missing_checkpoint(tmp_path, capsys):
    assert cli.main(["inspect", "--ckpt", str(tmp_path / "nope.rpgk")]) == 2
    assert "error" in capsys.readouterr().err


def test_inspect_rejects_trailing_bytes(plain_ckpt, tmp_path, capsys):
    padded = tmp_path / "padded.rpgk"
    padded.write_bytes(plain_ckpt.read_bytes() + b"junk")
    assert cli.main(["inspect", "--ckpt", str(padded)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {padded}: 4 trailing bytes after the last manifest slab\n"


def test_inspect_rejects_header_values_a_config_file_rejects(plain_ckpt, tmp_path, capsys):
    # a crafted header whose generator holds a float width, an int vae_mode
    # or a fractional branching factor, or whose train section holds a
    # float epoch count, a bool seed or a bool rate, fails to load, naming
    # the file and the key
    raw = plain_ckpt.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    cases = (
        ("generator", "latent_width", 8.0), ("generator", "vae_mode", 0),
        ("generator", "k_schedule", [2.5, 2]), ("train", "epochs", 2.5),
        ("train", "seed", True), ("train", "learning_rate", True),
    )
    for section, key, value in cases:
        header = json.loads(raw[12 : 12 + header_len].decode())
        header[section][key] = value
        blob = json.dumps(header, separators=(",", ":")).encode()
        crafted = tmp_path / "crafted.rpgk"
        crafted.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len :])
        assert cli.main(["inspect", "--ckpt", str(crafted)]) == 2, key
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {crafted}: checkpoint header key {section!r}"), key
        assert key in captured.err


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_prints_scaled_cd_and_writes_ply(workspace, plain_ckpt, tmp_path, capsys):
    _, data = workspace
    target = tmp_path / "recon.ply"
    source = data / "box.xyz"
    before = source.read_bytes()
    code = cli.main(
        ["reconstruct", "--ckpt", str(plain_ckpt), "--input", str(source), "--out", str(target)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "reconstruction cd:" in out and "(x 1e4)" in out
    pts, colors = _read_ply(target)
    assert pts.shape == (4, 3) and colors.shape == (4, 3)  # leaf count of the tiny model
    assert (tmp_path / "recon.manifest.json").exists()
    assert source.read_bytes() == before  # inputs never mutated


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_rejects_plain_checkpoint(plain_ckpt, tmp_path, capsys):
    code = cli.main(
        ["generate", "--ckpt", str(plain_ckpt), "--n", "2", "--out", str(tmp_path / "g")]
    )
    assert code == 1
    assert "variational" in capsys.readouterr().err


def test_generate_zero_count_is_usage_error(vae_ckpt, tmp_path, capsys):
    code = cli.main(
        ["generate", "--ckpt", str(vae_ckpt), "--n", "0", "--out", str(tmp_path / "g")]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_generate_writes_n_plys_deterministically(vae_ckpt, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = cli.main(
            ["generate", "--ckpt", str(vae_ckpt), "--n", "2", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        assert sorted(os.listdir(out)) == ["gen_000.ply", "gen_001.ply", "manifest.json"]
    assert (out_a / "gen_000.ply").read_bytes() == (out_b / "gen_000.ply").read_bytes()
    out_c = tmp_path / "c"
    assert cli.main(
        ["generate", "--ckpt", str(vae_ckpt), "--n", "1", "--seed", "4", "--out", str(out_c)]
    ) == 0
    assert (out_c / "gen_000.ply").read_bytes() != (out_a / "gen_000.ply").read_bytes()


def test_generate_negative_seed_is_usage_error_before_any_output(vae_ckpt, tmp_path, capsys):
    out = tmp_path / "g"
    code = cli.main(
        ["generate", "--ckpt", str(vae_ckpt), "--n", "1", "--seed", "-1", "--out", str(out)]
    )
    assert code == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_eval_samples_the_clouds_that_generate_writes(workspace, vae_ckpt, tmp_path, monkeypatch):
    _, data = workspace
    out = tmp_path / "g"
    assert cli.main(
        ["generate", "--ckpt", str(vae_ckpt), "--n", "3", "--seed", "5", "--out", str(out)]
    ) == 0
    written = [_read_ply(out / f"gen_{i:03d}.ply")[0] for i in range(3)]
    seen = []

    def capture(reference, generated, threads=1):
        seen.extend(generated)
        return []

    monkeypatch.setattr(cli.metrics, "generation_metrics", capture)
    monkeypatch.setattr(cli.metrics, "render_records", lambda records: "")
    assert cli.main(
        ["eval", "--ckpt", str(vae_ckpt), "--reference", str(data),
         "--n-generated", "3", "--seed", "5"]
    ) == 0
    assert [p.tobytes() for p in seen] == [p.tobytes() for p in written]


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------


def test_interpolate_writes_steps(workspace, plain_ckpt, tmp_path):
    _, data = workspace
    out = tmp_path / "interp"
    code = cli.main(
        ["interpolate", "--ckpt", str(plain_ckpt), "--a", str(data / "box.xyz"),
         "--b", str(data / "cylinder.xyz"), "--steps", "3", "--out", str(out)]
    )
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "step_00.ply", "step_01.ply", "step_02.ply"]


def test_interpolate_all_stages(workspace, plain_ckpt, tmp_path):
    _, data = workspace
    out = tmp_path / "interp_all"
    code = cli.main(
        ["interpolate", "--ckpt", str(plain_ckpt), "--a", str(data / "box.xyz"),
         "--b", str(data / "cylinder.xyz"), "--steps", "2", "--out", str(out),
         "--all-stages"]
    )
    assert code == 0
    names = set(os.listdir(out))
    assert {"step_00.ply", "step_00_d0.ply", "step_00_d1.ply", "step_00_d2.ply"} <= names


@pytest.mark.parametrize("command", ["generate", "interpolate"])
def test_sampling_commands_free_each_trace_before_drawing_the_next(
    command, workspace, plain_ckpt, vae_ckpt, tmp_path, monkeypatch
):
    # a command that writes one PLY per latent holds no earlier trace while
    # it draws the next, so its memory does not grow with the count
    _, data = workspace
    drawn, held = [], []
    generate = model.generate

    def tracked(z, params):
        held.append(sum(ref() is not None for ref in drawn))
        trace = generate(z, params)
        drawn.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(model, "generate", tracked)
    if command == "generate":
        argv = ["generate", "--ckpt", str(vae_ckpt), "--n", "3"]
    else:
        argv = ["interpolate", "--ckpt", str(plain_ckpt), "--a", str(data / "box.xyz"),
                "--b", str(data / "cylinder.xyz"), "--steps", "3", "--all-stages"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert held == [0, 0, 0]


def test_interpolate_bad_steps(workspace, plain_ckpt, tmp_path, capsys):
    _, data = workspace
    code = cli.main(
        ["interpolate", "--ckpt", str(plain_ckpt), "--a", str(data / "box.xyz"),
         "--b", str(data / "cylinder.xyz"), "--steps", "1", "--out", str(tmp_path / "x")]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------


def test_segment_prints_purity_for_labelled_input(workspace, plain_ckpt, tmp_path, capsys):
    _, data = workspace
    target = tmp_path / "parts.ply"
    code = cli.main(
        ["segment", "--ckpt", str(plain_ckpt), "--input", str(data / "tee.xyz"),
         "--level", "1", "--out", str(target)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "purity:" in out
    value = float(out.split("purity:")[1].strip().splitlines()[0])
    assert 0.0 < value <= 1.0
    assert target.exists()


def test_segment_no_purity_without_labels(workspace, plain_ckpt, tmp_path, capsys):
    _, data = workspace
    code = cli.main(
        ["segment", "--ckpt", str(plain_ckpt), "--input", str(data / "box.xyz"),
         "--level", "0", "--out", str(tmp_path / "s.ply")]
    )
    assert code == 0
    assert "purity:" not in capsys.readouterr().out


def test_segment_level_out_of_range(workspace, plain_ckpt, tmp_path, capsys):
    _, data = workspace
    # the level is judged before the input is read, so a missing input
    # does not turn the usage error into a runtime one
    for source in (data / "box.xyz", tmp_path / "missing.xyz"):
        code = cli.main(
            ["segment", "--ckpt", str(plain_ckpt), "--input", str(source),
             "--level", "5", "--out", str(tmp_path / "s.ply")]
        )
        assert code == 1
        assert "--level" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_segment_defaults_to_the_stage_reconstruct_colours_by(workspace, tmp_path, capsys):
    # a one-stage model has no stage 1: both commands colour by stage 0,
    # byte for byte, and segment records the stage it used
    _, data = workspace
    ckpt_dir = tmp_path / "one_stage"
    argv = ["train", "--data", str(data), "--out", str(ckpt_dir), *TINY_FLAGS]
    assert cli.main([*argv, "--k-schedule", "4"]) == 0
    ckpt, source = str(ckpt_dir / "checkpoint.rpgk"), str(data / "tee.xyz")
    recon, parts = tmp_path / "recon.ply", tmp_path / "parts.ply"
    assert cli.main(["reconstruct", "--ckpt", ckpt, "--input", source, "--out", str(recon)]) == 0
    assert cli.main(["segment", "--ckpt", ckpt, "--input", source, "--out", str(parts)]) == 0
    # one part holds every point, so purity is the share of the commonest label
    share = np.bincount(dataio.load_cloud(source).labels).max() / 64
    assert f"purity: {share:.6g}" in capsys.readouterr().out
    assert parts.read_bytes() == recon.read_bytes()
    _, colors = _read_ply(parts)
    assert {tuple(c) for c in colors} == {dataio.PALETTE[0]}
    manifest = json.loads((tmp_path / "parts.manifest.json").read_text())
    assert manifest["command"] == "segment" and manifest["level"] == 0
    assert "level" not in json.loads((tmp_path / "recon.manifest.json").read_text())


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_prints_three_metrics(workspace, vae_ckpt, capsys):
    _, data = workspace
    code = cli.main(
        ["eval", "--ckpt", str(vae_ckpt), "--reference", str(data),
         "--n-generated", "2", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mmd:" in out and "(x 1e4)" in out
    assert "coverage:" in out
    assert "1-nna:" in out
    assert "reference 3, generated 2" in out


def test_eval_threads_do_not_change_output(workspace, vae_ckpt, capsys):
    _, data = workspace
    argv = ["eval", "--ckpt", str(vae_ckpt), "--reference", str(data),
            "--n-generated", "2", "--seed", "1"]
    assert cli.main(argv + ["--threads", "1"]) == 0
    single = capsys.readouterr().out
    assert cli.main(argv + ["--threads", "3"]) == 0
    assert capsys.readouterr().out == single


def test_eval_threads_below_one_are_usage_errors(workspace, vae_ckpt, capsys):
    _, data = workspace
    argv = ["eval", "--ckpt", str(vae_ckpt), "--reference", str(data),
            "--n-generated", "2", "--seed", "1"]
    for threads in ("0", "-3"):
        assert cli.main(argv + ["--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err


def test_eval_n_reference_subsets_and_validates(workspace, vae_ckpt, capsys):
    _, data = workspace
    argv = ["eval", "--ckpt", str(vae_ckpt), "--reference", str(data),
            "--n-generated", "2"]
    assert cli.main(argv + ["--n-reference", "2"]) == 0
    assert "reference 2, generated 2" in capsys.readouterr().out
    assert cli.main(argv + ["--n-reference", "9"]) == 1


def test_eval_bad_counts_and_seed_are_usage_errors(workspace, vae_ckpt, capsys):
    _, data = workspace
    argv = ["eval", "--ckpt", str(vae_ckpt), "--reference", str(data)]
    for flags, name in ((["--n-generated", "0"], "--n-generated"),
                        (["--n-generated", "2", "--seed", "-1"], "--seed")):
        assert cli.main(argv + flags) == 1
        assert name in capsys.readouterr().err


def test_eval_requires_vae(workspace, plain_ckpt, capsys):
    _, data = workspace
    code = cli.main(
        ["eval", "--ckpt", str(plain_ckpt), "--reference", str(data), "--n-generated", "2"]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# top-level behaviour
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["train", "--out", "x", *TINY_FLAGS]) == 1  # missing --data
    err = capsys.readouterr().err
    assert "usage error" in err


def test_help_and_version_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "train" in out


def test_module_entrypoint_subprocess(plain_ckpt):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pointtree", "inspect", "--ckpt", str(plain_ckpt)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "k_schedule" in proc.stdout
