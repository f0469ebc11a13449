import re
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from seqcontrast import seqgen
from seqcontrast.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from seqcontrast.config import KEYS, RunConfig, dump_config, load_config
from seqcontrast.errors import ConfigError, TrajectoryFailure
from seqcontrast.formats import read_checkpoint, read_ply, read_xyz, write_checkpoint, write_xyz
from seqcontrast.geom import PointCloud
from seqcontrast.nets import ModelConfig, UNetConfig, build_parameters
from seqcontrast.trainer import Checkpoint, TrainConfig, save_checkpoint


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """Small synth + gen pipeline shared by the CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    rooms, objs, data = base / "rooms", base / "objects", base / "data"
    assert run(
        "synth", "--rooms", "1", "--objects", "1", "--out", str(rooms),
        "--seed", "3", "--room-size", "3.0", "--spacing", "0.08",
    ) == EXIT_OK
    # move objects into their own directory
    objs.mkdir()
    assert run(
        "synth", "--rooms", "0", "--objects", "1", "--out", str(objs),
        "--seed", "3", "--object-points", "300",
    ) == EXIT_OK
    for stray in objs.glob("room_*.xyz"):
        stray.unlink()
    for stray in rooms.glob("object_*.xyz"):
        stray.unlink()
    assert run(
        "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(data),
        "--per-scene", "2", "--frames", "3", "--seed", "5",
        "--set", "object_sample=300", "--set", "scene_cell=0.05",
    ) == EXIT_OK
    seqs = sorted(data.glob("*.4dc"))
    assert seqs
    return base, rooms, objs, data, seqs


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--rooms", "1")  # missing required arguments
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == EXIT_USAGE

    def test_missing_data_is_3(self, tmp_path):
        assert run("pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "x")) == EXIT_DATA

    def test_corrupt_sequence_is_3(self, tmp_path):
        bad = tmp_path / "bad.4dc"
        bad.write_bytes(b"garbage data that is not a sequence")
        assert run("inspect", "--seq", str(bad)) == EXIT_DATA

    @pytest.mark.parametrize("setting,named", [
        ("dtype=float16", "dtype"), ("learning_rate=0", "learning rate"), ("voxel3d=0", "voxel3d"),
        ("learning_rate=nan", "learning rate"), ("scene_cell=nan", "scene_cell"), ("voxel3d=nan", "voxel3d"),
        ("voxel4d=inf", "voxel4d"),
    ])
    def test_bad_config_value_is_3(self, setting, named, tmp_path, assets, capsys):
        *_, data, _ = assets
        code = run("pretrain", "--data", str(data), "--out", str(tmp_path / "x"), "--set", setting)
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:") and named in err[-1]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("setting,named", [
        ("steps=-3", "steps"), ("decay_interval=0", "decay interval"),
        ("max_corr_per_pair=-1", "max_corr_per_pair"), ("max_points_3d4d=-1", "max_points_3d4d"),
        ("unet3d_projection_width=0", "projection width"), ("unet4d_projection_width=0", "projection width"),
    ])
    def test_out_of_range_training_key_is_3(self, setting, named, tmp_path, assets, capsys):
        *_, data, _ = assets
        code = run("pretrain", "--data", str(data), "--out", str(tmp_path / "x"), "--set", setting)
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:") and named in err[-1]
        assert not list(tmp_path.iterdir())

    def test_zero_steps_writes_the_initial_checkpoint(self, tmp_path, assets, capsys):
        *_, data, _ = assets
        out = tmp_path / "x"
        assert run("pretrain", "--data", str(data), "--out", str(out), "--set", "steps=0") == EXIT_OK
        assert capsys.readouterr().out.startswith(f"pretrain: 0 steps, checkpoint {out}")
        assert out.exists()

    def test_unequal_projection_widths_are_3(self, tmp_path, assets, capsys):
        """The 3D-4D loss compares the two projections row by row, so the run
        stops on unequal widths before it writes anything."""
        *_, data, _ = assets
        code = run("pretrain", "--data", str(data), "--out", str(tmp_path / "x"), "--set", "unet3d_projection_width=16")
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:") and "3D 16, 4D 32" in err[-1]
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_4(self, tmp_path, assets, capsys):
        """A learning rate that overflows the float32 weights in step 1 makes
        every term of step 2 non-finite: the run exits 4, names the step, the
        sequence index and the terms, and writes no checkpoint."""
        *_, data, _ = assets
        code = run(
            "pretrain", "--data", str(data), "--out", str(tmp_path / "x"),
            "--set", "learning_rate=1e30", "--set", "steps=3", "--set", "batch_size=2", "--set", "t=3",
            "--set", "voxel3d=0.08", "--set", "voxel4d=0.16",
            "--set", "unet3d_channels=4,8", "--set", "unet4d_channels=3,6",
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err.strip().splitlines()
        assert re.match(r"error: numeric: non-finite loss at step 2, sequence \d+: L3D, L3D4D, L4D \(", err[-1]), err[-1]
        assert not (tmp_path / "x").exists()

    def test_version_1_checkpoint_is_3(self, tmp_path, assets, capsys):
        *_, data, _ = assets
        ck = tmp_path / "v1.4dcw"
        header = b"4DCW" + (1).to_bytes(4, "little") + (0).to_bytes(4, "little")
        ck.write_bytes(header + zlib.crc32(header).to_bytes(4, "little"))
        assert run("probe", "--ckpt", str(ck), "--data", str(data)) == EXIT_DATA
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("change,named", [
        (lambda t: t.update({"unet3d.enc0.block0.conv1.w": np.zeros((27, 3, 3), np.float32)}),
         "'unet3d.enc0.block0.conv1.w' has shape (27, 3, 3), the stored model needs (27, 4, 4)"),
        (lambda t: t.pop("unet3d.down0.w"), "'unet3d.down0.w' of the stored model is missing"),
        (lambda t: t.update({"config": np.frombuffer(
            bytes(t["config"]).replace(b'"dtype"', b'"normalize_losses": true, "dtype"'), np.uint8)}),
         "normalize_losses"),
        (lambda t: t.update({"config": np.frombuffer(
            bytes(t["config"]).replace(b'"projection_width"', b'"block_depth": 1, "projection_width"'), np.uint8)}),
         "block_depth"),
    ], ids=["wrong-shape", "missing-tensor", "removed-config-key", "removed-unet-field"])
    def test_checkpoint_unlike_its_model_is_3(self, change, named, tmp_path, assets, capsys):
        *_, data, _ = assets
        model = ModelConfig(UNetConfig(3, (4, 8), projection_width=8), UNetConfig(4, (3, 6), projection_width=8))
        params = build_parameters(model)
        ck = tmp_path / "ck.4dcw"
        save_checkpoint(ck, Checkpoint({k: p.value for k, p in params.items()}, 0, model, TrainConfig()))
        tensors = read_checkpoint(ck)
        change(tensors)
        write_checkpoint(ck, tensors)
        assert run("probe", "--ckpt", str(ck), "--data", str(data)) == EXIT_DATA
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("tensor", [
        struct.pack("<I", 1) + b"x<f4" + struct.pack("<II", 1, 1000) + bytes(8),
        struct.pack("<I", 2) + b"\xff\xfe<f4" + struct.pack("<II", 1, 2) + bytes(8),
    ], ids=["payload-past-end", "non-utf8-name"])
    def test_crc_valid_malformed_checkpoint_is_3(self, tensor, tmp_path, assets, capsys):
        *_, data, _ = assets
        ck = tmp_path / "bad.4dcw"
        body = b"4DCW" + (2).to_bytes(4, "little") + (1).to_bytes(4, "little") + tensor
        ck.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        assert run("probe", "--ckpt", str(ck), "--data", str(data)) == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:") and "checkpoint" in err[-1]

    def test_config_line_without_equals_is_3(self, tmp_path, assets, capsys):
        *_, data, _ = assets
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 2\nlearning_rate 0.1\n")
        code = run("pretrain", "--data", str(data), "--out", str(tmp_path / "x"), "--config", str(cfg))
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:") and "expected 'key = value'" in err[-1]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_gen_workers_below_one_is_3(self, workers, tmp_path, assets, capsys):
        _, rooms, objs, *_ = assets
        code = run("gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(tmp_path / "d"), "--workers", workers)
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error:")
        assert not list((tmp_path / "d").glob("*.4dc"))

    def test_gen_over_malformed_ply_is_3(self, tmp_path, assets, capsys):
        _, _, objs, *_ = assets
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "room.ply").write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
            "property float z\nend_header\n0 0 0\n1 a 2\n"
        )
        assert run("gen", "--scenes", str(scenes), "--objects", str(objs), "--out", str(tmp_path / "x")) == EXIT_DATA
        assert "non-numeric value in vertex 1" in capsys.readouterr().err

    def test_gen_over_non_finite_xyz_is_3(self, tmp_path, assets, capsys):
        _, _, objs, *_ = assets
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "room.xyz").write_text("0 0 0\n1 nan 2\n")
        assert run("gen", "--scenes", str(scenes), "--objects", str(objs), "--out", str(tmp_path / "x")) == EXIT_DATA
        assert "non-finite coordinate in point 1 (byte offset 6)" in capsys.readouterr().err

    def test_bad_config_key_is_3(self, tmp_path, assets):
        _, rooms, objs, *_ = assets
        code = run(
            "gen", "--scenes", str(rooms), "--objects", str(objs),
            "--out", str(tmp_path / "d"), "--set", "not_a_key=1",
        )
        assert code == EXIT_DATA


class TestSynth:
    def test_outputs_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "synth", "--rooms", "2", "--objects", "2", "--out", str(out), "--seed", "11"
            ) == EXIT_OK
        for name in ("room_0000.xyz", "room_0001.xyz", "object_0000.xyz", "object_0001.xyz"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_room_index_does_not_depend_on_count(self, tmp_path):
        a, b = tmp_path / "one", tmp_path / "many"
        run("synth", "--rooms", "1", "--objects", "0", "--out", str(a), "--seed", "2")
        run("synth", "--rooms", "3", "--objects", "0", "--out", str(b), "--seed", "2")
        assert (a / "room_0000.xyz").read_bytes() == (b / "room_0000.xyz").read_bytes()

    @pytest.mark.parametrize("flag,value,named", [
        ("--room-size", "nan", "room size"), ("--room-size", "-3", "room size"), ("--room-size", "0.69", "room size"),
        ("--room-size", "0.71", None), ("--spacing", "0", "spacing"), ("--wall-height", "inf", "wall_height"),
        ("--object-points", "0", "2 points"), ("--object-points", "1", "2 points"), ("--object-points", "2", None),
    ])
    def test_argument_bounds(self, tmp_path, capsys, flag, value, named):
        """A room at least twice the 0.35 m clutter margin across, a finite
        positive wall height and spacing, and at least 2 object points; an
        argument outside these bounds exits 3 and names itself."""
        rooms, objects = ("0", "1") if flag == "--object-points" else ("1", "0")
        code = run("synth", "--rooms", rooms, "--objects", objects, "--out", str(tmp_path), flag, value)
        if named is None:
            assert code == EXIT_OK and read_xyz(next(tmp_path.glob("*.xyz"))).points.shape[1] == 3
        else:
            assert code == EXIT_DATA
            err = capsys.readouterr().err.strip().splitlines()
            assert err[-1].startswith("error:") and named in err[-1]

    def test_files_parse(self, assets):
        _, rooms, objs, *_ = assets
        room = read_xyz(next(rooms.glob("room_*.xyz")))
        obj = read_xyz(next(objs.glob("object_*.xyz")))
        assert len(room) > 1000 and len(obj) == 300


class TestGen:
    def test_deterministic_across_runs_and_workers(self, assets, tmp_path):
        _, rooms, objs, data, seqs = assets
        redo = tmp_path / "redo"
        assert run(
            "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(redo),
            "--per-scene", "2", "--frames", "3", "--seed", "5", "--workers", "2",
            "--set", "object_sample=300", "--set", "scene_cell=0.05",
        ) == EXIT_OK
        for p in seqs:
            assert (redo / p.name).read_bytes() == p.read_bytes()

    def test_config_keys_stand_in_for_flags(self, assets, tmp_path):
        """Without --per-scene/--frames, the per_scene and t keys set them."""
        _, rooms, objs, data, seqs = assets
        redo = tmp_path / "redo"
        assert run(
            "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(redo),
            "--seed", "5", "--set", "per_scene=2", "--set", "t=3",
            "--set", "object_sample=300", "--set", "scene_cell=0.05",
        ) == EXIT_OK
        assert sorted(p.name for p in redo.glob("*.4dc")) == [p.name for p in seqs]
        for p in seqs:
            assert (redo / p.name).read_bytes() == p.read_bytes()
        effective = (data / "effective_config.txt").read_text().splitlines()
        assert "per_scene = 2" in effective and "t = 3" in effective
        assert (redo / "effective_config.txt").read_text().splitlines() == effective

    def test_rerun_from_effective_config_is_byte_identical(self, assets, tmp_path):
        """--seed is recorded as the seed key, so the effective config reproduces the run."""
        _, rooms, objs, data, seqs = assets
        assert "seed = 5" in (data / "effective_config.txt").read_text().splitlines()
        redo = tmp_path / "redo"
        assert run(
            "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(redo),
            "--config", str(data / "effective_config.txt"),
        ) == EXIT_OK
        assert sorted(p.name for p in redo.glob("*.4dc")) == [p.name for p in seqs]
        for p in seqs:
            assert (redo / p.name).read_bytes() == p.read_bytes()
        assert (redo / "effective_config.txt").read_bytes() == (data / "effective_config.txt").read_bytes()

    def test_shortfall_is_3(self, assets, tmp_path, monkeypatch, capsys):
        """A trajectory that gives up leaves the dataset short of scenes x per_scene."""
        _, rooms, objs, *_ = assets
        calls = []

        def give_up_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise TrajectoryFailure("forced")
            return make_sequence(*args, **kwargs)

        make_sequence = seqgen.make_sequence
        monkeypatch.setattr(seqgen, "make_sequence", give_up_once)
        code = run(
            "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(tmp_path / "d"),
            "--per-scene", "2", "--frames", "3", "--seed", "5",
            "--set", "object_sample=300", "--set", "scene_cell=0.05",
        )
        assert code == EXIT_DATA
        assert "wrote 1 of 2 requested; 1 trajectories gave up" in capsys.readouterr().err
        assert len(list((tmp_path / "d").glob("*.4dc"))) == 1

    def test_a_scene_without_floor_is_counted_as_skipped(self, assets, tmp_path, capsys):
        """A scene where no object's footprint fits on the floor gets no
        tasks. They are counted as skipped, so the shortfall is explained,
        and `gen` still exits 3."""
        _, rooms, objs, *_ = assets
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        shutil.copy(rooms / "room_0000.xyz", scenes)
        blob = np.random.default_rng(0).uniform(0.0, 0.3, size=(500, 3))  # sorts after the room: scene 1
        write_xyz(scenes / "zblob.xyz", PointCloud(blob))
        code = run(
            "gen", "--scenes", str(scenes), "--objects", str(objs), "--out", str(tmp_path / "d"),
            "--per-scene", "1", "--frames", "3", "--seed", "5",
            "--set", "object_sample=300", "--set", "scene_cell=0.05",
        )
        assert code == EXIT_DATA
        out, err = capsys.readouterr()
        assert "gen: wrote 1 sequences, rejected 0, skipped 1" in out
        assert "wrote 1 of 2 requested; 0 trajectories gave up; 1 skipped in scenes with no valid floor position" in err
        assert [p.name for p in (tmp_path / "d").glob("*.4dc")] == ["seq_0000_0000.4dc"]

    def test_inspect_reports_counts(self, assets, capsys):
        *_, seqs = assets
        assert run("inspect", "--seq", str(seqs[0])) == EXIT_OK
        out = capsys.readouterr().out
        assert "frames: 3" in out
        assert "correspondences 0-1:" in out


class TestTrainProbeExport:
    @pytest.fixture(scope="class")
    @staticmethod
    def checkpoint(assets, tmp_path_factory):
        *_, data, _ = assets
        ck = tmp_path_factory.mktemp("ck") / "model.4dcw"
        code = run(
            "pretrain", "--data", str(data), "--out", str(ck),
            "--set", "steps=2", "--set", "batch_size=2", "--set", "t=3",
            "--set", "voxel3d=0.08", "--set", "voxel4d=0.16",
            "--set", "unet3d_channels=4,8", "--set", "unet4d_channels=3,6",
            "--set", "max_corr_per_pair=64", "--set", "max_points_3d4d=96",
        )
        assert code == EXIT_OK
        assert ck.exists() and ck.with_name(ck.name + ".log").exists()
        return ck

    def test_probe_runs(self, assets, checkpoint, capsys):
        *_, data, _ = assets
        assert run("probe", "--ckpt", str(checkpoint), "--data", str(data)) == EXIT_OK
        out = capsys.readouterr().out
        assert "margin=" in out and "pairs=" in out

    def test_export_frames(self, assets, checkpoint, tmp_path):
        *_, seqs = assets
        out = tmp_path / "frames"
        assert run("export", "--seq", str(seqs[0]), "--out", str(out)) == EXIT_OK
        plys = sorted(out.glob("frame_*.ply"))
        assert len(plys) == 3
        cloud = read_ply(plys[0])
        assert len(cloud) > 100

    def test_export_features_csv(self, assets, checkpoint, tmp_path):
        *_, seqs = assets
        out = tmp_path / "featured"
        assert run(
            "export", "--seq", str(seqs[0]), "--out", str(out), "--ckpt", str(checkpoint)
        ) == EXIT_OK
        csvs = sorted(out.glob("frame_*_features.csv"))
        assert len(csvs) == 3
        first = csvs[0].read_text().splitlines()[0].split(",")
        assert len(first) > 3  # xyz plus feature channels

    def test_export_backbone(self, assets, checkpoint, tmp_path, capsys):
        *_, data, seqs = assets
        bb = tmp_path / "backbone.4dcw"
        assert run("export", "--ckpt", str(checkpoint), "--backbone", str(bb)) == EXIT_OK
        from seqcontrast.trainer import load_checkpoint

        loaded = load_checkpoint(bb)
        assert all(k.startswith("unet3d.") for k in loaded.tensors)
        assert run("probe", "--ckpt", str(bb), "--data", str(data)) == EXIT_OK
        # projection-head features need the head the backbone export drops
        assert run("export", "--seq", str(seqs[0]), "--out", str(tmp_path / "f"), "--ckpt", str(bb)) == EXIT_DATA
        assert "no projection head" in capsys.readouterr().err

    def test_export_without_inputs_is_3(self):
        assert run("export") == EXIT_DATA

    def test_export_backbone_without_ckpt_is_3(self, tmp_path, capsys):
        assert run("export", "--backbone", str(tmp_path / "out.4dcw")) == EXIT_DATA
        assert "export --backbone needs --ckpt" in capsys.readouterr().err
        assert not (tmp_path / "out.4dcw").exists()


class TestGradcheckCommand:
    def test_passes_quickly(self, capsys):
        assert run("gradcheck", "--seeds", "1") == EXIT_OK
        out = capsys.readouterr().out
        assert "worst relative error" in out

    def test_zero_seeds_is_3(self, capsys):
        assert run("gradcheck", "--seeds", "0") == EXIT_DATA
        out, err = capsys.readouterr()
        assert "components checked" not in out
        assert err.strip().splitlines()[-1].startswith("error:")

    def test_impossible_tolerance_is_4(self, capsys):
        assert run("gradcheck", "--seeds", "1", "--tolerance", "1e-300") == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


PARENT_KEYS = {
    "learning_rate", "batch_size", "steps", "decay_factor", "decay_interval", "seed",
    "momentum", "dtype", "w_3d", "w_3d4d", "w_4d", "normalize_losses",
    "sg_on_predictor_3d4d", "max_corr_per_pair", "max_points_3d4d", "voxel3d", "voxel4d",
    "t", "per_scene", "object_points", "map_cell", "scene_cell",
    "unet3d_channels", "unet3d_block_depth", "unet3d_projection_width", "unet3d_normalize",
    "unet4d_channels", "unet4d_block_depth", "unet4d_projection_width", "unet4d_normalize",
}

# options no run set off their defaults, deleted with the branches behind
# them, each with a value it once took
REMOVED_KEYS = {
    "normalize_losses": "False", "sg_on_predictor_3d4d": "False",
    "unet3d_normalize": "False", "unet4d_normalize": "False",
    "map_cell": "0.1", "unet3d_block_depth": "1", "unet4d_block_depth": "1",
}

# every key at a valid value off its default, written as dump_config writes it
OFF_DEFAULT = {
    "learning_rate": "0.1", "batch_size": "3", "steps": "42", "decay_factor": "0.97",
    "decay_interval": "50", "seed": "16777217", "w_3d": "0.3", "w_3d4d": "0.7", "w_4d": "1.1",
    "voxel3d": "0.06", "voxel4d": "0.13", "momentum": "0.9", "dtype": "float64",
    "max_corr_per_pair": "7", "max_points_3d4d": "9",
    "unet3d_channels": "4,8", "unet3d_projection_width": "8",
    "unet4d_channels": "3,6,12", "unet4d_projection_width": "16",
    "per_scene": "2", "t": "5", "object_sample": "300", "scene_cell": "0.05",
}


def read_dump(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return dict(ln.split(" = ", 1) for ln in lines)


class TestConfigRoundtrip:
    def test_dump_and_reload(self, tmp_path):
        from seqcontrast.nets import ModelConfig, UNetConfig
        from seqcontrast.trainer import TrainConfig

        cfg = RunConfig(
            train=TrainConfig(steps=42, learning_rate=0.125),
            model=ModelConfig(unet3d=UNetConfig(3, (4, 8))),
        )
        path = tmp_path / "run.cfg"
        dump_config(cfg, path)
        back = load_config(path)
        assert back == cfg

    def test_unknown_key_rejected(self, tmp_path):

        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_key_set_is_the_parent_set_with_object_sample(self):

        assert set(KEYS) == PARENT_KEYS - set(REMOVED_KEYS) - {"object_points"} | {"object_sample"}
        assert len(KEYS) == 23

    def test_every_key_roundtrips_off_default(self, tmp_path):

        assert set(OFF_DEFAULT) == set(KEYS)
        dump_config(RunConfig(), tmp_path / "default.cfg")
        defaults = read_dump(tmp_path / "default.cfg")
        assert all(defaults[key] != value for key, value in OFF_DEFAULT.items())
        cfg = load_config(None, OFF_DEFAULT)
        dump_config(cfg, tmp_path / "off.cfg")
        assert read_dump(tmp_path / "off.cfg") == OFF_DEFAULT
        assert load_config(tmp_path / "off.cfg") == cfg
        assert cfg.train.voxel3d == cfg.model.voxel3d == 0.06
        assert cfg.train.voxel4d == cfg.model.voxel4d == 0.13
        assert cfg.train.weights.w_3d4d == 0.7 and cfg.model.unet4d.channels == (3, 6, 12)
        assert (cfg.model.unet3d.dim, cfg.model.unet4d.dim) == (3, 4)
        assert cfg.gen.object_sample == 300 and cfg.train.seed == 16777217

    @pytest.mark.parametrize("key,value", [
        ("unet3d_channels", "0"), ("learning_rate", "0"), ("w_4d", "-1"), ("dtype", "float16"),
        ("voxel3d", "0"), ("voxel4d", "-1"),
    ])
    def test_invalid_value_rejected_at_load(self, key, value):

        with pytest.raises(ConfigError):
            load_config(None, {key: value})

    @pytest.mark.parametrize("setting", [
        "learning_rate=0", "unet3d_channels=0", "object_points=300",
        "per_scene=-3", "t=0", "object_sample=0", "scene_cell=0", "scene_cell=nan", "map_cell=0",
        *(f"{key}={value}" for key, value in sorted(REMOVED_KEYS.items())),
    ])
    def test_gen_with_invalid_or_old_key_is_3(self, assets, tmp_path, setting):
        _, rooms, objs, *_ = assets
        assert run(
            "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(tmp_path / "x"),
            "--set", setting,
        ) == EXIT_DATA

    def test_gen_with_an_undersampled_object_is_3(self, assets, tmp_path, capsys):
        """150 of the 300-point object's points over 4 frames: no sequence
        could pass, so `gen` names the object and exits 3 before generating."""
        _, rooms, objs, *_ = assets
        assert run(
            "gen", "--scenes", str(rooms), "--objects", str(objs), "--out", str(tmp_path / "x"),
            "--frames", "4", "--set", "object_sample=150",
        ) == EXIT_DATA
        assert "object 0: object_sample=150 of its 300 points" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_readme_set_keys_are_valid(self):

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        keys = re.findall(r"--set\s+(\w+)=", readme)
        assert keys
        assert set(keys) <= set(KEYS)

    def test_readme_key_count_is_the_schema_count(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [int(n) for n in re.findall(r"The (\d+) keys are", readme)] == [len(KEYS)]
