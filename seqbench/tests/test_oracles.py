"""The benchmark's oracles accept the program's outputs and reject corrupted ones.

    python3 -m pytest seqbench/tests
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import speed  # noqa: E402
from tracing import Patcher  # noqa: E402

from seqcontrast import autodiff as ad  # noqa: E402
from seqcontrast import seqgen, synth, trainer  # noqa: E402
from seqcontrast import sparse as sp  # noqa: E402
from seqcontrast.gradcheck import tiny_model, tiny_sequence  # noqa: E402
from seqcontrast.seqgen import GenParams  # noqa: E402
from seqcontrast.trainer import TrainConfig  # noqa: E402


# ---------------------------------------------------------------------------
# brute-force convolution


def random_tensor(rng, dim: int, n: int, channels: int, stride: int = 1) -> sp.SparseTensor:
    cells = rng.integers(0, 6, size=(3 * n, dim)) * stride
    coords = np.unique(np.concatenate([np.zeros((3 * n, 1), np.int64), cells], axis=1), axis=0)[:n]
    return sp.SparseTensor(coords, rng.normal(size=(len(coords), channels)).astype(np.float32), (stride,) * dim)


def run_conv(kind: str, dim: int, drop_pair: bool = False):
    """One program conv on random data: (oracle arguments, output feats)."""
    rng = np.random.default_rng(dim)
    k = 3**dim if kind == "sub" else 2**dim
    patcher = Patcher()
    if drop_pair:
        def make(fn):
            def build(*args):
                kmap = fn(*args)
                first = next(i for i, (ii, _) in enumerate(kmap.pairs) if len(ii))
                ii, oi = kmap.pairs[first]
                kmap.pairs[first] = (ii[1:], oi[1:])
                return kmap
            return build
        patcher.replace(sp, "build_kernel_map", make)
    try:
        if kind == "up":
            fine = random_tensor(rng, dim, 60, 4)
            coarse_coords = sp.downsample_coords(fine.coords, fine.stride)
            x = sp.SparseTensor(coarse_coords, rng.normal(size=(len(coarse_coords), 5)).astype(np.float32), (2,) * dim)
            w = ad.Var(rng.normal(size=(k, 4, 5)).astype(np.float32))
            out = sp.transpose_conv(x, w, fine.coords, fine.stride)
            target = fine.coords
        else:
            x = random_tensor(rng, dim, 60, 4)
            w = ad.Var(rng.normal(size=(k, 4, 5)).astype(np.float32))
            out = sp.sparse_conv(x, w, stride=1 if kind == "sub" else 2)
            target = None
    finally:
        patcher.restore()
    args = (kind, x.coords, x.feats.value, w.value, x.stride, out.coords)
    return args, out.feats.value, target


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("kind", ["sub", "down", "up"])
def test_conv_oracle_accepts_program_output(kind, dim):
    args, feats, target = run_conv(kind, dim)
    assert oracles.conv_errors(*args, feats, target) == []


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("kind", ["sub", "down", "up"])
def test_conv_oracle_rejects_a_kernel_map_with_one_pair_dropped(kind, dim):
    args, feats, target = run_conv(kind, dim, drop_pair=True)
    problems = oracles.conv_errors(*args, feats, target)
    assert len(problems) == 1 and problems[0].startswith("1 of ")


def test_conv_oracle_rejects_a_wrong_output_coordinate():
    (kind, xc, xf, w, s, oc), feats, _ = run_conv("down", 3)
    oc = oc.copy()
    oc[0, 1] += 1
    assert "coordinate set" in oracles.conv_errors(kind, xc, xf, w, s, oc, feats)[0]


# ---------------------------------------------------------------------------
# finite differences


def tiny_loss():
    rng = np.random.default_rng(3)
    model = tiny_model()
    cfg = TrainConfig(dtype="float64", voxel3d=1.0, voxel4d=1.0, max_corr_per_pair=0, max_points_3d4d=0)
    params = {k: ad.parameter(p.value.astype(np.float64), name=k) for k, p in trainer.build_parameters(model, seed=3).items()}
    state = trainer._SequenceState(tiny_sequence(rng, t=3), cfg, 0)
    freeze = ad.SGFreeze()
    with freeze.recording():
        loss, _ = trainer.sequence_loss(state, params, model, cfg)
    analytic = ad.grad(loss, params)

    def loss_at():
        with freeze.replaying():
            value, _ = trainer.sequence_loss(state, params, model, cfg)
        return float(value.value)

    picks = []
    for name in sorted(n for n in params if n.endswith(".w"))[:6]:
        picks.append((name, int(np.argmax(np.abs(analytic[name])))))
    return loss_at, {k: p.value for k, p in params.items()}, analytic, picks


def test_finite_differences_accept_autodiff_gradients():
    loss_at, values, analytic, picks = tiny_loss()
    assert oracles.finite_difference_errors(loss_at, values, analytic, picks) == []


def test_finite_differences_reject_a_corrupted_gradient():
    loss_at, values, analytic, picks = tiny_loss()
    name, idx = picks[2]
    analytic[name] = analytic[name].copy()
    analytic[name].reshape(-1)[idx] *= 1.01
    problems = oracles.finite_difference_errors(loss_at, values, analytic, picks)
    assert len(problems) == 1 and problems[0].startswith(f"{name}[{idx}]")


# ---------------------------------------------------------------------------
# generated sequences


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    room = synth.make_room(np.random.default_rng(11), size=3.0, spacing=0.08)
    obj = synth.make_object(np.random.default_rng(12), kind="box", n_points=300)
    params = GenParams(t=4, object_sample=300, scene_cell=0.04)
    stats = seqgen.generate_dataset([room], [obj], out, per_scene=1, t=4, seed=5, params=params)
    assert stats["written"] == 1
    return next(out.glob("*.4dc"))


def corrupt(generated: Path, tmp_path: Path, edit_sequence=None, edit_sidecar=None) -> list[str]:
    seq_path, side_path = tmp_path / generated.name, tmp_path / generated.with_suffix(".txt").name
    shutil.copy(generated, seq_path)
    shutil.copy(generated.with_suffix(".txt"), side_path)
    if edit_sequence:
        seq = seqgen.read_sequence(seq_path)
        seqgen.write_sequence(seq_path, edit_sequence(seq))
    if edit_sidecar:
        side_path.write_text(edit_sidecar(side_path.read_text()))
    return oracles.generated_file_errors(seq_path, side_path)


def move_point(seq, scene: bool):
    """Move one point that shares its provenance with frame 0."""
    f0, f1 = seq.frames[0], seq.frames[1]
    is_obj = f1.cloud.provenance >= oracles.OBJECT_ID_OFFSET
    shared = np.isin(f1.cloud.provenance, f0.cloud.provenance) & (~is_obj if scene else is_obj)
    pts = f1.cloud.points.copy()
    pts[np.flatnonzero(shared)[0], 0] += 0.01
    frame = replace(f1, cloud=seqgen.PointCloud(pts, f1.cloud.provenance))
    return replace(seq, frames=[f0, frame] + seq.frames[2:])


def test_generation_validator_accepts_generated_files(generated, tmp_path):
    assert corrupt(generated, tmp_path) == []


def test_generation_validator_rejects_a_moved_scene_point(generated, tmp_path):
    problems = corrupt(generated, tmp_path, edit_sequence=lambda s: move_point(s, scene=True))
    assert problems == ["frame 1: scene points with one provenance differ by 0.01"]


def test_generation_validator_rejects_a_moved_object_point(generated, tmp_path):
    problems = corrupt(generated, tmp_path, edit_sequence=lambda s: move_point(s, scene=False))
    assert len(problems) == 1 and problems[0].startswith("frame 1: object points")


def test_generation_validator_rejects_a_flipped_byte(generated, tmp_path):
    seq_path = tmp_path / generated.name
    data = bytearray(generated.read_bytes())
    data[100] ^= 1
    seq_path.write_bytes(bytes(data))
    shutil.copy(generated.with_suffix(".txt"), seq_path.with_suffix(".txt"))
    assert oracles.generated_file_errors(seq_path, seq_path.with_suffix(".txt")) == ["unreadable: CRC mismatch"]


def test_generation_validator_rejects_thinned_frames(generated, tmp_path):
    def thin(seq):
        f = seq.frames[2]
        keep = np.arange(len(f.cloud)) % 3 == 0
        cloud = seqgen.PointCloud(f.cloud.points[keep], f.cloud.provenance[keep])
        return replace(seq, frames=seq.frames[:2] + [replace(f, cloud=cloud)] + seq.frames[3:])

    problems = corrupt(generated, tmp_path, edit_sequence=thin)
    assert any(p.startswith("frame 2 keeps") for p in problems)


def test_generation_validator_rejects_a_long_step(generated, tmp_path):
    def stretch(text):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("waypoints"):
                way = [[float(v) for v in w.split(",")] for w in line.split("=", 1)[1].strip().split(";")]
                way[-1][0] += 2.0
                lines[i] = "waypoints = " + ";".join(",".join(f"{v:.6f}" for v in w) for w in way)
        return "\n".join(lines) + "\n"

    problems = corrupt(generated, tmp_path, edit_sidecar=stretch)
    assert any(p.startswith("step 2 is") for p in problems)
    assert any(p == "frame 3 object pose is not at its waypoint" for p in problems)


def test_read_4dc_checks_the_crc(generated):
    data = generated.read_bytes()
    assert zlib.crc32(data[:-4]) == struct.unpack("<I", data[-4:])[0]
    assert len(oracles.read_4dc(generated)["frames"]) == 4


# ---------------------------------------------------------------------------
# the speed probe


def test_speed_probe_scales_each_stretch_by_the_loop_time_around_it():
    probe = speed.SpeedProbe()
    ref = speed.REF_S
    # loops at reference speed, then at half speed; 1 s of work after each loop
    t, runs = 0.0, []
    for loop in [ref] * 6 + [2 * ref] * 6:
        runs.append((t, t + loop))
        t += loop + 1.0
    probe.runs = runs
    assert probe.wall_s() == pytest.approx(11.0)
    # the median of the five loops around a stretch turns to half speed from
    # the sixth stretch on, the first whose window holds three slow loops
    assert probe.scaled_s() == pytest.approx(5 * 1.0 + 6 * 0.5)


def test_speed_probe_flags_another_python_thread():
    import threading

    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        with speed.SpeedProbe() as probe:
            pass
    finally:
        stop.set()
        worker.join()
    assert probe.interference and len(probe.runs) == 2


def test_speed_probe_runs_before_watched_calls_and_restores_them():
    original = sp.pack_coords
    coords = np.zeros((4, 4), dtype=np.int64)
    with speed.SpeedProbe(((sp, "pack_coords"),)) as probe:
        assert sp.pack_coords is not original
        probe._next = 0.0
        sp.pack_coords(coords)
    assert sp.pack_coords is original and len(probe.runs) == 3 and not probe.interference


# ---------------------------------------------------------------------------
# the benchmark command


def test_short_run_of_every_workload_is_correct():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--short", "--seed", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in ("pretrain-toy", "infer-paper", "gen-paper"):
        assert result["metrics"][f"{name}.ops_per_s"]["value"] > 0
        saved = json.loads((BENCH / "results" / f"{name}-seed2-trace0-short.json").read_text())
        assert saved["seed"] == 2 and saved["machine"]["nproc"] >= 1 and saved["commit"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "gen-paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_benchmark_json_lists_every_reported_metric():
    from tracing import per_layer_spec

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "peak_rss_mb"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
