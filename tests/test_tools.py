"""Checks of the scripts in tools/, on inputs small enough to run in
seconds."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from seqcontrast import trainer
from seqcontrast.nets import ModelConfig, UNetConfig
from seqcontrast.trainer import TrainConfig, load_dataset

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_p7_seeds_summary_gives_the_median_margin_and_the_non_monotone_seeds():
    """The float32 margins of seeds 0-4 recorded for ROADMAP item 1 (only
    seed 4 non-monotone); the input's seed order is kept."""
    margins = {0: 0.2229, 1: 0.2104, 2: 0.1626, 3: 0.1599, 4: 0.1399}
    records = [
        {"seed": seed, "dtype": "float32", "margin": m, "monotone": seed != 4}
        for seed, m in margins.items()
    ]
    summary = load_tool("p7_seeds").summarize(records[::-1])
    assert summary == {
        "summary": True,
        "dtype": "float32",
        "seeds": [4, 3, 2, 1, 0],
        "median_margin": 0.1626,
        "non_monotone_seeds": [4],
    }


def test_gen_digest_is_the_same_across_worker_counts_and_runs(capsys):
    """On one small room the digests at one and at two workers agree, and a
    second run prints the same line."""
    argv = ["--seeds", "4", "--rooms", "1", "--objects", "1", "--per-scene", "2", "--room-size", "3.0", "--spacing", "0.08"]
    lines = []
    for _ in range(2):
        assert load_tool("gen_digest").main(argv) == 0
        lines.append(capsys.readouterr().out)
    record = json.loads(lines[0])
    assert lines[0] == lines[1]
    assert record["files"] == 4 and record["sha256"]["1"] == record["sha256"]["2"]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_digest_is_the_same_across_process_counts_and_runs(small_dataset, dtype):
    """Two momentum steps of a tiny model give one digest at one and at two
    processes, and again on a second run; another seed gives another digest,
    and the process count is the trainer's own again afterwards."""
    tool = load_tool("train_digest")
    model = ModelConfig(UNetConfig(3, (4, 8), projection_width=8), UNetConfig(4, (3, 6), projection_width=8), 0.08, 0.16)
    cfg = TrainConfig(steps=2, batch_size=2, voxel3d=0.08, voxel4d=0.16, max_corr_per_pair=64,
                      max_points_3d4d=96, momentum=tool.MOMENTUM, dtype=dtype)
    sequences = load_dataset(small_dataset)
    chosen = trainer._process_count
    runs = [tool.digests(sequences, model, cfg, (1, 2)) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0]["1"] == runs[0]["2"]
    assert tool.digests(sequences, model, replace(cfg, seed=1), (1,))["1"] != runs[0]["1"]
    assert trainer._process_count is chosen
