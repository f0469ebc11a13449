"""Checks of the scripts in tools/ that run no training."""

import importlib.util
import json
from pathlib import Path

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
