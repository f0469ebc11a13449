"""Replay acceptance criterion P7 at other training seeds and dtypes.

    python3 tools/p7_seeds.py                          # seed 0, float32
    python3 tools/p7_seeds.py --seeds 0 1 2 --dtype float64

The toy dataset, the training and model configurations and the probe seed are
those of ``tests/test_acceptance.py`` (imported from it, not copied); only
``TrainConfig.seed`` and ``dtype`` change. The dataset is generated once into a
temporary directory. Each seed prints one JSON line: the trained and untrained
probe margins, the ten 50-step window means of the total loss, whether they
fall monotonically, the gap closure towards -3, and the training minutes.
A last JSON line sums the run up for ROADMAP item 1's rule: the median
margin over the seeds and the seeds whose windows do not fall monotonically.
Training runs numpy's OpenBLAS at one thread whatever ``OPENBLAS_NUM_THREADS``
says, and the probe's forward passes give the same bytes at any thread count,
so the result does not depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0], help="TrainConfig.seed values (default: 0, P7's)")
    ap.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    return ap.parse_args(argv)


def summarize(records: list[dict]) -> dict:
    """The run's summary line from its per-seed records."""
    return {
        "summary": True,
        "dtype": records[0]["dtype"],
        "seeds": [r["seed"] for r in records],
        "median_margin": round(statistics.median(r["margin"] for r in records), 4),
        "non_monotone_seeds": [r["seed"] for r in records if not r["monotone"]],
    }


def toy_sequences(tmp: str):
    """P7's toy dataset, generated under ``tmp`` by the fixture of
    ``tests/test_acceptance.py`` and loaded. ``src/`` and ``tests/`` must be
    on ``sys.path``."""
    import test_acceptance as p7
    from seqcontrast.trainer import load_dataset

    class Factory:  # the one method of pytest's tmp_path_factory the fixture calls
        @staticmethod
        def mktemp(name):
            path = Path(tmp) / name
            path.mkdir()
            return path

    out, _, _ = inspect.unwrap(p7.toy_dataset)(Factory())
    return load_dataset(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    import test_acceptance as p7
    from seqcontrast.nets import build_parameters
    from seqcontrast.trainer import Checkpoint, pretrain, probe

    model = p7.toy_model_config()
    with tempfile.TemporaryDirectory() as tmp:
        sequences = toy_sequences(tmp)
        records = []
        for seed in args.seeds:
            cfg = replace(p7.toy_train_config(), seed=seed, dtype=args.dtype)
            init = build_parameters(model, seed=cfg.seed)
            base = probe(Checkpoint({k: p.value for k, p in init.items()}, 0, model, cfg), sequences, seed=3)
            start = time.monotonic()
            ckpt, reports = pretrain(sequences, cfg, model)
            minutes = (time.monotonic() - start) / 60
            totals = np.array([r.total for r in reports])
            windows = [float(totals[i : i + 50].mean()) for i in range(0, len(totals), 50)]
            trained = probe(ckpt, sequences, seed=3)
            records.append({
                "seed": seed,
                "dtype": args.dtype,
                "margin": round(trained["margin"], 4),
                "untrained_margin": round(base["margin"], 4),
                "windows": [round(w, 3) for w in windows],
                "monotone": all(b < a for a, b in zip(windows, windows[1:])),
                "closure": round(float((totals[-1] - totals[0]) / (-3.0 - totals[0])), 4),
                "minutes": round(minutes, 2),
            })
            print(json.dumps(records[-1]), flush=True)
    print(json.dumps(summarize(records)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
