"""Replay acceptance criterion P7 at other training seeds, dtypes and BLAS thread counts.

    python3 tools/p7_seeds.py                          # seed 0, float32, default threads
    python3 tools/p7_seeds.py --seeds 0 1 2 --dtype float64 --threads 1

The toy dataset, the training and model configurations and the probe seed are
those of ``tests/test_acceptance.py`` (imported from it, not copied); only
``TrainConfig.seed`` and ``dtype`` change. The dataset is generated once into a
temporary directory. Each seed prints one JSON line: the trained and untrained
probe margins, the ten 50-step window means of the total loss, whether they
fall monotonically, the gap closure towards -3, and the training minutes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
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
    ap.add_argument("--threads", type=int, default=None, help="BLAS threads (default: the library's own choice)")
    args = ap.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        ap.error("--threads must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.threads is not None:
        # read by the BLAS library when NumPy is first imported, so set before any import of it
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    import test_acceptance as p7
    from seqcontrast.nets import build_parameters
    from seqcontrast.trainer import Checkpoint, load_dataset, pretrain, probe

    model = p7.toy_model_config()
    with tempfile.TemporaryDirectory() as tmp:
        class Factory:  # the one method of pytest's tmp_path_factory the fixture calls
            @staticmethod
            def mktemp(name):
                path = Path(tmp) / name
                path.mkdir()
                return path

        out, _, _ = inspect.unwrap(p7.toy_dataset)(Factory())
        sequences = load_dataset(out)
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
            print(json.dumps({
                "seed": seed,
                "dtype": args.dtype,
                "threads": args.threads,
                "margin": round(trained["margin"], 4),
                "untrained_margin": round(base["margin"], 4),
                "windows": [round(w, 3) for w in windows],
                "monotone": all(b < a for a, b in zip(windows, windows[1:])),
                "closure": round(float((totals[-1] - totals[0]) / (-3.0 - totals[0])), 4),
                "minutes": round(minutes, 2),
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
