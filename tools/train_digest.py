"""Digest what a short `pretrain` run gives, at each process count.

    python3 tools/train_digest.py                    # 4 steps at seed 1, float32 and float64, 1 and 2 processes
    python3 tools/train_digest.py --steps 8 --seed 0 --processes 1 2 3

The toy dataset and the training and model configurations are P7's, those of
``tests/test_acceptance.py`` (made as ``tools/p7_seeds.py`` makes them); only
``steps``, ``seed`` and ``dtype`` change, and momentum is 0.9 so that the
momentum buffers are digested too. Each dtype prints one JSON line: per
process count, the sha256 over the sorted names and bytes of the weights,
then of the momentum buffers, then the loss reports. A change that must keep
training bit for bit prints the same lines before and after, and the process
counts agree on every line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MOMENTUM = 0.9


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1, help="TrainConfig.seed")
    ap.add_argument("--dtypes", nargs="+", choices=("float32", "float64"), default=["float32", "float64"])
    ap.add_argument("--processes", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    if args.steps < 1 or min(args.processes) < 1:
        ap.error("--steps and --processes must be at least 1")
    return args


def digest(ckpt, reports) -> str:
    """sha256 over the sorted names and bytes of the weights, then of the
    momentum buffers, then the reports' loss terms."""
    h = hashlib.sha256()
    for arrays in (ckpt.tensors, ckpt.velocity):
        for k in sorted(arrays):
            h.update(k.encode() + arrays[k].tobytes())
    h.update(repr([(r.l_3d, r.l_3d4d, r.l_4d, r.total) for r in reports]).encode())
    return h.hexdigest()


def digests(sequences, model, cfg, processes) -> dict[str, str]:
    """`digest` of ``pretrain(sequences, cfg, model)`` at each process count."""
    from seqcontrast import trainer

    chosen = trainer._process_count
    out = {}
    try:
        for n in processes:
            trainer._process_count = lambda cfg, steps, n=n: n
            out[str(n)] = digest(*trainer.pretrain(sequences, cfg, model))
    finally:
        trainer._process_count = chosen
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "tools")]
    import p7_seeds
    import test_acceptance as p7

    model = p7.toy_model_config()
    with tempfile.TemporaryDirectory() as tmp:
        sequences = p7_seeds.toy_sequences(tmp)
        for dtype in args.dtypes:
            cfg = replace(p7.toy_train_config(), steps=args.steps, seed=args.seed, dtype=dtype, momentum=MOMENTUM)
            record = {"dtype": dtype, "steps": args.steps, "seed": args.seed}
            record["sha256"] = digests(sequences, model, cfg, args.processes)
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
