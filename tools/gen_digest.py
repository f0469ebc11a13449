"""Digest every file `generate_dataset` writes, at each worker count.

    python3 tools/gen_digest.py                                # seed 1: 8 rooms, 4 objects
    python3 tools/gen_digest.py --seeds 1 2 3 7 11 --workers 1 2

Rooms and objects are made at the `synth` defaults and seeded as the `synth`
command seeds them: room i from (seed, 0, i), object j from (seed, 1, j).
`generate_dataset` then writes ``--per-scene`` sequences per room at the
`GenParams` defaults with generation seed ``seed``, once per worker count,
each into its own temporary directory. Each seed prints one JSON line: the
number of files written and, per worker count, the sha256 over their sorted
names and contents. A change that must keep generation byte for byte prints
the same line before and after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--rooms", type=int, default=8)
    ap.add_argument("--objects", type=int, default=4)
    ap.add_argument("--per-scene", type=int, default=1)
    ap.add_argument("--room-size", type=float, default=None, help="default: make_room's random 3-4 m")
    ap.add_argument("--spacing", type=float, default=0.05)
    args = ap.parse_args(argv)
    if min(args.workers) < 1 or args.rooms < 1 or args.objects < 1 or args.per_scene < 1:
        ap.error("--workers, --rooms, --objects and --per-scene must be at least 1")
    return args


def digest_dir(path: Path) -> tuple[int, str]:
    """The number of files in ``path`` and the sha256 over their sorted names
    and contents."""
    digest = hashlib.sha256()
    files = sorted(path.iterdir())
    for file in files:
        digest.update(file.name.encode())
        digest.update(file.read_bytes())
    return len(files), digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from seqcontrast import synth
    from seqcontrast.seqgen import generate_dataset

    def rng(*parts):
        return np.random.default_rng(np.random.SeedSequence(parts))

    for seed in args.seeds:
        rooms = [synth.make_room(rng(seed, 0, i), size=args.room_size, spacing=args.spacing) for i in range(args.rooms)]
        objects = [synth.make_object(rng(seed, 1, j)) for j in range(args.objects)]
        record = {"seed": seed, "files": None, "sha256": {}}
        for workers in args.workers:
            with tempfile.TemporaryDirectory() as tmp:
                generate_dataset(rooms, objects, tmp, per_scene=args.per_scene, seed=seed, workers=workers)
                record["files"], record["sha256"][str(workers)] = digest_dir(Path(tmp))
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
