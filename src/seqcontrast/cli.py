"""Command-line surface: synth, gen, pretrain, gradcheck, probe, export, inspect.

Exit codes: 0 success, 2 usage error, 3 data error (also `gen` writing fewer
sequences than requested, a path that cannot be read or written, and a
training worker that stopped), 4 numerical-check failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import synth
from .config import RunConfig, dump_config, load_config
from .errors import ConfigError, DataFormatError, EmptyInputError, SeqContrastError
from .formats import read_point_cloud, write_ply, write_xyz
from .gradcheck import run_gradcheck
from .seqgen import build_correspondences, generate_dataset, read_sequence
from .trainer import (
    export_backbone,
    load_checkpoint,
    load_dataset,
    pretrain,
    probe,
    projection_features,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

log = logging.getLogger("seqcontrast")


def _load_run_config(args, **flags) -> RunConfig:
    """--config, then the --set overrides, then the given flags that are set."""
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    overrides |= {key: str(value) for key, value in flags.items() if value is not None}
    return load_config(getattr(args, "config", None), overrides)


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.rooms):
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0, i)))
        room = synth.make_room(rng, size=args.room_size, wall_height=args.wall_height, spacing=args.spacing)
        write_xyz(out / f"room_{i:04d}.xyz", room)
    for j in range(args.objects):
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1, j)))
        obj = synth.make_object(rng, n_points=args.object_points)
        write_xyz(out / f"object_{j:04d}.xyz", obj)
    print(f"synth: wrote {args.rooms} rooms and {args.objects} objects to {out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    cfg = _load_run_config(args, per_scene=args.per_scene, t=args.frames, seed=args.seed)
    scene_paths = sorted(Path(args.scenes).glob("*.xyz")) + sorted(Path(args.scenes).glob("*.ply"))
    object_paths = sorted(Path(args.objects).glob("*.xyz")) + sorted(Path(args.objects).glob("*.ply"))
    if not scene_paths or not object_paths:
        raise EmptyInputError("no scene or object files found")
    scenes = [read_point_cloud(p) for p in scene_paths]
    objects = [read_point_cloud(p) for p in object_paths]
    stats = generate_dataset(scenes, objects, args.out, seed=cfg.train.seed, workers=args.workers, params=cfg.gen)
    dump_config(cfg, Path(args.out) / "effective_config.txt")
    print(f"gen: wrote {stats['written']} sequences, rejected {stats['rejected']}, skipped {stats['skipped']}")
    requested = len(scenes) * cfg.gen.per_scene
    if stats["written"] < requested:
        print(
            f"gen: wrote {stats['written']} of {requested} requested; {stats['rejected']} trajectories gave up; "
            f"{stats['skipped']} skipped in scenes with no valid floor position",
            file=sys.stderr,
        )
        return EXIT_DATA
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_run_config(args)
    sequences = load_dataset(args.data)
    log_path = args.log or (str(args.out) + ".log")
    ckpt, reports = pretrain(sequences, cfg.train, cfg.model, log_path=log_path)
    save_checkpoint(args.out, ckpt)
    dump_config(cfg, str(args.out) + ".config.txt")
    final = f", final total loss {reports[-1].total:.6f}" if reports else ""
    print(f"pretrain: {len(reports)} steps{final}, checkpoint {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(seed=args.seed, n_seeds=args.seeds, tolerance=args.tolerance)
    print(
        f"gradcheck: {report['checked']} components checked, "
        f"worst relative error {report['worst']:.3e} (tolerance {report['tolerance']:.1e})"
    )
    if report["failures"]:
        for term, seed, name, a, n, rel in report["failures"][:10]:
            print(f"  FAIL {term} seed={seed} {name}: analytic={a:.6e} numeric={n:.6e} rel={rel:.3e}")
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_probe(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    sequences = load_dataset(args.data)
    result = probe(ckpt, sequences, seed=args.seed)
    print(
        f"probe: corresponding={result['corresponding']:.4f} random={result['random']:.4f} "
        f"margin={result['margin']:.4f} pairs={result['pairs']}"
    )
    return EXIT_OK


def _provenance_colors(prov: np.ndarray) -> np.ndarray:
    # hash ids into stable pseudo-random colors
    h = (prov * 2654435761) % (2**32)
    colors = np.stack([(h >> 16) & 255, (h >> 8) & 255, h & 255], axis=1)
    return colors.astype(np.int64)


def cmd_export(args) -> int:
    if args.backbone:
        if not args.ckpt:
            raise ConfigError("export --backbone needs --ckpt")
        ckpt = load_checkpoint(args.ckpt)
        save_checkpoint(args.backbone, export_backbone(ckpt))
        print(f"export: 3D backbone written to {args.backbone}")
        return EXIT_OK
    if not args.seq:
        raise ConfigError("export needs --seq (frames) or --ckpt with --backbone")
    seq = read_sequence(args.seq)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    feats = None
    if args.ckpt:
        feats = projection_features([frame.static_view().points for frame in seq.frames], load_checkpoint(args.ckpt))
    for i, frame in enumerate(seq.frames):
        colors = _provenance_colors(frame.cloud.provenance)
        write_ply(out / f"frame_{i:02d}.ply", frame.cloud, colors)
        if feats is not None:
            with open(out / f"frame_{i:02d}_features.csv", "w") as f:
                for p, row in zip(frame.cloud.points, feats[i]):
                    f.write(",".join(f"{v:.6f}" for v in (*p, *row)) + "\n")
    print(f"export: wrote {len(seq.frames)} frames to {out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    seq = read_sequence(args.seq)
    corr = build_correspondences(seq)
    print(f"frames: {len(seq.frames)}")
    print(f"scene_id: {seq.scene_id}  object_id: {seq.object_id}")
    for i, frame in enumerate(seq.frames):
        n_obj = int(frame.is_object().sum())
        print(
            f"frame {i}: points={len(frame.cloud)} scene={len(frame.cloud) - n_obj} object={n_obj} "
            f"static_aug_yaw={frame.static_aug.yaw:.4f} scale={frame.static_aug.scale:.4f}"
        )
    for (i, j), (ia, _) in sorted(corr.items()):
        print(f"correspondences {i}-{j}: {len(ia)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqcontrast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate procedural rooms and objects")
    p.add_argument("--rooms", type=int, required=True)
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--room-size", type=float, default=None)
    p.add_argument("--wall-height", type=float, default=1.2)
    p.add_argument("--spacing", type=float, default=0.05)
    p.add_argument("--object-points", type=int, default=800)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gen", help="generate a sequence dataset")
    p.add_argument("--scenes", required=True)
    p.add_argument("--objects", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-scene", type=int, default=None, help="default: the per_scene key")
    p.add_argument("--frames", type=int, default=None, help="default: the t key")
    p.add_argument("--seed", type=int, default=None, help="default: the seed key")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pretrain", help="run contrastive pre-training")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("probe", help="correspondence-similarity probe of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("export", help="export sequence frames or the 3D backbone")
    p.add_argument("--seq", default=None)
    p.add_argument("--out", default="export")
    p.add_argument("--ckpt", default=None, help="with --seq: also write per-point projection-head features")
    p.add_argument("--backbone", default=None, help="write a backbone-only (3D U-Net) checkpoint here")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("inspect", help="summarize a sequence file")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, EmptyInputError, OSError, ConfigError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SeqContrastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
