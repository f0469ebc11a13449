"""Correctness oracles of the benchmark, independent of the program's code paths.

- `conv_errors`: brute-force sparse convolution that looks up every
  neighbour in a dict of coordinates, in float64.
- `finite_difference_errors`: central differences of a scalar loss, for
  comparison with reverse-mode gradients.
- `generated_file_errors`: parses a ".4dc" sequence file and its sidecar with
  its own reader and recomputes the generation rules and provenance matches.

Each returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from pathlib import Path

import numpy as np

# float32 accumulation of n products errs by at most about n * 2**-24 of the
# sum of their magnitudes; convs here have n <= 81 * 16, so 1e-4 covers it,
# while one missing neighbour moves a row by a whole term of that sum.
CONV_RTOL = 1e-4
CONV_ATOL = 1e-6

FD_STEP = 1e-6
FD_RTOL = 1e-4
# Central differences at h = 1e-6 in float64 carry ~1e-10 of roundoff;
# differences below this floor are noise, not gradient error.
FD_NOISE_FLOOR = 1e-7

# Generation rules, as the method defines them.
MIN_RETENTION = 0.5
MIN_CONSISTENT = 0.3
STEP_MIN, STEP_MAX = 0.30, 0.90      # m
TURN_LIMIT_DEG = 150.0
OBJECT_ID_OFFSET = 1 << 31
# sidecar waypoints carry six decimals; poses and points are float32
WAYPOINT_TOL = 1e-5
POSE_TOL = 1e-5
CANONICAL_TOL = 1e-5


# ---------------------------------------------------------------------------
# Sparse convolution


def kernel_offsets(dim: int, ksize: int) -> list[tuple[int, ...]]:
    """Offsets in lexicographic order, first axis slowest: centred for odd
    sizes (-1, 0, 1), forward for size 2 (0, 1)."""
    r = range(-(ksize // 2), ksize // 2 + 1) if ksize % 2 else range(ksize)
    return list(itertools.product(r, repeat=dim))


def _floor_to(v: int, step: int) -> int:
    return (v // step) * step


def conv_reference(kind: str, x_coords, x_feats, weight, x_stride, out_coords) -> np.ndarray:
    """Expected output rows of a sparse conv, by neighbour lookup in a dict.

    ``kind`` is "sub" (stride 1, output coords = input coords), "down"
    (stride 2, kernel 2: out[o] = sum_k x[o + k*s] W[k]) or "up" (the
    transposed conv: out[f] = x[parent(f)] W[k(f)]^T, where parent(f) is f
    floored to twice the input's fine stride s and k(f) = (f - parent) / s).
    Coordinates carry the batch index in column 0.
    """
    x = np.asarray(x_feats, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    index = {c: i for i, c in enumerate(map(tuple, np.asarray(x_coords).tolist()))}
    outs = [tuple(c) for c in np.asarray(out_coords).tolist()]
    dim = len(outs[0]) - 1
    if kind == "up":
        fine = [s // 2 for s in x_stride]
        offs = {o: k for k, o in enumerate(kernel_offsets(dim, 2))}
        ref = np.zeros((len(outs), w.shape[1]))
        for r, f in enumerate(outs):
            parent = (f[0],) + tuple(_floor_to(v, 2 * s) for v, s in zip(f[1:], fine))
            i = index.get(parent)
            if i is not None:
                k = offs[tuple((v - p) // s for v, p, s in zip(f[1:], parent[1:], fine))]
                ref[r] = x[i] @ w[k].T
        return ref
    ksize = 3 if kind == "sub" else 2
    ref = np.zeros((len(outs), w.shape[2]))
    for k, off in enumerate(kernel_offsets(dim, ksize)):
        step = tuple(o * s for o, s in zip(off, x_stride))
        rows, nbrs = [], []
        for r, c in enumerate(outs):
            i = index.get((c[0],) + tuple(v + d for v, d in zip(c[1:], step)))
            if i is not None:
                rows.append(r)
                nbrs.append(i)
        if rows:
            ref[rows] += x[nbrs] @ w[k]
    return ref


def expected_out_coords(kind: str, x_coords, x_stride, target_coords=None) -> set:
    if kind == "sub":
        return set(map(tuple, np.asarray(x_coords).tolist()))
    if kind == "down":
        return {
            (c[0],) + tuple(_floor_to(v, 2 * s) for v, s in zip(c[1:], x_stride))
            for c in np.asarray(x_coords).tolist()
        }
    return set(map(tuple, np.asarray(target_coords).tolist()))


def conv_errors(kind: str, x_coords, x_feats, weight, x_stride, out_coords, out_feats, target_coords=None) -> list[str]:
    """Problems with one conv output, against the brute-force reference."""
    problems = []
    got_coords = set(map(tuple, np.asarray(out_coords).tolist()))
    if len(got_coords) != len(out_coords):
        problems.append("output coordinates repeat")
    if got_coords != expected_out_coords(kind, x_coords, x_stride, target_coords):
        problems.append("output coordinate set differs from the expected one")
        return problems
    ref = conv_reference(kind, x_coords, x_feats, weight, x_stride, out_coords)
    bound = conv_reference(kind, x_coords, np.abs(x_feats), np.abs(weight), x_stride, out_coords)
    err = np.abs(np.asarray(out_feats, dtype=np.float64) - ref)
    bad = err > CONV_RTOL * bound + CONV_ATOL
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        problems.append(f"{int(bad.any(axis=1).sum())} of {len(ref)} rows differ, first row {r} by {err[r].max():.3g}")
    return problems


# ---------------------------------------------------------------------------
# Gradients


def relative_error(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    if diff <= FD_NOISE_FLOOR:
        return 0.0
    return diff / max(abs(analytic), abs(numeric), 1e-6)


def finite_difference_errors(loss_at, params: dict[str, np.ndarray], analytic: dict[str, np.ndarray], picks, h: float = FD_STEP) -> list[str]:
    """Compare ``analytic`` with central differences of ``loss_at()``.

    ``params`` are the float64 arrays ``loss_at`` reads, perturbed in place
    one component at a time; ``picks`` lists (name, flat index). A component
    that disagrees is measured again at h/10: a difference that straddles a
    ReLU kink converges there, a wrong gradient does not.
    """

    def central(flat, idx, step):
        orig = flat[idx]
        flat[idx] = orig + step
        up = loss_at()
        flat[idx] = orig - step
        down = loss_at()
        flat[idx] = orig
        return (up - down) / (2 * step)

    problems = []
    for name, idx in picks:
        flat = params[name].reshape(-1)
        a = float(analytic[name].reshape(-1)[idx])
        rel = relative_error(a, central(flat, idx, h))
        if rel > FD_RTOL:
            rel = min(rel, relative_error(a, central(flat, idx, h / 10)))
        if rel > FD_RTOL:
            problems.append(f"{name}[{idx}]: analytic {a:.6g} vs finite difference, relative error {rel:.2e}")
    return problems


# ---------------------------------------------------------------------------
# Generated sequences


def read_4dc(path: str | Path) -> dict:
    """Parse a "4DC1" sequence file; raises ValueError on a bad CRC or layout."""
    data = Path(path).read_bytes()
    if len(data) < 32 or data[:4] != b"4DC1":
        raise ValueError("bad magic")
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise ValueError("CRC mismatch")
    version, t = struct.unpack_from("<II", data, 4)
    off = 28
    frames = []
    for _ in range(t):
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        pts = np.frombuffer(data, "<f4", 3 * n, off).reshape(n, 3).astype(np.float64)
        off += 12 * n
        prov = np.frombuffer(data, "<u4", n, off).astype(np.int64)
        off += 4 * n
        pose = struct.unpack_from("<10f", data, off)[:5]   # yaw, scale, tx, ty, tz
        off += 40
        frames.append({"points": pts, "provenance": prov, "pose": pose})
    if off != len(data) - 4:
        raise ValueError("trailing bytes")
    return {"version": version, "frames": frames}


def read_sidecar(path: str | Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _turn_deg(a: np.ndarray, b: np.ndarray) -> float:
    d = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
    return abs(math.degrees((d + math.pi) % (2 * math.pi) - math.pi))


def _undo_pose(points: np.ndarray, pose) -> np.ndarray:
    yaw, scale, tx, ty, tz = (float(v) for v in pose)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return (points - np.array([tx, ty, tz])) @ rot / scale


def generated_file_errors(seq_path: str | Path, sidecar_path: str | Path) -> list[str]:
    """Problems with one generated sequence, recomputed from its two files."""
    try:
        seq = read_4dc(seq_path)
    except (ValueError, struct.error) as exc:
        return [f"unreadable: {exc}"]
    side = read_sidecar(sidecar_path)
    frames = seq["frames"]
    problems = []
    if int(side["frames"]) != len(frames):
        problems.append("frame count differs from the sidecar")
    scene_ref, object_ref = int(side["scene_ref_points"]), int(side["object_ref_points"])

    for k, f in enumerate(frames):
        kept = len(f["points"]) / (scene_ref + object_ref)
        if kept < MIN_RETENTION:
            problems.append(f"frame {k} keeps {kept:.3f} of its points")
    common = frames[0]["provenance"]
    for f in frames[1:]:
        common = np.intersect1d(common, f["provenance"])
    n_scene = int((common < OBJECT_ID_OFFSET).sum())
    if n_scene / scene_ref < MIN_CONSISTENT:
        problems.append(f"scene consistency {n_scene / scene_ref:.3f}")
    if (len(common) - n_scene) / object_ref < MIN_CONSISTENT:
        problems.append(f"object consistency {(len(common) - n_scene) / object_ref:.3f}")

    way = np.array([[float(v) for v in w.split(",")] for w in side["waypoints"].split(";")])
    steps = np.diff(way[:, :2], axis=0)
    for k, d in enumerate(np.hypot(steps[:, 0], steps[:, 1])):
        if not STEP_MIN - WAYPOINT_TOL <= d <= STEP_MAX + WAYPOINT_TOL:
            problems.append(f"step {k} is {d:.4f} m")
    for k in range(1, len(steps)):
        if _turn_deg(steps[k - 1], steps[k]) >= TURN_LIMIT_DEG + 1e-3:
            problems.append(f"turn {k} is {_turn_deg(steps[k - 1], steps[k]):.2f} deg")
    for k, f in enumerate(frames):
        yaw, _, tx, ty, _ = f["pose"]
        heading_gap = (yaw - way[k, 2] + math.pi) % (2 * math.pi) - math.pi
        if max(abs(tx - way[k, 0]), abs(ty - way[k, 1]), abs(heading_gap)) > POSE_TOL:
            problems.append(f"frame {k} object pose is not at its waypoint")

    # provenance: a scene id names one canonical point, an object id one
    # object point whose canonical position is the frame point with the pose undone
    ref_scene: dict[int, np.ndarray] = {}
    ref_obj: dict[int, np.ndarray] = {}
    for k, f in enumerate(frames):
        prov, pts = f["provenance"], f["points"]
        is_obj = prov >= OBJECT_ID_OFFSET
        canon = _undo_pose(pts[is_obj], f["pose"])
        for ids, values, ref, exact in ((prov[~is_obj], pts[~is_obj], ref_scene, True),
                                        (prov[is_obj], canon, ref_obj, False)):
            known = np.array([i in ref for i in ids.tolist()], dtype=bool)
            if known.any():
                expect = np.array([ref[i] for i in ids[known].tolist()])
                gap = np.abs(values[known] - expect).max()
                if (exact and gap != 0.0) or gap > CANONICAL_TOL:
                    what = "scene" if exact else "object"
                    problems.append(f"frame {k}: {what} points with one provenance differ by {gap:.3g}")
            for i, v in zip(ids[~known].tolist(), values[~known]):
                ref[i] = v
    return problems
