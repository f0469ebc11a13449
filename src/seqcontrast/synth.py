"""Procedural rooms and primitive objects for self-contained experiments.

Rooms are axis-aligned: a flat floor at z=0, four walls, and a little clutter
pushed toward the walls so the center stays traversable. Objects are small
rigid primitives in a canonical frame (base on z=0, footprint centered on the
origin) so placement is a yaw rotation plus a translation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geom import PointCloud

OBJECT_KINDS = ("box", "cylinder", "lshape", "torus")
CLUTTER_MARGIN = 0.35  # m, clutter stays this far from the ends of its wall


def _jittered_grid(rng, nx, ny, sx, sy, jitter):
    xs = (np.arange(nx) + 0.5) * sx
    ys = (np.arange(ny) + 0.5) * sy
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts += rng.uniform(-jitter, jitter, size=pts.shape)
    return pts


def _surface_points(rng, width, height, spacing):
    """Jittered grid over a width x height rectangle, local 2D coordinates."""
    nx = max(2, int(round(width / spacing)))
    ny = max(2, int(round(height / spacing)))
    return _jittered_grid(rng, nx, ny, width / nx, height / ny, 0.3 * spacing)


def make_room(
    rng: np.random.Generator,
    size: float | None = None,
    wall_height: float = 1.2,
    spacing: float = 0.05,
    n_clutter: int | None = None,
) -> PointCloud:
    """One rectangular room with floor, walls, and wall-adjacent clutter."""
    if size is not None and not (np.isfinite(size) and size >= 2 * CLUTTER_MARGIN):
        raise ConfigError(f"room size must be finite and at least {2 * CLUTTER_MARGIN} m, got {size}")
    if not (np.isfinite(wall_height) and wall_height > 0 and np.isfinite(spacing) and spacing > 0):
        raise ConfigError(f"wall_height and spacing must be finite and positive, got {wall_height} and {spacing}")
    if size is None:
        size = rng.uniform(3.0, 4.0)
    w = d = float(size)

    chunks = []
    floor = _surface_points(rng, w, d, spacing)
    chunks.append(np.column_stack([floor, np.zeros(len(floor))]))

    for axis, fixed in ((0, 0.0), (0, w), (1, 0.0), (1, d)):
        wall = _surface_points(rng, w if axis == 1 else d, wall_height, spacing)
        pts = np.empty((len(wall), 3))
        pts[:, axis] = fixed
        pts[:, 1 - axis] = wall[:, 0]
        pts[:, 2] = wall[:, 1]
        chunks.append(pts)

    if n_clutter is None:
        n_clutter = int(rng.integers(1, 4))
    for _ in range(n_clutter):
        side = int(rng.integers(0, 4))
        along = rng.uniform(CLUTTER_MARGIN, (w if side < 2 else d) - CLUTTER_MARGIN)
        depth_off = rng.uniform(0.15, CLUTTER_MARGIN)
        if side == 0:
            cx, cy = along, depth_off
        elif side == 1:
            cx, cy = along, d - depth_off
        elif side == 2:
            cx, cy = depth_off, along
        else:
            cx, cy = w - depth_off, along
        obj = make_object(rng, kind=OBJECT_KINDS[int(rng.integers(0, 2))], n_points=120, scale=rng.uniform(0.25, 0.45))
        chunks.append(obj.points + np.array([cx, cy, 0.0]))

    pts = np.concatenate(chunks, axis=0) - np.array([w / 2, d / 2, 0.0])
    return PointCloud(pts)


def _sample_box(rng, n, sx, sy, sz):
    # sample the 5 visible faces (no bottom), area-weighted
    faces = [
        (sx * sy, lambda u, v: np.column_stack([u * sx, v * sy, np.full(len(u), sz)])),
        (sx * sz, lambda u, v: np.column_stack([u * sx, np.zeros(len(u)), v * sz])),
        (sx * sz, lambda u, v: np.column_stack([u * sx, np.full(len(u), sy), v * sz])),
        (sy * sz, lambda u, v: np.column_stack([np.zeros(len(u)), u * sy, v * sz])),
        (sy * sz, lambda u, v: np.column_stack([np.full(len(u), sx), u * sy, v * sz])),
    ]
    areas = np.array([f[0] for f in faces])
    counts = rng.multinomial(n, areas / areas.sum())
    pts = [f[1](rng.uniform(0, 1, c), rng.uniform(0, 1, c)) for f, c in zip(faces, counts) if c > 0]
    out = np.concatenate(pts, axis=0)
    out[:, 0] -= sx / 2
    out[:, 1] -= sy / 2
    return out


def _sample_cylinder(rng, n, radius, height):
    n_side = int(0.75 * n)
    theta = rng.uniform(0, 2 * np.pi, n_side)
    z = rng.uniform(0, height, n_side)
    side = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    n_top = n - n_side
    r = radius * np.sqrt(rng.uniform(0, 1, n_top))
    theta = rng.uniform(0, 2 * np.pi, n_top)
    top = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.full(n_top, height)])
    return np.concatenate([side, top], axis=0)


def _sample_torus(rng, n, major, minor):
    u = rng.uniform(0, 2 * np.pi, n)
    v = rng.uniform(0, 2 * np.pi, n)
    x = (major + minor * np.cos(v)) * np.cos(u)
    y = (major + minor * np.cos(v)) * np.sin(u)
    z = minor * np.sin(v) + minor  # rest on the floor
    return np.column_stack([x, y, z])


def make_object(
    rng: np.random.Generator,
    kind: str | None = None,
    n_points: int = 800,
    scale: float | None = None,
) -> PointCloud:
    """A primitive object in canonical pose: base at z=0, footprint at origin."""
    if n_points < 2:
        raise ConfigError(f"an object needs at least 2 points, got {n_points}")
    if kind is None:
        kind = OBJECT_KINDS[int(rng.integers(0, len(OBJECT_KINDS)))]
    if scale is None:
        scale = rng.uniform(0.3, 0.55)
    s = float(scale)
    if kind == "box":
        pts = _sample_box(rng, n_points, s, rng.uniform(0.6, 1.0) * s, rng.uniform(0.8, 1.4) * s)
    elif kind == "cylinder":
        pts = _sample_cylinder(rng, n_points, 0.5 * s, rng.uniform(0.8, 1.4) * s)
    elif kind == "lshape":
        n1 = n_points // 2
        a = _sample_box(rng, n1, s, 0.5 * s, 0.5 * s)
        b = _sample_box(rng, n_points - n1, 0.5 * s, 0.5 * s, s)
        b[:, 0] -= 0.25 * s
        b[:, 1] += 0.5 * s
        pts = np.concatenate([a, b], axis=0)
    elif kind == "torus":
        pts = _sample_torus(rng, n_points, 0.35 * s, 0.15 * s)
    else:
        raise ValueError(f"unknown object kind {kind!r}")
    pts[:, :2] -= pts[:, :2].mean(axis=0)  # center footprint
    return PointCloud(pts)


def object_footprint_radius(obj: PointCloud) -> float:
    """Radius of the bounding circle of the object footprint in the xy plane."""
    return float(np.max(np.linalg.norm(obj.points[:, :2], axis=1)))
