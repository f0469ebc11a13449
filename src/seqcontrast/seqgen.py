"""Moving-object sequence generation with exact point correspondences.

A sequence composites a rigid object, traveling along a sampled floor
trajectory, into a static scene. Every point carries a provenance id naming
its canonical source point, so correspondences between any two frames are
exact by construction.

Every frame of a sequence holds the canonical scene in its first rows, so
`make_sequence` finds those rows, sorted by x, and the constants
`augment_scene` reads from them (`SceneRows`) once per sequence. A frame's
scene augmentation draws its chunks as one block of uniforms and tests each
chunk only on the x window of rows that can lie inside it; both give the
draws and the rows kept of one `uniform` call per value and a scan of every
row. Most attempts fail validation; once an attempt's frames so far fail a
test that more frames cannot pass, its remaining frames only make their
random draws, so the written bytes and the generator state stay those of
building every frame.
"""

from __future__ import annotations

import logging
import struct
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, EmptyInputError, TrajectoryFailure
from .formats import finite_points, seal, unseal, write_sidecar
from .geom import (
    FLOOR_BAND,
    MAP_CELL,
    OBJECT_ID_OFFSET,
    OccupancyMap2D,
    PointCloud,
    SimilarityTransform,
    apply_transform,
    height_accumulate,
    unique_rows,
    voxel_indices,
)
from .synth import object_footprint_radius

log = logging.getLogger(__name__)

SEQUENCE_MAGIC = b"4DC1"
SEQUENCE_VERSION = 1

STEP_MIN = 0.30            # m
STEP_MAX = 0.90            # m
TURN_LIMIT = np.deg2rad(150.0)
STEP_RETRIES = 64
SEQUENCE_ATTEMPTS = 40     # full-sequence rejection budget
START_ATTEMPTS = 32        # trajectory restarts per attempt

OBJECT_SAMPLE_POINTS = 1000
SCENE_SAMPLE_CELL = 0.02   # m, canonical scene sampling resolution

CHUNKS_MIN, CHUNKS_MAX = 5, 15
CHUNK_FRACTION_MIN, CHUNK_FRACTION_MAX = 0.15, 0.45
SCENE_KEEP_PROB = 0.95     # per-frame random scene resampling

MIN_CONSISTENT = 0.30      # scene and object consistency thresholds
MIN_RETENTION = 0.50       # per-frame point retention through augmentation

STATIC_AUG_TRANSLATION = 0.20   # m per axis
STATIC_AUG_SCALE = (0.8, 1.2)


@dataclass(frozen=True)
class Trajectory:
    """Ordered floor waypoints; heading is the direction of the incoming step."""

    positions: np.ndarray  # (t, 2) meters
    headings: np.ndarray   # (t,) radians

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class SequenceFrame:
    cloud: PointCloud                 # scene + object points, provenance-tagged
    object_pose: SimilarityTransform  # canonical object -> this frame
    static_aug: SimilarityTransform   # applied only to the 3D-branch view

    def static_view(self) -> PointCloud:
        """The augmented static interpretation used by the 3D branch."""
        return apply_transform(self.cloud, self.static_aug)

    def is_object(self) -> np.ndarray:
        return self.cloud.provenance >= OBJECT_ID_OFFSET


@dataclass(frozen=True)
class Sequence:
    frames: list[SequenceFrame]
    scene_id: int
    object_id: int
    trajectory: Trajectory | None = None
    scene_ref_points: int = 0   # canonical scene sample size
    object_ref_points: int = 0  # per-frame object sample size

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# Placement and trajectories


def valid_positions(occ: OccupancyMap2D, object_radius: float) -> np.ndarray:
    """Cells where the object's footprint disc fits on traversable floor, as
    an (N, 2) int64 array in lexicographic order.

    A cell is traversable when its column holds at most one occupied voxel
    whose top stays within the floor band; a candidate additionally requires
    every cell center within ``object_radius`` to be traversable.
    """
    if not len(occ.cells):
        raise EmptyInputError("occupancy map has no cells")
    if object_radius < 0:
        raise ValueError("object_radius must be non-negative")
    cells = occ.cells[(occ.counts <= 1) & (occ.top <= occ.floor_height + FLOOR_BAND)]  # traversable
    if not len(cells):
        return np.empty((0, 2), dtype=np.int64)
    r_cells = int(np.floor(object_radius / MAP_CELL))
    dx, dy = np.mgrid[-r_cells:r_cells + 1, -r_cells:r_cells + 1]
    disc = np.hypot(dx, dy) * MAP_CELL <= object_radius
    # Erode the traversable grid by the footprint disc: a cell survives when
    # every offset in the disc lands on a traversable cell.
    lo = cells.min(axis=0) - r_cells
    size = cells.max(axis=0) - lo + r_cells + 1
    grid = np.zeros(size, dtype=bool)
    grid[tuple((cells - lo).T)] = True
    w, h = size - 2 * r_cells
    fits = grid[r_cells:r_cells + w, r_cells:r_cells + h].copy()
    for ox, oy in zip(dx[disc] + r_cells, dy[disc] + r_cells):
        fits &= grid[ox:ox + w, oy:oy + h]
    return np.argwhere(fits) + lo + r_cells


def _wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2 * np.pi) - np.pi)


def sample_trajectory(cells: np.ndarray, t: int, rng: np.random.Generator) -> Trajectory:
    """Random walk over candidate cells with bounded step length and turn.

    ``cells`` is the (N, 2) array of `valid_positions`; the start is drawn
    by row index, so the row order is part of the draw. Each step samples a
    distance in [STEP_MIN, STEP_MAX] and a direction turning less than
    TURN_LIMIT from the previous heading (the first step is unconstrained in
    direction), snaps to the nearest candidate, and re-checks the realized
    step against both bounds.
    """
    if not len(cells):
        raise ValueError("cells must be nonempty")
    if t < 1:
        raise ValueError("t must be >= 1")

    centers = (cells + 0.5) * MAP_CELL

    start = int(rng.integers(0, len(cells)))
    positions = [centers[start]]
    headings: list[float] = []

    for step in range(1, t):
        prev = positions[-1]
        prev_heading = headings[-1] if headings else None
        placed = False
        for _ in range(STEP_RETRIES):
            dist = rng.uniform(STEP_MIN, STEP_MAX)
            if prev_heading is None:
                direction = rng.uniform(0.0, 2 * np.pi)
            else:
                direction = prev_heading + rng.uniform(-TURN_LIMIT, TURN_LIMIT)
            target = prev + dist * np.array([np.cos(direction), np.sin(direction)])
            d2 = np.sum((centers - target) ** 2, axis=1)
            snapped = centers[int(np.argmin(d2))]
            realized = snapped - prev
            realized_dist = float(np.hypot(*realized))
            if not (STEP_MIN <= realized_dist <= STEP_MAX):
                continue
            realized_heading = float(np.arctan2(realized[1], realized[0]))
            if prev_heading is not None and abs(_wrap_angle(realized_heading - prev_heading)) >= TURN_LIMIT:
                continue
            positions.append(snapped)
            headings.append(realized_heading)
            placed = True
            break
        if not placed:
            raise TrajectoryFailure(f"no valid step found at waypoint {step} after {STEP_RETRIES} retries")

    if not headings:  # t == 1
        headings = [0.0]
    else:
        headings = [headings[0]] + headings  # first waypoint faces the first step
    return Trajectory(np.array(positions), np.array(headings))


def trajectory_violations(traj: Trajectory, cells: np.ndarray) -> list[str]:
    """Independent validator; returns a description of each violated constraint."""
    problems = []
    for k, pos in enumerate(traj.positions):
        cell = np.floor(pos / MAP_CELL).astype(np.int64)
        if not np.any(np.all(cells == cell, axis=1)):
            problems.append(f"waypoint {k} at invalid cell {tuple(cell.tolist())}")
    steps = np.diff(traj.positions, axis=0)
    dists = np.hypot(steps[:, 0], steps[:, 1])
    for k, d in enumerate(dists):
        if not (STEP_MIN - 1e-12 <= d <= STEP_MAX + 1e-12):
            problems.append(f"step {k} distance {d:.3f} out of bounds")
    dirs = np.arctan2(steps[:, 1], steps[:, 0])
    for k in range(1, len(dirs)):
        turn = abs(_wrap_angle(float(dirs[k] - dirs[k - 1])))
        if turn >= TURN_LIMIT:
            problems.append(f"turn at step {k} is {np.rad2deg(turn):.1f} deg")
    return problems


# ---------------------------------------------------------------------------
# Frame composition and augmentation


def sample_scene_canonical(scene: PointCloud, rng: np.random.Generator, cell: float = SCENE_SAMPLE_CELL) -> PointCloud:
    """One representative raw point per ``cell`` voxel, fixed for the sequence.

    The representatives are the canonical scene points of the sequence; their
    provenance ids are indices into this canonical set.
    """
    idx = voxel_indices(scene.points, cell)
    order = rng.permutation(len(scene))
    _, first = unique_rows(idx[order])
    chosen = np.sort(order[first])
    return PointCloud(scene.points[chosen], np.arange(len(chosen), dtype=np.int64))


def _object_pick(n_points: int, object_sample: int, rng: np.random.Generator) -> np.ndarray:
    """`compose_frame`'s one draw: at most ``object_sample`` of ``n_points``
    object rows, uniformly without replacement, in ascending order."""
    return np.sort(rng.choice(n_points, size=min(object_sample, n_points), replace=False))


def compose_frame(
    scene: PointCloud,
    obj: PointCloud,
    waypoint: tuple[np.ndarray, float],
    rng: np.random.Generator,
    floor_height: float = 0.0,
    object_sample: int = OBJECT_SAMPLE_POINTS,
) -> SequenceFrame:
    """Place the object at a waypoint and composite it with the scene sample.

    ``scene`` must already be the canonical (voxel-sampled, provenance-tagged)
    scene. The object is rotated to its heading about the up axis, its base
    put on the floor, and at most ``object_sample`` of its points are used
    (uniformly, without replacement; never upsampled).
    """
    if len(scene) == 0 or len(obj) == 0:
        raise EmptyInputError("scene and object must be nonempty")
    pos, heading = waypoint
    pose = SimilarityTransform.from_yaw(float(heading), (float(pos[0]), float(pos[1]), floor_height))

    pick = _object_pick(len(obj), object_sample, rng)
    obj_pts = pose.apply(obj.points[pick])
    obj_prov = pick.astype(np.int64) + OBJECT_ID_OFFSET

    pts = np.concatenate([scene.points, obj_pts], axis=0)
    prov = np.concatenate([scene.provenance, obj_prov])
    return SequenceFrame(PointCloud(pts, prov), pose, SimilarityTransform.identity())


@dataclass(frozen=True)
class SceneRows:
    """A frame's background scene rows, sorted by x, and the constants
    `augment_scene` reads from them.

    Every frame `make_sequence` builds holds the canonical scene in its first
    rows, so one `SceneRows` made from its first frame serves every frame of
    every attempt. ``cols[:, i]`` holds the coordinates of frame row
    ``rows[order[i]]``; the stable sort by x lets a chunk test only the
    contiguous window of rows whose x can pass.
    """

    rows: np.ndarray   # (N,) indices of the scene rows in the frame
    order: np.ndarray  # (N,) the stable argsort of the scene rows by x
    cols: np.ndarray   # (3, N) their coordinates in x order, one contiguous column per axis
    lo: np.ndarray     # (3,) per-axis bounds of the chunk centres
    hi: np.ndarray
    extent: float      # longest side of the scene's bounding box

    @classmethod
    def of(cls, frame: SequenceFrame) -> "SceneRows":
        rows = np.flatnonzero(~frame.is_object())
        order = np.argsort(frame.cloud.points[rows, 0], kind="stable")
        cols = frame.cloud.points.T.take(rows[order], axis=1)
        # a frame without scene rows draws no chunks, so its infinite bounds place none
        lo, hi = cols.min(axis=1, initial=np.inf), cols.max(axis=1, initial=-np.inf)
        return cls(rows, order, cols, lo, hi, float(np.max(hi - lo)))


def _scene_draws(scene: SceneRows, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`augment_scene`'s draws: one keep uniform per scene row, the chunk
    count, then one (n_chunks, 4) block of uniforms, each chunk's edge
    fraction and centre in turn. Returns the kept mask over the scene rows
    and the (n_chunks,) edges and (n_chunks, 3) centres.

    ``uniform(low, high)`` returns ``low + (high - low) * u`` for the next
    double ``u`` of ``random``, so these are the same doubles, through the
    same arithmetic, as one ``uniform`` call per row, edge and centre.
    """
    kept = rng.random(len(scene.rows)) < SCENE_KEEP_PROB
    n_chunks = int(rng.integers(CHUNKS_MIN, CHUNKS_MAX + 1)) if len(scene.rows) else 0
    u = rng.random((n_chunks, 4))
    edges = (CHUNK_FRACTION_MIN + (CHUNK_FRACTION_MAX - CHUNK_FRACTION_MIN) * u[:, 0]) * scene.extent
    return kept, edges, scene.lo + (scene.hi - scene.lo) * u[:, 1:]


def augment_scene(frame: SequenceFrame, rng: np.random.Generator, scene: SceneRows | None = None) -> SequenceFrame:
    """Per-frame scene variation: random resampling plus cubic chunk removal.

    Only background scene points are candidates for removal; object points
    always survive. ``scene`` is the frame's `SceneRows` when the caller
    already holds them (its frames share their scene rows); without it they
    are found in ``frame``, whatever its row order.

    A chunk removes the scene rows with ``|col - centre| <= edge / 2`` on
    every axis. ``fl(x - c)`` never decreases as x grows, so the rows that
    pass on x are one run of the x-sorted rows: each chunk tests only the
    window that two `searchsorted` calls find, widened by a slack far above
    the rounding error, and the rows it removes map back to frame order once.
    """
    if scene is None:
        scene = SceneRows.of(frame)
    kept, edges, centres = _scene_draws(scene, rng)
    half = edges / 2
    slack = 1e-9 * (np.abs(centres[:, 0]) + half)
    starts = np.searchsorted(scene.cols[0], centres[:, 0] - half - slack, side="left")
    stops = np.searchsorted(scene.cols[0], centres[:, 0] + half + slack, side="right")
    removed = np.zeros(len(scene.rows), dtype=bool)
    for h, c, start, stop in zip(half, centres, starts, stops):
        window = scene.cols[:, start:stop]
        inside = np.abs(window[0] - c[0]) <= h
        inside &= np.abs(window[1] - c[1]) <= h
        inside &= np.abs(window[2] - c[2]) <= h
        removed[start:stop] |= inside
    kept[scene.order[removed]] = False

    keep = np.ones(len(frame.cloud), dtype=bool)
    keep[scene.rows] = kept
    rows = np.flatnonzero(keep)
    cloud = PointCloud(frame.cloud.points.take(rows, axis=0), frame.cloud.provenance.take(rows))
    return replace(frame, cloud=cloud)


def _static_draws(rng: np.random.Generator) -> tuple[float, np.ndarray, float]:
    """`augment_frame_static`'s draws, in order: yaw, translation, scale."""
    yaw = rng.uniform(0.0, 2 * np.pi)
    translation = rng.uniform(-STATIC_AUG_TRANSLATION, STATIC_AUG_TRANSLATION, size=3)
    return yaw, translation, rng.uniform(*STATIC_AUG_SCALE)


def augment_frame_static(frame: SequenceFrame, rng: np.random.Generator) -> SequenceFrame:
    """Record a random similarity transform for the 3D-branch view only.

    The stored cloud (the 4D sequence view) is untouched.
    """
    return replace(frame, static_aug=SimilarityTransform.from_yaw(*_static_draws(rng)))


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)``, without the sort when ``ids`` already increases
    strictly, as a generated frame's provenance does (scene ids, then object
    ids, each ascending)."""
    return ids if np.all(ids[1:] > ids[:-1]) else np.unique(ids)


def validate_sequence(seq: Sequence) -> bool:
    """Check consistency and retention thresholds for a generated sequence.

    Requires that at least MIN_CONSISTENT of canonical scene points and of
    sampled object points appear (by provenance) in every frame, and that
    every frame keeps at least MIN_RETENTION of its pre-augmentation points.
    """
    if seq.scene_ref_points <= 0 or seq.object_ref_points <= 0:
        raise ValueError("sequence lacks canonical reference counts")
    pre_count = seq.scene_ref_points + seq.object_ref_points
    common = None
    for frame in seq.frames:
        if len(frame.cloud) / pre_count < MIN_RETENTION:
            return False
        ids = frame.cloud.provenance
        common = ids if common is None else np.intersect1d(_sorted_unique(common), _sorted_unique(ids), assume_unique=True)
    n_scene = int(np.sum(common < OBJECT_ID_OFFSET))
    n_obj = len(common) - n_scene
    return (
        n_scene / seq.scene_ref_points >= MIN_CONSISTENT
        and n_obj / seq.object_ref_points >= MIN_CONSISTENT
    )


def build_correspondences(seq: Sequence) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Match point indices across every frame pair via shared provenance ids:
    for each pair (i, j), i < j, the indices into frame i and into frame j of
    the points they share."""
    t = len(seq.frames)
    pair_maps = {}
    for i in range(t):
        for j in range(i + 1, t):
            _, ia, ib = np.intersect1d(
                seq.frames[i].cloud.provenance,
                seq.frames[j].cloud.provenance,
                assume_unique=True,
                return_indices=True,
            )
            pair_maps[(i, j)] = (ia, ib)
    return pair_maps


# ---------------------------------------------------------------------------
# Sequence file format ("4DC1")


def sequence_to_bytes(seq: Sequence) -> bytes:
    """Seal the u32 frame count and u64 scene and object ids, then per frame the
    u32 point count, float32 points, u32 provenance ids and the float32 yaw,
    scale and translation of the object pose and of the static augmentation."""
    body = [struct.pack("<IQQ", len(seq.frames), seq.scene_id, seq.object_id)]
    for frame in seq.frames:
        fields = [v for tr in (frame.object_pose, frame.static_aug) for v in (tr.yaw, tr.scale, *tr.translation)]
        body += [struct.pack("<I", len(frame.cloud)), frame.cloud.points.astype("<f4", order="C"),
                 frame.cloud.provenance.astype("<u4"), struct.pack("<10f", *fields)]
    return seal(SEQUENCE_MAGIC, SEQUENCE_VERSION, body)


def write_sequence(path: str | Path, seq: Sequence) -> None:
    Path(path).write_bytes(sequence_to_bytes(seq))


def read_sequence(path: str | Path) -> Sequence:
    """`DataFormatError` at the byte offset of a non-finite point or pose field or a scale <= 0."""
    cur = unseal(path, SEQUENCE_MAGIC, SEQUENCE_VERSION, "sequence")
    t, scene_id, object_id = cur.unpack("<IQQ")
    frames = []
    for _ in range(t):
        (n,) = cur.unpack("<I")
        pts = finite_points(path, cur.array("<f4", 3 * n).reshape(n, 3).astype(np.float64), lambda k: cur.offset - 12 * (n - k))
        prov = cur.array("<u4", n).astype(np.int64)
        fields = cur.unpack("<10f")
        if not (np.isfinite(fields).all() and fields[1] > 0 and fields[6] > 0):
            raise DataFormatError(f"{path}: bad frame pose: need finite fields and scales > 0, got {fields}", cur.offset - 40)
        pose, aug = (SimilarityTransform.from_yaw(f[0], f[2:], f[1]) for f in (fields[:5], fields[5:]))
        frames.append(SequenceFrame(PointCloud(pts, prov), pose, aug))
    cur.close()
    return Sequence(frames, scene_id, object_id)


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass
class GenParams:
    per_scene: int = 20
    t: int = 4
    object_sample: int = OBJECT_SAMPLE_POINTS
    scene_cell: float = SCENE_SAMPLE_CELL

    def __post_init__(self):
        for name in ("per_scene", "t", "object_sample"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.scene_cell < np.inf:
            raise ConfigError(f"scene_cell must be finite and positive, got {self.scene_cell}")


def make_sequence(
    scene: PointCloud,
    obj: PointCloud,
    candidates: np.ndarray,
    floor_height: float,
    rng: np.random.Generator,
    params: GenParams,
    scene_id: int = 0,
    object_id: int = 0,
) -> Sequence:
    """Generate one validated sequence; raises TrajectoryFailure when the
    rejection budget runs out.

    Each attempt samples a trajectory and builds its frames through
    `compose_frame`, `augment_scene` and `augment_frame_static`, then ends in
    one `validate_sequence` call, which alone accepts or rejects it. The
    scene rows of every frame are the canonical scene, so their `SceneRows`
    are found once per sequence. After each frame the attempt checks
    `validate_sequence`'s retention test and, as a running mask over the
    canonical rows, its scene-consistency test. Both can only keep failing
    as frames are added, so once either fails the attempt is lost: each
    remaining frame then makes only its random draws, in the same order, and
    the frames built so far go to `validate_sequence`, which rejects them for
    the reason it would have found on all of them. The bytes written and the
    generator state after each attempt are those of building every frame.
    """
    canonical = sample_scene_canonical(scene, rng, params.scene_cell)
    object_ref = min(params.object_sample, len(obj))
    pre_count = len(canonical) + object_ref
    scene_rows = None

    for _ in range(SEQUENCE_ATTEMPTS):
        traj = None
        for _ in range(START_ATTEMPTS):
            try:
                traj = sample_trajectory(candidates, params.t, rng)
                break
            except TrajectoryFailure:
                continue
        if traj is None:
            raise TrajectoryFailure("no feasible trajectory found")

        frames, lost = [], False
        common = np.ones(len(canonical), dtype=bool)  # canonical rows kept in every frame so far
        for k in range(params.t):
            if lost:  # make the draws that building the frame would make
                _object_pick(len(obj), params.object_sample, rng)
                _scene_draws(scene_rows, rng)
                _static_draws(rng)
                continue
            frame = compose_frame(
                canonical, obj, (traj.positions[k], traj.headings[k]), rng,
                floor_height=floor_height, object_sample=params.object_sample,
            )
            if scene_rows is None:
                scene_rows = SceneRows.of(frame)
            frame = augment_scene(frame, rng, scene_rows)
            frame = augment_frame_static(frame, rng)
            frames.append(frame)
            ids = frame.cloud.provenance
            present = np.zeros(len(canonical), dtype=bool)
            present[ids[ids < OBJECT_ID_OFFSET]] = True
            common &= present
            lost = (
                len(frame.cloud) / pre_count < MIN_RETENTION
                or np.count_nonzero(common) / len(canonical) < MIN_CONSISTENT
            )
        seq = Sequence(
            frames, scene_id, object_id, traj,
            scene_ref_points=len(canonical), object_ref_points=object_ref,
        )
        if validate_sequence(seq):
            return seq
    raise TrajectoryFailure(f"no valid sequence after {SEQUENCE_ATTEMPTS} attempts")


def _generate_one(args):
    scene, objects, scene_idx, traj_idx, seed, params, floor_height, candidates_by_radius = args
    rng = np.random.default_rng(np.random.SeedSequence((seed, scene_idx, traj_idx)))
    obj_idx = int(rng.integers(0, len(objects)))
    candidates = candidates_by_radius[obj_idx]
    if not len(candidates):
        return scene_idx, traj_idx, None, "no valid positions for object"
    try:
        seq = make_sequence(
            scene, objects[obj_idx], candidates, floor_height, rng, params,
            scene_id=scene_idx, object_id=obj_idx,
        )
    except TrajectoryFailure as exc:
        return scene_idx, traj_idx, None, str(exc)
    sidecar = {
        "scene_id": scene_idx,
        "object_id": obj_idx,
        "frames": params.t,
        "scene_ref_points": seq.scene_ref_points,
        "object_ref_points": seq.object_ref_points,
        "seed": seed,
        "trajectory_index": traj_idx,
        "waypoints": ";".join(f"{p[0]:.6f},{p[1]:.6f},{h:.6f}" for p, h in zip(seq.trajectory.positions, seq.trajectory.headings)),
    }
    return scene_idx, traj_idx, sequence_to_bytes(seq), sidecar


def generate_dataset(
    scenes: list[PointCloud],
    objects: list[PointCloud],
    out_dir: str | Path,
    per_scene: int | None = None,
    t: int | None = None,
    seed: int = 0,
    workers: int = 1,
    params: GenParams | None = None,
) -> dict:
    """Write one "4DC1" file (plus sidecar) per accepted trajectory.

    Output is a pure function of (inputs, seed): per-sequence RNG seeds are
    positional, so neither worker count nor completion order matters.
    ``per_scene`` and ``t``, when given, override those of ``params``.
    Returns the counts of sequences ``written``, of trajectories ``rejected``
    and of trajectories ``skipped``, unattempted because their scene has no
    valid floor position for any object; the three add up to scenes times
    ``per_scene``.
    Raises, before anything is written, `ValueError` naming a scene or object
    whose points are not a finite float64 (N, 3) array, and `ConfigError` for
    an object whose ``object_sample`` is too small a share of its points for
    any sequence of ``t`` frames to pass object consistency on average.
    """
    if not scenes or not objects:
        raise EmptyInputError("need at least one scene and one object")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    for kind, clouds in (("scene", scenes), ("object", objects)):
        for i, pts in enumerate(c.points for c in clouds):
            if not (isinstance(pts, np.ndarray) and pts.dtype == np.float64 and pts.shape[1:] == (3,) and np.isfinite(pts).all()):
                raise ValueError(f"{kind} {i}: points must be a finite float64 (N, 3) array, got {np.shape(pts)}")
    params = params or GenParams()
    params = replace(params, per_scene=params.per_scene if per_scene is None else per_scene,
                     t=params.t if t is None else t)
    for obj_idx, obj in enumerate(objects):
        # each frame samples its own points, so a sampled point is in all t
        # frames with probability (sample / n)^(t - 1)
        kept = (min(params.object_sample, len(obj)) / max(len(obj), 1)) ** (params.t - 1)
        if kept < MIN_CONSISTENT:
            raise ConfigError(
                f"object {obj_idx}: object_sample={params.object_sample} of its {len(obj)} points keeps an "
                f"expected {kept:.3f} of them in all t={params.t} frames, below the {MIN_CONSISTENT} "
                "object consistency a sequence needs"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    object_radii = [object_footprint_radius(o) for o in objects]

    tasks, skipped = [], 0
    for scene_idx, scene in enumerate(scenes):
        occ = height_accumulate(scene)
        candidates_by_radius = [valid_positions(occ, r) for r in object_radii]
        if not any(len(c) for c in candidates_by_radius):
            log.warning("scene %d has no valid positions; skipped", scene_idx)
            skipped += params.per_scene
            continue
        for traj_idx in range(params.per_scene):
            tasks.append((scene, objects, scene_idx, traj_idx, seed, params, occ.floor_height, candidates_by_radius))

    # written as each result arrives, so memory holds a few sequences, not all
    written, rejected = 0, 0
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        for scene_idx, traj_idx, blob, info in (pool.map if pool else map)(_generate_one, tasks):
            if blob is None:
                rejected += 1
                log.warning("scene %d trajectory %d rejected: %s", scene_idx, traj_idx, info)
                continue
            stem = f"seq_{scene_idx:04d}_{traj_idx:04d}"
            (out_dir / f"{stem}.4dc").write_bytes(blob)
            write_sidecar(out_dir / f"{stem}.txt", info)
            written += 1
    return {"written": written, "rejected": rejected, "skipped": skipped}
