import hashlib
import struct
import zlib

import numpy as np
import pytest

from seqcontrast import seqgen, synth
from seqcontrast.errors import ConfigError, DataFormatError, EmptyInputError, TrajectoryFailure
from seqcontrast.formats import read_sidecar
from seqcontrast.geom import FLOOR_BAND, MAP_CELL, OBJECT_ID_OFFSET, PointCloud, SimilarityTransform, height_accumulate
from seqcontrast.seqgen import (
    CHUNK_FRACTION_MAX,
    CHUNK_FRACTION_MIN,
    CHUNKS_MAX,
    CHUNKS_MIN,
    MIN_CONSISTENT,
    MIN_RETENTION,
    SCENE_KEEP_PROB,
    STEP_MAX,
    STEP_MIN,
    TURN_LIMIT,
    GenParams,
    Sequence,
    SequenceFrame,
    augment_frame_static,
    augment_scene,
    build_correspondences,
    compose_frame,
    generate_dataset,
    read_sequence,
    sample_scene_canonical,
    sample_trajectory,
    sequence_to_bytes,
    trajectory_violations,
    valid_positions,
    validate_sequence,
    write_sequence,
)
from seqcontrast.synth import object_footprint_radius


# Loop forms of the array code in `seqgen`, kept as references: the array
# forms must give the same answers and draw the same random numbers.


def valid_positions_loop(occ, object_radius):
    limit = occ.floor_height + FLOOR_BAND
    columns = zip(map(tuple, occ.cells.tolist()), occ.counts.tolist(), occ.top.tolist())
    traversable = {c for c, acc, top in columns if acc <= 1 and top <= limit}
    r_cells = int(np.floor(object_radius / MAP_CELL))
    offsets = [
        (dx, dy)
        for dx in range(-r_cells, r_cells + 1)
        for dy in range(-r_cells, r_cells + 1)
        if np.hypot(dx, dy) * MAP_CELL <= object_radius
    ]
    return {c for c in traversable if all((c[0] + dx, c[1] + dy) in traversable for dx, dy in offsets)}


def sample_trajectory_loop(candidates, t, rng):
    """`sample_trajectory` on a set of cells, which it sorts first."""
    cells = sorted(candidates)
    centers = (np.array(cells, dtype=np.float64) + 0.5) * MAP_CELL
    positions = [centers[int(rng.integers(0, len(cells)))]]
    headings = []
    for step in range(1, t):
        prev = positions[-1]
        prev_heading = headings[-1] if headings else None
        for _ in range(seqgen.STEP_RETRIES):
            dist = rng.uniform(STEP_MIN, STEP_MAX)
            if prev_heading is None:
                direction = rng.uniform(0.0, 2 * np.pi)
            else:
                direction = prev_heading + rng.uniform(-TURN_LIMIT, TURN_LIMIT)
            target = prev + dist * np.array([np.cos(direction), np.sin(direction)])
            snapped = centers[int(np.argmin(np.sum((centers - target) ** 2, axis=1)))]
            realized = snapped - prev
            if not (STEP_MIN <= float(np.hypot(*realized)) <= STEP_MAX):
                continue
            heading = float(np.arctan2(realized[1], realized[0]))
            if prev_heading is not None and abs(seqgen._wrap_angle(heading - prev_heading)) >= TURN_LIMIT:
                continue
            positions.append(snapped)
            headings.append(heading)
            break
        else:
            raise TrajectoryFailure(f"no valid step found at waypoint {step}")
    headings = [headings[0]] + headings if headings else [0.0]
    return seqgen.Trajectory(np.array(positions), np.array(headings))


def cell_set(cells):
    return set(map(tuple, cells.tolist()))


def assert_same_cells(got, candidates):
    """``got`` is the set ``candidates`` as an (N, 2) int64 array, row for
    row in lexicographic order."""
    want = np.array(sorted(candidates), dtype=np.int64).reshape(-1, 2)
    np.testing.assert_array_equal(got, want, strict=True)


def augment_scene_loop(frame, rng):
    is_obj = frame.is_object()
    keep = np.ones(len(frame.cloud), dtype=bool)
    keep[~is_obj] &= rng.uniform(0.0, 1.0, size=int((~is_obj).sum())) < SCENE_KEEP_PROB
    scene_pts = frame.cloud.points[~is_obj]
    if len(scene_pts):
        lo, hi = scene_pts.min(axis=0), scene_pts.max(axis=0)
        extent = float(np.max(hi - lo))
        for _ in range(int(rng.integers(CHUNKS_MIN, CHUNKS_MAX + 1))):
            edge = rng.uniform(CHUNK_FRACTION_MIN, CHUNK_FRACTION_MAX) * extent
            center = rng.uniform(lo, hi)
            inside = np.all(np.abs(frame.cloud.points - center) <= edge / 2, axis=1)
            keep &= is_obj | ~inside
    return keep


def scene_draws_loop(scene, rng):
    """`seqgen._scene_draws` with one `uniform` call per row draw, per edge
    fraction and per centre."""
    kept = rng.uniform(0.0, 1.0, size=len(scene.rows)) < SCENE_KEEP_PROB
    edges, centres = [], []
    if len(scene.rows):
        for _ in range(int(rng.integers(seqgen.CHUNKS_MIN, seqgen.CHUNKS_MAX + 1))):
            edges.append(rng.uniform(CHUNK_FRACTION_MIN, CHUNK_FRACTION_MAX) * scene.extent)
            centres.append(rng.uniform(scene.lo, scene.hi))
    return kept, np.array(edges, dtype=np.float64), np.array(centres, dtype=np.float64).reshape(-1, 3)


def chunk_removed_loop(points, edges, centres):
    """The full-scan chunk test: the rows within ``edge / 2`` of a chunk's
    centre on every axis, for any chunk."""
    removed = np.zeros(len(points), dtype=bool)
    for edge, centre in zip(edges, centres):
        removed |= np.all(np.abs(points - centre) <= edge / 2, axis=1)
    return removed


def scene_frame(scene_points, rng, n_object=20):
    """A frame of the given scene rows with ``n_object`` object rows, in a
    shuffled row order."""
    pts = np.vstack([scene_points, rng.normal(size=(n_object, 3))])
    prov = np.concatenate([np.arange(len(scene_points)), OBJECT_ID_OFFSET + np.arange(n_object)])
    order = rng.permutation(len(pts))
    identity = SimilarityTransform.identity()
    return SequenceFrame(PointCloud(pts[order], prov[order]), identity, identity)


def validate_sequence_loop(seq):
    pre_count = seq.scene_ref_points + seq.object_ref_points
    common = None
    for frame in seq.frames:
        if len(frame.cloud) / pre_count < MIN_RETENTION:
            return False
        ids = frame.cloud.provenance
        common = ids if common is None else np.intersect1d(common, ids, assume_unique=False)
    n_scene = int(np.sum(common < OBJECT_ID_OFFSET))
    n_obj = len(common) - n_scene
    return n_scene / seq.scene_ref_points >= MIN_CONSISTENT and n_obj / seq.object_ref_points >= MIN_CONSISTENT


def make_sequence_loop(scene, obj, candidates, floor_height, rng, params, scene_id=0, object_id=0):
    """`make_sequence` building every frame of every attempt, through
    `augment_scene` without its `SceneRows`, before `validate_sequence`
    (looked up on the module) judges the attempt."""
    canonical = sample_scene_canonical(scene, rng, params.scene_cell)
    object_ref = min(params.object_sample, len(obj))
    for _ in range(seqgen.SEQUENCE_ATTEMPTS):
        traj = None
        for _ in range(seqgen.START_ATTEMPTS):
            try:
                traj = sample_trajectory(candidates, params.t, rng)
                break
            except TrajectoryFailure:
                continue
        if traj is None:
            raise TrajectoryFailure("no feasible trajectory found")
        frames = []
        for k in range(params.t):
            frame = compose_frame(
                canonical, obj, (traj.positions[k], traj.headings[k]), rng,
                floor_height=floor_height, object_sample=params.object_sample,
            )
            frames.append(augment_frame_static(augment_scene(frame, rng), rng))
        seq = Sequence(frames, scene_id, object_id, traj, scene_ref_points=len(canonical), object_ref_points=object_ref)
        if seqgen.validate_sequence(seq):
            return seq
    raise TrajectoryFailure(f"no valid sequence after {seqgen.SEQUENCE_ATTEMPTS} attempts")


def assert_same_transform(a, b):
    np.testing.assert_array_equal(a.rotation, b.rotation, strict=True)
    np.testing.assert_array_equal(a.translation, b.translation, strict=True)
    assert a.scale == b.scale


def assert_same_sequence(got, want):
    """Equal ids, reference counts, trajectory, and per frame equal points,
    provenance, object pose and static augmentation, bit for bit."""
    assert (got.scene_id, got.object_id, got.scene_ref_points, got.object_ref_points) == (
        want.scene_id, want.object_id, want.scene_ref_points, want.object_ref_points
    )
    np.testing.assert_array_equal(got.trajectory.positions, want.trajectory.positions, strict=True)
    np.testing.assert_array_equal(got.trajectory.headings, want.trajectory.headings, strict=True)
    assert len(got.frames) == len(want.frames)
    for a, b in zip(got.frames, want.frames):
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points, strict=True)
        np.testing.assert_array_equal(a.cloud.provenance, b.cloud.provenance, strict=True)
        assert_same_transform(a.object_pose, b.object_pose)
        assert_same_transform(a.static_aug, b.static_aug)


def is_identity(transform) -> bool:
    """Whether a similarity transform is exactly the identity."""
    return (
        np.all(transform.rotation == np.eye(3))
        and np.all(transform.translation == 0.0)
        and transform.scale == 1.0
    )


class TestValidPositions:
    def test_blocked_columns_excluded(self):
        # flat floor except one tall pillar column
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 1.0, size=(2000, 2))
        pts = np.column_stack([xy, np.zeros(2000)])
        pillar = np.array([[0.55, 0.55, z] for z in np.arange(0, 1.0, 0.05)])
        occ = height_accumulate(PointCloud(np.vstack([pts, pillar])))
        cand = cell_set(valid_positions(occ, 0.0))
        assert (5, 5) not in cand
        assert (1, 1) in cand

    def test_radius_requires_clearance(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 1.0, size=(3000, 2))
        pts = np.column_stack([xy, np.zeros(3000)])
        pillar = np.array([[0.55, 0.55, z] for z in np.arange(0, 1.0, 0.05)])
        occ = height_accumulate(PointCloud(np.vstack([pts, pillar])))
        wide = cell_set(valid_positions(occ, 0.25))
        # neighbors of the pillar fail the disc test at radius 0.25
        assert (5, 4) not in wide and (4, 5) not in wide
        narrow = cell_set(valid_positions(occ, 0.0))
        assert wide < narrow

    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.15, 0.25, 0.4])
    def test_matches_loop(self, small_room, radius):
        occ = height_accumulate(small_room)
        assert_same_cells(valid_positions(occ, radius), valid_positions_loop(occ, radius))

    @pytest.mark.parametrize("radius", [0.0, 0.15, 0.4])
    def test_matches_loop_on_negative_cells(self, radius):
        """A floor around the origin, so cell indices run negative, with a
        pillar and a hole."""
        rng = np.random.default_rng(2)
        xy = rng.uniform(-1.0, 0.6, size=(4000, 2))
        xy = xy[np.hypot(*(xy - [-0.5, 0.2]).T) > 0.15]
        pts = np.column_stack([xy, rng.uniform(-0.05, 0.0, len(xy))])
        pillar = np.array([[-0.25, -0.35, z] for z in np.arange(0, 1.0, 0.05)])
        occ = height_accumulate(PointCloud(np.vstack([pts, pillar])))
        assert occ.cells[0, 0] < 0
        got = valid_positions(occ, radius)
        assert_same_cells(got, valid_positions_loop(occ, radius))
        assert len(got) and (-3, -4) not in cell_set(got)

    @pytest.mark.parametrize("radius", [0.0, 0.15, 0.4])
    def test_one_voxel_scene(self, radius):
        occ = height_accumulate(PointCloud(np.array([[-0.05, 0.05, 0.02]])))
        expect = {(-1, 0)} if radius < MAP_CELL else set()
        assert valid_positions_loop(occ, radius) == expect
        assert_same_cells(valid_positions(occ, radius), expect)

    def test_empty_map_raises(self):
        from seqcontrast.geom import OccupancyMap2D

        empty = OccupancyMap2D(np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 0.0)
        with pytest.raises(EmptyInputError):
            valid_positions(empty, 0.1)


class TestSampleTrajectory:
    def test_constraints_hold_over_many_draws(self, small_candidates):
        occ, cand = small_candidates
        rng = np.random.default_rng(2)
        for _ in range(50):
            traj = sample_trajectory(cand, 4, rng)
            assert len(traj) == 4
            assert trajectory_violations(traj, cand) == []

    def test_step_bounds_and_turns_directly(self, small_candidates):
        _, cand = small_candidates
        rng = np.random.default_rng(3)
        traj = sample_trajectory(cand, 5, rng)
        steps = np.diff(traj.positions, axis=0)
        dists = np.hypot(steps[:, 0], steps[:, 1])
        assert np.all(dists >= STEP_MIN) and np.all(dists <= STEP_MAX)
        dirs = np.arctan2(steps[:, 1], steps[:, 0])
        turns = np.abs((np.diff(dirs) + np.pi) % (2 * np.pi) - np.pi)
        assert np.all(turns < TURN_LIMIT)

    def test_first_heading_faces_first_step(self, small_candidates):
        _, cand = small_candidates
        traj = sample_trajectory(cand, 3, np.random.default_rng(4))
        assert traj.headings[0] == traj.headings[1]

    def test_single_cell_fails(self):
        with pytest.raises(TrajectoryFailure):
            sample_trajectory(np.array([[0, 0]]), 3, np.random.default_rng(0))

    def test_length_one_is_a_point(self, small_candidates):
        _, cand = small_candidates
        traj = sample_trajectory(cand, 1, np.random.default_rng(5))
        assert len(traj) == 1 and traj.headings[0] == 0.0

    @pytest.mark.parametrize("t", [1, 3, 4, 6])
    def test_matches_loop(self, small_candidates, t):
        """The same waypoints and headings, and the same draws consumed, as
        the set form; failures fail alike."""
        _, cand = small_candidates
        for seed in range(20):
            rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = sample_trajectory_loop(cell_set(cand), t, rng_loop)
            except TrajectoryFailure:
                with pytest.raises(TrajectoryFailure):
                    sample_trajectory(cand, t, rng)
            else:
                got = sample_trajectory(cand, t, rng)
                np.testing.assert_array_equal(got.positions, want.positions, strict=True)
                np.testing.assert_array_equal(got.headings, want.headings, strict=True)
            assert rng.bit_generator.state == rng_loop.bit_generator.state

    def test_validator_flags_bad_trajectories(self, small_candidates):
        _, cand = small_candidates
        bad = seqgen.Trajectory(np.array([[0.05, 0.05], [10.0, 10.0]]), np.zeros(2))
        problems = trajectory_violations(bad, cand)
        assert any("distance" in p for p in problems)


class TestSceneCanonical:
    def test_one_point_per_voxel(self, small_room):
        rng = np.random.default_rng(6)
        canon = sample_scene_canonical(small_room, rng, 0.04)
        from seqcontrast.geom import voxel_indices

        idx = voxel_indices(canon.points, 0.04)
        assert len(np.unique(idx, axis=0)) == len(canon)
        np.testing.assert_array_equal(canon.provenance, np.arange(len(canon)))

    def test_points_come_from_scene(self, small_room):
        canon = sample_scene_canonical(small_room, np.random.default_rng(7), 0.04)
        pool = {tuple(p) for p in small_room.points}
        assert all(tuple(p) in pool for p in canon.points[:50])


class TestComposeFrame:
    def test_object_pose_and_provenance(self, small_room, small_object):
        rng = np.random.default_rng(8)
        canon = sample_scene_canonical(small_room, rng, 0.04)
        pos = np.array([0.3, -0.2])
        frame = compose_frame(canon, small_object, (pos, 0.7), rng, floor_height=0.0, object_sample=200)
        is_obj = frame.is_object()
        assert is_obj.sum() == 200
        # recorded pose maps composited object points back to canonical ones
        obj_pts = frame.cloud.points[is_obj]
        back = frame.object_pose.inverse().apply(obj_pts)
        prov = frame.cloud.provenance[is_obj] - OBJECT_ID_OFFSET
        np.testing.assert_allclose(back, small_object.points[prov], atol=1e-9)

    def test_never_upsamples(self, small_room, small_object):
        rng = np.random.default_rng(9)
        canon = sample_scene_canonical(small_room, rng, 0.04)
        frame = compose_frame(canon, small_object, (np.zeros(2), 0.0), rng, object_sample=10_000)
        assert frame.is_object().sum() == len(small_object)


class TestAugmentation:
    def test_objects_survive_scene_augmentation(self, small_room, small_object):
        rng = np.random.default_rng(10)
        canon = sample_scene_canonical(small_room, rng, 0.04)
        frame = compose_frame(canon, small_object, (np.zeros(2), 0.0), rng, object_sample=150)
        for _ in range(10):
            aug = augment_scene(frame, rng)
            assert aug.is_object().sum() == 150
            assert len(aug.cloud) < len(frame.cloud)

    def test_chunk_hook_zero_disables_removal(self, small_room, small_object, monkeypatch):
        """With no chunks and every scene point kept, nothing is removed."""
        rng = np.random.default_rng(11)
        canon = sample_scene_canonical(small_room, rng, 0.04)
        frame = compose_frame(canon, small_object, (np.zeros(2), 0.0), rng)
        monkeypatch.setattr(seqgen, "CHUNKS_MIN", 0)
        monkeypatch.setattr(seqgen, "CHUNKS_MAX", 0)
        monkeypatch.setattr(seqgen, "SCENE_KEEP_PROB", 1.0)
        aug = augment_scene(frame, rng)
        assert len(aug.cloud) == len(frame.cloud)

    def test_matches_loop_rows_and_random_stream(self, small_room, small_object):
        """Over 200 seeded frames the array form keeps the same rows as the
        loop form and leaves the generator in the same state. Some frames put
        the object rows first or mix them in, and one has no scene rows."""
        canon = sample_scene_canonical(small_room, np.random.default_rng(14), 0.04)
        removed = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            frame = compose_frame(canon, small_object, (rng.uniform(-1, 1, 2), rng.uniform(0, 6)), rng, object_sample=100)
            if seed % 3:
                order = rng.permutation(len(frame.cloud)) if seed % 3 == 1 else np.roll(np.arange(len(frame.cloud)), 100)
                frame = seqgen.SequenceFrame(
                    PointCloud(frame.cloud.points[order], frame.cloud.provenance[order]), frame.object_pose, frame.static_aug
                )
            if seed == 199:
                obj = frame.is_object()
                frame = seqgen.SequenceFrame(
                    PointCloud(frame.cloud.points[obj], frame.cloud.provenance[obj]), frame.object_pose, frame.static_aug
                )
            rng_a, rng_b = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            got = augment_scene(frame, rng_a)
            keep = augment_scene_loop(frame, rng_b)
            np.testing.assert_array_equal(got.cloud.points, frame.cloud.points[keep])
            np.testing.assert_array_equal(got.cloud.provenance, frame.cloud.provenance[keep])
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            removed += len(frame.cloud) - int(keep.sum())
        assert removed > 0

    @pytest.mark.parametrize("chunks", [(CHUNKS_MIN, CHUNKS_MAX), (0, 0)])
    def test_scene_draws_match_one_uniform_call_each(self, monkeypatch, chunks):
        """Over many seeds and scene extents, and scenes without rows, the
        block draws give the kept mask, edges and centres of one `uniform`
        call per row, edge and centre, bit for bit, and leave the generator
        in the same state."""
        monkeypatch.setattr(seqgen, "CHUNKS_MIN", chunks[0])
        monkeypatch.setattr(seqgen, "CHUNKS_MAX", chunks[1])
        drawn = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            scale = 10.0 ** rng.uniform(-3, 3)
            n = 0 if seed % 15 == 0 else int(rng.integers(1, 400))
            scene = seqgen.SceneRows.of(scene_frame(scale * rng.normal(rng.uniform(-5, 5, 3), 1.0, (n, 3)), rng))
            rng_a, rng_b = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            got, want = seqgen._scene_draws(scene, rng_a), scene_draws_loop(scene, rng_b)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            drawn += len(got[1])
        assert (drawn > 0) == (chunks[1] > 0)

    def test_windowed_chunks_match_the_full_scan(self, monkeypatch):
        """Each chunk tests only the x-sorted window of rows that can pass;
        it removes the rows a scan of every row removes. The scene has rows
        within a few ulps of each face of 30 chunks (``x - c`` rounds, so a
        row just outside ``c - edge / 2`` can pass), hundreds of rows sharing
        an x, grid rows whose coordinates tie, and a gap in x. Chunks are
        tested one at a time and in sets; among them are a chunk of zero
        edge, chunks reaching past the bounding box, and chunks whose window
        is empty."""
        rng = np.random.default_rng(5)
        faced = [(h, c) for h, c in zip(rng.uniform(0.01, 1.5, 30), rng.uniform(-2, 2, (30, 3)))]
        near_faces = []
        for h, c in faced:
            for axis in range(3):
                for face in (c[axis] - h, c[axis] + h):
                    for ulps in range(-3, 4):
                        row = c.copy()
                        row[axis] = face + ulps * np.spacing(face)
                        near_faces.append(row)
        h, c = faced[0]
        same_x = [
            np.column_stack([np.full(300, x), rng.uniform(c[1] - 2 * h, c[1] + 2 * h, 300), rng.uniform(c[2] - 2 * h, c[2] + 2 * h, 300)])
            for x in (c[0] - h, c[0] + h)
        ]
        grid = rng.integers(-40, 41, size=(3000, 3)) * 0.05
        gap = rng.uniform([5.0, -2.0, -2.0], [6.0, 2.0, 2.0], size=(200, 3))
        points = np.vstack([np.array(near_faces), *same_x, grid, gap])
        frame = scene_frame(points, rng)
        scene = seqgen.SceneRows.of(frame)
        chunks = [(2 * h, c) for h, c in faced] + [
            (0.0, c),
            (0.0, np.array([0.15, 0.35, -0.1])),             # zero edge on a grid point
            (0.1, np.array([0.15, 0.35, -0.1])),             # faces on grid coordinates
            (2 * scene.extent, scene.lo - 0.2),              # past the box, covers every row
            (0.5, scene.hi + 0.1),                           # past the box, empty window
            (0.6, np.array([3.5, 0.0, 0.0])),                # inside the gap in x, empty window
            (2.0, np.array([-100.0, 0.0, 0.0])),             # before every x, empty window
        ]
        assert not np.any(np.abs(points[:, 0] - 3.5) <= 0.3 + 1e-6)
        chunk_sets = [[chunk] for chunk in chunks] + [chunks[:15], chunks[30:]]
        chunk_sets += [  # random chunks centred on grid points, edges whole grid steps
            [(0.05 * rng.integers(0, 20), 0.05 * rng.integers(-40, 41, 3).astype(np.float64)) for _ in range(5)]
            for _ in range(40)
        ]
        is_scene = ~frame.is_object()
        removed_total = 0
        for chunk_set in chunk_sets:
            edges = np.array([edge for edge, _ in chunk_set])
            centres = np.array([centre for _, centre in chunk_set])
            monkeypatch.setattr(seqgen, "_scene_draws", lambda scene, rng: (np.ones(len(scene.rows), dtype=bool), edges, centres))
            got = augment_scene(frame, rng, scene)
            keep = ~(is_scene & chunk_removed_loop(frame.cloud.points, edges, centres))
            np.testing.assert_array_equal(got.cloud.points, frame.cloud.points[keep], strict=True)
            np.testing.assert_array_equal(got.cloud.provenance, frame.cloud.provenance[keep], strict=True)
            removed_total += int((~keep).sum())
        assert removed_total > 0

    def test_chunk_parameters_in_range(self):
        # the sampled chunk count and edge fraction always fall in the
        # documented ranges
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(CHUNKS_MIN, CHUNKS_MAX + 1))
            frac = rng.uniform(CHUNK_FRACTION_MIN, CHUNK_FRACTION_MAX)
            assert CHUNKS_MIN <= n <= CHUNKS_MAX
            assert CHUNK_FRACTION_MIN <= frac <= CHUNK_FRACTION_MAX

    def test_static_augmentation_leaves_cloud_untouched(self, small_room, small_object):
        rng = np.random.default_rng(13)
        canon = sample_scene_canonical(small_room, rng, 0.04)
        frame = compose_frame(canon, small_object, (np.zeros(2), 0.0), rng)
        aug = augment_frame_static(frame, rng)
        np.testing.assert_array_equal(aug.cloud.points, frame.cloud.points)
        assert not is_identity(aug.static_aug)
        view = aug.static_view()
        np.testing.assert_allclose(view.points, aug.static_aug.apply(frame.cloud.points), atol=1e-12)


class TestValidation:
    def test_generated_sequence_passes(self, small_sequence):
        assert validate_sequence(small_sequence)

    def test_retention_threshold(self, small_sequence):
        # dropping most points of one frame fails retention
        frames = list(small_sequence.frames)
        f0 = frames[0]
        k = int(MIN_RETENTION * (small_sequence.scene_ref_points + small_sequence.object_ref_points)) - 1
        frames[0] = seqgen.SequenceFrame(
            PointCloud(f0.cloud.points[:k], f0.cloud.provenance[:k]),
            f0.object_pose,
            f0.static_aug,
        )
        bad = Sequence(
            frames, 0, 0,
            scene_ref_points=small_sequence.scene_ref_points,
            object_ref_points=small_sequence.object_ref_points,
        )
        assert not validate_sequence(bad)

    def test_repeated_ids_give_the_deduplicating_answer(self):
        """A frame whose provenance repeats an id gets the answer of
        `np.intersect1d(..., assume_unique=False)`. Here the repeats would
        lift 1 common scene id of 10 past the threshold if they were counted."""
        obj = OBJECT_ID_OFFSET + np.arange(2)
        ids = np.r_[np.zeros(8, dtype=np.int64), obj]

        def seq(*frame_ids):
            frames = [
                seqgen.SequenceFrame(PointCloud(np.zeros((len(f), 3)), f), SimilarityTransform(), SimilarityTransform())
                for f in frame_ids
            ]
            return Sequence(frames, 0, 0, scene_ref_points=10, object_ref_points=2)

        for case in (seq(ids, ids), seq(ids[::-1], ids, ids), seq(np.r_[np.arange(10), obj], ids)):
            assert validate_sequence_loop(case) is False
            assert validate_sequence(case) is False
        assert np.intersect1d(ids, ids, assume_unique=True).size > 3  # the shortcut would count repeats

    def test_matches_loop_on_random_provenance(self):
        """Random frames, sorted or not, with and without repeated ids, near
        the consistency thresholds: the answer equals the reference's."""
        rng = np.random.default_rng(15)
        verdicts = set()
        for _ in range(300):
            n_scene, n_obj = int(rng.integers(5, 40)), int(rng.integers(2, 20))
            frames = []
            for _ in range(int(rng.integers(1, 5))):
                scene = rng.choice(n_scene, size=int(rng.integers(n_scene // 3, n_scene + 1)), replace=bool(rng.integers(2)))
                obj = OBJECT_ID_OFFSET + rng.choice(n_obj, size=int(rng.integers(n_obj // 3, n_obj + 1)), replace=bool(rng.integers(2)))
                ids = np.r_[np.sort(scene), np.sort(obj)] if rng.integers(2) else rng.permutation(np.r_[scene, obj])
                frames.append(seqgen.SequenceFrame(PointCloud(np.zeros((len(ids), 3)), ids), SimilarityTransform(), SimilarityTransform()))
            case = Sequence(frames, 0, 0, scene_ref_points=n_scene, object_ref_points=n_obj)
            want = validate_sequence_loop(case)
            assert validate_sequence(case) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_missing_reference_counts_rejected(self, small_sequence):
        bare = Sequence(small_sequence.frames, 0, 0)
        with pytest.raises(ValueError):
            validate_sequence(bare)

    def test_consistency_threshold_constants(self):
        assert MIN_CONSISTENT == 0.30 and MIN_RETENTION == 0.50


class TestMakeSequence:
    def test_matches_loop_reference(self, small_object, monkeypatch):
        """On 120 seeded small rooms, `make_sequence` returns the sequence of
        the loop reference, or fails as it does, leaves the generator in the
        same state, and makes the same `validate_sequence` calls with the same
        verdicts. Among them are attempts lost after frames 1, 2 and 3, some
        by retention, and rooms that sample 250 of the object's 300 points,
        so that the object picks differ from frame to frame. The first room
        samples 150, too few to stay consistent over four frames, so its
        every attempt is judged on all four frames and the budget runs out."""
        judged = []  # (frames judged, accepted, last frame under retention) per call
        validate = seqgen.validate_sequence

        def counted(seq):
            ok = validate(seq)
            under = len(seq.frames[-1].cloud) / (seq.scene_ref_points + seq.object_ref_points) < MIN_RETENTION
            judged.append((len(seq.frames), ok, under))
            return ok

        monkeypatch.setattr(seqgen, "validate_sequence", counted)
        radius = object_footprint_radius(small_object)
        lost_after, lost_by_retention, failed = set(), 0, 0
        for seed in range(120):
            room = synth.make_room(np.random.default_rng(seed), size=2.6 + seed % 3 * 0.2, spacing=0.08)
            occ = height_accumulate(room)
            candidates = valid_positions(occ, radius)
            params = GenParams(t=4, object_sample=150 if seed == 0 else 250 if seed % 2 else 300, scene_cell=0.1)
            results = []
            for make in (seqgen.make_sequence, make_sequence_loop):
                rng = np.random.default_rng(1000 + seed)
                first = len(judged)
                try:
                    seq = make(room, small_object, candidates, occ.floor_height, rng, params, scene_id=seed, object_id=3)
                except TrajectoryFailure as exc:
                    seq = str(exc)
                results.append((seq, rng.bit_generator.state, judged[first:]))
            (got, got_state, got_calls), (want, want_state, want_calls) = results
            assert got_state == want_state, seed
            assert [ok for _, ok, _ in got_calls] == [ok for _, ok, _ in want_calls], seed
            if isinstance(want, str):
                assert got == want, seed
                failed += 1
            else:
                assert_same_sequence(got, want)
            lost = [(n, ok, under) for n, ok, under in got_calls if n < params.t]
            assert not any(ok for _, ok, _ in lost), seed
            lost_after.update(n for n, _, _ in lost)
            lost_by_retention += sum(under for _, _, under in lost)
        assert lost_after == {1, 2, 3} and lost_by_retention > 0 and failed == 1, (lost_after, lost_by_retention, failed)


class TestCorrespondences:
    def test_partial_bijection_and_symmetry(self, small_sequence):
        corr = build_correspondences(small_sequence)
        t = len(small_sequence)
        for i in range(t):
            for j in range(i + 1, t):
                ia, ib = corr[(i, j)]
                assert len(ia) == len(ib) > 0
                assert len(np.unique(ia)) == len(ia)
                assert len(np.unique(ib)) == len(ib)
                # matched points share provenance ids
                np.testing.assert_array_equal(
                    small_sequence.frames[i].cloud.provenance[ia],
                    small_sequence.frames[j].cloud.provenance[ib],
                )
        # one entry per frame pair, first frame first
        assert sorted(corr) == [(i, j) for i in range(t) for j in range(i + 1, t)]

    def test_scene_points_coincide_objects_map_back(self, small_sequence):
        corr = build_correspondences(small_sequence)
        for (i, j), (ia, ib) in corr.items():
            fi, fj = small_sequence.frames[i], small_sequence.frames[j]
            prov = fi.cloud.provenance[ia]
            scene_mask = prov < OBJECT_ID_OFFSET
            np.testing.assert_allclose(
                fi.cloud.points[ia][scene_mask], fj.cloud.points[ib][scene_mask], atol=1e-6
            )
            obj_mask = ~scene_mask
            a = fi.object_pose.inverse().apply(fi.cloud.points[ia][obj_mask])
            b = fj.object_pose.inverse().apply(fj.cloud.points[ib][obj_mask])
            np.testing.assert_allclose(a, b, atol=1e-6)


class TestSequenceFormat:
    def test_roundtrip(self, small_sequence, tmp_path):
        path = tmp_path / "s.4dc"
        write_sequence(path, small_sequence)
        back = read_sequence(path)
        assert len(back) == len(small_sequence)
        assert back.scene_id == small_sequence.scene_id
        for fa, fb in zip(back.frames, small_sequence.frames):
            np.testing.assert_allclose(fa.cloud.points, fb.cloud.points, atol=1e-6)
            np.testing.assert_array_equal(fa.cloud.provenance, fb.cloud.provenance)
            np.testing.assert_allclose(fa.object_pose.yaw, fb.object_pose.yaw, atol=1e-6)
            np.testing.assert_allclose(
                fa.static_aug.translation, fb.static_aug.translation, atol=1e-6
            )

    def test_layout(self):
        """The "4DC1" bytes, field by field: magic, version, frame count, scene
        and object ids; per frame the point count, points, provenance and the
        yaw, scale and translation of the pose and of the static augmentation;
        then the CRC32 of everything before it."""
        pts, prov = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, 0.0]]), np.array([3, 7])
        pose = SimilarityTransform.from_yaw(0.0, (1.0, 2.0, 3.0), 2.0)
        seq = Sequence([SequenceFrame(PointCloud(pts, prov), pose, SimilarityTransform())], scene_id=4, object_id=5)
        body = (
            b"4DC1" + struct.pack("<IIQQI", 1, 1, 4, 5, 2) + pts.astype("<f4").tobytes() + prov.astype("<u4").tobytes()
            + struct.pack("<10f", 0.0, 2.0, 1.0, 2.0, 3.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        )
        assert sequence_to_bytes(seq) == body + struct.pack("<I", zlib.crc32(body))

    def test_serialization_deterministic(self, small_sequence):
        assert sequence_to_bytes(small_sequence) == sequence_to_bytes(small_sequence)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.4dc"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(DataFormatError) as err:
            read_sequence(path)
        assert err.value.offset == 0

    def test_corruption_detected(self, small_sequence, tmp_path):
        path = tmp_path / "c.4dc"
        write_sequence(path, small_sequence)
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            read_sequence(path)


    @staticmethod
    def resealed(small_sequence, offset, fmt, value):
        """The sequence's bytes with one field overwritten and the CRC redone."""
        raw = bytearray(sequence_to_bytes(small_sequence))
        struct.pack_into(fmt, raw, offset, value)
        struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
        return bytes(raw)

    @pytest.mark.parametrize("field,fmt,value,message", [
        ("frame-count", "<I", 9, "truncated sequence"),
        ("point-count", "<I", 1 << 30, "truncated sequence"),
        ("first-pose-scale", "<f", 0.0, "bad frame pose"),
        ("first-point", "<f", float("nan"), "non-finite coordinate in point 0"),
        ("first-pose-translation", "<f", float("nan"), "bad frame pose: need finite fields"),
        ("first-pose-yaw", "<f", float("nan"), "bad frame pose: need finite fields"),
    ])
    def test_crc_valid_malformed_rejected(self, small_sequence, tmp_path, field, fmt, value, message):
        """The first frame's point count is at byte 28, its points at 32, and
        its ten pose fields (yaw, scale, translation, twice) at 32 + 16 n."""
        n = len(small_sequence.frames[0].cloud)
        fields = 32 + 16 * n
        offset = {"frame-count": 8, "point-count": 28, "first-point": 32, "first-pose-yaw": fields,
                  "first-pose-scale": fields + 4, "first-pose-translation": fields + 12}[field]
        path = tmp_path / "bad.4dc"
        path.write_bytes(self.resealed(small_sequence, offset, fmt, value))
        with pytest.raises(DataFormatError, match=message) as err:
            read_sequence(path)
        assert 0 <= err.value.offset <= path.stat().st_size - 4
        if field.startswith("first-"):
            assert err.value.offset == (32 if field == "first-point" else fields)

    def test_trailing_bytes_rejected(self, small_sequence, tmp_path):
        raw = sequence_to_bytes(small_sequence)[:-4] + bytes(8)
        path = tmp_path / "long.4dc"
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
        with pytest.raises(DataFormatError, match="trailing bytes in sequence") as err:
            read_sequence(path)
        assert err.value.offset == len(raw) - 8


class TestGenerateDataset:
    def test_files_and_sidecars(self, small_dataset):
        seqs = sorted(small_dataset.glob("*.4dc"))
        assert seqs
        for p in seqs:
            seq = read_sequence(p)
            assert len(seq) == 4
            side = read_sidecar(p.with_suffix(".txt"))
            assert int(side["frames"]) == 4
            assert int(side["scene_ref_points"]) > 0
            assert int(side["object_ref_points"]) > 0
            # persisted sequences re-validate with the sidecar counts
            full = Sequence(
                seq.frames, seq.scene_id, seq.object_id,
                scene_ref_points=int(side["scene_ref_points"]),
                object_ref_points=int(side["object_ref_points"]),
            )
            assert validate_sequence(full)

    def test_pinned_digest(self, small_dataset):
        """The bytes of one small fixed run (three tasks, t=4) are pinned as
        the sha256 over its sorted file names and contents. A change that
        moves any written byte updates this value, and says so."""
        digest = hashlib.sha256()
        for path in sorted(small_dataset.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert len(list(small_dataset.glob("*.4dc"))) == 3
        assert digest.hexdigest() == "fc15eaa037c3fa9a3022d3b98c86fb8e9d8f28f1d6d90f3d375fbd4ce0802b67"

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            generate_dataset([], [], tmp_path, per_scene=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, small_room, small_object, tmp_path, workers):
        with pytest.raises(ConfigError, match="workers"):
            generate_dataset([small_room], [small_object], tmp_path, per_scene=1, workers=workers)
        assert not list(tmp_path.glob("*.4dc"))

    @pytest.mark.parametrize("t,sample,kept", [(4, 150, "0.125"), (4, 200, "0.296"), (3, 150, "0.250")])
    def test_an_undersampled_object_is_a_config_error(self, small_room, small_object, tmp_path, t, sample, kept):
        """Each frame samples its own object points, so a sampled point is in
        all t frames with probability (sample / n)^(t - 1). Below the 0.3
        consistency bar every attempt would fail; the run is refused before
        anything is written, naming the object. Object 0 (all its points
        sampled) is fine."""
        whole = synth.make_object(np.random.default_rng(3), n_points=sample)
        params = GenParams(t=t, object_sample=sample, scene_cell=0.05)
        with pytest.raises(ConfigError, match=f"object 1: object_sample={sample} of its 300 points keeps an expected {kept}"):
            generate_dataset([small_room], [whole, small_object], tmp_path / "out", per_scene=1, params=params)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which,points,named", [
        ("scene", np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 2.0]]), "scene 1"),
        ("scene", np.zeros((4, 2)), "scene 1"),
        ("object", np.array([[0.0, np.inf, 0.0]]), "object 1"),
        ("object", np.zeros((4, 3), dtype=np.float32), "object 1"),
    ], ids=["nan-scene", "flat-scene", "inf-object", "float32-object"])
    def test_bad_clouds_rejected_before_writing(self, small_room, small_object, tmp_path, which, points, named):
        """A library caller's clouds are checked before anything is written,
        and the error names the bad one."""
        scenes, objects = [small_room, small_room], [small_object, small_object]
        (scenes if which == "scene" else objects)[1] = PointCloud(points)
        with pytest.raises(ValueError, match=f"{named}: points must be a finite float64"):
            generate_dataset(scenes, objects, tmp_path / "out", per_scene=1)
        assert not (tmp_path / "out").exists()

    def test_caller_params_unchanged(self, small_room, small_object, tmp_path):
        params = GenParams(per_scene=20, t=4, object_sample=200, scene_cell=0.05)
        generate_dataset([small_room], [small_object], tmp_path, per_scene=1, t=3, seed=9, params=params)
        assert params == GenParams(per_scene=20, t=4, object_sample=200, scene_cell=0.05)

    def test_params_per_scene_and_t_drive_generation(self, small_room, small_object, tmp_path):
        params = GenParams(per_scene=1, t=2, object_sample=200, scene_cell=0.05)
        stats = generate_dataset([small_room], [small_object], tmp_path, seed=9, params=params)
        assert stats["written"] + stats["rejected"] == 1
        for path in tmp_path.glob("*.4dc"):
            assert len(read_sequence(path).frames) == 2

    def test_each_sequence_is_written_before_the_next_is_made(self, small_room, small_object, tmp_path, monkeypatch):
        """Memory stays bounded: with one worker a result is on disk before
        the next task starts, so no sequence's bytes wait for the others."""
        made, on_disk = [], []

        def generate_one(task):
            on_disk.append(len(list(tmp_path.glob("*.4dc"))))
            made.append(generate(task))
            return made[-1]

        generate = seqgen._generate_one
        monkeypatch.setattr(seqgen, "_generate_one", generate_one)
        params = GenParams(t=3, object_sample=200, scene_cell=0.05)
        stats = generate_dataset([small_room], [small_object], tmp_path, per_scene=3, seed=9, params=params)
        accepted = np.cumsum([0] + [blob is not None for _, _, blob, _ in made[:-1]])
        assert stats["written"] >= 1 and on_disk == accepted.tolist()

    def test_worker_count_invariance(self, small_room, small_object, tmp_path):
        params = GenParams(t=3, object_sample=200, scene_cell=0.05)
        a, b = tmp_path / "w1", tmp_path / "w2"
        generate_dataset([small_room], [small_object], a, per_scene=2, t=3, seed=9, workers=1, params=params)
        generate_dataset([small_room], [small_object], b, per_scene=2, t=3, seed=9, workers=2, params=params)
        fa, fb = sorted(p.name for p in a.glob("*.4dc")), sorted(p.name for p in b.glob("*.4dc"))
        assert fa == fb and fa
        for name in fa:
            assert (a / name).read_bytes() == (b / name).read_bytes()
