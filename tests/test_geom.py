import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcontrast.errors import EmptyInputError
from seqcontrast.geom import (
    FLOOR_QUANTILE,
    MAP_CELL,
    PointCloud,
    SimilarityTransform,
    apply_transform,
    height_accumulate,
    rotation_about_up,
    unique_rows,
    voxel_indices,
)


def height_accumulate_loop(scene):
    """The per-voxel loop form of `height_accumulate`, kept as its reference."""
    vox = np.unique(voxel_indices(scene.points, MAP_CELL), axis=0)
    accumulation, max_h, min_h = {}, {}, {}
    for ix, iy, iz in vox:
        cell = (int(ix), int(iy))
        accumulation[cell] = accumulation.get(cell, 0) + 1
        top = (iz + 1) * MAP_CELL
        bottom = iz * MAP_CELL
        if cell not in max_h or top > max_h[cell]:
            max_h[cell] = top
        if cell not in min_h or bottom < min_h[cell]:
            min_h[cell] = bottom
    minima = np.sort(np.array(list(min_h.values())))
    k = max(1, int(np.ceil(FLOOR_QUANTILE * len(minima))))
    return accumulation, max_h, float(np.mean(minima[:k]))


def column_dicts(occ):
    """The map's per-column arrays as the loop form's {cell: count} and
    {cell: top} dicts, in row order."""
    cells = list(map(tuple, occ.cells.tolist()))
    return dict(zip(cells, occ.counts.tolist())), dict(zip(cells, occ.top.tolist()))


def cloud(*pts):
    return PointCloud(np.array(pts, dtype=np.float64))


def cells(points, cell_size):
    """Set of occupied integer cells, from the per-point cell indices."""
    return {tuple(int(v) for v in row) for row in voxel_indices(points, cell_size)}


class TestVoxelize:
    def test_single_point_single_cell(self):
        assert cells(cloud((0, 0, 0)).points, 0.1) == {(0, 0, 0)}

    def test_two_points_one_cell(self):
        assert cells(cloud((0.05, 0.05, 0.01), (0.05, 0.05, 0.09)).points, 0.1) == {(0, 0, 0)}

    def test_two_points_two_cells(self):
        assert cells(cloud((0.05, 0.05, 0.0), (0.05, 0.05, 0.5)).points, 0.1) == {(0, 0, 0), (0, 0, 5)}

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyInputError):
            voxel_indices(np.empty((0, 3)), 0.1)

    def test_nonpositive_cell_rejected(self):
        with pytest.raises(ValueError):
            voxel_indices(cloud((0, 0, 0)).points, 0.0)

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, cell):
        with pytest.raises(ValueError, match="finite and positive"):
            voxel_indices(cloud((0, 0, 0)).points, cell)

    def test_idempotent_on_voxel_centers(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(200, 3))
        occupied = cells(pts, 0.1)
        centers = np.array([(np.array(c) + 0.5) * 0.1 for c in occupied])
        assert cells(centers, 0.1) == occupied


class TestUniqueRows:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 500), d=st.integers(1, 4), span=st.integers(1, 1000))
    def test_matches_numpy_unique(self, seed, n, d, span):
        """Same rows, same order (signed, lexicographic) and same first
        occurrences as ``np.unique(axis=0, return_index=True)``."""
        idx = np.random.default_rng(seed).integers(-span, span, size=(n, d))
        rows, first = unique_rows(idx)
        want_rows, want_first = np.unique(idx, axis=0, return_index=True)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(first, want_first)


class TestSimilarityTransform:
    def test_identity(self):
        c = cloud((1, 2, 3), (-1, 0, 4))
        out = apply_transform(c, SimilarityTransform.identity())
        np.testing.assert_array_equal(out.points, c.points)

    def test_pure_scale(self):
        out = apply_transform(cloud((1, 0, 0)), SimilarityTransform(scale=2.0))
        np.testing.assert_allclose(out.points, [[2, 0, 0]])

    def test_quarter_turn(self):
        out = apply_transform(cloud((1, 0, 0)), SimilarityTransform(rotation_about_up(np.pi / 2)))
        np.testing.assert_allclose(out.points, [[0, 1, 0]], atol=1e-9)

    def test_provenance_preserved(self):
        c = PointCloud(np.eye(3), np.array([7, 8, 9]))
        out = apply_transform(c, SimilarityTransform.from_yaw(0.3, (1, 2, 3), 1.5))
        np.testing.assert_array_equal(out.provenance, [7, 8, 9])

    @settings(max_examples=50, deadline=None)
    @given(
        yaw=st.floats(0, 2 * np.pi),
        scale=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_inverse_roundtrip(self, yaw, scale, seed):
        rng = np.random.default_rng(seed)
        t = SimilarityTransform.from_yaw(yaw, rng.uniform(-1, 1, 3), scale)
        c = PointCloud(rng.uniform(-5, 5, size=(20, 3)))
        back = apply_transform(apply_transform(c, t), t.inverse())
        np.testing.assert_allclose(back.points, c.points, atol=1e-9)


class TestHeightAccumulate:
    def test_single_point(self):
        occ = height_accumulate(cloud((0, 0, 0)))
        assert occ.cells.tolist() == [[0, 0]] and occ.counts.tolist() == [1]

    def test_two_voxels_one_column(self):
        occ = height_accumulate(cloud((0.05, 0.05, 0.0), (0.05, 0.05, 0.5)))
        assert occ.cells.tolist() == [[0, 0]] and occ.counts.tolist() == [2]

    def test_same_voxel_counts_once(self):
        occ = height_accumulate(cloud((0.01, 0.01, 0.02), (0.03, 0.02, 0.07)))
        assert occ.cells.tolist() == [[0, 0]] and occ.counts.tolist() == [1]

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            height_accumulate(PointCloud(np.empty((0, 3))))

    def test_max_height_is_voxel_top(self):
        occ = height_accumulate(cloud((0.05, 0.05, 0.23)))
        assert occ.cells.tolist() == [[0, 0]] and occ.top[0] == pytest.approx(0.3)

    def test_flat_floor_height(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(0, 2, size=(400, 2))
        pts = np.column_stack([xy, np.full(400, 0.02)])
        occ = height_accumulate(PointCloud(pts))
        assert occ.floor_height == pytest.approx(0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 1000))
    def test_counts_match_bruteforce(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, size=(n, 3))
        occ = height_accumulate(PointCloud(pts))
        vox = {tuple(v) for v in voxel_indices(pts, 0.1)}
        expect = {}
        for ix, iy, iz in vox:
            expect[(ix, iy)] = expect.get((ix, iy), 0) + 1
        assert column_dicts(occ)[0] == expect

    @pytest.mark.parametrize(
        "points",
        [
            [(0.05, 0.05, 0.23)],                                        # one voxel
            [(-0.05, -0.15, -0.25), (-0.05, -0.15, 0.31), (0.2, -0.3, -0.01)],  # negative cells
        ],
    )
    def test_matches_loop_on_small_scenes(self, points):
        occ = height_accumulate(cloud(*points))
        assert (*column_dicts(occ), occ.floor_height) == height_accumulate_loop(cloud(*points))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 1000))
    def test_matches_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        scene = PointCloud(rng.uniform(-2, 2, size=(n, 3)) * rng.uniform(0.1, 1.0, size=3))
        occ = height_accumulate(scene)
        accumulation, max_h, floor = height_accumulate_loop(scene)
        assert occ.cells.tolist() == [list(c) for c in accumulation]
        assert occ.counts.tolist() == list(accumulation.values())
        assert occ.top.tolist() == list(max_h.values())
        assert occ.floor_height == floor
        assert occ.cells.dtype == occ.counts.dtype == np.int64 and occ.top.dtype == np.float64

    def test_matches_loop_on_room(self, small_room):
        occ = height_accumulate(small_room)
        assert (*column_dicts(occ), occ.floor_height) == height_accumulate_loop(small_room)
