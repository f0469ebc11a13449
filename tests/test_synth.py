import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcontrast import synth
from seqcontrast.geom import height_accumulate
from seqcontrast.synth import OBJECT_KINDS, make_object, make_room, object_footprint_radius


class TestMakeRoom:
    def test_centered_with_floor_at_zero(self, small_room):
        pts = small_room.points
        assert pts[:, 2].min() == pytest.approx(0.0, abs=1e-9)
        # centered: the footprint straddles the origin symmetrically
        assert abs(pts[:, 0].min() + pts[:, 0].max()) < 0.5
        assert abs(pts[:, 1].min() + pts[:, 1].max()) < 0.5

    def test_deterministic_per_seed(self):
        a = make_room(np.random.default_rng(7), size=3.2)
        b = make_room(np.random.default_rng(7), size=3.2)
        np.testing.assert_array_equal(a.points, b.points)

    def test_requested_size_is_respected(self):
        room = make_room(np.random.default_rng(0), size=3.5, n_clutter=0)
        ext = room.points.max(axis=0) - room.points.min(axis=0)
        assert ext[0] == pytest.approx(3.5, abs=0.1)
        assert ext[1] == pytest.approx(3.5, abs=0.1)

    def test_default_size_in_sampling_range(self):
        room = make_room(np.random.default_rng(1), n_clutter=0)
        ext = room.points.max(axis=0) - room.points.min(axis=0)
        assert 2.9 <= ext[0] <= 4.1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_connected_flat_floor_region(self, seed):
        """Every room keeps a traversable flat region of at least 4 m^2:
        single-count columns whose occupied voxel tops sit within the floor
        band, connected through 4-neighbor adjacency."""
        room = make_room(np.random.default_rng(seed))
        occ = height_accumulate(room)
        flat = set(map(tuple, occ.cells[(occ.counts <= 1) & (occ.top <= occ.floor_height + 0.20)].tolist()))
        best = 0
        todo = set(flat)
        while todo:
            stack = [todo.pop()]
            size = 0
            while stack:
                cx, cy = stack.pop()
                size += 1
                for nb in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if nb in todo:
                        todo.remove(nb)
                        stack.append(nb)
            best = max(best, size)
        assert best * 0.10 * 0.10 >= 4.0


class TestMakeObject:
    @pytest.mark.parametrize("kind", OBJECT_KINDS)
    def test_canonical_pose(self, kind):
        obj = make_object(np.random.default_rng(3), kind=kind, n_points=500)
        assert len(obj.points) == 500
        assert obj.points[:, 2].min() >= -1e-9
        assert obj.points[:, 2].min() <= 0.05  # base touches the floor
        np.testing.assert_allclose(obj.points[:, :2].mean(axis=0), 0.0, atol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_object(np.random.default_rng(0), kind="sphereoid")

    def test_deterministic_per_seed(self):
        a = make_object(np.random.default_rng(5), kind="torus", n_points=200)
        b = make_object(np.random.default_rng(5), kind="torus", n_points=200)
        np.testing.assert_array_equal(a.points, b.points)

    def test_default_point_budget(self):
        obj = make_object(np.random.default_rng(6), kind="box")
        assert len(obj.points) == 800

    def test_footprint_radius_bounds_all_points(self):
        obj = make_object(np.random.default_rng(8), kind="lshape", n_points=400)
        r = object_footprint_radius(obj)
        assert np.all(np.linalg.norm(obj.points[:, :2], axis=1) <= r + 1e-12)
        assert r > 0
