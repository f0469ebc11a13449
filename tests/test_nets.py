from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mul, sum_all

from seqcontrast import autodiff as ad
from seqcontrast import nets
from seqcontrast import sparse as sp
from seqcontrast.errors import ConfigError, EmptyInputError
from seqcontrast.nets import (
    ModelConfig,
    UNetConfig,
    build_parameters,
    encode,
    frames_to_tensor,
    points_to_tensor,
    sequence_to_4d,
    unet_forward,
)


def expected_parameter_count(cfg: UNetConfig) -> int:
    """Closed-form parameter count of one branch: stem, one residual block
    per level, down and up convs, decoder reductions, projection and
    predictor."""
    k, up_k, ch, w = 3**cfg.dim, 2**cfg.dim, cfg.channels, cfg.projection_width
    blocks = sum(2 * k * c * c for c in ch) + sum(2 * k * c * c for c in ch[:-1])
    resample = 2 * sum(up_k * a * b for a, b in zip(ch, ch[1:]))
    reduce = sum(2 * c * c + c for c in ch[:-1])
    return 3 * ch[0] + ch[0] + blocks + resample + reduce + ch[0] * w + w + 2 * (w * w + w)


def count_parameters(params) -> int:
    return sum(p.value.size for p in params.values())


def tiny_model():
    return ModelConfig(
        unet3d=UNetConfig(dim=3, channels=(4, 6), projection_width=5),
        unet4d=UNetConfig(dim=4, channels=(3, 4), projection_width=5),
        voxel3d=0.5,
        voxel4d=1.0,
    )


def fake_sequence(frames_points):
    frames = [SimpleNamespace(cloud=SimpleNamespace(points=np.asarray(p, dtype=np.float64))) for p in frames_points]
    return SimpleNamespace(frames=frames)


class TestVoxelization:
    def test_points_to_tensor_dedup(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.12, 0.11, 0.13], [0.9, 0.9, 0.9]])
        t, rows = points_to_tensor(pts, 0.5)
        assert len(t) == 2
        assert rows[0] == rows[1] != rows[2]
        np.testing.assert_array_equal(t.feats.value, np.ones((2, 3), dtype=np.float32))

    def test_empty_frame_raises(self):
        with pytest.raises(EmptyInputError):
            points_to_tensor(np.empty((0, 3)), 0.5)
        with pytest.raises(EmptyInputError):
            frames_to_tensor([np.empty((0, 3))], 0.5)

    def test_sequence_to_4d_coordinates(self):
        seq = fake_sequence([
            np.array([[0.10, 0.0, 0.0]]),
            np.array([[0.10, 0.0, 0.0], [0.0, 0.0, 0.22]]),
        ])
        tensor, rows = sequence_to_4d(seq, voxel_size=0.05)
        # coordinate layout: batch, x, y, z, time
        got = {tuple(c) for c in tensor.coords}
        assert got == {(0, 2, 0, 0, 0), (0, 2, 0, 0, 1), (0, 0, 0, 4, 1)}
        assert len(rows) == 2 and len(rows[0]) == 1 and len(rows[1]) == 2
        np.testing.assert_array_equal(tensor.coords[rows[1][0]], [0, 2, 0, 0, 1])

    def test_frames_to_tensor_batch_column(self):
        frames = [np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]])]
        t, rows = frames_to_tensor(frames, 0.5)
        assert len(t) == 2  # same voxel, different frames, kept apart
        assert t.coords[rows[0][0], 0] == 0
        assert t.coords[rows[1][0], 0] == 1


class TestParameters:
    def test_branch_dimensions_are_fixed(self):
        with pytest.raises(ConfigError, match="3D and 4D"):
            ModelConfig(unet3d=UNetConfig(dim=4, channels=(4,)))
        with pytest.raises(ConfigError, match="3D and 4D"):
            ModelConfig(unet4d=UNetConfig(dim=3, channels=(4,)))

    def test_count_matches_closed_form(self):
        model = tiny_model()
        params = build_parameters(model, seed=0)
        assert count_parameters(params) == (
            expected_parameter_count(model.unet3d) + expected_parameter_count(model.unet4d)
        )

    def test_hand_counted_single_level(self):
        cfg = UNetConfig(dim=3, channels=(2,), projection_width=4)
        # stem 3*2+2, one residual block 2*(27*2*2), projection 2*4+4,
        # predictor 2*(4*4+4)
        assert expected_parameter_count(cfg) == 8 + 216 + 12 + 40

    def test_initialization_deterministic_and_seed_sensitive(self):
        model = tiny_model()
        a = build_parameters(model, seed=3)
        b = build_parameters(model, seed=3)
        c = build_parameters(model, seed=4)
        for name in a:
            np.testing.assert_array_equal(a[name].value, b[name].value)
        assert any(not np.array_equal(a[n].value, c[n].value) for n in a)

    def test_biases_start_at_zero(self):
        params = build_parameters(tiny_model(), seed=0)
        for name, p in params.items():
            if name.endswith(".b"):
                np.testing.assert_array_equal(p.value, 0.0)


class TestUNetForward:
    def test_output_coords_equal_input_coords(self):
        rng = np.random.default_rng(0)
        model = tiny_model()
        params = build_parameters(model, seed=1, dtype=np.float64)
        pts = rng.uniform(-2, 2, size=(200, 3))
        x, _ = points_to_tensor(pts, model.voxel3d)
        out = unet_forward(x, params, model.unet3d)
        np.testing.assert_array_equal(out.coords, x.coords)
        assert out.feats.value.shape == (len(x), model.unet3d.channels[0])

    def test_translation_equivariance_even_shift(self):
        """Shifting the occupancy by a multiple of every stride shifts the
        features verbatim. The shift keeps the row order, so the global
        statistics of the normalization see the same rows in the same order."""
        rng = np.random.default_rng(1)
        model = tiny_model()
        params = build_parameters(model, seed=2, dtype=np.float64)
        pts = rng.uniform(0, 3, size=(150, 3))
        x, _ = points_to_tensor(pts, model.voxel3d)
        shifted = sp.SparseTensor(
            x.coords + np.array([0, 2, 2, 2]), x.feats.value.copy(), x.stride
        )
        a = unet_forward(x, params, model.unet3d)
        b = unet_forward(shifted, params, model.unet3d)
        np.testing.assert_array_equal(a.feats.value, b.feats.value)

    def test_zero_weights_give_projection_bias(self):
        """Zero weights leave every voxel's projection at the bias alone; the
        head's normalization maps that constant field to zero, the collapsed
        solution it exists to block."""
        model = tiny_model()
        params = build_parameters(model, seed=0, dtype=np.float64)
        for name, p in params.items():
            p.value = np.zeros_like(p.value)
        params["proj3d.b"].value = np.full_like(params["proj3d.b"].value, 0.25)
        pts = np.array([[0.0, 0, 0], [1.0, 1, 1]])
        x, _ = points_to_tensor(pts, model.voxel3d)
        h = unet_forward(x, params, model.unet3d)
        proj = sp.linear_1x1(h, params["proj3d.w"], params["proj3d.b"])
        np.testing.assert_array_equal(proj.feats.value, 0.25)
        z = encode(x, params, model.unet3d)
        np.testing.assert_array_equal(z.feats.value, 0.0)

    def test_encode_4d_shapes(self):
        rng = np.random.default_rng(4)
        model = tiny_model()
        params = build_parameters(model, seed=6, dtype=np.float64)
        seq = fake_sequence([rng.uniform(0, 4, size=(60, 3)) for _ in range(3)])
        tensor, rows = sequence_to_4d(seq, voxel_size=model.voxel4d)
        z = encode(tensor, params, model.unet4d)
        assert z.feats.value.shape == (len(tensor), model.unet4d.projection_width)
        np.testing.assert_array_equal(z.coords, tensor.coords)


class TestKernelMapsTravelWithTheInput:
    def test_each_map_is_built_once_per_voxelised_input(self, monkeypatch):
        built = []
        build = sp.build_kernel_map
        monkeypatch.setattr(sp, "build_kernel_map", lambda *args: built.append(args) or build(*args))
        model = tiny_model()
        params = build_parameters(model, seed=1)
        pts = np.random.default_rng(5).uniform(-2, 2, size=(200, 3))
        x, _ = points_to_tensor(pts, model.voxel3d)
        out = unet_forward(x, params, model.unet3d)
        # sub and down at level 0, sub at level 1, up from level 1 to 0
        assert len(built) == len(x.maps) == 4 and out.maps is x.maps
        again = unet_forward(x, params, model.unet3d)
        assert len(built) == 4
        assert again.feats.value.tobytes() == out.feats.value.tobytes()
        y, _ = points_to_tensor(pts, model.voxel3d)
        assert y.maps == {} and y.maps is not x.maps
        unet_forward(y, params, model.unet3d)
        assert len(built) == 8 and len(x.maps) == len(y.maps) == 4

    def test_float32_occupancy_matches_a_float64_input(self):
        """The occupancy input is exactly 1 in every float type, so under
        float64 parameters the float32 input gives the bits of a float64
        one: features and parameter gradients."""
        model = tiny_model()
        params = build_parameters(model, seed=3, dtype=np.float64)
        x, _ = points_to_tensor(np.random.default_rng(6).uniform(-2, 2, size=(200, 3)), model.voxel3d)
        cast = sp.SparseTensor(x.coords, x.feats.value.astype(np.float64), x.stride)
        assert x.feats.value.dtype == np.float32
        a, b = encode(x, params, model.unet3d), encode(cast, params, model.unet3d)
        assert a.feats.value.dtype == np.float64
        assert a.feats.value.tobytes() == b.feats.value.tobytes()
        weights = ad.Var(np.random.default_rng(7).normal(size=a.feats.value.shape))
        ga, gb = ad.grad(sum_all(mul(a.feats, weights)), params), ad.grad(sum_all(mul(b.feats, weights)), params)
        for name in params:
            assert ga[name].tobytes() == gb[name].tobytes(), name
