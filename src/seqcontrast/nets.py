"""Encoder meta-architectures: sparse 3D/4D U-Nets, projection, predictors.

Each branch is a U-Net of pre-activation residual blocks over sparse tensors,
followed by a 1x..x1 projection (output ``z``) and a two-layer 1x..x1
predictor (output ``p``). Inputs are binary occupancy repeated to three
channels, as float32 ones that the stem casts to the parameters' dtype.
Both heads preserve the coordinate set of their input voxels.
`sparse.channel_norm` runs before every activation of the residual blocks and
the predictor, and on the projection output.

Both branches share one entry per job, and each finds its tensors by its
dimension d (``unet{d}d.``, ``proj{d}d.``, ``pred{d}d.``): `encode` gives
``z`` and `predict` gives ``p`` from it; `unet_forward` alone gives the
backbone features. Every U-Net level holds one residual block. The conv
weight shapes follow `sparse`: ``SUB_KERNEL**d`` offsets at stride 1, ``2**d``
at stride 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import sparse as sp
from .autodiff import Var
from .errors import ConfigError, EmptyInputError
from .geom import voxel_indices
from .seqgen import Sequence
from .sparse import SparseTensor

VOXEL_3D = 0.02  # m
VOXEL_4D = 0.05  # m
IN_CHANNELS = 3  # occupancy repeated to three channels
BACKBONE = "unet3d."  # name prefix of the 3D U-Net's tensors, the backbone shipped downstream


@dataclass(frozen=True)
class UNetConfig:
    """Shape of one branch: its U-Net levels and the width of its heads."""

    dim: int
    channels: tuple[int, ...]          # one entry per resolution level
    projection_width: int = 32

    def __post_init__(self):
        if len(self.channels) < 1 or any(c < 1 for c in self.channels):
            raise ConfigError("need at least one level of positive channel width")
        if self.projection_width < 1:
            raise ConfigError(f"projection width must be >= 1, got {self.projection_width}")

    @property
    def levels(self) -> int:
        return len(self.channels)


def default_3d_config() -> UNetConfig:
    return UNetConfig(dim=3, channels=(16, 32, 64), projection_width=32)


def default_4d_config() -> UNetConfig:
    return UNetConfig(dim=4, channels=(8, 16), projection_width=32)


@dataclass
class ModelConfig:
    unet3d: UNetConfig = field(default_factory=default_3d_config)
    unet4d: UNetConfig = field(default_factory=default_4d_config)
    voxel3d: float = VOXEL_3D
    voxel4d: float = VOXEL_4D

    def __post_init__(self):
        for name in ("voxel3d", "voxel4d"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if (self.unet3d.dim, self.unet4d.dim) != (3, 4):
            raise ConfigError(f"the U-Nets must be 3D and 4D, got {self.unet3d.dim}D and {self.unet4d.dim}D")


# ---------------------------------------------------------------------------
# Parameter construction


def _init_weight(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_in = int(np.prod(shape[:-1]))
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _head_shapes(cfg: UNetConfig) -> dict[str, tuple[int, ...]]:
    """Shapes of all tensors of one branch (U-Net + projection + predictor)."""
    k = sp.SUB_KERNEL ** cfg.dim
    up_k = 2 ** cfg.dim
    ch = cfg.channels
    d = f"{cfg.dim}d"
    shapes: dict[str, tuple[int, ...]] = {}
    shapes[f"unet{d}.stem.w"] = (IN_CHANNELS, ch[0])
    shapes[f"unet{d}.stem.b"] = (ch[0],)
    for lvl, c in enumerate(ch):
        shapes[f"unet{d}.enc{lvl}.block0.conv1.w"] = (k, c, c)
        shapes[f"unet{d}.enc{lvl}.block0.conv2.w"] = (k, c, c)
        if lvl < cfg.levels - 1:
            shapes[f"unet{d}.down{lvl}.w"] = (up_k, c, ch[lvl + 1])
    for lvl in range(cfg.levels - 1, 0, -1):
        # transpose conv from level lvl to lvl-1: adjoint applies W^T
        shapes[f"unet{d}.up{lvl}.w"] = (up_k, ch[lvl - 1], ch[lvl])
        shapes[f"unet{d}.dec{lvl - 1}.reduce.w"] = (2 * ch[lvl - 1], ch[lvl - 1])
        shapes[f"unet{d}.dec{lvl - 1}.reduce.b"] = (ch[lvl - 1],)
        shapes[f"unet{d}.dec{lvl - 1}.block0.conv1.w"] = (k, ch[lvl - 1], ch[lvl - 1])
        shapes[f"unet{d}.dec{lvl - 1}.block0.conv2.w"] = (k, ch[lvl - 1], ch[lvl - 1])
    w = cfg.projection_width
    shapes[f"proj{d}.w"] = (ch[0], w)
    shapes[f"proj{d}.b"] = (w,)
    shapes[f"pred{d}.l1.w"] = (w, w)
    shapes[f"pred{d}.l1.b"] = (w,)
    shapes[f"pred{d}.l2.w"] = (w, w)
    shapes[f"pred{d}.l2.b"] = (w,)
    return shapes


def parameter_shapes(model: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor of the model, both branches."""
    return _head_shapes(model.unet3d) | _head_shapes(model.unet4d)


def build_parameters(model: ModelConfig, seed: int = 0, dtype=np.float32) -> dict[str, Var]:
    """Initialize all parameters: fan-in-scaled uniform weights, zero biases.

    Each tensor gets its own seed derived from (seed, tensor name), so the
    initialization is independent of construction order.
    """
    params: dict[str, Var] = {}
    for name, shape in parameter_shapes(model).items():
        if name.endswith(".b"):
            arr = np.zeros(shape, dtype=dtype)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, *name.encode())))
            arr = _init_weight(rng, shape, dtype)
        params[name] = ad.parameter(arr, name=name)
    return params


# ---------------------------------------------------------------------------
# Forward passes


def _resblock(x: SparseTensor, params, name: str) -> SparseTensor:
    h = sp.relu(sp.channel_norm(x))
    h = sp.sparse_conv(h, params[f"{name}.conv1.w"], stride=1)
    h = sp.relu(sp.channel_norm(h))
    h = sp.sparse_conv(h, params[f"{name}.conv2.w"], stride=1)
    return sp.add(x, h)


def unet_forward(x: SparseTensor, params: dict[str, Var], cfg: UNetConfig) -> SparseTensor:
    """U-Net over a sparse tensor; output coordinates equal input coordinates."""
    base = f"unet{cfg.dim}d"
    stem = params[f"{base}.stem.w"]
    ones = x.feats.value.astype(stem.value.dtype, copy=False)  # a mixed float32/float64 GEMM can round differently
    x = sp.linear_1x1(SparseTensor(x.coords, ones, x.stride, x.maps), stem, params[f"{base}.stem.b"])
    skips = []
    for lvl in range(cfg.levels):
        x = _resblock(x, params, f"{base}.enc{lvl}.block0")
        skips.append(x)
        if lvl < cfg.levels - 1:
            x = sp.sparse_conv(x, params[f"{base}.down{lvl}.w"], stride=2)
    for lvl in range(cfg.levels - 1, 0, -1):
        skip = skips[lvl - 1]
        x = sp.transpose_conv(x, params[f"{base}.up{lvl}.w"], skip.coords, skip.stride)
        x = sp.concat(x, skip)
        x = sp.linear_1x1(x, params[f"{base}.dec{lvl - 1}.reduce.w"], params[f"{base}.dec{lvl - 1}.reduce.b"])
        x = _resblock(x, params, f"{base}.dec{lvl - 1}.block0")
    return x


def project(x: SparseTensor, params: dict[str, Var]) -> SparseTensor:
    """Pointwise projection head.

    The output is standardized across the occupied voxels: a constant feature
    field cannot satisfy the normalization, which blocks the trivial collapsed
    solution of the matching losses.
    """
    return sp.channel_norm(sp.linear_1x1(x, params[f"proj{x.dim}d.w"], params[f"proj{x.dim}d.b"]))


def encode(x: SparseTensor, params: dict[str, Var], cfg: UNetConfig) -> SparseTensor:
    """Per-voxel projection-head features ``z``: U-Net, then projection."""
    return project(unet_forward(x, params, cfg), params)


def predict(z: SparseTensor, params: dict[str, Var]) -> SparseTensor:
    d = f"{z.dim}d"
    h = sp.linear_1x1(z, params[f"pred{d}.l1.w"], params[f"pred{d}.l1.b"])
    h = sp.relu(sp.channel_norm(h))
    return sp.linear_1x1(h, params[f"pred{d}.l2.w"], params[f"pred{d}.l2.b"])


# ---------------------------------------------------------------------------
# Voxelization of inputs


def _voxelize(clouds: list[np.ndarray], voxel_size: float, time_axis: bool = False) -> tuple[SparseTensor, list[np.ndarray]]:
    """Quantize point clouds into one occupancy tensor.

    Cloud k goes to batch k, or, with ``time_axis``, to time step k of batch
    0 as a fourth coordinate. Every occupied cell carries the occupancy
    feature repeated to three channels. Also returns, per cloud, the tensor
    row of each point.
    """
    blocks = []
    for k, pts in enumerate(clouds):
        if len(pts) == 0:
            raise EmptyInputError(f"cannot voxelize empty frame {k}")
        cols = [np.full((len(pts), 1), 0 if time_axis else k, dtype=np.int64), voxel_indices(pts[:, :3], voxel_size)]
        if time_axis:
            cols.append(np.full((len(pts), 1), k, dtype=np.int64))
        blocks.append(np.concatenate(cols, axis=1))
    uniq, inverse = sp.unique_coords(np.concatenate(blocks, axis=0))
    feats = np.ones((len(uniq), IN_CHANNELS), dtype=np.float32)
    rows = np.split(inverse, np.cumsum([len(b) for b in blocks[:-1]]))
    return SparseTensor(uniq, Var(feats), (1,) * (uniq.shape[1] - 1)), rows


def points_to_tensor(points: np.ndarray, voxel_size: float) -> tuple[SparseTensor, np.ndarray]:
    """Quantize one (N, 3) point cloud into a 3D occupancy tensor.

    Returns the tensor and, per input point, the row of its voxel.
    """
    x, rows = _voxelize([points], voxel_size)
    return x, rows[0]


def sequence_to_4d(seq: Sequence, voxel_size: float = VOXEL_4D) -> tuple[SparseTensor, list[np.ndarray]]:
    """Stack the (unaugmented) sequence view into a 4D occupancy tensor.

    Coordinates are (x, y, z) quantized at ``voxel_size`` plus the frame index
    as the time axis. Also returns, per frame, the tensor row of each point.
    """
    return _voxelize([frame.cloud.points for frame in seq.frames], voxel_size, time_axis=True)


def frames_to_tensor(frames_points: list[np.ndarray], voxel_size: float) -> tuple[SparseTensor, list[np.ndarray]]:
    """Quantize several frames into one 3D occupancy tensor.

    The batch column keeps frames apart, so one U-Net pass convolves them all
    without mixing. Returns the tensor and, per frame, the row of each point.
    """
    return _voxelize(frames_points, voxel_size)
