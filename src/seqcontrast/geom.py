"""Point-cloud primitives: similarity transforms, voxelization, 2D occupancy maps.

All geometry is float64 internally and in meters. The up axis is +z.
`PointCloud` and `SimilarityTransform` check nothing. Data is checked where it
enters: the readers reject non-finite points and ".4dc" poses, `generate_dataset`
and `ContrastivePretrainer.transform` non-finite library clouds, and `synth`
out-of-range room and object arguments. Every rotation is `rotation_about_up`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError

# Provenance ids at or above this value identify object points; below, scene
# points. Keeps the two id ranges disjoint within one composited frame while
# still fitting the u32 on-disk encoding.
OBJECT_ID_OFFSET = 1 << 31

MAP_CELL = 0.10             # 2D occupancy map resolution (m)
FLOOR_BAND = 0.20           # max height above floor for a traversable cell (m)
FLOOR_QUANTILE = 0.25       # fraction of lowest columns used for the floor fit


@dataclass(frozen=True)
class PointCloud:
    """Finite float64 (N, 3) points with optional int64 (N,) provenance ids.

    Provenance identifies the canonical source point (scene or object) so that
    exact correspondences across frames can be recovered; ``None`` for raw
    input clouds.
    """

    points: np.ndarray                   # (N, 3) float64
    provenance: np.ndarray | None = None  # (N,) int64 or None

    def __len__(self) -> int:
        return len(self.points)


def rotation_about_up(yaw: float) -> np.ndarray:
    """3x3 rotation by ``yaw`` radians about the +z axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class SimilarityTransform:
    """p' = scale * R @ p + translation: R from `rotation_about_up`, a float64
    (3,) translation and a positive float scale."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: float = 1.0

    @classmethod
    def from_yaw(cls, yaw: float, translation=(0.0, 0.0, 0.0), scale: float = 1.0) -> "SimilarityTransform":
        return cls(rotation_about_up(yaw), np.asarray(translation, dtype=np.float64), float(scale))

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls()

    @property
    def yaw(self) -> float:
        return float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ self.rotation.T + self.translation

    def inverse(self) -> "SimilarityTransform":
        Rinv = self.rotation.T
        return SimilarityTransform(Rinv, -(Rinv @ self.translation) / self.scale, 1.0 / self.scale)


def apply_transform(cloud: PointCloud, transform: SimilarityTransform) -> PointCloud:
    """Apply a similarity transform to every point; provenance is preserved."""
    return PointCloud(transform.apply(cloud.points), cloud.provenance)


def voxel_indices(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Integer cell index floor(p / cell_size) per point, shape (N, d)."""
    if not 0 < cell_size < np.inf:
        raise ValueError(f"cell_size must be finite and positive, got {cell_size}")
    if len(points) == 0:
        raise EmptyInputError("cannot voxelize an empty cloud")
    return np.floor(np.asarray(points, dtype=np.float64) / cell_size).astype(np.int64)


def unique_rows(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(idx, axis=0, return_index=True)`` for an (N, d) integer
    array: the distinct rows in lexicographic order, and where each first
    occurs. A stable sort of the columns, without comparing rows as records."""
    order = np.lexsort(idx.T[::-1])
    rows = idx[order]
    first = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]
    return rows[first], order[first]


@dataclass
class OccupancyMap2D:
    """Per-column summary of occupied voxels, used to find valid placements.

    Cells are ``MAP_CELL`` wide and listed in lexicographic order.
    ``counts[k]`` counts distinct occupied 3D voxels in column ``cells[k]``;
    ``top[k]`` is the top of its highest occupied voxel. The floor height is
    the mean of the lowest-voxel heights over the quarter of columns with the
    lowest minima (robust against furniture).
    """

    cells: np.ndarray   # (M, 2) int64
    counts: np.ndarray  # (M,) int64
    top: np.ndarray     # (M,) float64
    floor_height: float


def height_accumulate(scene: PointCloud) -> OccupancyMap2D:
    """Accumulate occupied surface voxels along the height axis into a 2D map."""
    vox, _ = unique_rows(voxel_indices(scene.points, MAP_CELL))  # binary occupancy per 3D voxel

    # The rows are sorted by (ix, iy, iz), so each column is one run of rows
    # with its lowest voxel first and its highest last.
    starts = np.flatnonzero(np.r_[True, np.any(vox[1:, :2] != vox[:-1, :2], axis=1)])
    ends = np.r_[starts[1:], len(vox)]

    minima = np.sort(vox[starts, 2] * MAP_CELL)
    k = max(1, int(np.ceil(FLOOR_QUANTILE * len(minima))))
    floor = float(np.mean(minima[:k]))

    top = (vox[ends - 1, 2] + 1) * MAP_CELL  # top face of the voxel
    return OccupancyMap2D(vox[starts, :2], ends - starts, top, floor)
