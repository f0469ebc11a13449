"""Line-oriented "key = value" run configuration with strict key checking."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .losses import LossWeights
from .nets import ModelConfig, UNetConfig
from .trainer import TrainConfig


@dataclass
class RunConfig:
    """Every tunable of the pipeline, with the reference defaults."""

    # optimization
    learning_rate: float = 0.25
    batch_size: int = 12
    steps: int = 1000
    decay_factor: float = 0.99
    decay_interval: int = 1000
    seed: int = 0
    momentum: float = 0.0
    dtype: str = "float32"
    w_3d: float = 1.0
    w_3d4d: float = 1.0
    w_4d: float = 1.0
    normalize_losses: bool = True
    sg_on_predictor_3d4d: bool = True
    max_corr_per_pair: int = 256
    max_points_3d4d: int = 512
    # voxel grids
    voxel3d: float = 0.02
    voxel4d: float = 0.05
    # generation
    t: int = 4
    per_scene: int = 20
    object_points: int = 1000
    map_cell: float = 0.10
    scene_cell: float = 0.02
    # architecture
    unet3d_channels: tuple[int, ...] = (16, 32, 64)
    unet3d_block_depth: int = 1
    unet3d_projection_width: int = 32
    unet3d_normalize: bool = True
    unet4d_channels: tuple[int, ...] = (8, 16)
    unet4d_block_depth: int = 1
    unet4d_projection_width: int = 32
    unet4d_normalize: bool = True

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            steps=self.steps,
            decay_factor=self.decay_factor,
            decay_interval=self.decay_interval,
            seed=self.seed,
            weights=LossWeights(self.w_3d, self.w_3d4d, self.w_4d),
            voxel3d=self.voxel3d,
            voxel4d=self.voxel4d,
            momentum=self.momentum,
            dtype=self.dtype,
            normalize_losses=self.normalize_losses,
            sg_on_predictor_3d4d=self.sg_on_predictor_3d4d,
            max_corr_per_pair=self.max_corr_per_pair,
            max_points_3d4d=self.max_points_3d4d,
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            UNetConfig(3, self.unet3d_channels, self.unet3d_block_depth,
                       self.unet3d_projection_width, normalize=self.unet3d_normalize),
            UNetConfig(4, self.unet4d_channels, self.unet4d_block_depth,
                       self.unet4d_projection_width, normalize=self.unet4d_normalize),
            self.voxel3d,
            self.voxel4d,
        )


def _parse_value(raw: str, kind):
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if kind in (int, float, str):
        return kind(raw)
    # tuple[int, ...]
    return tuple(int(x) for x in raw.replace(",", " ").split())


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file (or start from the defaults when ``path`` is None),
    rejecting unknown keys; apply flag overrides last."""
    cfg = RunConfig()
    kinds = get_type_hints(RunConfig)
    entries: dict[str, str] = {}
    if path is not None:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                entries[key.strip()] = value.strip()
    if overrides:
        entries.update(overrides)
    for key, raw in entries.items():
        if key not in kinds:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            setattr(cfg, key, _parse_value(raw, kinds[key]))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    return cfg


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    """Write the effective configuration; re-running from it reproduces a run."""
    with open(path, "w") as f:
        f.write("# effective configuration\n")
        for fld in fields(RunConfig):
            value = getattr(cfg, fld.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            f.write(f"{fld.name} = {value}\n")
