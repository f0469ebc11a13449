"""Line-oriented "key = value" view of the run configuration, with strict key checking.

The keys are not declared here: they are the fields of `TrainConfig`,
`ModelConfig` and `GenParams`. `TrainConfig` and `GenParams` fields keep
their names, `weights` contributes ``w_3d``/``w_3d4d``/``w_4d``, and the two
U-Net branches contribute ``unet3d_<field>``/``unet4d_<field>`` (``dim`` is
fixed by the branch). A key naming a field of two schemas (``voxel3d``,
``voxel4d``) sets both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .formats import read_sidecar, write_sidecar
from .nets import ModelConfig
from .seqgen import GenParams
from .trainer import TrainConfig


@dataclass
class RunConfig:
    """The pipeline's runtime configurations, as one run of the CLI uses them."""

    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    gen: GenParams = field(default_factory=GenParams)


# nested dataclass fields whose keys carry a prefix; `dim` is fixed by the branch
_PREFIX = {"unet3d": "unet3d_", "unet4d": "unet4d_"}
_FIXED = {"dim"}


def _key_table(cls=RunConfig, path: tuple[str, ...] = (), prefix: str = "") -> dict:
    """Map each key to its type and the attribute paths (from a RunConfig) it sets."""
    table: dict[str, tuple[type, list[tuple[str, ...]]]] = {}
    hints = get_type_hints(cls)
    for fld in fields(cls):
        if fld.name in _FIXED:
            continue
        kind = hints[fld.name]
        if is_dataclass(kind):
            for key, (sub_kind, paths) in _key_table(kind, path + (fld.name,), _PREFIX.get(fld.name, "")).items():
                table.setdefault(key, (sub_kind, []))[1].extend(paths)
        else:
            table.setdefault(prefix + fld.name, (kind, []))[1].append(path + (fld.name,))
    return table


KEYS = _key_table()


def _parse_value(raw: str, kind):
    if kind in (int, float, str):
        return kind(raw)
    # tuple[int, ...]
    return tuple(int(x) for x in raw.replace(",", " ").split())


def _apply(obj, changes: dict):
    """``obj`` with ``changes`` (field name -> value, or -> nested changes) applied
    through `dataclasses.replace`, so every touched dataclass validates itself."""
    return replace(obj, **{
        name: _apply(getattr(obj, name), value) if isinstance(value, dict) else value
        for name, value in changes.items()
    })


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a config file with `formats.read_sidecar` (or start from defaults
    when ``path`` is None), rejecting bad keys and values; overrides go last."""
    entries = read_sidecar(path) if path is not None else {}
    if overrides:
        entries.update(overrides)
    changes: dict = {}
    for key, raw in entries.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        kind, paths = KEYS[key]
        try:
            value = _parse_value(raw, kind)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
        for *parents, name in paths:
            node = changes
            for parent in parents:
                node = node.setdefault(parent, {})
            node[name] = value
    try:
        return _apply(RunConfig(), changes)
    except ConfigError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    """Write the effective configuration; re-running from it reproduces a run."""
    values = {}
    for key, (_, paths) in KEYS.items():
        value = cfg
        for name in paths[0]:
            value = getattr(value, name)
        values[key] = ",".join(str(v) for v in value) if isinstance(value, tuple) else value
    write_sidecar(path, values, header="# effective configuration\n")
