"""Pre-training loop: batching, joint loss, SGD with step decay, checkpoints.

Also hosts the estimator facade (`ContrastivePretrainer`) exposing the
pipeline through a fit/transform interface, and the probe used as a
desk-scale stand-in for downstream evaluation.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Var
from .errors import ConfigError, DataFormatError, EmptyInputError
from .formats import read_checkpoint, write_checkpoint
from .geom import PointCloud
from .losses import LossReport, LossWeights, loss_3d, loss_3d4d, loss_4d, loss_total
from .nets import ModelConfig, UNetConfig, build_parameters
from .seqgen import Sequence, build_correspondences, read_sequence

log = logging.getLogger(__name__)

BATCH_BY_LENGTH = {3: 16, 4: 12, 5: 10}
BATCH_POINT_BUDGET = 48  # sequences * frames kept constant for other lengths


@dataclass
class TrainConfig:
    learning_rate: float = 0.25
    batch_size: int = 12
    steps: int = 1000
    decay_factor: float = 0.99
    decay_interval: int = 1000
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    voxel3d: float = nets.VOXEL_3D
    voxel4d: float = nets.VOXEL_4D
    momentum: float = 0.0
    dtype: str = "float32"
    max_corr_per_pair: int = 256
    max_points_3d4d: int = 512

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not (0 < self.decay_factor <= 1):
            raise ConfigError("decay factor must be in (0, 1]")
        if not (0 <= self.momentum < 1):
            raise ConfigError("momentum must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype).type


def balance_batch(t: int) -> int:
    """Batch size (in sequences) balancing total frames per batch."""
    if t < 1:
        raise ValueError("sequence length must be >= 1")
    return BATCH_BY_LENGTH.get(t, round(BATCH_POINT_BUDGET / t))


def learning_rate_at(step: int, cfg: TrainConfig) -> float:
    return cfg.learning_rate * cfg.decay_factor ** (step // cfg.decay_interval)


# ---------------------------------------------------------------------------
# Per-sequence forward pass


class _SequenceState:
    """Static per-sequence structures reused across steps: correspondences
    (optionally subsampled), and in ``views`` the voxelised views built by
    `_voxel_views`, whose tensors keep their kernel maps."""

    def __init__(self, seq: Sequence, cfg: TrainConfig, seq_key: int):
        self.seq = seq
        self.views: dict = {}
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 977, seq_key)))
        self.pair_maps = {}
        for key, (ia, ib) in sorted(build_correspondences(seq).items()):
            if cfg.max_corr_per_pair and len(ia) > cfg.max_corr_per_pair:
                pick = np.sort(rng.choice(len(ia), size=cfg.max_corr_per_pair, replace=False))
                ia, ib = ia[pick], ib[pick]
            self.pair_maps[key] = (ia, ib)
        self.per_frame = []
        for frame in seq.frames:
            idx = np.arange(len(frame.cloud), dtype=np.int64)
            if cfg.max_points_3d4d and len(idx) > cfg.max_points_3d4d:
                idx = np.sort(rng.choice(len(idx), size=cfg.max_points_3d4d, replace=False))
            self.per_frame.append(idx)


def _voxel_views(state: _SequenceState, model: ModelConfig) -> tuple:
    """Both voxelised views of a sequence and its correspondences as voxel rows.

    Point indices are composed with each view's point-to-voxel rows once, so
    the losses gather straight from the per-voxel features: the 3D and 4D
    pair maps, and per frame the (3D rows, 4D rows) pairs of the 3D-4D term.
    Cached in ``state.views``, keyed by the voxel sizes.
    """
    key = (model.voxel3d, model.voxel4d)
    if key not in state.views:
        x3, rows3 = nets.frames_to_tensor([f.static_view().points for f in state.seq.frames], model.voxel3d)
        x4, rows4 = nets.sequence_to_4d(state.seq, model.voxel4d)
        pairs3 = {(i, j): (rows3[i][ia], rows3[j][ib]) for (i, j), (ia, ib) in state.pair_maps.items()}
        pairs4 = {(i, j): (rows4[i][ia], rows4[j][ib]) for (i, j), (ia, ib) in state.pair_maps.items()}
        frames34 = [(rows3[i][idx], rows4[i][idx]) for i, idx in enumerate(state.per_frame)]
        state.views[key] = (x3, x4, pairs3, pairs4, frames34)
    return state.views[key]


def sequence_loss(
    state: _SequenceState,
    params: dict[str, Var],
    model: ModelConfig,
    cfg: TrainConfig,
) -> tuple[Var, LossReport]:
    """Joint weighted loss of one sequence through both branches."""
    w = cfg.weights
    x3, x4, pairs3, pairs4, frames34 = _voxel_views(state, model)

    # every frame of a view shares one feature matrix; the index maps pick rows
    p3 = z3 = p4 = z4 = None
    if w.w_3d > 0 or w.w_3d4d > 0:
        z_t = nets.encode(x3, params, model.unet3d)
        z3, p3 = z_t.feats, nets.predict(z_t, params).feats
    if w.w_4d > 0 or w.w_3d4d > 0:
        z_t = nets.encode(x4, params, model.unet4d)
        z4, p4 = z_t.feats, nets.predict(z_t, params).feats

    zero = Var(np.asarray(0.0, dtype=cfg.np_dtype))
    report = LossReport(weights=w)
    l3 = l34 = l4 = zero
    if w.w_3d > 0:
        l3, _ = loss_3d(p3, z3, pairs3)
    if w.w_3d4d > 0:
        l34, _ = loss_3d4d(p3, z3, p4, z4, frames34)
    if w.w_4d > 0:
        l4, _ = loss_4d(p4, z4, pairs4)
    total = loss_total(l3, l34, l4, w)
    report.l_3d = float(l3.value)
    report.l_3d4d = float(l34.value)
    report.l_4d = float(l4.value)
    report.total = float(total.value)
    return total, report


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    step: int
    model: ModelConfig
    train: TrainConfig
    velocity: dict[str, np.ndarray] = field(default_factory=dict)  # momentum buffers


_CONFIG = "config"           # tensor holding the UTF-8 JSON of step, model and train
_VELOCITY = "velocity."      # prefix of the momentum buffers' tensor names


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    meta = {"step": ckpt.step, "model": asdict(ckpt.model), "train": asdict(ckpt.train)}
    blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    velocity = {_VELOCITY + k: v for k, v in ckpt.velocity.items()}
    write_checkpoint(path, ckpt.tensors | velocity | {_CONFIG: blob})


def _check_tensors(path, tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise `DataFormatError` unless ``tensors`` are all of the model's
    tensors ``shapes``, or all of its 3D U-Net ones (a backbone export), each
    at its shape."""
    if all(k.startswith(nets.BACKBONE) for k in tensors):
        shapes = {k: v for k, v in shapes.items() if k.startswith(nets.BACKBONE)}
    missing, extra = sorted(shapes.keys() - tensors.keys()), sorted(tensors.keys() - shapes.keys())
    if missing:
        raise DataFormatError(f"{path}: tensor {missing[0]!r} of the stored model is missing")
    if extra:
        raise DataFormatError(f"{path}: tensor {extra[0]!r} is not part of the stored model")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise DataFormatError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, the stored model needs {shape}")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by `save_checkpoint`. Its tensors, and its
    momentum buffers if any, must match the stored model: all of them, or
    only the 3D U-Net ones that `export_backbone` keeps."""
    raw = read_checkpoint(path)
    try:
        meta = json.loads(raw.pop(_CONFIG).tobytes())
        m, tr = meta["model"], meta["train"]
        u3, u4 = (UNetConfig(**u | {"channels": tuple(u["channels"])}) for u in (m["unet3d"], m["unet4d"]))
        model = ModelConfig(u3, u4, m["voxel3d"], m["voxel4d"])
        train = TrainConfig(**tr | {"weights": LossWeights(**tr["weights"])})
        step = meta["step"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad checkpoint config: {exc!r}") from None
    velocity = {k[len(_VELOCITY):]: v for k, v in raw.items() if k.startswith(_VELOCITY)}
    tensors = {k: v for k, v in raw.items() if not k.startswith(_VELOCITY)}
    shapes = nets.parameter_shapes(model)
    _check_tensors(path, tensors, shapes)
    if velocity:
        _check_tensors(path, velocity, shapes)
    return Checkpoint(tensors, step, model, train, velocity)


def export_backbone(ckpt: Checkpoint) -> Checkpoint:
    """Keep only the 3D U-Net weights (no projector, predictor, or 4D head)."""
    tensors = {k: v for k, v in ckpt.tensors.items() if k.startswith(nets.BACKBONE)}
    if not tensors:
        raise ValueError("checkpoint has no 3D backbone tensors")
    return Checkpoint(tensors, ckpt.step, ckpt.model, ckpt.train)


def _inference_params(ckpt: Checkpoint, prefixes: str | tuple[str, ...]) -> dict[str, Var]:
    """The checkpoint tensors whose names start with one of ``prefixes``, as
    float32 constants: inference runs in float32 whatever dtype the run
    trained in."""
    return {k: Var(v.astype(np.float32)) for k, v in ckpt.tensors.items() if k.startswith(prefixes)}


def backbone_features(points: np.ndarray, ckpt: Checkpoint) -> tuple[np.ndarray, np.ndarray]:
    """Inference-only float32 forward of the 3D U-Net; returns (per-voxel
    backbone features, per-point voxel rows). No projection head is applied,
    so a backbone-only checkpoint from `export_backbone` suffices."""
    x, rows = nets.points_to_tensor(points, ckpt.model.voxel3d)
    out = nets.unet_forward(x, _inference_params(ckpt, nets.BACKBONE), ckpt.model.unet3d)
    return out.feats.value, rows


def projection_features(frames: list[np.ndarray], ckpt: Checkpoint) -> list[np.ndarray]:
    """Per-point float32 projection-head features ``z`` (U-Net, then
    projection: the features the losses compare) of each (N, 3) frame, one
    forward pass per frame."""
    if "proj3d.w" not in ckpt.tensors:
        raise DataFormatError("the checkpoint has no projection head (a backbone export?)")
    params = _inference_params(ckpt, (nets.BACKBONE, "proj3d."))
    out = []
    for points in frames:
        x, rows = nets.points_to_tensor(points, ckpt.model.voxel3d)
        z = nets.encode(x, params, ckpt.model.unet3d)
        out.append(z.feats.value[rows])
    return out


# ---------------------------------------------------------------------------
# Optimization


def load_dataset(data_dir: str | Path) -> list[Sequence]:
    paths = sorted(Path(data_dir).glob("*.4dc"))
    if not paths:
        raise EmptyInputError(f"no sequence files in {data_dir}")
    return [read_sequence(p) for p in paths]


def pretrain(
    sequences: list[Sequence],
    cfg: TrainConfig,
    model: ModelConfig | None = None,
    log_path: str | Path | None = None,
    resume: Checkpoint | None = None,
) -> tuple[Checkpoint, list[LossReport]]:
    """SGD over the joint loss with the step-decay schedule.

    Deterministic given (sequence bytes, config): batch assembly and all RNG
    use positional seeds. A non-finite loss raises `FloatingPointError`
    naming the step, the sequence index and the non-finite terms. With
    ``resume``, the run continues after ``resume.step`` from its weights and
    momentum buffers, so a run saved and resumed matches an uninterrupted one
    bit for bit.
    """
    if not sequences:
        raise EmptyInputError("dataset is empty")
    model = model or ModelConfig(voxel3d=cfg.voxel3d, voxel4d=cfg.voxel4d)
    if (model.voxel3d, model.voxel4d) != (cfg.voxel3d, cfg.voxel4d):
        raise ConfigError(
            f"voxel sizes differ: TrainConfig has {cfg.voxel3d}/{cfg.voxel4d}, "
            f"ModelConfig {model.voxel3d}/{model.voxel4d}"
        )
    widths = (model.unet3d.projection_width, model.unet4d.projection_width)
    if cfg.weights.w_3d4d > 0 and widths[0] != widths[1]:
        raise ConfigError(f"the 3D-4D loss compares the projections, but their widths differ: 3D {widths[0]}, 4D {widths[1]}")
    dtype = cfg.np_dtype
    params = build_parameters(model, seed=cfg.seed, dtype=dtype)
    velocity = {k: np.zeros_like(p.value) for k, p in params.items()}
    first = 1
    if resume is not None:
        if resume.model != model or resume.train.dtype != cfg.dtype:
            raise ConfigError("cannot resume: the checkpoint's model or dtype differs from this run's")
        if resume.step > cfg.steps:
            raise ConfigError(f"cannot resume: the checkpoint is at step {resume.step}, past steps={cfg.steps}")
        for k, p in params.items():
            p.value = resume.tensors[k]
        velocity |= resume.velocity
        first = resume.step + 1
    states: dict[int, _SequenceState] = {}
    reports: list[LossReport] = []

    log_file = open(log_path, "w") if log_path else None
    try:
        for step in range(first, cfg.steps + 1):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101, step)))
            batch = rng.choice(len(sequences), size=cfg.batch_size, replace=len(sequences) < cfg.batch_size)

            grad_sum = {k: np.zeros_like(p.value) for k, p in params.items()}
            step_report = LossReport(weights=cfg.weights)
            for seq_idx in batch:
                seq_idx = int(seq_idx)
                if seq_idx not in states:
                    states[seq_idx] = _SequenceState(sequences[seq_idx], cfg, seq_idx)
                loss, rep = sequence_loss(states[seq_idx], params, model, cfg)
                if not np.isfinite(rep.total):
                    terms = {"L3D": rep.l_3d, "L3D4D": rep.l_3d4d, "L4D": rep.l_4d}
                    bad = [name for name, v in terms.items() if not np.isfinite(v)] or ["the weighted total"]
                    raise FloatingPointError(
                        f"non-finite loss at step {step}, sequence {seq_idx}: {', '.join(bad)} "
                        f"(L3D={rep.l_3d} L3D4D={rep.l_3d4d} L4D={rep.l_4d})"
                    )
                grads = ad.grad(loss, params)
                for k in grad_sum:
                    grad_sum[k] += grads[k]
                step_report.l_3d += rep.l_3d / len(batch)
                step_report.l_3d4d += rep.l_3d4d / len(batch)
                step_report.l_4d += rep.l_4d / len(batch)
                step_report.total += rep.total / len(batch)

            lr = learning_rate_at(step, cfg)
            inv_b = 1.0 / len(batch)
            for k, p in params.items():
                g = grad_sum[k] * inv_b
                if cfg.momentum:
                    velocity[k] = cfg.momentum * velocity[k] + g
                    g = velocity[k]
                p.value = p.value - (lr * g).astype(dtype)
            reports.append(step_report)
            if log_file:
                log_file.write(
                    f"{step}\t{lr:.8g}\t{step_report.l_3d:.8g}\t{step_report.l_3d4d:.8g}"
                    f"\t{step_report.l_4d:.8g}\t{step_report.total:.8g}\n"
                )
                log_file.flush()
    finally:
        if log_file:
            log_file.close()

    tensors = {k: p.value.copy() for k, p in params.items()}
    return Checkpoint(tensors, cfg.steps, model, cfg, velocity if cfg.momentum else {}), reports


# ---------------------------------------------------------------------------
# Probe: correspondence similarity vs random-pair similarity


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = np.linalg.norm(a, axis=1)
    bn = np.linalg.norm(b, axis=1)
    return (a * b).sum(axis=1) / np.maximum(an * bn, 1e-12)


def probe(
    ckpt: Checkpoint,
    sequences: list[Sequence],
    max_pairs_per_sequence: int = 200,
    seed: int = 0,
) -> dict:
    """Mean cosine similarity of 3D features at corresponding point pairs
    versus at random non-corresponding pairs, over held-out sequences.

    The probe reads the backbone (U-Net) features, the representation
    `export_backbone` ships for downstream use, so a backbone-only checkpoint
    suffices. The untrained margin of these features is near zero."""
    params = _inference_params(ckpt, nets.BACKBONE)
    model = ckpt.model
    rng = np.random.default_rng(seed)
    corr_sims, rand_sims = [], []
    for seq in sequences:
        views = [frame.static_view().points for frame in seq.frames]
        x, rows = nets.frames_to_tensor(views, model.voxel3d)
        z = nets.unet_forward(x, params, model.unet3d)
        feats = [z.feats.value[r] for r in rows]
        for (i, j), (ia, ib) in build_correspondences(seq).items():
            if len(ia) == 0:
                continue
            if len(ia) > max_pairs_per_sequence:
                pick = rng.choice(len(ia), size=max_pairs_per_sequence, replace=False)
                ia, ib = ia[pick], ib[pick]
            corr_sims.append(_cosine(feats[i][ia], feats[j][ib]))
            ra = rng.integers(0, len(feats[i]), size=len(ia))
            rb = rng.integers(0, len(feats[j]), size=len(ia))
            rand_sims.append(_cosine(feats[i][ra], feats[j][rb]))
    corr_mean = float(np.mean(np.concatenate(corr_sims))) if corr_sims else float("nan")
    rand_mean = float(np.mean(np.concatenate(rand_sims))) if rand_sims else float("nan")
    return {
        "corresponding": corr_mean,
        "random": rand_mean,
        "margin": corr_mean - rand_mean,
        "pairs": int(sum(len(c) for c in corr_sims)),
    }


# ---------------------------------------------------------------------------
# Estimator facade


class ContrastivePretrainer:
    """Fit/transform wrapper around the pre-training pipeline.

    ``fit`` pre-trains on a list of sequences (or a dataset directory);
    ``transform`` maps an (N, 3) point array to per-point 3D projection-head
    features ``z`` (U-Net then projection, the features the losses compare),
    not the U-Net backbone features that `probe` and `export_backbone` use.
    Follows the scikit-learn estimator conventions
    (constructor stores hyperparameters verbatim; ``get_params`` /
    ``set_params`` for composition) without requiring scikit-learn itself.
    """

    def __init__(
        self,
        steps: int = 500,
        batch_size: int | None = None,
        learning_rate: float = 0.25,
        seed: int = 0,
        t: int = 4,
        dtype: str = "float32",
        model: ModelConfig | None = None,
    ):
        self.steps = steps
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.t = t
        self.dtype = dtype
        self.model = model

    _param_names = ("steps", "batch_size", "learning_rate", "seed", "t", "dtype", "model")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **kwargs) -> "ContrastivePretrainer":
        for key, value in kwargs.items():
            if key not in self._param_names:
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "ContrastivePretrainer":
        if isinstance(X, (str, Path)):
            X = load_dataset(X)
        if not X:
            raise EmptyInputError("no training sequences")
        model = self.model or ModelConfig()
        cfg = TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size or balance_batch(self.t),
            steps=self.steps,
            seed=self.seed,
            voxel3d=model.voxel3d,
            voxel4d=model.voxel4d,
            dtype=self.dtype,
        )
        self.checkpoint_, self.reports_ = pretrain(X, cfg, model)
        return self

    def transform(self, X) -> np.ndarray:
        """Per-point projection-head features, shape (N, projection width)."""
        if not hasattr(self, "checkpoint_"):
            raise RuntimeError("ContrastivePretrainer is not fitted")
        points = X.points if isinstance(X, PointCloud) else np.asarray(X, dtype=np.float64)
        return projection_features([points], self.checkpoint_)[0]

    def fit_transform(self, X, y=None) -> np.ndarray:
        """Fit, then transform the first frame of the first training sequence."""
        if isinstance(X, (str, Path)):
            X = load_dataset(X)
        self.fit(X, y)
        return self.transform(X[0].frames[0].cloud.points)
