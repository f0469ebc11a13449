"""Finite-difference verification of analytic gradients.

Builds miniature sequences and U-Nets in float64, then compares reverse-mode
gradients of each loss term against central finite differences on a random
subset of parameter components.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .geom import PointCloud, SimilarityTransform
from .losses import LossWeights
from .nets import ModelConfig, UNetConfig, build_parameters
from .seqgen import Sequence, SequenceFrame
from .trainer import TrainConfig, _SequenceState, sequence_loss

FD_STEP = 1e-6
TOLERANCE = 1e-4
# Central differences at h = 1e-6 in float64 carry ~1e-10..1e-9 of roundoff;
# differences below this floor are measurement noise, not gradient error.
ABS_NOISE_FLOOR = 1e-7


def tiny_model() -> ModelConfig:
    return ModelConfig(
        UNetConfig(3, (2, 3), projection_width=4),
        UNetConfig(4, (2, 3), projection_width=4),
        voxel3d=1.0,
        voxel4d=1.0,
    )


def tiny_sequence(rng: np.random.Generator, t: int = 2, n_points: int = 12) -> Sequence:
    """A miniature sequence with full correspondences and random static augs."""
    canonical = rng.uniform(0.0, 4.0, size=(n_points, 3))
    frames = []
    for k in range(t):
        keep = np.sort(rng.choice(n_points, size=max(4, n_points - 2), replace=False))
        jitter = rng.uniform(-0.2, 0.2, size=(len(keep), 3))
        cloud = PointCloud(canonical[keep] + jitter, keep.astype(np.int64))
        aug = SimilarityTransform.from_yaw(
            rng.uniform(0, 2 * np.pi), rng.uniform(-0.2, 0.2, 3), rng.uniform(0.8, 1.2)
        )
        frames.append(SequenceFrame(cloud, SimilarityTransform.identity(), aug))
    return Sequence(frames, 0, 0, scene_ref_points=n_points, object_ref_points=1)


def relative_error(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    if diff <= ABS_NOISE_FLOOR:
        return 0.0
    return diff / max(abs(analytic), abs(numeric), 1e-6)


def check_term(seed: int, weights: LossWeights, n_components: int = 20) -> list[tuple[str, float, float, float]]:
    """Gradient check of one weighted loss configuration.

    Returns (parameter name, analytic, numeric, relative error) per sampled
    component.

    A component whose error exceeds ``TOLERANCE`` is re-measured at
    ``FD_STEP / 10``. When a ReLU pre-activation happens to lie within
    ``FD_STEP`` of its kink, the central difference straddles the
    non-differentiable point and reports a spurious error; the refined step
    no longer crosses the kink and converges to the analytic value, whereas a
    genuinely wrong gradient fails at every step size.
    """
    rng = np.random.default_rng(seed)
    model = tiny_model()
    cfg = TrainConfig(
        learning_rate=0.1, batch_size=1, steps=1, seed=seed, dtype="float64",
        weights=weights, voxel3d=model.voxel3d, voxel4d=model.voxel4d,
        max_corr_per_pair=0, max_points_3d4d=0,
    )
    params = build_parameters(model, seed=seed, dtype=np.float64)
    # biases start at zero; nudge them so their gradients are generic
    for name, p in params.items():
        if name.endswith(".b"):
            p.value = rng.uniform(-0.1, 0.1, size=p.value.shape)
    state = _SequenceState(tiny_sequence(rng, t=3), cfg, 0)

    # Freeze stop-gradient branches at their baseline values so central
    # differences measure the same function the backward pass differentiates.
    freeze = ad.SGFreeze()
    with freeze.recording():
        loss, _ = sequence_loss(state, params, model, cfg)
    analytic = ad.grad(loss, params)

    def central_diff(flat, idx, orig, step):
        flat[idx] = orig + step
        with freeze.replaying():
            up, _ = sequence_loss(state, params, model, cfg)
        flat[idx] = orig - step
        with freeze.replaying():
            dn, _ = sequence_loss(state, params, model, cfg)
        flat[idx] = orig
        return (float(up.value) - float(dn.value)) / (2 * step)

    names = sorted(params)
    results = []
    for _ in range(n_components):
        name = names[int(rng.integers(0, len(names)))]
        flat = params[name].value.reshape(-1)
        idx = int(rng.integers(0, flat.size))
        orig = flat[idx]
        numeric = central_diff(flat, idx, orig, FD_STEP)
        a = float(analytic[name].reshape(-1)[idx])
        rel = relative_error(a, numeric)
        if rel > TOLERANCE:
            refined = central_diff(flat, idx, orig, FD_STEP / 10)
            refined_rel = relative_error(a, refined)
            if refined_rel < rel:
                numeric, rel = refined, refined_rel
        results.append((f"{name}[{idx}]", a, numeric, rel))
    return results


def run_gradcheck(seed: int = 0, n_seeds: int = 1, tolerance: float = TOLERANCE, n_components: int = 20) -> dict:
    """Check every loss term for several seeds; the acceptance-facing entry."""
    if n_seeds < 1:
        raise ConfigError(f"gradcheck needs at least one seed, got {n_seeds}")
    term_weights = {
        "loss_3d": LossWeights(1.0, 0.0, 0.0),
        "loss_3d4d": LossWeights(0.0, 1.0, 0.0),
        "loss_4d": LossWeights(0.0, 0.0, 1.0),
        "joint": LossWeights(1.0, 1.0, 1.0),
    }
    failures = []
    checked = 0
    worst = 0.0
    for s in range(n_seeds):
        for term, weights in term_weights.items():
            for name, a, numeric, rel in check_term(seed + s, weights, n_components):
                checked += 1
                worst = max(worst, rel)
                if rel > tolerance:
                    failures.append((term, seed + s, name, a, numeric, rel))
    return {"checked": checked, "worst": worst, "failures": failures, "tolerance": tolerance}
