"""Contrastive objectives over corresponding point features.

Three terms tie the branches together: an inter-frame 3D loss over all frame
pairs, a per-frame 3D-4D loss, and a 4D-4D loss across time steps, combined
as a weighted sum. All use the symmetrized negative cosine similarity with
stop-gradient placement as follows: the 3D-3D and 4D-4D terms stop gradients
on the ``z`` side; the 3D-4D term stops them on the predictor outputs, so
predictor parameters receive no gradient from it.

Each term takes one feature matrix per view, shared by all frames; the
index maps pick its rows. A term gathers the rows of all its groups (frame
pairs, or frames for the 3D-4D term) at once and reduces them with one
weighted sum. A row of a group of ``n`` rows, out of ``G`` non-empty groups,
weighs ``0.5 / (n * G)``: the mean over correspondences and then over
groups, which keeps magnitudes in [-1, 1] regardless of correspondence
counts. The 0.5 averages the two symmetric halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var, stop_gradient
from .errors import ConfigError, LossUndefinedError


@dataclass(frozen=True)
class LossWeights:
    w_3d: float = 1.0
    w_3d4d: float = 1.0
    w_4d: float = 1.0

    def __post_init__(self):
        if min(self.w_3d, self.w_3d4d, self.w_4d) < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass
class LossReport:
    """Per-term loss values of one sequence or one training step."""

    l_3d: float = 0.0
    l_3d4d: float = 0.0
    l_4d: float = 0.0
    total: float = 0.0
    weights: LossWeights = field(default_factory=LossWeights)


def _sym_rows(
    p_a: Var,
    z_b: Var,
    p_b: Var,
    z_a: Var,
    groups: list[tuple[np.ndarray, np.ndarray]],
    sg_on_p: bool,
    term: str,
) -> tuple[Var, int]:
    """Symmetrized row-wise negative cosine over every group's row pairs.

    Group ``(ia, ib)`` pairs row ``ia[k]`` of ``p_a``/``z_a`` with row
    ``ib[k]`` of ``p_b``/``z_b``. Empty groups are skipped; the rest are
    gathered and reduced at once with the per-row weights of the module
    docstring. Returns the loss and the number of row pairs.
    """
    groups = [(ia, ib) for ia, ib in groups if len(ia)]
    if not groups:
        raise LossUndefinedError(f"no usable correspondences for the {term} loss")
    ia = np.concatenate([g[0] for g in groups])
    ib = np.concatenate([g[1] for g in groups])
    w = np.concatenate([np.full(len(g[0]), 0.5 / (len(g[0]) * len(groups))) for g in groups])
    pa, zb, pb, za = ad.rows(p_a, ia), ad.rows(z_b, ib), ad.rows(p_b, ib), ad.rows(z_a, ia)
    if sg_on_p:
        pa, pb = stop_gradient(pa), stop_gradient(pb)
    else:
        zb, za = stop_gradient(zb), stop_gradient(za)
    v = ad.add(ad.neg_cosine_rows(pa, zb), ad.neg_cosine_rows(pb, za))
    return ad.weighted_sum(v, w), len(ia)


def loss_3d(
    p: Var,
    z: Var,
    pair_maps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]],
) -> tuple[Var, int]:
    """Inter-frame spatial loss over every frame pair of the sequence.

    ``p``/``z`` are the predictor/projection feature matrices of all frames;
    ``pair_maps[(i, j)]`` gives the rows of frame i's points and of their
    corresponding points in frame j. Returns the loss and the number of
    correspondences used.
    """
    groups = [pair_maps[key] for key in sorted(pair_maps)]
    return _sym_rows(p, z, p, z, groups, sg_on_p=False, term="3D")


def loss_3d4d(
    p3: Var,
    z3: Var,
    p4: Var,
    z4: Var,
    per_frame: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[Var, int]:
    """Spatio-temporal loss tying each frame's 3D features to its 4D features.

    ``per_frame[i]`` is a (3D rows, 4D rows) pair: the rows of ``p3``/``z3``
    and of ``p4``/``z4`` that hold the same points of frame i. The
    stop-gradient sits on the predictor outputs, so this term trains the
    encoders only.
    """
    return _sym_rows(p3, z4, p4, z3, per_frame, sg_on_p=True, term="3D-4D")


def loss_4d(
    p: Var,
    z: Var,
    pair_maps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]],
) -> tuple[Var, int]:
    """4D-4D loss across time steps; same structure as the inter-frame loss."""
    return loss_3d(p, z, pair_maps)


def loss_total(
    l3: Var,
    l34: Var,
    l4: Var,
    weights: LossWeights = LossWeights(),
) -> Var:
    return ad.vsum([
        ad.scale(l3, weights.w_3d),
        ad.scale(l34, weights.w_3d4d),
        ad.scale(l4, weights.w_4d),
    ])
