"""Contrastive objectives over corresponding point features.

Three terms tie the branches together: an inter-frame 3D loss over all frame
pairs, a per-frame 3D-4D loss, and a 4D-4D loss across time steps, combined
as a weighted sum. All use the symmetrized negative cosine similarity with
stop-gradient placement as follows: the 3D-3D and 4D-4D terms stop gradients
on the ``z`` side; the 3D-4D term stops them on the predictor outputs, so
predictor parameters receive no gradient from it.

With ``normalize=True`` (default) each term is a mean over correspondences
and then over frame pairs (or frames), keeping magnitudes in [-1, 1]
regardless of correspondence counts; ``normalize=False`` reproduces the raw
sums.
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
    """Per-term values and bookkeeping for one training step."""

    l_3d: float = 0.0
    l_3d4d: float = 0.0
    l_4d: float = 0.0
    total: float = 0.0
    correspondences_3d: int = 0
    correspondences_3d4d: int = 0
    correspondences_4d: int = 0
    dropped: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def check(self, tol: float = 1e-12) -> bool:
        expect = (
            self.weights.w_3d * self.l_3d
            + self.weights.w_3d4d * self.l_3d4d
            + self.weights.w_4d * self.l_4d
        )
        return abs(self.total - expect) <= tol


def _reduce(terms: list[Var], normalize: bool) -> Var:
    stacked = ad.vsum([ad.scale(t, 1.0 / len(terms)) for t in terms]) if normalize else ad.vsum(terms)
    return stacked


def _sym_rows(p_a: Var, z_b: Var, p_b: Var, z_a: Var, sg_on_p: bool, normalize: bool) -> Var:
    """Mean (or sum) of the symmetrized row-wise negative cosine loss."""
    if sg_on_p:
        v1 = ad.neg_cosine_rows(stop_gradient(p_a), z_b)
        v2 = ad.neg_cosine_rows(stop_gradient(p_b), z_a)
    else:
        v1 = ad.neg_cosine_rows(p_a, stop_gradient(z_b))
        v2 = ad.neg_cosine_rows(p_b, stop_gradient(z_a))
    red = ad.mean_all if normalize else ad.sum_all
    return ad.vsum([ad.scale(red(v1), 0.5), ad.scale(red(v2), 0.5)])


def loss_3d(
    p: list[Var],
    z: list[Var],
    pair_maps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]],
    normalize: bool = True,
) -> tuple[Var, int]:
    """Inter-frame spatial loss over every frame pair of the sequence.

    ``p[i]``/``z[i]`` are the predictor/projection feature rows of frame i
    (frames may share one matrix); ``pair_maps[(i, j)]`` gives corresponding
    rows of frame i and frame j. Returns the loss and the number of
    correspondences used.
    """
    terms = []
    used = 0
    for (i, j), (ia, ib) in sorted(pair_maps.items()):
        if len(ia) == 0:
            continue
        term = _sym_rows(
            ad.rows(p[i], ia), ad.rows(z[j], ib),
            ad.rows(p[j], ib), ad.rows(z[i], ia),
            sg_on_p=False, normalize=normalize,
        )
        terms.append(term)
        used += len(ia)
    if not terms:
        raise LossUndefinedError("no usable correspondences for the 3D loss")
    return _reduce(terms, normalize), used


def loss_3d4d(
    p3: list[Var],
    z3: list[Var],
    p4: list[Var],
    z4: list[Var],
    per_frame: list[tuple[np.ndarray, np.ndarray]],
    normalize: bool = True,
    sg_on_predictor: bool = True,
) -> tuple[Var, int]:
    """Spatio-temporal loss tying each frame's 3D features to its 4D features.

    ``per_frame[i]`` is a (3D rows, 4D rows) pair: the rows of ``p3[i]``/
    ``z3[i]`` and of ``p4[i]``/``z4[i]`` that hold the same points of frame i.
    The stop-gradient sits on the predictor outputs (``sg_on_predictor=True``),
    so this term trains the encoders only; the flag exposes the conventional
    placement (on z) for comparison.
    """
    terms = []
    used = 0
    for i, (i3, i4) in enumerate(per_frame):
        if len(i3) == 0:
            continue
        term = _sym_rows(
            ad.rows(p3[i], i3), ad.rows(z4[i], i4),
            ad.rows(p4[i], i4), ad.rows(z3[i], i3),
            sg_on_p=sg_on_predictor, normalize=normalize,
        )
        terms.append(term)
        used += len(i3)
    if not terms:
        raise LossUndefinedError("no usable correspondences for the 3D-4D loss")
    return _reduce(terms, normalize), used


def loss_4d(
    p: list[Var],
    z: list[Var],
    pair_maps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]],
    normalize: bool = True,
) -> tuple[Var, int]:
    """4D-4D loss across time steps; same structure as the inter-frame loss."""
    return loss_3d(p, z, pair_maps, normalize)


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
