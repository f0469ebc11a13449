"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every op builds a `Var` holding its forward value, its parents, and a closure
producing parent gradients from the output gradient. `backward` walks the
graph once in reverse topological (creation) order, so accumulation order is
deterministic. `stop_gradient` keeps the forward value and severs all
gradient flow.
"""

from __future__ import annotations

import itertools

import numpy as np

COSINE_EPS = 1e-12  # stabilizer under the norms in training mode

_ids = itertools.count()


class Var:
    """A node in the autodiff graph."""

    __slots__ = ("value", "parents", "_backward", "name", "uid")

    def __init__(self, value, parents=(), backward=None, name=None):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self._backward = backward
        self.name = name
        self.uid = next(_ids)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, name={self.name})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def parameter(value, name=None) -> Var:
    return Var(np.asarray(value), name=name)


class SGFreeze:
    """Records stop-gradient values once, then replays them verbatim.

    Finite differences of a forward pass containing stop-gradient only agree
    with reverse-mode gradients if the stopped branches are held constant.
    Record a baseline forward pass, then replay it around each perturbed pass;
    both passes must execute the same stop-gradient calls in the same order.
    """

    def __init__(self):
        self.values: list[np.ndarray] = []
        self._mode: str | None = None
        self._cursor = 0

    def recording(self):
        return _SGPhase(self, "record")

    def replaying(self):
        return _SGPhase(self, "replay")


class _SGPhase:
    def __init__(self, freeze: SGFreeze, mode: str):
        self.freeze = freeze
        self.mode = mode

    def __enter__(self):
        global _active_freeze
        if self.mode == "record":
            self.freeze.values.clear()
        self.freeze._mode = self.mode
        self.freeze._cursor = 0
        _active_freeze = self.freeze
        return self.freeze

    def __exit__(self, *exc):
        global _active_freeze
        self.freeze._mode = None
        _active_freeze = None
        return False


_active_freeze: SGFreeze | None = None


def stop_gradient(x: Var) -> Var:
    """Forward identity; contributes zero gradient to every ancestor."""
    value = x.value
    fr = _active_freeze
    if fr is not None:
        if fr._mode == "record":
            fr.values.append(value)
        elif fr._mode == "replay":
            if fr._cursor >= len(fr.values):
                raise RuntimeError("stop-gradient replay ran past the recorded pass")
            value = fr.values[fr._cursor]
            fr._cursor += 1
    return Var(value, parents=(x,), backward=lambda g: (None,))


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra ops


def add(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a: Var, c: float) -> Var:
    return Var(a.value * c, (a,), lambda g: (g * c,))


def matmul(x: Var, w: Var) -> Var:
    x, w = as_var(x), as_var(w)
    xv, wv = x.value, w.value
    return Var(xv @ wv, (x, w), lambda g: (g @ wv.T, xv.T @ g))


def add_bias(x: Var, b: Var) -> Var:
    """Row-broadcast bias add: (N, C) + (C,)."""
    x, b = as_var(x), as_var(b)
    return Var(x.value + b.value, (x, b), lambda g: (g, g.sum(axis=0)))


def relu(x: Var) -> Var:
    x = as_var(x)
    mask = x.value > 0
    # the bytes of np.where(mask, x, 0.0) at a fraction of its cost: fmax maps
    # NaN and -0.0 to +0.0 as that form does, where np.maximum propagates NaN
    return Var(np.fmax(x.value, 0), (x,), lambda g: (g * mask,))


def rows(x: Var, idx: np.ndarray) -> Var:
    """Gather rows by index; the backward pass scatter-adds."""
    x = as_var(x)
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        dx = np.zeros_like(x.value)
        np.add.at(dx, idx, g)
        return (dx,)

    return Var(x.value.take(idx, axis=0), (x,), bw)


def concat_cols(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    na = a.value.shape[1]
    return Var(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        lambda g: (g[:, :na], g[:, na:]),
    )


def weighted_sum(x: Var, w: np.ndarray) -> Var:
    """Scalar ``sum_r w[r] * x[r]`` of a vector; ``w`` is a constant."""
    x = as_var(x)
    w = np.asarray(w, dtype=x.value.dtype)
    return Var(np.asarray(x.value @ w), (x,), lambda g: (g * w,))


def vsum(terms: list[Var]) -> Var:
    """Sum of same-shaped Vars (used for weighted loss totals)."""
    vals = sum(t.value for t in terms)
    return Var(vals, tuple(terms), lambda g: tuple(g for _ in terms))


def channel_norm(x: Var, eps: float = 1e-5) -> Var:
    """Standardize each column over the rows: zero mean, unit variance."""
    x = as_var(x)
    xv = x.value
    # one deviation serves the variance and the output: the same bits as
    # xv.var, which subtracts the mean again
    d = xv - xv.mean(axis=0)
    inv = 1.0 / np.sqrt((d * d).mean(axis=0) + eps)
    y = d * inv

    def bw(g):
        gm = g.mean(axis=0)
        gym = (g * y).mean(axis=0)
        return ((g - gm - y * gym) * inv,)

    return Var(y, (x,), bw)


def neg_cosine_rows(p: Var, z: Var) -> Var:
    """Row-wise negative cosine similarity of two (R, C) feature matrices.

    The norms are floored at ``COSINE_EPS``, so a zero row gives 0 rather
    than NaN. Scale-invariant in each row of each argument.
    """
    p, z = as_var(p), as_var(z)
    pv, zv = p.value, z.value
    if pv.shape != zv.shape or pv.ndim != 2:
        raise ValueError(f"expected matching (R, C) matrices, got {pv.shape} and {zv.shape}")
    pn = np.maximum(np.sqrt((pv * pv).sum(axis=1)), COSINE_EPS)
    zn = np.maximum(np.sqrt((zv * zv).sum(axis=1)), COSINE_EPS)
    pu = pv / pn[:, None]
    zu = zv / zn[:, None]
    dot = (pu * zu).sum(axis=1)

    def bw(g):
        gcol = g[:, None]
        dp = -gcol * (zu - dot[:, None] * pu) / pn[:, None]
        dz = -gcol * (pu - dot[:, None] * zu) / zn[:, None]
        return (dp, dz)

    return Var(-dot, (p, z), bw)


# ---------------------------------------------------------------------------
# Backward pass


def topo_order(root: Var) -> list[Var]:
    """All nodes reachable from ``root``, parents before children."""
    seen: set[int] = set()
    order: list[Var] = []
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.uid in seen:
            continue
        seen.add(node.uid)
        stack.append((node, True))
        for p in node.parents:
            if p.uid not in seen:
                stack.append((p, False))
    return order


def backward(loss: Var) -> dict[int, np.ndarray]:
    """Reverse-mode gradients of a scalar loss, keyed by Var.uid.

    Every reachable node is visited exactly once; the gradient of any node,
    leaf or intermediate, can be looked up afterwards.
    """
    if loss.value.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    grads: dict[int, np.ndarray] = {loss.uid: np.asarray(1.0, dtype=loss.value.dtype)}
    for node in reversed(topo_order(loss)):
        g = grads.get(node.uid)
        if g is None or node._backward is None:
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            if parent.uid in grads:
                grads[parent.uid] = grads[parent.uid] + pg
            else:
                grads[parent.uid] = pg
    return grads


def grad(loss: Var, params: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients of ``loss`` w.r.t. named parameters; zero if disconnected."""
    grads = backward(loss)
    return {
        name: grads.get(p.uid, np.zeros_like(p.value))
        for name, p in params.items()
    }
