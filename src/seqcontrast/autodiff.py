"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every op builds a `Var` holding its forward value. A node joins the graph
only when it is live: `parameter` makes live leaves, and an op's output is
live when any of its inputs is. A live node keeps its parents and a closure
producing parent gradients from the output gradient; any other node keeps
neither, so a pass over constants alone (inference) builds no graph and frees
each intermediate as soon as nothing reads it. A closure holds only what its
backward pass reads: `linear` is one node, so the product before its bias add
is never held. Column sums and means (`col_sum`, `col_mean`) have the bytes
of NumPy's ``sum(axis=0)`` and ``mean(axis=0)``. `grad` is the one reverse
pass: it walks the graph once in reverse topological (creation) order, so
accumulation order is deterministic, and drops each inner node's gradient as
soon as its closure has used it.
`stop_gradient` returns a constant holding the forward value, so no gradient
flows through it.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

COSINE_EPS = 1e-12  # stabilizer under the norms in training mode

_ids = itertools.count()


class Var:
    """A value, and a node of the autodiff graph when ``live``.

    A Var is live when it is a `parameter` or when any of its ``parents`` is
    live. Only a live Var stores its parents and backward closure; any other
    one is a constant with no parents, whatever it was computed from.
    """

    __slots__ = ("value", "parents", "_backward", "name", "uid", "live")

    def __init__(self, value, parents=(), backward=None, name=None):
        parents = tuple(parents)
        self.value = np.asarray(value)
        self.live = any(p.live for p in parents)
        self.parents = parents if self.live else ()
        self._backward = backward if self.live else None
        self.name = name
        self.uid = next(_ids)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, name={self.name})"


def parameter(value, name=None) -> Var:
    """A live leaf: the only kind of Var `grad` differentiates with respect to."""
    v = Var(np.asarray(value), name=name)
    v.live = True
    return v


_stop_hook = None  # maps each stop_gradient value while an SGFreeze phase runs


class SGFreeze:
    """Records stop-gradient values once, then replays them verbatim.

    Finite differences of a forward pass containing stop-gradient only agree
    with reverse-mode gradients if the stopped branches are held constant.
    Record a baseline forward pass inside ``recording()``, then run each
    perturbed pass inside its own ``replaying()``, which starts again from the
    first recorded value; both passes must execute the same stop-gradient
    calls in the same order.
    """

    def __init__(self):
        self.values: list[np.ndarray] = []

    @contextlib.contextmanager
    def recording(self):
        self.values.clear()

        def record(value):
            self.values.append(value)
            return value

        with _hooked(record):
            yield self

    @contextlib.contextmanager
    def replaying(self):
        recorded = iter(self.values)

        def replay(_):
            value = next(recorded, None)
            if value is None:
                raise RuntimeError("stop-gradient replay ran past the recorded pass")
            return value

        with _hooked(replay):
            yield self


@contextlib.contextmanager
def _hooked(hook):
    global _stop_hook
    _stop_hook = hook
    try:
        yield
    finally:
        _stop_hook = None


def stop_gradient(x: Var) -> Var:
    """A constant holding ``x``'s value: no gradient reaches ``x`` through it.
    Inside an `SGFreeze` phase the value is recorded or replayed."""
    return Var(x.value if _stop_hook is None else _stop_hook(x.value))


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra ops


def add(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a: Var, c: float) -> Var:
    return Var(a.value * c, (a,), lambda g: (g * c,))


def linear(x: Var, w: Var, b: Var) -> Var:
    """Row-wise affine map ``x @ w + b``: (N, A) @ (A, C) + (C,), one node.

    The product is summed with the bias in place, so it is never held apart
    from the output. A constant ``x`` gets no gradient.
    """
    xv, wv = x.value, w.value
    y = xv @ wv
    y += b.value
    return Var(y, (x, w, b), lambda g: (g @ wv.T if x.live else None, xv.T @ g, col_sum(g)))


def col_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` of an (N, C) array, byte for byte, at about a
    quarter of its cost.

    On row-major rows (C-ordered, or a column slice of such rows) with two or
    more columns, NumPy's sum adds each column row by row, in row order,
    starting from +0.0, and so does ``einsum("ij->j")``, with no multiply.
    A single column (which NumPy sums pairwise) or another layout is left to
    ``sum``.
    """
    if a.shape[1] < 2 or a.strides[1] != a.itemsize:
        return a.sum(axis=0)
    return np.einsum("ij->j", a)


def col_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=0)`` of an (N, C) array, byte for byte: `col_sum`
    divided by the row count as ``mean`` divides it."""
    s = col_sum(a)
    return np.true_divide(s, np.intp(a.shape[0]), out=s, casting="unsafe")


def relu(x: Var) -> Var:
    mask = x.value > 0
    # the bytes of np.where(mask, x, 0.0) at a fraction of its cost: fmax maps
    # NaN and -0.0 to +0.0 as that form does, where np.maximum propagates NaN
    return Var(np.fmax(x.value, 0), (x,), lambda g: (g * mask,))


def row_items(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (N, C) array viewed as N items of C values each."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))


def scatter_add_rows(dst: np.ndarray, dst_items: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``dst[idx] += rows`` for unique ``idx``; ``dst_items`` is
    ``row_items(dst)``.

    The sums form in a C-ordered copy of the destination rows, with the same
    operands, order and output dtype as the fancy-indexed form; each sum row
    is then stored as one item, which NumPy moves far faster than a row of C
    scalars. With unique ``idx`` no row is written twice, so each store
    writes exactly the sums the fancy-indexed form would.
    """
    acc = dst.take(idx, axis=0)
    acc += rows
    dst_items.put(idx, acc.view(dst_items.dtype))


def _occurrence_layers(idx: np.ndarray) -> list[np.ndarray]:
    """Positions into ``idx``, split so that layer r holds the r-th
    occurrence of each index value: the values within a layer are unique."""
    n = len(idx)
    order = np.argsort(idx, kind="stable")  # equal values keep their order
    s = idx[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    rank = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    bounds = np.cumsum(np.bincount(rank))[:-1]
    return np.split(order[np.argsort(rank, kind="stable")], bounds)


def rows(x: Var, idx: np.ndarray) -> Var:
    """Gather rows of an (N, C) matrix by index; the backward pass
    scatter-adds.

    The scatter adds one occurrence layer at a time (`_occurrence_layers`),
    each with `scatter_add_rows`. A destination row so receives its
    gradient rows one by one, in the order they appear in ``idx``, starting
    from zero: ``np.add.at``'s sums, bit for bit, in about half its time on
    float32 rows.
    """
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        g = np.ascontiguousarray(g)
        dx = np.zeros(x.value.shape, x.value.dtype)
        dx_items = row_items(dx)
        for pos in _occurrence_layers(idx):
            scatter_add_rows(dx, dx_items, idx[pos], g.take(pos, axis=0))
        return (dx,)

    return Var(x.value.take(idx, axis=0), (x,), bw)


def concat_cols(a: Var, b: Var) -> Var:
    na = a.value.shape[1]
    return Var(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        lambda g: (g[:, :na], g[:, na:]),
    )


def weighted_sum(x: Var, w: np.ndarray) -> Var:
    """Scalar ``sum_r w[r] * x[r]`` of a vector; ``w`` is a constant."""
    w = np.asarray(w, dtype=x.value.dtype)
    return Var(np.asarray(x.value @ w), (x,), lambda g: (g * w,))


def vsum(terms: list[Var]) -> Var:
    """Sum of same-shaped Vars (used for weighted loss totals)."""
    vals = sum(t.value for t in terms)
    return Var(vals, tuple(terms), lambda g: tuple(g for _ in terms))


def channel_norm(x: Var, eps: float = 1e-5) -> Var:
    """Standardize each column over the rows: zero mean, unit variance."""
    xv = x.value
    # one deviation serves the variance and the output: the same bits as
    # xv.var, which subtracts the mean again
    d = xv - col_mean(xv)
    inv = 1.0 / np.sqrt(col_mean(d * d) + eps)
    y = d * inv

    def bw(g):
        gm = col_mean(g)
        gym = col_mean(g * y)
        # (g - gm - y * gym) * inv, the same operations in the same order,
        # built in one array
        r = g - gm
        r -= y * gym
        r *= inv
        return (r,)

    return Var(y, (x,), bw)


def neg_cosine_rows(p: Var, z: Var) -> Var:
    """Row-wise negative cosine similarity of two (R, C) feature matrices.

    The norms are floored at ``COSINE_EPS``, so a zero row gives 0 rather
    than NaN. Scale-invariant in each row of each argument.
    """
    pv, zv = p.value, z.value
    if pv.shape != zv.shape or pv.ndim != 2:
        raise ValueError(f"expected matching (R, C) matrices, got {pv.shape} and {zv.shape}")
    pn = np.maximum(np.sqrt((pv * pv).sum(axis=1)), COSINE_EPS)
    zn = np.maximum(np.sqrt((zv * zv).sum(axis=1)), COSINE_EPS)
    pu = pv / pn[:, None]
    zu = zv / zn[:, None]
    dot = (pu * zu).sum(axis=1)

    def bw(g):
        # a stop-gradient side is a constant: its half is not computed
        gcol = g[:, None]
        dp = -gcol * (zu - dot[:, None] * pu) / pn[:, None] if p.live else None
        dz = -gcol * (pu - dot[:, None] * zu) / zn[:, None] if z.live else None
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


def grad(loss: Var, params: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients of a scalar ``loss`` w.r.t. named parameters; zero if
    disconnected.

    One walk in reverse topological order: each node's closure runs once,
    and an inner node's gradient is dropped as soon as its closure has read
    it, so at most the gradients on the walk's frontier are held at a time.

    Nothing reads a constant parent's gradient. Closures whose side for a
    constant costs a product (`linear`, `neg_cosine_rows`) return None for
    it, and the walk drops whatever a closure returns for a constant.

    Every Var in ``params`` must be live (a `parameter`): a constant records
    no graph, so its gradient would silently read as zero.
    """
    for name, p in params.items():
        if not p.live:
            raise ValueError(f"cannot differentiate with respect to {name!r}: it is a constant, not a parameter")
    if loss.value.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    grads: dict[int, np.ndarray] = {loss.uid: np.asarray(1.0, dtype=loss.value.dtype)}
    for node in reversed(topo_order(loss)):
        if node._backward is None:
            continue  # a leaf keeps its entry: the parameters are leaves
        # every child of a node comes before it in this walk: its gradient is
        # complete here, and nothing reads it once its closure has
        for parent, pg in zip(node.parents, node._backward(grads.pop(node.uid))):
            if not parent.live:
                continue  # a constant: nothing reads its gradient
            if parent.uid in grads:
                grads[parent.uid] = grads[parent.uid] + pg
            else:
                grads[parent.uid] = pg
    return {
        name: grads.get(p.uid, np.zeros_like(p.value))
        for name, p in params.items()
    }
