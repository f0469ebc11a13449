"""Sparse integer-coordinate tensors (3D/4D) and generalized sparse convolution.

Coordinates are absolute voxel indices carrying a batch column; a tensor
stride records the resolution level. Each stride has one kernel size, fixed
here. Stride-1 convolutions are submanifold (output coordinates equal input
coordinates) with ``SUB_KERNEL`` = 3 taps per axis, ``3**d`` offsets.
Stride-2 convolutions and their transposes have 2 taps per axis, ``2**d``
offsets; they emit the occupied downsampled cells and compose strides
multiplicatively. A weight with any other offset count is rejected.

Kernel maps pair input and output rows per kernel offset, ordered by output
row. They are built in key space: each coordinate row packs into one int64
key (14 bits per spatial field), the output keys are packed once, and an
offset's queries are those keys plus one key delta, looked up in the sorted
input keys (sorted only when they do not already ascend). One min/max check
per axis keeps every query inside the packing range, so no sum carries into
the next field. A submanifold map over rows in key order (every one the U-Nets
build) looks up only one offset of each +-k pair: offset -k's pairs are
offset k's two index arrays, swapped and shared, not copied, as in
TorchSparse's symmetric maps. Its centre offset pairs every row with itself;
it is stored as one ``arange`` shared by both sides and marked as
``KernelMap.identity``.

Offsets that follow each other along the last axis chain their lookups. When
every input and output row's last coordinate lies in one residue class
modulo the offset stride's last entry (true at every U-Net level) and the
input keys strictly ascend, no input key lies strictly between a query q and
q + step, so the next offset's insertion point is this offset's plus its
hit. Only the first offset of each run along the last axis is binary
searched; a map without that property searches every offset.

Kernel maps live in ``SparseTensor.maps``: one dict per voxelised input, shared
by every tensor derived from it. An entry is keyed by kind, stride and row
count (and the target's stride and row count for `transpose_conv`, which takes
any target), and stores the coordinates it was built from: a lookup accepts it
when they are the very arrays passed in, or else equal to them. Coordinate
arrays are never modified in place once they belong to a tensor, so a map
built from an array stays valid for as long as the array lives.

Every convolution runs one gather -> GEMM -> scatter round per offset that
has pairs, as in MinkowskiEngine; there is no dense fallback, since the maps
seen in practice are sparse (5-35 % of the (row, offset) slots hold a pair).
The identity offset skips the gather and the scatter: its GEMM reads the
input rows in place and adds straight into the output, the same operands in
the same order as the round would use. The transposed convolution runs the
same rounds on the stride-2 map with each offset's pairs swapped and its
weight matrix transposed. The gathered rows live only for their round: the
backward pass gathers them again for the offset's weight gradient, so a
training graph holds a conv's input and weights, not a copy of every pair's
input row.

Rows move as whole items. Gathers are `take` along axis 0, which copies the
same values as fancy indexing. A scatter is `autodiff.scatter_add_rows`: it
takes the destination rows, adds the GEMM result to them (the same operands
in the same order as ``dst[idx] += rows``) and stores each sum row as one
`np.void` item of width ``itemsize * C``. Within one offset the index lists
are unique on both sides, so no row is written twice in a round, and each
store writes exactly the sums the fancy-indexed accumulation would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var

SUB_KERNEL = 3  # taps per axis of the stride-1 (submanifold) convolutions
_COORD_BITS = 14
_COORD_BIAS = 1 << (_COORD_BITS - 1)


@dataclass
class SparseTensor:
    """Batched N-D sparse feature field.

    ``coords`` is never modified in place: the kernel maps in ``maps`` are
    matched to the coordinate arrays they were built from.
    """

    coords: np.ndarray   # (N, 1 + d) int64: batch index then d spatial coords
    feats: Var           # (N, C)
    stride: tuple[int, ...]
    maps: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.feats, np.ndarray):
            self.feats = Var(self.feats)
        d = self.coords.shape[1] - 1
        if d not in (3, 4):
            raise ValueError(f"spatial dimension must be 3 or 4, got {d}")
        if len(self.stride) != d:
            raise ValueError("stride must have one entry per spatial axis")
        if self.coords.shape[0] != self.feats.value.shape[0]:
            raise ValueError("coords and feats row counts differ")

    @property
    def dim(self) -> int:
        return self.coords.shape[1] - 1

    @property
    def channels(self) -> int:
        return self.feats.value.shape[1]

    def __len__(self) -> int:
        return len(self.coords)


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack (batch, spatial...) rows into unique int64 keys."""
    spatial = coords[:, 1:]
    # the batch index takes the bits left above the spatial fields
    batch_bound = 1 << (63 - _COORD_BITS * spatial.shape[1])
    if len(coords):
        # one column at a time, as in `_key_deltas`
        for c in range(spatial.shape[1]):
            if spatial[:, c].min() <= -_COORD_BIAS or spatial[:, c].max() >= _COORD_BIAS:
                raise ValueError("coordinate magnitude exceeds packing range")
        if coords[:, 0].min() < -batch_bound or coords[:, 0].max() >= batch_bound:
            raise ValueError(f"batch index outside [{-batch_bound}, {batch_bound}) cannot be packed")
    keys = coords[:, 0].astype(np.int64)
    for c in range(spatial.shape[1]):
        keys = (keys << _COORD_BITS) | (spatial[:, c] + _COORD_BIAS)
    return keys


def unique_coords(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate coordinate rows; returns (unique rows, inverse index)."""
    keys = pack_coords(coords)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return coords[first], inverse


def kernel_offsets(dim: int, kernel_size: int) -> np.ndarray:
    """All kernel offsets; centered for odd sizes, forward for even sizes."""
    if kernel_size % 2 == 1:
        r = range(-(kernel_size // 2), kernel_size // 2 + 1)
    else:
        r = range(kernel_size)
    return np.array(list(itertools.product(r, repeat=dim)), dtype=np.int64)


def _lookup(
    sorted_keys: np.ndarray, order: np.ndarray | None, query: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keyed row, query index) of each query key present among the keyed
    rows, in query order, and the mask of present queries.

    ``pos`` holds each query's insertion point in the nonempty
    ``sorted_keys``; ``order`` maps sorted positions to rows, or is None when
    the keys are already in row order.
    """
    hit = sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == query
    qi = np.flatnonzero(hit)
    ii = pos[qi]
    return (ii if order is None else order[ii]), qi, hit


class KernelMap:
    """Per-offset (input row, output row) index pairs.

    ``identity`` is the index of an offset that pairs every row with itself
    through one shared ``arange`` (the centre of a mirrored submanifold map),
    or None.
    """

    def __init__(
        self,
        pairs: list[tuple[np.ndarray, np.ndarray]],
        n_in: int,
        n_out: int,
        identity: int | None = None,
    ):
        self.pairs = pairs
        self.n_in = n_in
        self.n_out = n_out
        self.identity = identity


def downsample_coords(coords: np.ndarray, stride: tuple[int, ...]) -> np.ndarray:
    """Occupied cells at twice the stride, in absolute coordinates."""
    s = np.array(stride, dtype=np.int64)
    out = coords.copy()
    out[:, 1:] = np.floor_divide(out[:, 1:], 2 * s) * (2 * s)
    _, first = np.unique(pack_coords(out), return_index=True)
    return out[first]


def _key_deltas(out_coords: np.ndarray, offsets: np.ndarray, offset_stride: tuple[int, ...]) -> np.ndarray:
    """Packed-key change of each offset * offset_stride.

    A query key is an output key plus its offset's delta. That equals the
    packed query coordinates only while every spatial field stays inside the
    packing range; past it the sum carries into the next field and would
    match a wrong row, so a query outside the range raises, as
    `pack_coords` does.
    """
    shifts = offsets * np.array(offset_stride, dtype=np.int64)
    if len(out_coords) and len(shifts):
        # one column at a time: a column reduction of the (N, d) block is ~10x slower
        for c in range(shifts.shape[1]):
            axis = out_coords[:, 1 + c]
            if axis.min() + shifts[:, c].min() <= -_COORD_BIAS or axis.max() + shifts[:, c].max() >= _COORD_BIAS:
                raise ValueError("kernel query coordinate exceeds packing range")
    field_weights = np.array([1 << (_COORD_BITS * c) for c in range(shifts.shape[1] - 1, -1, -1)], dtype=np.int64)
    return shifts @ field_weights


def build_kernel_map(
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    offsets: np.ndarray,
    offset_stride: tuple[int, ...],
) -> KernelMap:
    """For each offset k: input rows at out + k * offset_stride.

    Pairs are ordered by output row. A submanifold map (``out_coords is
    in_coords``) over rows in ascending key order, with an offset list that
    reads as its own negation backwards, is mirrored: its centre is the
    identity and it looks up the offsets after the centre only; offset -k's
    pairs are offset k's two arrays, swapped. Lookups chain along the last
    axis where the module docstring's residue condition holds.
    """
    in_keys = pack_coords(in_coords)
    out_keys = in_keys if out_coords is in_coords else pack_coords(out_coords)
    deltas = _key_deltas(out_coords, offsets, offset_stride)
    n = len(offsets)
    if len(in_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return KernelMap([(empty, empty)] * n, 0, len(out_coords))
    # over rows in strictly ascending key order, ii ascends with oi, so the
    # swapped pairs of offset -k are again ordered by output row
    ascending = bool(np.all(in_keys[1:] > in_keys[:-1]))
    order = None if ascending else np.argsort(in_keys, kind="stable")
    sorted_keys = in_keys if ascending else in_keys[order]
    mirrored = out_coords is in_coords and ascending and np.array_equal(offsets[::-1], -offsets)
    last = np.concatenate([in_coords[:, -1], out_coords[:, -1]]) % offset_stride[-1]
    chained = ascending and bool(np.all(last == last[0]))
    # follows[k]: offset k is offset k - 1 moved one step along the last axis
    follows = np.zeros(n, dtype=bool)
    follows[1:] = np.all(offsets[1:, :-1] == offsets[:-1, :-1], axis=1) & (offsets[1:, -1] == offsets[:-1, -1] + 1)
    follows &= chained
    pairs: list = [None] * n
    identity = None
    if mirrored and n % 2:
        # the middle offset is its own negation, the zero offset
        identity = n // 2
        rows = np.arange(len(in_keys), dtype=np.int64)
        pairs[identity] = (rows, rows)
        pos, hit = rows, True  # every row hits itself
    for k in range((n + 1) // 2 if mirrored else 0, n):
        query = out_keys + deltas[k]
        pos = pos + hit if follows[k] else np.searchsorted(sorted_keys, query)
        ii, oi, hit = _lookup(sorted_keys, order, query, pos)
        pairs[k] = (ii, oi)
        if mirrored:
            pairs[n - 1 - k] = (oi, ii)
    return KernelMap(pairs, len(in_coords), len(out_coords), identity)


def _same_coords(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


def _get_kernel_map(x: SparseTensor, kind: str, target=None):
    """Kernel map for submanifold / down / up convolutions, cached in ``x.maps``."""
    key = (kind, x.stride, x.coords.shape[0])
    if kind == "up":
        key += (target[1], target[0].shape[0])
    entry = x.maps.get(key)
    if entry is not None:
        coords, built = entry
        # an up map's output coords are the target it was built onto
        if _same_coords(coords, x.coords) and (target is None or _same_coords(built[1], target[0])):
            return built

    dim = x.dim
    if kind == "sub":
        offsets = kernel_offsets(dim, SUB_KERNEL)
        out_coords = x.coords
        kmap = build_kernel_map(x.coords, out_coords, offsets, x.stride)
        out_stride = x.stride
    elif kind == "down":
        offsets = kernel_offsets(dim, 2)
        out_coords = downsample_coords(x.coords, x.stride)
        kmap = build_kernel_map(x.coords, out_coords, offsets, x.stride)
        out_stride = tuple(2 * s for s in x.stride)
    elif kind == "up":
        # adjoint of "down": the fine->coarse map with each offset's pairs swapped
        assert target is not None
        fine_coords, fine_stride = target
        down = build_kernel_map(fine_coords, x.coords, kernel_offsets(dim, 2), fine_stride)
        kmap = KernelMap([(oi, ii) for ii, oi in down.pairs], down.n_out, down.n_in)
        out_coords, out_stride = fine_coords, fine_stride
    else:
        raise ValueError(kind)
    x.maps[key] = x.coords, (kmap, out_coords, out_stride)
    return x.maps[key][1]


def _conv_apply(feats: Var, weight: Var, kmap: KernelMap) -> Var:
    """out[o] += x[i] @ W[k] over kernel-map pairs; autodiff-aware.

    One gather -> GEMM -> scatter round per offset; offsets without pairs are
    skipped, and the identity offset reads and writes whole arrays in place.
    Gathers are row `take`s and scatters row-item stores through
    `autodiff.scatter_add_rows`, both exact because each offset's index
    lists are unique (see the module docstring). `take` copies a
    non-contiguous source whole on every call, so the input and the output
    gradient are made C-contiguous once. No gathered rows outlive their
    GEMM: the backward pass gathers each offset's input rows again for the
    weight gradient, the same values in the same product.
    """
    xv, wv = np.ascontiguousarray(feats.value), weight.value
    out = np.zeros((kmap.n_out, wv.shape[2]), dtype=xv.dtype)
    out_items = ad.row_items(out)
    for k, (ii, oi) in enumerate(kmap.pairs):
        if k == kmap.identity:
            out += xv @ wv[k]
        elif len(ii):
            ad.scatter_add_rows(out, out_items, oi, xv.take(ii, axis=0) @ wv[k])

    def bw(g):
        g = np.ascontiguousarray(g)
        dx = np.zeros(xv.shape, xv.dtype)
        dx_items = ad.row_items(dx)
        dw = np.zeros_like(wv)
        for k, (ii, oi) in enumerate(kmap.pairs):
            if k == kmap.identity:
                dx += g @ wv[k].T
                dw[k] = xv.T @ g
            elif len(ii):
                go = g.take(oi, axis=0)
                ad.scatter_add_rows(dx, dx_items, ii, go @ wv[k].T)
                dw[k] = xv.take(ii, axis=0).T @ go
        return (dx, dw)

    return Var(out, (feats, weight), bw)


def _transpose_offsets(weight: Var) -> Var:
    """(K, A, B) -> (K, B, A): each offset's weight matrix transposed."""
    return Var(weight.value.transpose(0, 2, 1), (weight,), lambda g: (g.transpose(0, 2, 1),))


def _check_offsets(weight: Var, dim: int, ksize: int, what: str) -> None:
    n = weight.value.shape[0]
    if n != ksize**dim:
        raise ValueError(f"{what} in {dim}D needs {ksize**dim} kernel offsets, the weight has {n}")


def sparse_conv(x: SparseTensor, weight: Var, stride: int = 1) -> SparseTensor:
    """Generalized sparse convolution.

    ``weight`` has shape (K, C_in, C_out). Stride 1 is submanifold with
    K = ``SUB_KERNEL**d``; stride 2 has K = ``2**d`` and halves the
    resolution.
    """
    if weight.value.shape[1] != x.channels:
        raise ValueError(f"channel mismatch: input {x.channels}, kernel {weight.value.shape[1]}")
    if stride == 1:
        _check_offsets(weight, x.dim, SUB_KERNEL, "a stride-1 convolution")
        kmap, out_coords, out_stride = _get_kernel_map(x, "sub")
    elif stride == 2:
        _check_offsets(weight, x.dim, 2, "a stride-2 convolution")
        kmap, out_coords, out_stride = _get_kernel_map(x, "down")
    else:
        raise ValueError("stride must be 1 or 2")
    return SparseTensor(out_coords, _conv_apply(x.feats, weight, kmap), out_stride, x.maps)


def transpose_conv(
    x: SparseTensor,
    weight: Var,
    target_coords: np.ndarray,
    target_stride: tuple[int, ...],
) -> SparseTensor:
    """Adjoint of the stride-2 convolution, onto the supplied target coords.

    ``weight`` has shape (``2**d``, C_out, C_in), as the matching stride-2
    convolution's. The target coordinate set comes from the matching encoder
    level (U-Net skip bookkeeping); it must be nonempty.
    """
    if len(target_coords) == 0:
        raise ValueError("target coordinate set is empty")
    if weight.value.shape[2] != x.channels:
        raise ValueError(f"channel mismatch: input {x.channels}, kernel {weight.value.shape[2]}")
    _check_offsets(weight, x.dim, 2, "a transposed convolution")
    kmap, out_coords, out_stride = _get_kernel_map(x, "up", target=(target_coords, target_stride))
    return SparseTensor(out_coords, _conv_apply(x.feats, _transpose_offsets(weight), kmap), out_stride, x.maps)


# ---------------------------------------------------------------------------
# Pointwise ops


def relu(x: SparseTensor) -> SparseTensor:
    return SparseTensor(x.coords, ad.relu(x.feats), x.stride, x.maps)


def linear_1x1(x: SparseTensor, weight: Var, bias: Var) -> SparseTensor:
    """1x...x1 convolution: a per-coordinate affine map, one `autodiff.linear` node."""
    return SparseTensor(x.coords, ad.linear(x.feats, weight, bias), x.stride, x.maps)


def add(x: SparseTensor, y: SparseTensor) -> SparseTensor:
    if x.coords.shape != y.coords.shape or not np.array_equal(x.coords, y.coords):
        raise ValueError("add requires identical coordinate sets")
    return SparseTensor(x.coords, ad.add(x.feats, y.feats), x.stride, x.maps)


def concat(x: SparseTensor, y: SparseTensor) -> SparseTensor:
    if not np.array_equal(x.coords, y.coords):
        raise ValueError("concat requires identical coordinate sets")
    return SparseTensor(x.coords, ad.concat_cols(x.feats, y.feats), x.stride, x.maps)


def channel_norm(x: SparseTensor) -> SparseTensor:
    return SparseTensor(x.coords, ad.channel_norm(x.feats), x.stride, x.maps)
