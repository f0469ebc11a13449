import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mul, sum_all
from seqcontrast import autodiff as ad
from seqcontrast import sparse as sp
from seqcontrast.autodiff import Var
from seqcontrast.sparse import (
    KernelMap,
    SparseTensor,
    _conv_apply,
    build_kernel_map,
    downsample_coords,
    kernel_offsets,
    pack_coords,
    sparse_conv,
    transpose_conv,
    unique_coords,
)


def grid_tensor(shape, channels, rng, dim=None, batch=0):
    """Fully occupied grid as a sparse tensor (row order = lexicographic)."""
    dim = dim or len(shape)
    coords = np.array(list(itertools.product(*[range(s) for s in shape])), dtype=np.int64)
    coords = np.column_stack([np.full(len(coords), batch, dtype=np.int64), coords])
    feats = rng.normal(size=(len(coords), channels))
    return SparseTensor(coords, feats, (1,) * dim)


def dense_conv_oracle(coords, feats, weight, offsets, stride=1):
    """Reference convolution: explicit neighbor lookup per output row."""
    index = {tuple(c): i for i, c in enumerate(coords)}
    if stride == 1:
        out_coords = coords
    else:
        down = coords.copy()
        down[:, 1:] = (down[:, 1:] // 2) * 2
        seen, out = set(), []
        for c in down:
            t = tuple(c)
            if t not in seen:
                seen.add(t)
                out.append(c)
        out_coords = np.array(sorted(out, key=lambda c: tuple(c)))
    result = np.zeros((len(out_coords), weight.shape[2]))
    for o, c in enumerate(out_coords):
        for k, off in enumerate(offsets):
            q = tuple(np.concatenate([[c[0]], c[1:] + off]))
            i = index.get(q)
            if i is not None:
                result[o] += feats[i] @ weight[k]
    return out_coords, result


class TestCoordPacking:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 4]))
    def test_pack_is_injective(self, seed, dim):
        rng = np.random.default_rng(seed)
        coords = rng.integers(-200, 200, size=(500, 1 + dim))
        coords[:, 0] = rng.integers(0, 8, size=500)
        keys = pack_coords(coords)
        _, first = np.unique(keys, return_index=True)
        uniq_rows = np.unique(coords, axis=0)
        assert len(first) == len(uniq_rows)

    def test_out_of_range_rejected(self):
        coords = np.array([[0, 1 << 13, 0, 0]], dtype=np.int64)
        with pytest.raises(ValueError):
            pack_coords(coords)
        # 4D keys leave 8 bits for the batch index: 128 and -128 would share a key
        with pytest.raises(ValueError):
            pack_coords(np.array([[128, 1, 2, 3, 0], [-128, 1, 2, 3, 0]], dtype=np.int64))
        keys = pack_coords(np.array([[127, 1, 2, 3, 0], [-128, 1, 2, 3, 0]], dtype=np.int64))
        assert keys[0] != keys[1]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_range_check_raises_where_the_magnitude_check_did(self, dim):
        """Per column, a value v raises exactly when |v| >= 2**13; the most
        negative int64, whose magnitude overflows, raises too."""
        edge = 1 << 13
        for col in range(1, 1 + dim):
            for v in (-edge - 1, -edge, -edge + 1, 0, edge - 1, edge, edge + 1):
                coords = np.zeros((3, 1 + dim), dtype=np.int64)
                coords[1, col] = v
                if abs(v) >= edge:
                    with pytest.raises(ValueError, match="packing range"):
                        pack_coords(coords)
                else:
                    pack_coords(coords)
            coords = np.zeros((2, 1 + dim), dtype=np.int64)
            coords[0, col] = np.iinfo(np.int64).min
            with pytest.raises(ValueError, match="packing range"):
                pack_coords(coords)
        assert pack_coords(np.zeros((0, 1 + dim), dtype=np.int64)).shape == (0,)

    def test_unique_coords_inverse(self):
        coords = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [0, 0, 0, 0]], dtype=np.int64)
        uniq, inv = unique_coords(coords)
        assert len(uniq) == 2
        np.testing.assert_array_equal(uniq[inv], coords)


class TestKernelOffsets:
    def test_odd_is_centered(self):
        offs = kernel_offsets(3, 3)
        assert len(offs) == 27
        assert offs.min() == -1 and offs.max() == 1

    def test_even_is_forward(self):
        offs = kernel_offsets(4, 2)
        assert len(offs) == 16
        assert offs.min() == 0 and offs.max() == 1


def kernel_map_oracle(in_coords, out_coords, offsets, offset_stride):
    """Per offset, (input rows, output rows) by dict lookup, in output-row order."""
    index = {}
    for i, c in enumerate(in_coords):
        index.setdefault(tuple(c), i)
    stride = np.array(offset_stride)
    pairs = []
    for off in offsets:
        found = [(index[q], o) for o, c in enumerate(out_coords)
                 if (q := (c[0], *(c[1:] + off * stride))) in index]
        ii, oi = zip(*found) if found else ((), ())
        pairs.append((np.array(ii, dtype=np.int64), np.array(oi, dtype=np.int64)))
    return pairs


def assert_same_pairs(got, want):
    assert len(got) == len(want)
    for (ii, oi), (wi, wo) in zip(got, want):
        np.testing.assert_array_equal(ii, wi)
        np.testing.assert_array_equal(oi, wo)


class TestKernelMapInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 4]))
    def test_matches_dict_lookup_oracle(self, seed, dim):
        """Sub maps at offset strides 1 and 2, down maps, and a sub map over
        rows out of key order, pair for pair and in order."""
        rng = np.random.default_rng(seed)
        raw = rng.integers(-5, 5, size=(150, 1 + dim))
        raw[:, 0] = rng.integers(0, 4, size=len(raw))
        fine, _ = unique_coords(raw)
        unit = (1,) * dim
        coarse = downsample_coords(fine, unit)
        shuffled = fine[rng.permutation(len(fine))]
        cases = [
            (fine, fine, kernel_offsets(dim, 3), unit),
            (coarse, coarse, kernel_offsets(dim, 3), (2,) * dim),
            (shuffled, shuffled, kernel_offsets(dim, 3), unit),
            (fine, coarse, kernel_offsets(dim, 2), unit),
            (coarse, downsample_coords(coarse, (2,) * dim), kernel_offsets(dim, 2), (2,) * dim),
        ]
        for in_coords, out_coords, offs, stride in cases:
            kmap = build_kernel_map(in_coords, out_coords, offs, stride)
            assert (kmap.n_in, kmap.n_out) == (len(in_coords), len(out_coords))
            assert_same_pairs(kmap.pairs, kernel_map_oracle(in_coords, out_coords, offs, stride))
        # rows in key order share each mirrored offset's arrays, swapped;
        # rows out of key order look every offset up
        offs = kernel_offsets(dim, 3)
        # and the centre is one shared arange, marked as the identity offset
        sub = build_kernel_map(fine, fine, offs, unit)
        assert sub.pairs[-1][0] is sub.pairs[0][1] and sub.pairs[-1][1] is sub.pairs[0][0]
        centre = sub.pairs[sub.identity]
        assert sub.identity == len(offs) // 2 and centre[0] is centre[1]
        np.testing.assert_array_equal(centre[0], np.arange(len(fine)))
        sub = build_kernel_map(shuffled, shuffled, offs, unit)
        assert sub.pairs[-1][0] is not sub.pairs[0][1] and sub.identity is None
        assert build_kernel_map(fine, fine.copy(), offs, unit).identity is None

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("edge", [(1 << 13) - 1, -((1 << 13) - 1)])
    def test_query_past_packing_range_raises(self, dim, edge):
        """A row at the edge of the packing range packs, but its outward
        neighbour query would carry into the next field, so building raises."""
        coords = np.zeros((2, 1 + dim), dtype=np.int64)
        coords[1, 1] = edge
        pack_coords(coords)
        with pytest.raises(ValueError):
            build_kernel_map(coords, coords, kernel_offsets(dim, 3), (1,) * dim)
        inner = coords.copy()
        inner[1, 1] -= np.sign(edge)
        kmap = build_kernel_map(inner, inner, kernel_offsets(dim, 3), (1,) * dim)
        assert_same_pairs(kmap.pairs, kernel_map_oracle(inner, inner, kernel_offsets(dim, 3), (1,) * dim))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 4]))
    def test_pairs_unique_both_sides(self, seed, dim):
        rng = np.random.default_rng(seed)
        coords = np.unique(rng.integers(-4, 4, size=(120, 1 + dim)), axis=0)
        coords[:, 0] = 0
        coords = np.unique(coords, axis=0)
        for kind_coords, offs, stride in [
            (coords, kernel_offsets(dim, 3), (1,) * dim),
            (downsample_coords(coords, (1,) * dim), kernel_offsets(dim, 2), (1,) * dim),
        ]:
            kmap = build_kernel_map(coords, kind_coords, offs, stride)
            for ii, oi in kmap.pairs:
                assert len(np.unique(ii)) == len(ii)
                assert len(np.unique(oi)) == len(oi)


def kernel_map_reference(in_coords, out_coords, offsets, offset_stride):
    """The per-offset form: a stable argsort of the input keys, then one
    binary search of each offset's packed query coordinates."""
    in_keys = pack_coords(in_coords)
    order = np.argsort(in_keys, kind="stable")
    sorted_keys = in_keys[order]
    pairs = []
    for off in offsets:
        query = pack_coords(out_coords + np.concatenate([[0], off * np.array(offset_stride)]))
        if len(sorted_keys) == 0:
            pairs.append((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
            continue
        pos = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
        qi = np.flatnonzero(sorted_keys[pos] == query)
        pairs.append((order[pos[qi]], qi))
    return pairs


def layout_coords(dim, step, layout, seed):
    """Unique coordinates on the grid of ``step``, shifted one cell off it,
    anywhere (off-grid), in random row order, with repeated rows, or none."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(-10, 10, size=(300, 1 + dim))
    raw[:, 0] = rng.integers(0, 3, size=len(raw))
    if layout != "off-grid":
        raw[:, 1:] = raw[:, 1:] // step * step + (layout == "shifted")
    coords, _ = unique_coords(raw)
    if layout == "unsorted":
        coords = coords[rng.permutation(len(coords))]
    if layout == "repeated":
        coords = np.concatenate([coords, coords[::4]])
    return coords[:0] if layout == "empty" else coords


class TestKernelMapAgainstPerOffsetSearch:
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("layout", ["on-grid", "shifted", "off-grid", "unsorted", "repeated", "empty"])
    def test_pairs_equal_byte_for_byte(self, dim, step, layout):
        """Values, dtype and order of every offset's pairs, for sub maps, down
        maps and sub-kernel maps onto other output rows; the chained lookups
        and the identity centre on the grid, the per-offset fallback off it."""
        coords = layout_coords(dim, step, layout, seed=dim * 100 + step)
        stride = (step,) * dim
        cases = [
            (coords, coords, kernel_offsets(dim, 3)),
            (coords, downsample_coords(coords, stride), kernel_offsets(dim, 2)),
            (coords, coords[::2].copy(), kernel_offsets(dim, 3)),
        ]
        if layout == "empty":
            cases.append((coords, layout_coords(dim, step, "on-grid", seed=0), kernel_offsets(dim, 3)))
        for in_coords, out_coords, offs in cases:
            kmap = build_kernel_map(in_coords, out_coords, offs, stride)
            want = kernel_map_reference(in_coords, out_coords, offs, stride)
            assert len(kmap.pairs) == len(want)
            for (ii, oi), (wi, wo) in zip(kmap.pairs, want):
                assert ii.dtype == oi.dtype == wi.dtype == wo.dtype == np.int64
                assert ii.tobytes() == wi.tobytes() and oi.tobytes() == wo.tobytes()

    @pytest.mark.parametrize("dim,kind,chained,searched", [
        (3, "sub", 4, 13), (3, "down", 4, 8), (4, "sub", 13, 40), (4, "down", 8, 16),
    ])
    def test_only_the_first_offset_of_each_run_is_searched(self, monkeypatch, dim, kind, chained, searched):
        """On the grid, a mirrored 3^d map searches 4 (3D) or 13 (4D) of the
        offsets after its centre and a 2^d down map every other offset; off
        the grid each looked-up offset is searched."""
        calls = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or search(*a, **k))
        for layout, want in (("on-grid", chained), ("off-grid", searched)):
            coords = layout_coords(dim, 2, layout, seed=5)
            out = coords if kind == "sub" else downsample_coords(coords, (2,) * dim)
            calls.clear()
            build_kernel_map(coords, out, kernel_offsets(dim, 3 if kind == "sub" else 2), (2,) * dim)
            assert len(calls) == want


class TestSubmanifoldConv3D:
    def test_matches_dense_oracle_8cube(self):
        rng = np.random.default_rng(3)
        x = grid_tensor((8, 8, 8), 3, rng)
        w = Var(rng.normal(size=(27, 3, 5)))
        out = sparse_conv(x, w, stride=1)
        np.testing.assert_array_equal(out.coords, x.coords)
        _, want = dense_conv_oracle(x.coords, x.feats.value, w.value, kernel_offsets(3, 3))
        np.testing.assert_allclose(out.feats.value, want, atol=1e-6)

    def test_output_only_on_occupied_sites(self):
        coords = np.array([[0, 0, 0, 0], [0, 5, 5, 5]], dtype=np.int64)
        x = SparseTensor(coords, np.ones((2, 1)), (1, 1, 1))
        out = sparse_conv(x, Var(np.ones((27, 1, 1))), stride=1)
        np.testing.assert_array_equal(out.coords, coords)
        # isolated points only see themselves through the center tap
        np.testing.assert_allclose(out.feats.value, np.ones((2, 1)))


class TestSubmanifoldConv4D:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        x = grid_tensor((6, 6, 6, 4), 2, rng)
        w = Var(rng.normal(size=(81, 2, 3)))
        out = sparse_conv(x, w, stride=1)
        _, want = dense_conv_oracle(x.coords, x.feats.value, w.value, kernel_offsets(4, 3))
        np.testing.assert_allclose(out.feats.value, want, atol=1e-6)


class TestStridedConv:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        x = grid_tensor((6, 6, 6), 2, rng)
        w = Var(rng.normal(size=(8, 2, 4)))
        out = sparse_conv(x, w, stride=2)
        assert out.stride == (2, 2, 2)
        want_coords, want = dense_conv_oracle(
            x.coords, x.feats.value, w.value, kernel_offsets(3, 2), stride=2
        )
        order = np.lexsort(out.coords.T[::-1])
        np.testing.assert_array_equal(out.coords[order], want_coords)
        np.testing.assert_allclose(out.feats.value[order], want, atol=1e-6)

    def test_stride_composes(self):
        rng = np.random.default_rng(6)
        x = grid_tensor((8, 8, 8), 1, rng)
        w = Var(rng.normal(size=(8, 1, 1)))
        y = sparse_conv(sparse_conv(x, w, stride=2), w, stride=2)
        assert y.stride == (4, 4, 4)
        assert np.all(y.coords[:, 1:] % 4 == 0)


class TestTransposeConv:
    def test_adjoint_identity(self):
        """<down(x), y> must equal <x, up(y)> for the shared kernel."""
        rng = np.random.default_rng(7)
        coords = np.unique(rng.integers(0, 6, size=(80, 4)), axis=0)
        coords[:, 0] = 0
        coords = np.unique(coords, axis=0)
        x = SparseTensor(coords, rng.normal(size=(len(coords), 3)), (1, 1, 1))
        w = Var(rng.normal(size=(8, 3, 5)))
        down = sparse_conv(x, w, stride=2)
        y = rng.normal(size=down.feats.value.shape)
        up = transpose_conv(
            SparseTensor(down.coords, y, down.stride), w, x.coords, x.stride
        )
        lhs = float((down.feats.value * y).sum())
        rhs = float((x.feats.value * up.feats.value).sum())
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_empty_target_rejected(self):
        x = SparseTensor(np.zeros((1, 4), dtype=np.int64), np.ones((1, 2)), (2, 2, 2))
        with pytest.raises(ValueError):
            transpose_conv(x, Var(np.ones((8, 3, 2))), np.empty((0, 4), dtype=np.int64), (1, 1, 1))


class TestConvGradients:
    def _fd(self, f, x, h=1e-6):
        g = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            g[i] = (f(xp) - f(xm)) / (2 * h)
        return g

    def test_conv_weight_and_feature_gradients(self):
        rng = np.random.default_rng(9)
        coords = np.unique(rng.integers(0, 3, size=(20, 4)), axis=0)
        coords[:, 0] = 0
        coords = np.unique(coords, axis=0)
        x0 = rng.normal(size=(len(coords), 2))
        w0 = rng.normal(size=(27, 2, 3))
        mixer = rng.normal(size=(len(coords), 3))

        def loss(xv, wv):
            t = SparseTensor(coords, ad.parameter(xv), (1, 1, 1))
            out = sparse_conv(t, ad.parameter(wv), stride=1)
            return out, sum_all(mul(out.feats, Var(mixer)))

        t = SparseTensor(coords, ad.parameter(x0), (1, 1, 1))
        wp = ad.parameter(w0)
        out = sparse_conv(t, wp, stride=1)
        l = sum_all(mul(out.feats, Var(mixer)))
        grads = ad.grad(l, {"x": t.feats, "w": wp})
        np.testing.assert_allclose(
            grads["x"], self._fd(lambda v: loss(v, w0)[1].value, x0), atol=1e-7
        )
        np.testing.assert_allclose(
            grads["w"], self._fd(lambda v: loss(x0, v)[1].value, w0), atol=1e-7
        )

    def test_transpose_conv_gradients(self):
        rng = np.random.default_rng(10)
        fine = np.unique(rng.integers(0, 4, size=(24, 4)), axis=0)
        fine[:, 0] = 0
        fine = np.unique(fine, axis=0)
        base = SparseTensor(fine, np.ones((len(fine), 2)), (1, 1, 1))
        w_down = Var(rng.normal(size=(8, 2, 3)))
        coarse = sparse_conv(base, w_down, stride=2)
        x0 = rng.normal(size=coarse.feats.value.shape)
        w0 = rng.normal(size=(8, 4, 3))
        mixer = rng.normal(size=(len(fine), 4))

        def loss(xv, wv):
            t = SparseTensor(coarse.coords, ad.parameter(xv), coarse.stride)
            out = transpose_conv(t, ad.parameter(wv), fine, (1, 1, 1))
            return out, sum_all(mul(out.feats, Var(mixer)))

        t = SparseTensor(coarse.coords, ad.parameter(x0), coarse.stride)
        wp = ad.parameter(w0)
        out = transpose_conv(t, wp, fine, (1, 1, 1))
        l = sum_all(mul(out.feats, Var(mixer)))
        grads = ad.grad(l, {"x": t.feats, "w": wp})
        np.testing.assert_allclose(
            grads["x"], self._fd(lambda v: loss(v, w0)[1].value, x0), atol=1e-7
        )
        np.testing.assert_allclose(
            grads["w"], self._fd(lambda v: loss(x0, v)[1].value, w0), atol=1e-7
        )


def conv_apply_reference(xv, wv, pairs, n_out, g):
    """The fancy-indexed per-offset loop: forward output, dx and dw."""
    out = np.zeros((n_out, wv.shape[2]), dtype=xv.dtype)
    dx = np.zeros_like(xv)
    dw = np.zeros_like(wv)
    for k, (ii, oi) in enumerate(pairs):
        if len(ii):
            out[oi] += xv[ii] @ wv[k]
            dx[ii] += g[oi] @ wv[k].T
            dw[k] = xv[ii].T @ g[oi]
    return out, dx, dw


class TestConvApplyExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_fancy_indexed_loop_bit_for_bit(self, dtype, dim):
        """Sub (its centre through the identity path), stride-2 down and
        swapped up maps, on an F-ordered input, a transposed (non-contiguous)
        weight for the up map, and an output gradient that is a
        non-contiguous column slice; the reference gathers every offset."""
        rng = np.random.default_rng(17 + dim)
        raw = rng.integers(-6, 6, size=(400, 1 + dim))
        raw[:, 0] = rng.integers(0, 2, size=len(raw))
        fine, _ = unique_coords(raw)
        unit = (1,) * dim
        coarse = downsample_coords(fine, unit)
        down = build_kernel_map(fine, coarse, kernel_offsets(dim, 2), unit)
        c_in, c_out = 5, 7
        cases = [
            (build_kernel_map(fine, fine, kernel_offsets(dim, 3), unit),
             rng.normal(size=(3**dim, c_in, c_out))),
            (down, rng.normal(size=(2**dim, c_in, c_out))),
            (KernelMap([(oi, ii) for ii, oi in down.pairs], down.n_out, down.n_in),
             rng.normal(size=(2**dim, c_out, c_in)).transpose(0, 2, 1)),
        ]
        assert cases[0][0].identity == 3**dim // 2
        for kmap, w in cases:
            xv = np.asfortranarray(rng.normal(size=(kmap.n_in, c_in)).astype(dtype))
            wv = w.astype(dtype, order="K")
            g = rng.normal(size=(kmap.n_out, c_out + 3)).astype(dtype)[:, 2:2 + c_out]
            out = _conv_apply(ad.parameter(xv), ad.parameter(wv), kmap)
            dx, dw = out._backward(g)
            want_out, want_dx, want_dw = conv_apply_reference(xv, wv, kmap.pairs, kmap.n_out, g)
            assert out.value.dtype == dx.dtype == dw.dtype == dtype
            assert np.array_equal(out.value, want_out)
            assert np.array_equal(dx, want_dx)
            assert np.array_equal(dw, want_dw)


class TestValidation:
    def test_channel_mismatch(self):
        x = grid_tensor((2, 2, 2), 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sparse_conv(x, Var(np.ones((27, 4, 2))), stride=1)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("op", ["stride1", "stride2", "transpose"])
    def test_wrong_offset_count_rejected(self, op, dim):
        """Each conv takes one kernel size: 3**d offsets at stride 1 (an even
        or a wider odd kernel is rejected), 2**d at stride 2 and for the
        transposed conv. The error names the expected count."""
        fine = grid_tensor((2,) * dim, 1, np.random.default_rng(0))
        coarse = sparse_conv(fine, Var(np.ones((2**dim, 1, 1))), stride=2)
        conv, want, wrong = {
            "stride1": (lambda w: sparse_conv(fine, w, stride=1), 3**dim, (2**dim, 5**dim)),
            "stride2": (lambda w: sparse_conv(fine, w, stride=2), 2**dim, (3**dim,)),
            "transpose": (lambda w: transpose_conv(coarse, w, fine.coords, fine.stride), 2**dim, (3**dim,)),
        }[op]
        for n in wrong:
            with pytest.raises(ValueError, match=f"needs {want} kernel offsets, the weight has {n}"):
                conv(Var(np.ones((n, 1, 1))))

    @pytest.mark.parametrize("op", ["stride1", "stride2", "transpose"])
    def test_batch_isolation(self, op):
        """Adjacent coordinates in different batch rows never interact: each
        conv of a U-Net (the transposed one after a stride-2 conv, back onto
        the input coordinates) gives a batch the rows it gets alone."""
        rng = np.random.default_rng(11)
        a = grid_tensor((3, 3, 3), 2, rng, batch=0)
        b_feats = rng.normal(size=a.feats.value.shape)
        coords = np.vstack([a.coords, a.coords + np.array([1, 0, 0, 0])])
        both = SparseTensor(coords, np.vstack([a.feats.value, b_feats]), (1, 1, 1))
        w, w2 = Var(rng.normal(size=(27, 2, 2))), Var(rng.normal(size=(8, 2, 2)))
        conv = {
            "stride1": lambda x: sparse_conv(x, w, stride=1),
            "stride2": lambda x: sparse_conv(x, w2, stride=2),
            "transpose": lambda x: transpose_conv(sparse_conv(x, w2, stride=2), w2, x.coords, x.stride),
        }[op]
        solo, joint = conv(a), conv(both)
        own = joint.coords[:, 0] == 0
        np.testing.assert_array_equal(joint.coords[own], solo.coords)
        np.testing.assert_allclose(joint.feats.value[own], solo.feats.value, atol=1e-12)


class TestGraphFreeConv:
    def test_constants_keep_no_gathered_rows(self):
        """Over constants a conv holds one offset's gathered rows at a time and
        records no backward pass; a live output keeps every offset's rows."""
        coords = grid_tensor((12, 12, 12), 1, np.random.default_rng(0)).coords
        kmap = build_kernel_map(coords, coords, kernel_offsets(3, 3), (1, 1, 1))
        rng = np.random.default_rng(1)
        xv, wv = rng.normal(size=(len(coords), 64)), rng.normal(size=(27, 64, 1))
        gathered = sum(len(ii) for k, (ii, _) in enumerate(kmap.pairs) if k != kmap.identity) * xv[0].nbytes
        outs, peaks = [], []
        for leaf in (Var, ad.parameter):
            tracemalloc.start()
            try:
                outs.append(_conv_apply(leaf(xv), Var(wv), kmap))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        const, live = outs
        assert not const.live and const.parents == () and const._backward is None
        assert live.live and const.value.tobytes() == live.value.tobytes()
        assert peaks[0] < 2 * xv.nbytes < 10 * xv.nbytes < gathered < peaks[1]

    def test_constant_subtree_leaves_parameter_gradients_unchanged(self):
        """A conv over constants feeding live convs, a residual add and a skip
        concat: the parameter gradients have the bytes they have when the
        constants are parameters and every node joins the graph."""
        rng = np.random.default_rng(2)
        a = grid_tensor((4, 4, 3), 2, rng)
        wc0, w0, wd0 = rng.normal(size=(27, 2, 3)), rng.normal(size=(27, 3, 3)), rng.normal(size=(8, 3, 3))
        mixer = Var(rng.normal(size=(len(a), 6)))

        def grads(leaf):
            w, wd = ad.parameter(w0), ad.parameter(wd0)
            c = sp.relu(sparse_conv(SparseTensor(a.coords, leaf(a.feats.value), a.stride), leaf(wc0), stride=1))
            h = sp.add(sparse_conv(c, w, stride=1), c)
            up = transpose_conv(sparse_conv(h, wd, stride=2), wd, h.coords, h.stride)
            loss = sum_all(mul(sp.concat(up, c).feats, mixer))
            return ad.grad(loss, {"w": w, "wd": wd})

        gc, gp = grads(Var), grads(ad.parameter)
        for name in gc:
            assert gc[name].tobytes() == gp[name].tobytes(), name


class TestKernelMapCache:
    @pytest.mark.parametrize("op", ["stride1", "stride2", "transpose"])
    def test_other_coords_with_the_same_row_count_never_hit(self, op):
        """The same rows in another order share the first tensor's ``maps``,
        its kind, stride and row count (and, for the transpose, the target's
        stride and row count): each conv still gives a fresh tensor's bytes."""
        rng = np.random.default_rng(3)
        a = grid_tensor((3, 4, 3), 2, rng)
        perm = rng.permutation(len(a))
        w, w2 = Var(rng.normal(size=(27, 2, 2))), Var(rng.normal(size=(8, 2, 2)))
        if op == "transpose":
            coarse = sparse_conv(a, w2, stride=2)
            conv = lambda x, target: transpose_conv(x, w2, target, a.stride)
            first, second = (coarse, a.coords), (coarse, a.coords[perm])
            fresh = (SparseTensor(coarse.coords, coarse.feats, coarse.stride), a.coords[perm])
        else:
            conv = lambda x, _: sparse_conv(x, w, stride=1) if op == "stride1" else sparse_conv(x, w2, stride=2)
            b = SparseTensor(a.coords[perm], a.feats.value[perm], a.stride, a.maps)
            first, second, fresh = (a, None), (b, None), (SparseTensor(b.coords, b.feats, b.stride), None)
        want_first, want = conv(*first), conv(*fresh)
        got = conv(*second)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.feats.value.tobytes() == want.feats.value.tobytes()
        assert conv(*first).feats.value.tobytes() == want_first.feats.value.tobytes()

    def test_equal_coords_in_another_array_hit(self, monkeypatch):
        built = []
        build = sp.build_kernel_map
        monkeypatch.setattr(sp, "build_kernel_map", lambda *args: built.append(args) or build(*args))
        a = grid_tensor((3, 3, 3), 2, np.random.default_rng(4))
        w = Var(np.random.default_rng(5).normal(size=(27, 2, 2)))
        out = sparse_conv(a, w, stride=1)
        again = sparse_conv(SparseTensor(a.coords.copy(), a.feats, a.stride, a.maps), w, stride=1)
        assert len(built) == 1 and again.feats.value.tobytes() == out.feats.value.tobytes()
