import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mul, sum_all
from seqcontrast import autodiff as ad


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_against_fd(build, x0, atol=1e-7, rtol=1e-5):
    p = ad.parameter(x0.copy(), name="x")
    loss = build(p)
    analytic = ad.grad(loss, {"x": p})["x"]
    numeric = fd_grad(lambda v: build(ad.parameter(v)).value, x0)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


RNG = np.random.default_rng(42)


def matmul(x, w):
    """``x @ w`` as one `ad.linear` node with a constant zero bias."""
    return ad.linear(x, w, ad.Var(np.zeros(w.value.shape[1])))


class TestOpGradients:
    def test_matmul(self):
        """`linear`'s input side."""
        w, b = RNG.normal(size=(4, 3)), RNG.normal(size=3)
        check_against_fd(lambda p: sum_all(ad.linear(p, ad.Var(w), ad.Var(b))), RNG.normal(size=(5, 4)))

    def test_matmul_weight_side(self):
        x, b = RNG.normal(size=(5, 4)), RNG.normal(size=3)
        check_against_fd(lambda p: sum_all(ad.linear(ad.Var(x), p, ad.Var(b))), RNG.normal(size=(4, 3)))

    def test_add_bias(self):
        """`linear`'s bias side."""
        x, w = RNG.normal(size=(6, 3)), RNG.normal(size=(3, 3))
        check_against_fd(lambda p: sum_all(mul(ad.linear(ad.Var(x), ad.Var(w), p), ad.Var(x))), RNG.normal(size=3))

    def test_relu(self):
        check_against_fd(
            lambda p: sum_all(mul(ad.relu(p), ad.Var(np.arange(12.0).reshape(4, 3)))),
            RNG.normal(size=(4, 3)) + 0.01,
        )

    def test_rows_scatter_adds(self):
        idx = np.array([0, 2, 2, 1])
        w = RNG.normal(size=(4, 3))
        check_against_fd(lambda p: sum_all(mul(ad.rows(p, idx), ad.Var(w))), RNG.normal(size=(3, 3)))

    def test_concat_cols(self):
        b = RNG.normal(size=(4, 2))
        w = RNG.normal(size=(4, 5))
        check_against_fd(
            lambda p: sum_all(mul(ad.concat_cols(p, ad.Var(b)), ad.Var(w))),
            RNG.normal(size=(4, 3)),
        )

    def test_weighted_sum(self):
        w = RNG.normal(size=15)
        check_against_fd(lambda p: ad.weighted_sum(p, w), RNG.normal(size=15))

    def test_channel_norm(self):
        w = RNG.normal(size=(8, 4))
        check_against_fd(
            lambda p: sum_all(mul(ad.channel_norm(p), ad.Var(w))),
            RNG.normal(size=(8, 4)),
            atol=1e-6,
        )

    def test_neg_cosine_rows_both_sides(self):
        z = RNG.normal(size=(5, 4))
        check_against_fd(lambda p: sum_all(ad.neg_cosine_rows(p, ad.Var(z))), RNG.normal(size=(5, 4)))
        p0 = RNG.normal(size=(5, 4))
        check_against_fd(lambda v: sum_all(ad.neg_cosine_rows(ad.Var(p0), v)), RNG.normal(size=(5, 4)))


class TestRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "idx",
        [
            np.array([4, 0, 4, 2, 4, 0, 7, 4, 1, 0]),
            np.array([3, 1, 0, 6, 2]),
            np.array([], dtype=np.int64),
        ],
        ids=["duplicates", "unique", "empty"],
    )
    def test_backward_matches_add_at_byte_for_byte(self, dtype, idx):
        """The layered scatter gives ``np.add.at``'s sums: the same order per
        destination row, from the same zero start, so a row of -0.0
        gradients lands as +0.0 and wide-range values round alike."""
        rng = np.random.default_rng(len(idx))
        x = ad.parameter(rng.normal(size=(8, 5)).astype(dtype))
        g = (rng.normal(size=(len(idx), 5)) * 10.0 ** rng.integers(-8, 9, size=(len(idx), 1))).astype(dtype)
        g[::3] = -0.0
        (dx,) = ad.rows(x, idx)._backward(g)
        want = np.zeros_like(x.value)
        np.add.at(want, idx, g)
        assert dx.dtype == dtype and dx.tobytes() == want.tobytes()


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_product_plus_bias_byte_for_byte(self, dtype):
        """One node with the bytes of ``x @ w + b`` forward and of the
        product's and the bias add's gradients backward."""
        x, w, b, g = (RNG.normal(size=s).astype(dtype) for s in ((30, 6), (6, 4), (4,), (30, 4)))
        out = ad.linear(ad.parameter(x), ad.parameter(w), ad.parameter(b))
        dx, dw, db = out._backward(g)
        assert out.value.tobytes() == (x @ w + b).tobytes()
        assert dx.tobytes() == (g @ w.T).tobytes()
        assert dw.tobytes() == (x.T @ g).tobytes()
        assert db.tobytes() == g.sum(axis=0).tobytes()

    def test_constant_sides_get_no_gradient(self):
        """`linear` computes no input gradient for a constant input, and
        `neg_cosine_rows` none for a stop-gradient side."""
        x, w, b = (RNG.normal(size=s) for s in ((5, 3), (3, 3), (3,)))
        dx, dw, db = ad.linear(ad.Var(x), ad.parameter(w), ad.parameter(b))._backward(np.ones((5, 3)))
        assert dx is None and dw.shape == (3, 3) and db.shape == (3,)
        p = ad.parameter(x)
        dp, dz = ad.neg_cosine_rows(p, ad.stop_gradient(p))._backward(np.ones(5))
        assert dp.shape == (5, 3) and dz is None


class TestNegCosine:
    def test_identical_vectors_give_minus_one(self):
        v = RNG.normal(size=(3, 7))
        assert ad.neg_cosine_rows(ad.Var(v), ad.Var(v)).value == pytest.approx(-1.0)

    def test_opposite_vectors_give_plus_one(self):
        v = RNG.normal(size=(3, 7))
        assert ad.neg_cosine_rows(ad.Var(v), ad.Var(-v)).value == pytest.approx(1.0)

    def test_zero_norm_row_is_floored(self):
        """A zero row gives similarity 0 and finite gradients, not NaN."""
        p = ad.parameter(np.vstack([np.zeros(4), RNG.normal(size=4)]))
        z = ad.parameter(RNG.normal(size=(2, 4)))
        out = ad.neg_cosine_rows(p, z)
        assert out.value[0] == 0.0
        g = ad.grad(sum_all(out), {"p": p, "z": z})
        assert np.all(np.isfinite(g["p"])) and np.all(np.isfinite(g["z"]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), s=st.floats(0.01, 100.0))
    def test_scale_invariance(self, seed, s):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(3, 5))
        z = rng.normal(size=(3, 5))
        a = ad.neg_cosine_rows(ad.Var(p), ad.Var(z)).value
        b = ad.neg_cosine_rows(ad.Var(p * s), ad.Var(z)).value
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(a >= -1.0 - 1e-12) and np.all(a <= 1.0 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_independent_cosine(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(6, 4))
        z = rng.normal(size=(6, 4))
        got = ad.neg_cosine_rows(ad.Var(p), ad.Var(z)).value
        want = -np.einsum("ij,ij->i", p, z) / (
            np.linalg.norm(p, axis=1) * np.linalg.norm(z, axis=1)
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_masked_form_byte_for_byte(self, dtype):
        """Forward bytes, dtype and layout of ``np.where(x > 0, x, 0.0)``,
        signed zeros, NaNs, infinities and subnormals included, on C-ordered,
        F-ordered and strided inputs; the backward pass masks by ``x > 0``."""
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1.5, -2.0], dtype=dtype)
        block = RNG.normal(size=(40, 9)).astype(dtype)
        block.flat[: len(special)] = special
        for x in (block, np.asfortranarray(block), block[::2, 1:7], special):
            want = np.where(x > 0, x, 0.0)
            out = ad.relu(ad.parameter(x))
            assert out.value.dtype == want.dtype == dtype
            assert out.value.strides == want.strides
            assert out.value.tobytes() == want.tobytes()
            g = RNG.normal(size=x.shape).astype(dtype)
            (dx,) = out._backward(g)
            assert dx.tobytes() == (g * (x > 0)).tobytes()


class TestChannelNorm:
    def test_forward_statistics(self):
        x = RNG.normal(size=(64, 5)) * 3 + 2
        y = ad.channel_norm(ad.Var(x)).value
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)

    def test_constant_input_maps_to_zero(self):
        y = ad.channel_norm(ad.Var(np.full((10, 3), 7.0))).value
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_mean_var_bit_for_bit(self, dtype):
        """The deviation reused for the variance gives numpy's mean/var bits."""
        eps = 1e-5
        for shape in [(1000, 8), (257, 32)]:
            x = (RNG.normal(size=shape) * 3 + 2).astype(dtype)
            y = ad.channel_norm(ad.Var(x), eps).value
            want = (x - x.mean(0)) * (1.0 / np.sqrt(x.var(0) + eps))
            assert y.dtype == dtype
            assert np.array_equal(y, want)


def channel_norm_reference(x, g, eps=1e-5):
    """`channel_norm`'s output and input gradient in NumPy's ``mean(axis=0)``
    forms."""
    d = x - x.mean(axis=0)
    inv = 1.0 / np.sqrt((d * d).mean(axis=0) + eps)
    y = d * inv
    return y, (g - g.mean(axis=0) - y * (g * y).mean(axis=0)) * inv


def column_block(rng, rows, cols, dtype):
    """Values spread over 16 decades, so that a change of summation order
    shows in the last bits, with one column of -0.0 when there are two or
    more and -0.0 and +0.0 entries elsewhere."""
    a = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8, size=(rows, cols))
    a[::5, 0] = -0.0
    a[1::7, -1] = 0.0
    if cols > 1:
        a[:, 1] = -0.0
    return a.astype(dtype)


class TestColumnSums:
    """`col_sum` and `col_mean` have the bytes of ``sum(axis=0)`` and
    ``mean(axis=0)``, and so do `channel_norm` and `linear`'s bias gradient,
    which use them."""

    ROWS = [1, 2, 3, 17, 256, 4857, 7623, 30196]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cols", [1, 2, 3, 8, 16, 32, 64])
    def test_match_numpy_byte_for_byte(self, dtype, cols):
        """C-ordered rows, the two column slices `concat_cols`' backward
        gives, and an F-ordered copy, which is left to NumPy."""
        rng = np.random.default_rng(cols)
        for n in self.ROWS:
            wide = column_block(rng, n, 2 * cols + 3, dtype)
            a = wide[:, :cols].copy()
            for x in (a, wide[:, :cols], wide[:, cols + 3 :], np.asfortranarray(a)):
                s, m = ad.col_sum(x), ad.col_mean(x)
                assert s.dtype == m.dtype == dtype
                assert s.tobytes() == x.sum(axis=0).tobytes(), (n, x.strides)
                assert m.tobytes() == x.mean(axis=0).tobytes(), (n, x.strides)

    def test_a_column_of_negative_zeros_sums_to_positive_zero(self):
        """As in NumPy's sum, every column starts from +0.0."""
        x = np.full((9, 4), -0.0, np.float32)
        assert ad.col_sum(x).tobytes() == x.sum(axis=0).tobytes() == np.zeros(4, np.float32).tobytes()
        assert ad.col_mean(x).tobytes() == x.mean(axis=0).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7623, 8), (4857, 16), (632, 16), (30196, 8), (3000, 64), (40, 1), (1, 8)])
    def test_channel_norm_matches_the_mean_forms_byte_for_byte(self, dtype, shape):
        """Output and input gradient, with the gradient given as a column
        slice of a wider one, as `concat_cols`' backward gives it."""
        rng = np.random.default_rng(shape[0])
        x = (rng.normal(size=shape) * 3 + 2).astype(dtype)
        g = rng.normal(size=(shape[0], shape[1] + 5)).astype(dtype)[:, 5:]
        out = ad.channel_norm(ad.parameter(x))
        (dx,) = out._backward(g)
        y, want = channel_norm_reference(x, g)
        assert out.value.dtype == dx.dtype == dtype
        assert out.value.tobytes() == y.tobytes()
        assert dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7623, 8), (4586, 16), (600, 32), (50, 1)])
    def test_linear_bias_gradient_matches_the_sum_byte_for_byte(self, dtype, shape):
        rng = np.random.default_rng(shape[0])
        n, c = shape
        x, w, b = (rng.normal(size=s).astype(dtype) for s in ((n, 4), (4, c), (c,)))
        out = ad.linear(ad.parameter(x), ad.parameter(w), ad.parameter(b))
        for g in (column_block(rng, n, c, dtype), column_block(rng, n, c + 2, dtype)[:, 2:]):
            db = out._backward(g)[2]
            assert db.dtype == dtype and db.tobytes() == g.sum(axis=0).tobytes()


class TestStopGradient:
    def test_forward_identity_zero_grad(self):
        p = ad.parameter(np.arange(3.0))
        loss = sum_all(mul(ad.stop_gradient(p), p))
        assert loss.value == pytest.approx(np.sum(np.arange(3.0) ** 2))
        g = ad.grad(loss, {"p": p})["p"]
        np.testing.assert_allclose(g, np.arange(3.0))  # only the live branch

    def test_fully_stopped_loss_has_zero_grad(self):
        p = ad.parameter(np.ones(4))
        loss = sum_all(ad.stop_gradient(mul(p, p)))
        g = ad.grad(loss, {"p": p})["p"]
        np.testing.assert_array_equal(g, 0.0)

    def test_freeze_record_replay(self):
        freeze = ad.SGFreeze()
        p = ad.parameter(np.array([2.0]))
        with freeze.recording():
            base = sum_all(mul(ad.stop_gradient(p), p)).value
        assert base == pytest.approx(4.0)
        q = ad.parameter(np.array([3.0]))
        with freeze.replaying():
            out = sum_all(mul(ad.stop_gradient(q), q)).value
        assert out == pytest.approx(6.0)  # frozen branch kept at 2.0

    def test_output_is_a_constant(self):
        p = ad.parameter(np.arange(3.0))
        out = ad.stop_gradient(mul(p, p))
        assert not out.live and out.parents == () and out._backward is None
        np.testing.assert_array_equal(out.value, np.arange(3.0) ** 2)

    def test_each_replay_starts_from_the_first_value(self):
        freeze = ad.SGFreeze()
        with freeze.recording():
            first = ad.stop_gradient(ad.Var(np.array([1.0]))).value
            second = ad.stop_gradient(ad.Var(np.array([2.0]))).value
        for _ in range(2):
            with freeze.replaying():
                assert ad.stop_gradient(ad.Var(np.array([5.0]))).value is first
                assert ad.stop_gradient(ad.Var(np.array([6.0]))).value is second
        assert ad.stop_gradient(ad.Var(np.array([7.0]))).value[0] == 7.0  # no phase, no hook

    def test_replay_past_recording_raises(self):
        freeze = ad.SGFreeze()
        with freeze.recording():
            ad.stop_gradient(ad.Var(np.ones(2)))
        with freeze.replaying():
            ad.stop_gradient(ad.Var(np.ones(2)))
            with pytest.raises(RuntimeError):
                ad.stop_gradient(ad.Var(np.ones(2)))


class TestBackward:
    def test_requires_scalar(self):
        p = ad.parameter(np.ones(3))
        with pytest.raises(ValueError):
            ad.grad(mul(p, p), {"p": p})

    def test_shared_subexpression_accumulates(self):
        p = ad.parameter(np.array(3.0))
        sq = mul(p, p)
        loss = sum_all(ad.vsum([sq, sq]))
        assert ad.grad(loss, {"p": p})["p"] == pytest.approx(12.0)

    def test_disconnected_parameter_gets_zeros(self):
        p = ad.parameter(np.ones((2, 2)))
        other = ad.parameter(np.array(1.0))
        g = ad.grad(sum_all(mul(other, other)), {"p": p})["p"]
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_deterministic_accumulation(self):
        def run():
            rng = np.random.default_rng(9)
            p = ad.parameter(rng.normal(size=(6, 4)))
            h = ad.relu(matmul(p, ad.Var(rng.normal(size=(4, 4)))))
            loss = sum_all(ad.neg_cosine_rows(h, ad.channel_norm(p)))
            return ad.grad(loss, {"p": p})["p"]

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)

    def test_inner_gradients_are_freed_during_the_walk(self):
        """Along a chain of 40 ops only the gradients on the walk's frontier
        are alive at once; holding every node's would take 40 times the
        parameter's size."""
        p = ad.parameter(np.ones(250_000))
        x = p
        for _ in range(40):
            x = ad.scale(x, 1.0)
        loss = sum_all(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = ad.grad(loss, {"p": p})["p"]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(g, 1.0)
        assert peak < 4 * p.value.nbytes, peak


    def test_constant_gradients_are_not_kept(self):
        """A constant's gradient has no reader, so the walk keeps no entry
        for it. Along a chain of 20 ``linear(constant, param, bias)`` terms,
        keeping each constant's gradient would take 20 times a constant's
        size."""
        rng = np.random.default_rng(4)
        p = ad.parameter(rng.normal(size=(4, 4)))
        consts = [ad.Var(rng.normal(size=(25_000, 4))) for _ in range(20)]
        x = matmul(consts[0], p)
        for c in consts[1:]:
            x = ad.add(matmul(c, p), x)
        loss = sum_all(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = ad.grad(loss, {"p": p})["p"]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(g, sum(c.value.sum(axis=0) for c in consts)[:, None] * np.ones(4), rtol=1e-12)
        assert peak < 5 * consts[0].value.nbytes, peak

class TestGraphMembership:
    def test_ops_over_constants_record_no_graph(self):
        h = ad.relu(matmul(ad.Var(RNG.normal(size=(5, 3))), ad.Var(RNG.normal(size=(3, 3)))))
        assert not h.live and h.parents == () and h._backward is None
        p = ad.parameter(RNG.normal(size=(3, 3)))
        out = matmul(h, p)
        assert p.live and out.live and out.parents[:2] == (h, p) and out._backward is not None

    def test_grad_of_a_constant_raises_naming_it(self):
        p, c = ad.parameter(np.ones(3)), ad.Var(np.ones(3))
        loss = sum_all(mul(p, c))
        with pytest.raises(ValueError, match="'c'"):
            ad.grad(loss, {"p": p, "c": c})

    def test_constant_subtrees_leave_parameter_gradients_unchanged(self):
        """A constant subtree read at several places gives the parameters the
        gradient bytes it gives when its leaves are parameters, the form
        in which every node joins the graph."""
        rng = np.random.default_rng(3)
        a0, b0, w0, v0 = (rng.normal(size=s) for s in ((6, 4), (4, 4), (4, 4), (8, 3)))
        idx = np.array([5, 0, 0, 3, 2, 1])

        def grads(leaf):
            w, v = ad.parameter(w0), ad.parameter(v0)
            c = ad.channel_norm(ad.relu(matmul(leaf(a0), leaf(b0))))
            h = ad.relu(ad.add(matmul(c, w), c))
            z = matmul(ad.concat_cols(h, ad.rows(c, idx)), v)
            loss = sum_all(ad.neg_cosine_rows(z, matmul(ad.concat_cols(c, c), v)))
            return loss, ad.grad(loss, {"w": w, "v": v})

        (lc, gc), (lp, gp) = grads(ad.Var), grads(ad.parameter)
        assert len(ad.topo_order(lc)) < len(ad.topo_order(lp))
        for name in gc:
            assert gc[name].tobytes() == gp[name].tobytes(), name
