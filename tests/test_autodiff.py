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


class TestOpGradients:
    def test_matmul(self):
        w = RNG.normal(size=(4, 3))
        check_against_fd(lambda p: sum_all(ad.matmul(p, ad.Var(w))), RNG.normal(size=(5, 4)))

    def test_matmul_weight_side(self):
        x = RNG.normal(size=(5, 4))
        check_against_fd(lambda p: sum_all(ad.matmul(ad.Var(x), p)), RNG.normal(size=(4, 3)))

    def test_add_bias(self):
        x = RNG.normal(size=(6, 3))
        check_against_fd(lambda p: sum_all(mul(ad.add_bias(ad.Var(x), p), ad.Var(x))), RNG.normal(size=3))

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
            ad.backward(mul(p, p))

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
            h = ad.relu(ad.matmul(p, ad.Var(rng.normal(size=(4, 4)))))
            loss = sum_all(ad.neg_cosine_rows(h, ad.channel_norm(p)))
            return ad.grad(loss, {"p": p})["p"]

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)


class TestGraphMembership:
    def test_ops_over_constants_record_no_graph(self):
        h = ad.relu(ad.matmul(ad.Var(RNG.normal(size=(5, 3))), ad.Var(RNG.normal(size=(3, 3)))))
        assert not h.live and h.parents == () and h._backward is None
        p = ad.parameter(RNG.normal(size=(3, 3)))
        out = ad.matmul(h, p)
        assert p.live and out.live and out.parents == (h, p) and out._backward is not None

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
            c = ad.channel_norm(ad.relu(ad.matmul(leaf(a0), leaf(b0))))
            h = ad.relu(ad.add(ad.matmul(c, w), c))
            z = ad.matmul(ad.concat_cols(h, ad.rows(c, idx)), v)
            loss = sum_all(ad.neg_cosine_rows(z, ad.matmul(ad.concat_cols(c, c), v)))
            return loss, ad.grad(loss, {"w": w, "v": v})

        (lc, gc), (lp, gp) = grads(ad.Var), grads(ad.parameter)
        assert len(ad.topo_order(lc)) < len(ad.topo_order(lp))
        for name in gc:
            assert gc[name].tobytes() == gp[name].tobytes(), name
