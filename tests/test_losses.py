import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcontrast import autodiff as ad
from seqcontrast.autodiff import Var
from seqcontrast.errors import LossUndefinedError
from seqcontrast.losses import (
    LossWeights,
    loss_3d,
    loss_3d4d,
    loss_4d,
    loss_total,
    _sym_rows,
)


def neg_cos(a, b):
    return -float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


def make_feats(rng, t, n, c, as_param=False):
    """One stacked (t * n, c) feature matrix; frame i owns rows i*n to i*n+n-1."""
    mk = ad.parameter if as_param else Var
    return mk(np.concatenate([rng.normal(size=(n, c)) for _ in range(t)]))


def frames(x, t):
    """The per-frame (n, c) blocks of a stacked feature matrix."""
    return list(x.value.reshape(t, -1, x.value.shape[1]))


def stacked(maps, n):
    """Frame-local row indices shifted to rows of the stacked matrix."""
    return {(i, j): (ia + i * n, ib + j * n) for (i, j), (ia, ib) in maps.items()}


def stacked_frames(per_frame, n):
    """Frame-local (3D rows, 4D rows) pairs shifted to rows of the stacked matrices."""
    return [(i3 + i * n, i4 + i * n) for i, (i3, i4) in enumerate(per_frame)]


def pairwise_maps(rng, t, n, m):
    maps = {}
    for i in range(t):
        for j in range(i + 1, t):
            maps[(i, j)] = (
                rng.integers(0, n, size=m),
                rng.integers(0, n, size=m),
            )
    return maps


def oracle_pair_loss(p, z, pair_maps):
    """Nested-loop reference for the inter-frame losses over per-frame
    feature arrays and frame-local row indices."""
    terms = []
    for (i, j) in sorted(pair_maps):
        ia, ib = pair_maps[(i, j)]
        if len(ia) == 0:
            continue
        vals = []
        for a, b in zip(ia, ib):
            vals.append(0.5 * neg_cos(p[i][a], z[j][b])
                        + 0.5 * neg_cos(p[j][b], z[i][a]))
        terms.append(np.mean(vals))
    return np.mean(terms)


def oracle_frame_loss(p3, z3, p4, z4, per_frame):
    terms = []
    for i, (i3, i4) in enumerate(per_frame):
        if len(i3) == 0:
            continue
        vals = []
        for a, b in zip(i3, i4):
            vals.append(0.5 * neg_cos(p3[i][a], z4[i][b])
                        + 0.5 * neg_cos(p4[i][b], z3[i][a]))
        terms.append(np.mean(vals))
    return np.mean(terms)


class TestSimsiamPair:
    """The symmetrized pair loss every term is built from, on one pair."""

    def test_identical_views_hit_minimum(self):
        v = np.random.default_rng(0).normal(size=(1, 8))
        one = [(np.arange(1), np.arange(1))]
        out, used = _sym_rows(Var(v), Var(v), Var(v), Var(v), one, sg_on_p=False, term="pair")
        assert used == 1
        assert out.value == pytest.approx(-1.0)

    def test_z_side_receives_no_gradient(self):
        rng = np.random.default_rng(1)
        p1, z2 = ad.parameter(rng.normal(size=(1, 6))), ad.parameter(rng.normal(size=(1, 6)))
        p2, z1 = ad.parameter(rng.normal(size=(1, 6))), ad.parameter(rng.normal(size=(1, 6)))
        one = [(np.arange(1), np.arange(1))]
        out, _ = _sym_rows(p1, z2, p2, z1, one, sg_on_p=False, term="pair")
        g = ad.grad(out, {"p1": p1, "z2": z2, "p2": p2, "z1": z1})
        np.testing.assert_array_equal(g["z1"], 0.0)
        np.testing.assert_array_equal(g["z2"], 0.0)
        assert np.any(g["p1"] != 0.0) and np.any(g["p2"] != 0.0)


class TestLoss3D:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        t, n, c = 3, 7, 5
        p, z = make_feats(rng, t, n, c), make_feats(rng, t, n, c)
        maps = pairwise_maps(rng, t, n, 4)
        got, used = loss_3d(p, z, stacked(maps, n))
        assert used == 4 * len(maps)
        assert abs(float(got.value) - oracle_pair_loss(frames(p, t), frames(z, t), maps)) <= 1e-12

    def test_bounds_when_normalized(self):
        rng = np.random.default_rng(2)
        p, z = make_feats(rng, 2, 5, 4), make_feats(rng, 2, 5, 4)
        val, _ = loss_3d(p, z, stacked(pairwise_maps(rng, 2, 5, 3), 5))
        assert -1.0 - 1e-12 <= float(val.value) <= 1.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        p, z = make_feats(rng, 2, 5, 4), make_feats(rng, 2, 5, 4)
        maps = stacked(pairwise_maps(rng, 2, 5, 3), 5)
        a, _ = loss_3d(p, z, maps)
        b, _ = loss_3d(Var(p.value * 37.0), Var(z.value * 0.01), maps)
        assert abs(float(a.value) - float(b.value)) <= 1e-12

    def test_empty_pairs_skipped_all_empty_raises(self):
        rng = np.random.default_rng(4)
        p, z = make_feats(rng, 2, 5, 4), make_feats(rng, 2, 5, 4)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        maps = pairwise_maps(rng, 2, 5, 3)
        maps[(0, 1)] = empty
        with pytest.raises(LossUndefinedError):
            loss_3d(p, z, maps)

    def test_gradient_stops_on_z(self):
        rng = np.random.default_rng(5)
        p = make_feats(rng, 2, 5, 4, as_param=True)
        z = make_feats(rng, 2, 5, 4, as_param=True)
        val, _ = loss_3d(p, z, stacked(pairwise_maps(rng, 2, 5, 3), 5))
        g = ad.grad(val, {"p": p, "z": z})
        np.testing.assert_array_equal(g["z"], 0.0)
        assert np.any(g["p"][:5] != 0.0) and np.any(g["p"][5:] != 0.0)

    def test_loss_4d_shares_semantics(self):
        rng = np.random.default_rng(6)
        p, z = make_feats(rng, 3, 6, 4), make_feats(rng, 3, 6, 4)
        maps = stacked(pairwise_maps(rng, 3, 6, 2), 6)
        a, ua = loss_3d(p, z, maps)
        b, ub = loss_4d(p, z, maps)
        assert float(a.value) == float(b.value) and ua == ub


class TestLoss3D4D:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        t, n, c = 3, 6, 4
        p3, z3 = make_feats(rng, t, n, c), make_feats(rng, t, n, c)
        p4, z4 = make_feats(rng, t, n, c), make_feats(rng, t, n, c)
        per_frame = [(rng.integers(0, n, size=5), rng.integers(0, n, size=5)) for _ in range(t)]
        got, used = loss_3d4d(p3, z3, p4, z4, stacked_frames(per_frame, n))
        assert used == 5 * t
        want = oracle_frame_loss(*(frames(x, t) for x in (p3, z3, p4, z4)), per_frame)
        assert abs(float(got.value) - want) <= 1e-12

    def test_predictors_get_no_gradient_by_default(self):
        rng = np.random.default_rng(7)
        t, n, c = 2, 5, 4
        p3 = make_feats(rng, t, n, c, as_param=True)
        z3 = make_feats(rng, t, n, c, as_param=True)
        p4 = make_feats(rng, t, n, c, as_param=True)
        z4 = make_feats(rng, t, n, c, as_param=True)
        per_frame = stacked_frames([(rng.integers(0, n, size=4), rng.integers(0, n, size=4)) for _ in range(t)], n)
        val, _ = loss_3d4d(p3, z3, p4, z4, per_frame)
        g = ad.grad(val, {"p3": p3, "z3": z3, "p4": p4, "z4": z4})
        np.testing.assert_array_equal(g["p3"], 0.0)
        np.testing.assert_array_equal(g["p4"], 0.0)
        assert np.any(g["z3"] != 0.0) and np.any(g["z4"] != 0.0)

    def test_forward_value_unchanged_by_flag(self):
        """The stop-gradient side of `_sym_rows` moves no forward value: the
        3D-4D term equals the same rows with the stop-gradient on z."""
        rng = np.random.default_rng(9)
        t, n, c = 2, 5, 4
        p3, z3, p4, z4 = (make_feats(rng, t, n, c) for _ in range(4))
        per_frame = stacked_frames([(rng.integers(0, n, size=4), rng.integers(0, n, size=4)) for _ in range(t)], n)
        a, _ = loss_3d4d(p3, z3, p4, z4, per_frame)
        b, _ = _sym_rows(p3, z4, p4, z3, per_frame, sg_on_p=False, term="3D-4D")
        assert float(a.value) == pytest.approx(float(b.value), abs=1e-15)


class TestTotals:
    def test_weighted_sum(self):
        w = LossWeights(0.5, 2.0, 3.0)
        total = loss_total(Var(np.asarray(-0.4)), Var(np.asarray(-0.6)), Var(np.asarray(-0.8)), w)
        assert float(total.value) == pytest.approx(0.5 * -0.4 + 2.0 * -0.6 + 3.0 * -0.8)

    def test_identical_unit_features_reach_minus_three(self):
        """Perfectly aligned features drive every normalized term to -1."""
        rng = np.random.default_rng(10)
        t, n, c = 3, 6, 5
        base = [rng.normal(size=(n, c)) for _ in range(t)]
        shared = Var(np.tile(base[0], (t, 1)))
        maps = {
            (i, j): (np.arange(n) + i * n, np.arange(n) + j * n)
            for i in range(t) for j in range(i + 1, t)
        }
        per_frame = [(np.arange(n) + i * n, np.arange(n) + i * n) for i in range(t)]
        l3, _ = loss_3d(shared, shared, maps)
        l34, _ = loss_3d4d(shared, shared, shared, shared, per_frame)
        l4, _ = loss_4d(shared, shared, maps)
        total = loss_total(l3, l34, l4)
        assert float(l3.value) == pytest.approx(-1.0, abs=1e-12)
        assert float(l34.value) == pytest.approx(-1.0, abs=1e-12)
        assert float(l4.value) == pytest.approx(-1.0, abs=1e-12)
        assert float(total.value) == pytest.approx(-3.0, abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(-1.0, 1.0, 1.0)
