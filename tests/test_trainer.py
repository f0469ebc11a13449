from dataclasses import fields, replace

import numpy as np
import pytest

from seqcontrast import autodiff as ad
from seqcontrast import nets
from seqcontrast.errors import ConfigError, EmptyInputError
from seqcontrast.losses import loss_3d, loss_3d4d, loss_4d, loss_total
from seqcontrast.nets import ModelConfig, UNetConfig, build_parameters
from seqcontrast.trainer import (
    Checkpoint,
    ContrastivePretrainer,
    TrainConfig,
    _SequenceState,
    backbone_features,
    balance_batch,
    export_backbone,
    learning_rate_at,
    load_checkpoint,
    load_dataset,
    pretrain,
    probe,
    projection_features,
    save_checkpoint,
    sequence_loss,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def tiny_model():
    return ModelConfig(
        unet3d=UNetConfig(dim=3, channels=(4, 8), projection_width=8),
        unet4d=UNetConfig(dim=4, channels=(3, 6), projection_width=8),
        voxel3d=0.08,
        voxel4d=0.16,
    )


def tiny_cfg(**overrides):
    base = dict(
        learning_rate=0.25,
        batch_size=2,
        steps=3,
        seed=0,
        voxel3d=0.08,
        voxel4d=0.16,
        max_corr_per_pair=64,
        max_points_3d4d=96,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(small_dataset):
    return load_dataset(small_dataset)


class TestSchedule:
    def test_closed_form_examples(self):
        cfg = TrainConfig(learning_rate=0.25, decay_factor=0.99, decay_interval=1000)
        assert learning_rate_at(500, cfg) == pytest.approx(0.25)
        assert learning_rate_at(1000, cfg) == pytest.approx(0.25 * 0.99)
        assert learning_rate_at(2500, cfg) == pytest.approx(0.245025)

    def test_matches_closed_form_everywhere(self):
        cfg = TrainConfig(learning_rate=0.1, decay_factor=0.97, decay_interval=50)
        for step in range(0, 500, 7):
            assert learning_rate_at(step, cfg) == pytest.approx(0.1 * 0.97 ** (step // 50))


class TestBatchBalance:
    @pytest.mark.parametrize("t,size", [(3, 16), (4, 12), (5, 10), (6, 8), (2, 24)])
    def test_sizes(self, t, size):
        assert balance_batch(t) == size

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            balance_batch(0)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(decay_factor=1.5)
        for bad in (dict(dtype="float16"), dict(momentum=-0.5), dict(momentum=1.0), dict(learning_rate=0.0)):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)
        assert TrainConfig(dtype="float64", momentum=0.9).np_dtype is np.float64
        assert TrainConfig().np_dtype is np.float32


def gather_of_gather_loss(state, params, model, cfg):
    """Reference joint loss: per-point features are gathered from the voxel
    features frame by frame, and the losses gather from those."""
    x3, rows3 = nets.frames_to_tensor([f.static_view().points for f in state.seq.frames], model.voxel3d)
    z3v = nets.encode(x3, params, model.unet3d)
    p3v = nets.predict(z3v, params)
    x4, rows4 = nets.sequence_to_4d(state.seq, model.voxel4d)
    z4v = nets.encode(x4, params, model.unet4d)
    p4v = nets.predict(z4v, params)
    # per-point features of all frames, stacked: frame i starts at row off[i]
    z3, p3 = ad.rows(z3v.feats, np.concatenate(rows3)), ad.rows(p3v.feats, np.concatenate(rows3))
    z4, p4 = ad.rows(z4v.feats, np.concatenate(rows4)), ad.rows(p4v.feats, np.concatenate(rows4))
    off3 = np.cumsum([0] + [len(r) for r in rows3[:-1]])
    off4 = np.cumsum([0] + [len(r) for r in rows4[:-1]])
    pairs3 = {(i, j): (ia + off3[i], ib + off3[j]) for (i, j), (ia, ib) in state.pair_maps.items()}
    pairs4 = {(i, j): (ia + off4[i], ib + off4[j]) for (i, j), (ia, ib) in state.pair_maps.items()}
    l3, _ = loss_3d(p3, z3, pairs3)
    l34, _ = loss_3d4d(p3, z3, p4, z4, [(idx + off3[i], idx + off4[i]) for i, idx in enumerate(state.per_frame)])
    l4, _ = loss_4d(p4, z4, pairs4)
    return loss_total(l3, l34, l4, cfg.weights)


class TestSequenceLoss:
    def test_matches_gather_of_gather_reference(self, dataset):
        """Gathering straight from the voxel features through composed index
        maps gives the per-point reference loss and gradient in float64."""
        cfg = tiny_cfg(dtype="float64")
        model = tiny_model()
        params = build_parameters(model, seed=4, dtype=np.float64)
        state = _SequenceState(dataset[0], cfg, 0)
        loss, report = sequence_loss(state, params, model, cfg)
        want = gather_of_gather_loss(state, params, model, cfg)
        assert abs(float(loss.value) - float(want.value)) <= 1e-12 * abs(float(want.value))
        assert report.total == float(loss.value)
        got_g, want_g = ad.grad(loss, params), ad.grad(want, params)
        scale = np.sqrt(sum(np.sum(g**2) for g in want_g.values()))
        # The stems feed constant columns into the first channel_norm, whose
        # backward amplifies rounding by 1/sqrt(eps); their gradients differ
        # by ~1e-12 of the gradient norm with the summation order, so they
        # get a looser bound.
        for name in params:
            bound = 1e-8 if ".stem." in name else 1e-12
            assert np.linalg.norm(got_g[name] - want_g[name]) <= bound * scale, name
        # the second call reuses the cached views and gives the same loss
        again, _ = sequence_loss(state, params, model, cfg)
        assert float(again.value) == float(loss.value)


class TestPretrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInputError):
            pretrain([], tiny_cfg())

    def test_unequal_projection_widths_need_no_3d4d_term(self, dataset):
        from seqcontrast.losses import LossWeights

        model = replace(tiny_model(), unet4d=UNetConfig(4, (3, 6), projection_width=4))
        with pytest.raises(ConfigError, match="widths differ"):
            pretrain(dataset, tiny_cfg(steps=0), model)
        ckpt, reports = pretrain(dataset, tiny_cfg(steps=1, weights=LossWeights(1.0, 0.0, 1.0)), model)
        assert len(reports) == 1 and ckpt.tensors["proj4d.w"].shape == (3, 4)

    def test_zero_steps_equals_initialization(self, dataset):
        cfg = tiny_cfg(steps=0)
        model = tiny_model()
        ckpt, reports = pretrain(dataset, cfg, model)
        assert reports == []
        init = build_parameters(model, seed=cfg.seed, dtype=cfg.np_dtype)
        assert set(ckpt.tensors) == set(init)
        for k in init:
            np.testing.assert_array_equal(ckpt.tensors[k], init[k].value)

    def test_loss_decreases_and_reports_consistent(self, dataset):
        ckpt, reports = pretrain(dataset, tiny_cfg(steps=3), tiny_model())
        assert len(reports) == 3
        for rep in reports:
            weighted = rep.weights.w_3d * rep.l_3d + rep.weights.w_3d4d * rep.l_3d4d + rep.weights.w_4d * rep.l_4d
            assert abs(rep.total - weighted) <= 1e-6
            assert np.isfinite(rep.total)
        assert ckpt.step == 3

    def test_float64_bit_exact_reproduction(self, dataset):
        cfg = tiny_cfg(steps=2, dtype="float64")
        model = tiny_model()
        a, ra = pretrain(dataset, cfg, model)
        b, rb = pretrain(dataset, cfg, model)
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k], b.tensors[k])
        assert [r.total for r in ra] == [r.total for r in rb]

    def test_float32_curves_close(self, dataset):
        cfg = tiny_cfg(steps=2)
        a = pretrain(dataset, cfg, tiny_model())[1]
        b = pretrain(dataset, cfg, tiny_model())[1]
        np.testing.assert_allclose([r.total for r in a], [r.total for r in b], atol=1e-6)

    def test_initial_weights_resume(self, dataset, tmp_path):
        """Two float64 steps with momentum, saved, loaded and resumed to step
        four, match four uninterrupted steps bit for bit."""
        model = tiny_model()
        cfg = tiny_cfg(steps=4, dtype="float64", momentum=0.9)
        whole, whole_reports = pretrain(dataset, cfg, model)
        half, half_reports = pretrain(dataset, tiny_cfg(steps=2, dtype="float64", momentum=0.9), model)
        assert set(half.velocity) == set(half.tensors)
        save_checkpoint(tmp_path / "half.4dcw", half)
        resumed, resumed_reports = pretrain(dataset, cfg, model, resume=load_checkpoint(tmp_path / "half.4dcw"))
        assert resumed.step == 4
        assert [r.total for r in half_reports + resumed_reports] == [r.total for r in whole_reports]
        for k in whole.tensors:
            assert resumed.tensors[k].dtype == np.float64
            np.testing.assert_array_equal(resumed.tensors[k], whole.tensors[k])
            np.testing.assert_array_equal(resumed.velocity[k], whole.velocity[k])
        with pytest.raises(ConfigError):
            pretrain(dataset, tiny_cfg(steps=4, momentum=0.9), model, resume=half)
        with pytest.raises(ConfigError):
            pretrain(dataset, replace(cfg, voxel3d=0.1), replace(model, voxel3d=0.1), resume=half)
        with pytest.raises(ConfigError):
            pretrain(dataset, tiny_cfg(steps=1, dtype="float64", momentum=0.9), model, resume=half)

    def test_voxel_sizes_must_agree_with_model(self, dataset):
        for bad in (dict(voxel3d=0.1), dict(voxel4d=0.2)):
            with pytest.raises(ConfigError, match="voxel sizes differ"):
                pretrain(dataset, tiny_cfg(**bad), tiny_model())

    def test_non_finite_loss_names_step_sequence_and_terms(self, dataset):
        """Resumed from a checkpoint with a NaN in the 3D projection, step 2
        stops at its first sequence, in the two terms that read the 3D branch."""
        model, cfg = tiny_model(), tiny_cfg(steps=2)
        ckpt, _ = pretrain(dataset, tiny_cfg(steps=1), model)
        ckpt.tensors["proj3d.w"][0, 0] = np.nan
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101, 2)))
        first = int(rng.choice(len(dataset), size=cfg.batch_size, replace=len(dataset) < cfg.batch_size)[0])
        want = rf"^non-finite loss at step 2, sequence {first}: L3D, L3D4D \(L3D=nan L3D4D=nan L4D=-?\d"
        with pytest.raises(FloatingPointError, match=want):
            pretrain(dataset, cfg, model, resume=ckpt)

    def test_log_file_format(self, dataset, tmp_path):
        log = tmp_path / "train.log"
        pretrain(dataset, tiny_cfg(steps=2), tiny_model(), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        cols = lines[0].split("\t")
        assert len(cols) == 6 and cols[0] == "1"
        assert float(cols[1]) == pytest.approx(0.25)

    def test_untouched_parameters_stay_at_init(self, dataset):
        """With only the 3D-to-4D term active (stop-gradient on the predictor
        outputs), both predictors keep their initialization bit-for-bit."""
        from seqcontrast.losses import LossWeights

        model = tiny_model()
        cfg = tiny_cfg(steps=3, weights=LossWeights(0.0, 1.0, 0.0))
        ckpt, _ = pretrain(dataset, cfg, model)
        init = build_parameters(model, seed=cfg.seed, dtype=cfg.np_dtype)
        moved = 0
        for k in ckpt.tensors:
            if k.startswith(("pred3d.", "pred4d.")):
                np.testing.assert_array_equal(ckpt.tensors[k], init[k].value)
            elif not np.array_equal(ckpt.tensors[k], init[k].value):
                moved += 1
        assert moved > 0  # encoders did train


class TestCheckpointIO:
    def test_roundtrip_preserves_weights_and_config(self, dataset, tmp_path):
        cfg = tiny_cfg(steps=1)
        ckpt, _ = pretrain(dataset, cfg, tiny_model())
        path = tmp_path / "ck.4dcw"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.step == ckpt.step
        assert back.model.unet3d.channels == ckpt.model.unet3d.channels
        assert back.model.unet4d.channels == ckpt.model.unet4d.channels
        assert back.train.batch_size == cfg.batch_size
        assert back.train.seed == cfg.seed
        assert back.train.dtype == cfg.dtype
        assert set(back.tensors) == set(ckpt.tensors)
        for k in ckpt.tensors:
            np.testing.assert_array_equal(back.tensors[k], ckpt.tensors[k])

    def test_roundtrip_is_exact_for_every_field(self, tmp_path):
        """Every config field differs from its default, including values that
        float32 cannot hold, and the tensors are float64."""
        from seqcontrast.losses import LossWeights

        model = ModelConfig(
            UNetConfig(3, (5, 7, 9), projection_width=6),
            UNetConfig(4, (3,), projection_width=10),
            voxel3d=0.06, voxel4d=0.13,
        )
        train = TrainConfig(
            learning_rate=0.1, batch_size=5, steps=17, decay_factor=0.97, decay_interval=33,
            seed=16777217, weights=LossWeights(0.3, 0.7, 1.1), voxel3d=0.06, voxel4d=0.13,
            momentum=0.9, dtype="float64", max_corr_per_pair=7, max_points_3d4d=9,
        )
        for f in fields(TrainConfig):
            assert getattr(train, f.name) != getattr(TrainConfig(), f.name), f.name
        for f in fields(ModelConfig):
            assert getattr(model, f.name) != getattr(ModelConfig(), f.name), f.name
        rng = np.random.default_rng(3)
        tensors = {k: p.value + rng.normal(size=p.value.shape) * 1e-3
                   for k, p in build_parameters(model, dtype=np.float64).items()}
        velocity = {k: rng.normal(size=v.shape) for k, v in tensors.items()}
        ckpt = Checkpoint(tensors, 17, model, train, velocity)
        save_checkpoint(tmp_path / "ck.4dcw", ckpt)
        back = load_checkpoint(tmp_path / "ck.4dcw")
        assert back.train == ckpt.train
        assert back.model == ckpt.model
        assert back.step == ckpt.step
        for saved, loaded in ((ckpt.tensors, back.tensors), (ckpt.velocity, back.velocity)):
            assert set(loaded) == set(saved)
            for k in saved:
                assert loaded[k].dtype == saved[k].dtype == np.float64
                assert loaded[k].tobytes() == saved[k].tobytes()

    def test_export_backbone_drops_heads(self, dataset):
        ckpt, _ = pretrain(dataset, tiny_cfg(steps=1), tiny_model())
        bb = export_backbone(ckpt)
        assert all(k.startswith("unet3d.") for k in bb.tensors)
        assert any(k.startswith("proj3d.") for k in ckpt.tensors)
        assert not any(k.startswith(("proj", "pred", "unet4d")) for k in bb.tensors)

    def test_backbone_forward_matches_full_model(self, dataset):
        ckpt, _ = pretrain(dataset, tiny_cfg(steps=1), tiny_model())
        bb = export_backbone(ckpt)
        pts = dataset[0].frames[0].cloud.points[:300]
        a, rows_a = backbone_features(pts, ckpt)
        b, rows_b = backbone_features(pts, bb)
        np.testing.assert_array_equal(rows_a, rows_b)
        np.testing.assert_array_equal(a, b)

    def test_float64_checkpoint_infers_in_float32(self, dataset):
        """Inference runs in float32: a float64 checkpoint gives the same
        features as that checkpoint cast to float32."""
        model = tiny_model()
        tensors = {k: p.value for k, p in build_parameters(model, seed=5, dtype=np.float64).items()}
        ckpt = Checkpoint(tensors, 0, model, tiny_cfg(dtype="float64"))
        as32 = Checkpoint({k: v.astype(np.float32) for k, v in tensors.items()}, 0, model, tiny_cfg())
        frames = [f.static_view().points for f in dataset[0].frames]
        for got, want in zip(projection_features(frames, ckpt), projection_features(frames, as32)):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(backbone_features(frames[0], ckpt)[0], backbone_features(frames[0], as32)[0])

    def test_projection_features_convert_only_what_they_read(self, dataset):
        """On a checkpoint of the P7 toy model, the features equal those of a
        forward pass with every tensor in float32, and a checkpoint holding
        only the 3D U-Net and its projection gives the same bits."""
        model = ModelConfig(
            UNetConfig(3, (8, 16), projection_width=32), UNetConfig(4, (8, 16), projection_width=32), voxel3d=0.06, voxel4d=0.12
        )
        tensors = {k: p.value for k, p in build_parameters(model, seed=6, dtype=np.float64).items()}
        ckpt = Checkpoint(tensors, 0, model, tiny_cfg(dtype="float64", voxel3d=0.06, voxel4d=0.12))
        read = {k: v for k, v in tensors.items() if k.startswith(("unet3d.", "proj3d."))}
        assert len(read) < len(tensors)
        frames = [f.static_view().points for f in dataset[0].frames]
        every = {k: ad.Var(v.astype(np.float32)) for k, v in tensors.items()}
        for points, got, only in zip(frames, projection_features(frames, ckpt), projection_features(frames, replace(ckpt, tensors=read))):
            x, rows = nets.points_to_tensor(points, model.voxel3d)
            want = nets.encode(x, every, model.unet3d).feats.value[rows]
            assert got.tobytes() == want.tobytes() == only.tobytes()

    def test_reexport_idempotent(self, dataset, tmp_path):
        ckpt, _ = pretrain(dataset, tiny_cfg(steps=1), tiny_model())
        bb = export_backbone(ckpt)
        p1, p2 = tmp_path / "a.4dcw", tmp_path / "b.4dcw"
        save_checkpoint(p1, bb)
        save_checkpoint(p2, export_backbone(load_checkpoint(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_without_backbone_rejected(self):
        empty = Checkpoint({"proj3d.w": np.ones((2, 2), np.float32)}, 0, tiny_model(), tiny_cfg())
        with pytest.raises(ValueError):
            export_backbone(empty)


class TestProbe:
    def test_untrained_margin_near_zero(self, dataset):
        model = tiny_model()
        init = build_parameters(model, seed=123)
        ckpt = Checkpoint({k: p.value for k, p in init.items()}, 0, model, tiny_cfg())
        rep = probe(ckpt, dataset, max_pairs_per_sequence=400, seed=1)
        assert rep["pairs"] >= 1000
        assert abs(rep["margin"]) < 0.1

    def test_identical_features_probe_to_one(self, dataset):
        """Corresponding scene points land in the same voxel when the static
        augmentation is the identity, so their features coincide."""
        from seqcontrast.geom import SimilarityTransform
        from seqcontrast.seqgen import Sequence

        seq = dataset[0]
        ident = SimilarityTransform.identity()
        frames = [replace(f, static_aug=ident) for f in seq.frames]
        same = Sequence([frames[0], frames[0]], seq.scene_id, seq.object_id)
        model = tiny_model()
        init = build_parameters(model, seed=5)
        ckpt = Checkpoint({k: p.value for k, p in init.items()}, 0, model, tiny_cfg())
        rep = probe(ckpt, [same], seed=2)
        assert rep["corresponding"] == pytest.approx(1.0, abs=1e-6)


class TestEstimatorFacade:
    def test_get_set_params(self):
        est = ContrastivePretrainer(steps=7)
        assert est.get_params()["steps"] == 7
        est.set_params(steps=9, learning_rate=0.1)
        assert est.steps == 9 and est.learning_rate == 0.1
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_fit_transform_shapes(self, dataset):
        est = ContrastivePretrainer(steps=1, batch_size=2, seed=0, model=tiny_model())
        est.fit(dataset)
        pts = dataset[0].frames[0].cloud.points[:200]
        feats = est.transform(pts)
        assert feats.shape == (200, tiny_model().unet3d.projection_width)

    @pytest.mark.parametrize("source", ["list", "directory"])
    def test_fit_transform_first_frame(self, small_dataset, dataset, source):
        """Features of the first frame of the first training sequence, from
        a list of sequences or a dataset directory alike."""
        est = ContrastivePretrainer(steps=1, batch_size=2, seed=0, model=tiny_model())
        feats = est.fit_transform(dataset if source == "list" else small_dataset)
        pts = dataset[0].frames[0].cloud.points
        assert feats.shape == (len(pts), tiny_model().unet3d.projection_width)
        np.testing.assert_array_equal(feats, est.transform(pts))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            ContrastivePretrainer().transform(np.zeros((3, 3)))

    def test_fit_from_directory(self, small_dataset):
        est = ContrastivePretrainer(steps=1, batch_size=2, model=tiny_model())
        est.fit(small_dataset)
        assert est.checkpoint_.step == 1
