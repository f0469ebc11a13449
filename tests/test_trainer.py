import hashlib
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from seqcontrast import autodiff as ad
from seqcontrast import nets, trainer
from seqcontrast.errors import ConfigError, EmptyInputError
from seqcontrast.losses import loss_3d, loss_3d4d, loss_4d, loss_total
from seqcontrast.nets import ModelConfig, UNetConfig, build_parameters
from seqcontrast.seqgen import GenParams
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_sizes_and_rates_must_be_finite(self, value):
        """NaN fails every comparison, so a check written as ``x <= 0`` would
        let it through."""
        for name in ("learning_rate", "voxel3d", "voxel4d"):
            with pytest.raises(ConfigError, match="finite and positive"):
                TrainConfig(**{name: value})
            if name != "learning_rate":
                with pytest.raises(ConfigError, match="finite and positive"):
                    ModelConfig(**{name: value})
        with pytest.raises(ConfigError, match="finite and positive"):
            GenParams(scene_cell=value)


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

    def test_the_graph_holds_little_beyond_its_node_outputs(self, dataset):
        """Once a sequence's forward pass ends, its graph holds under 1.4
        times the outputs of its inner nodes. Closures keep relu masks, norm
        scales and index arrays beside those outputs, but no conv keeps its
        gathered input rows: keeping them more than doubles the graph."""
        cfg, model = tiny_cfg(), tiny_model()
        params = build_parameters(model, seed=0)
        state = _SequenceState(dataset[0], cfg, 0)
        sequence_loss(state, params, model, cfg)  # builds the views and their kernel maps
        tracemalloc.start()
        try:
            loss, _ = sequence_loss(state, params, model, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        outputs = sum(node.value.nbytes for node in ad.topo_order(loss) if node._backward is not None)
        assert held < 1.4 * outputs, (held / 2**20, outputs / 2**20)


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

    def test_a_sequence_graph_is_gone_before_the_next_is_built(self, dataset, monkeypatch):
        """At the start of a step's second sequence, the traced memory has
        grown by the first sequence's cached views, not by its whole graph."""
        traced = []

        def sequence_loss_traced(*args):
            traced.append(tracemalloc.get_traced_memory()[0])
            out = sequence_loss(*args)
            traced.append(tracemalloc.get_traced_memory()[0])
            return out

        # a worker's readings would stay in the worker: every position runs here
        monkeypatch.setattr(trainer, "_process_count", lambda cfg: 1)
        monkeypatch.setattr(trainer, "sequence_loss", sequence_loss_traced)
        tracemalloc.start()
        try:
            pretrain(dataset[:2], tiny_cfg(steps=1, batch_size=2), tiny_model())
        finally:
            tracemalloc.stop()
        start1, graph1, start2 = traced[:3]
        assert len(traced) == 4
        assert start2 - start1 < (graph1 - start1) / 2, [t / 1e6 for t in traced]

    def test_in_one_process_a_positions_gradients_are_gone_before_the_next_is_built(self, dataset, monkeypatch):
        """One process adds each position's gradients as it computes them, so
        no earlier position's gradients are alive at a forward pass."""
        made, alive = [], []
        grad = ad.grad

        def grad_tracked(loss, params):
            out = grad(loss, params)
            made.append(weakref.ref(next(iter(out.values()))))
            return out

        def sequence_loss_counted(*args):
            alive.append(sum(ref() is not None for ref in made))
            return sequence_loss(*args)

        monkeypatch.setattr(trainer, "_process_count", lambda cfg: 1)
        monkeypatch.setattr(ad, "grad", grad_tracked)
        monkeypatch.setattr(trainer, "sequence_loss", sequence_loss_counted)
        pretrain(dataset, tiny_cfg(steps=2, batch_size=4), tiny_model())
        assert alive == [0] * 8

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


def _digest(ckpt: Checkpoint, reports) -> str:
    h = hashlib.sha256()
    for arrays in (ckpt.tensors, ckpt.velocity):
        for k in sorted(arrays):
            h.update(k.encode() + arrays[k].tobytes())
    h.update(repr([(r.l_3d, r.l_3d4d, r.l_4d, r.total) for r in reports]).encode())
    return h.hexdigest()


def _batch(n_sequences: int, cfg: TrainConfig, step: int) -> list[int]:
    """The sequence indices of a step's batch, drawn as `pretrain` draws them."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101, step)))
    return rng.choice(n_sequences, size=cfg.batch_size, replace=n_sequences < cfg.batch_size).tolist()


class TestProcesses:
    """Each batch is shared by several processes; the parent adds every
    position's terms in batch order, so the process count changes no bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_weights_velocities_and_reports_equal_at_1_2_and_3_processes(self, dataset, monkeypatch, dtype):
        cfg, model = tiny_cfg(steps=3, batch_size=4, momentum=0.9, dtype=dtype), tiny_model()
        digests = []
        for n in (1, 2, 3):
            monkeypatch.setattr(trainer, "_process_count", lambda cfg: n)
            digests.append(_digest(*pretrain(dataset, cfg, model)))
            assert multiprocessing.active_children() == []
        assert digests == [digests[0]] * 3

    def test_the_earliest_non_finite_position_is_named_whichever_process_ran_it(self, dataset, monkeypatch):
        """A float32 stem weight near the overflow limit makes the loss
        non-finite only for the sequences with the most voxels. At a step
        whose batch starts with a finite sequence and goes on with one of
        those, a worker computes position 1 at 2 and 3 processes; the error
        names it in the words one process uses, and no worker is left."""
        model = tiny_model()
        params = build_parameters(model, seed=0)
        states = [_SequenceState(seq, tiny_cfg(), i) for i, seq in enumerate(dataset)]
        for scale in np.geomspace(1e35, 1e36, 25):
            params["unet3d.stem.w"].value = np.full_like(params["unet3d.stem.w"].value, scale)
            totals = [sequence_loss(state, params, model, tiny_cfg())[1].total for state in states]
            bad = {i for i, total in enumerate(totals) if not np.isfinite(total)}
            if 0 < len(bad) < len(states):
                break
        else:
            pytest.fail("no stem scale makes only some sequences overflow")
        cfg = next(
            c for c in (tiny_cfg(steps=1, batch_size=4, seed=seed) for seed in range(200))
            if _batch(len(dataset), c, 1)[0] not in bad and _batch(len(dataset), c, 1)[1] in bad
        )
        resume = Checkpoint({k: p.value for k, p in params.items()}, 0, model, cfg)
        errors = []
        for n in (1, 2, 3):
            monkeypatch.setattr(trainer, "_process_count", lambda cfg: n)
            with pytest.raises(FloatingPointError) as exc:
                pretrain(dataset, cfg, model, resume=resume)
            errors.append(str(exc.value))
            assert multiprocessing.active_children() == []
        assert errors[0].startswith(f"non-finite loss at step 1, sequence {_batch(len(dataset), cfg, 1)[1]}: L3D, L3D4D (")
        assert errors == [errors[0]] * 3

    def test_a_worker_killed_between_steps_is_named_with_its_exit_code(self, dataset, monkeypatch):
        """The worker dies after step 2's gradients, so step 3 finds it gone
        when it sends; the error names the worker, its pid and the signal."""
        killed = []

        def learning_rate_at(step, cfg):
            if step == 2:
                (proc,) = multiprocessing.active_children()
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=30)
                assert not proc.is_alive()
                killed.append(proc.pid)
            return trainer_learning_rate_at(step, cfg)

        trainer_learning_rate_at = trainer.learning_rate_at
        monkeypatch.setattr(trainer, "learning_rate_at", learning_rate_at)
        monkeypatch.setattr(trainer, "_process_count", lambda cfg: 2)
        with pytest.raises(RuntimeError) as exc:
            pretrain(dataset, tiny_cfg(steps=6), tiny_model())
        assert str(exc.value) == f"training worker 1 (pid {killed[0]}) stopped with exit code -9"
        assert multiprocessing.active_children() == []

    def test_an_interrupt_stops_every_worker(self, dataset, monkeypatch):
        """An interrupt in the parent between steps is raised again, after
        the worker is terminated and joined."""

        def learning_rate_at(step, cfg):
            if step == 2:
                raise KeyboardInterrupt
            return trainer_learning_rate_at(step, cfg)

        trainer_learning_rate_at = trainer.learning_rate_at
        monkeypatch.setattr(trainer, "learning_rate_at", learning_rate_at)
        monkeypatch.setattr(trainer, "_process_count", lambda cfg: 2)
        with pytest.raises(KeyboardInterrupt):
            pretrain(dataset, tiny_cfg(steps=6), tiny_model())
        assert multiprocessing.active_children() == []

    def test_a_script_without_a_main_guard_trains(self, small_dataset, tmp_path):
        """Workers are forked, so a script may train at its top level. Each
        worker closes the parent's pipe ends it inherits: one left open would
        keep a worker from seeing its end of input, and the run would hang
        until the timeout."""
        script = tmp_path / "train.py"
        script.write_text(_UNGUARDED_SCRIPT)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, str(script), str(small_dataset)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["2", "0"]

    def test_a_process_per_core_up_to_the_batch(self):
        cores = len(os.sched_getaffinity(0))
        assert trainer._process_count(tiny_cfg(batch_size=64)) == min(64, cores)
        assert trainer._process_count(tiny_cfg(batch_size=2)) == min(2, cores)


_UNGUARDED_SCRIPT = """
import multiprocessing, sys
from seqcontrast import trainer
from seqcontrast.nets import ModelConfig, UNetConfig
trainer._process_count = lambda cfg: 3
model = ModelConfig(UNetConfig(3, (4, 8), projection_width=8), UNetConfig(4, (3, 6), projection_width=8), 0.08, 0.16)
est = trainer.ContrastivePretrainer(steps=2, batch_size=3, model=model).fit(sys.argv[1])
print(len(est.reports_), len(multiprocessing.active_children()))
"""


_TRAIN_DIGESTS = """
import hashlib, sys
from seqcontrast import trainer
from seqcontrast.trainer import TrainConfig, load_dataset, pretrain
from seqcontrast.nets import ModelConfig, UNetConfig
model = ModelConfig(UNetConfig(3, (8, 16), projection_width=32), UNetConfig(4, (8, 16), projection_width=32), 0.06, 0.12)
for dtype in ("float32", "float64"):
    for n in (1, 2):
        trainer._process_count = lambda cfg: n
        cfg = TrainConfig(steps=2, batch_size=2, voxel3d=0.06, voxel4d=0.12, max_corr_per_pair=64,
                          max_points_3d4d=96, momentum=0.9, dtype=dtype)
        ckpt, _ = pretrain(load_dataset(sys.argv[1]), cfg, model)
        print(dtype, hashlib.sha256(b"".join(ckpt.tensors[k].tobytes() for k in sorted(ckpt.tensors))).hexdigest())
"""


class TestBlasThreads:
    """`pretrain` runs numpy's OpenBLAS at one thread and puts the previous
    count back afterwards."""

    def test_weights_do_not_depend_on_openblas_num_threads(self, small_dataset):
        """Two steps at the P7 widths, whose products are large enough for
        OpenBLAS to split over two threads, give the same weights whatever
        ``OPENBLAS_NUM_THREADS`` says, in one process and with a worker, which
        computes at the thread count it inherits."""
        out = []
        for threads in ("1", "2"):
            env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)}
            run = subprocess.run([sys.executable, "-c", _TRAIN_DIGESTS, str(small_dataset)],
                                 env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            out.append(run.stdout.splitlines())
        assert len(out[0]) == 4
        assert out[0] == out[1]
        assert out[0][0] == out[0][1] and out[0][2] == out[0][3]

    def test_the_thread_count_is_restored_after_a_return_and_a_raise(self, dataset, monkeypatch):
        if trainer._blas_threads() is None:
            pytest.skip("numpy's BLAS has no scipy-openblas thread setter")
        get, set_ = trainer._blas_threads()
        original = get()
        during = []

        def learning_rate_at(step, cfg):
            during.append(get())
            return trainer_learning_rate_at(step, cfg)

        trainer_learning_rate_at = trainer.learning_rate_at
        monkeypatch.setattr(trainer, "learning_rate_at", learning_rate_at)
        try:
            set_(2)
            before = get()
            model = tiny_model()
            ckpt, _ = pretrain(dataset, tiny_cfg(steps=1), model)
            assert get() == before and during == [1]
            ckpt.tensors["proj3d.w"][0, 0] = np.nan
            with pytest.raises(FloatingPointError):
                pretrain(dataset, tiny_cfg(steps=2), model, resume=ckpt)
            assert get() == before
        finally:
            set_(original)

    def test_without_the_thread_setter_training_warns_once_and_runs(self, dataset, monkeypatch, caplog):
        monkeypatch.setattr(trainer, "_process_count", lambda cfg: 1)
        monkeypatch.setattr(np, "show_config", lambda mode: {})
        trainer._blas_threads.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger="seqcontrast.trainer"):
                for _ in range(2):
                    ckpt, reports = pretrain(dataset, tiny_cfg(steps=1), tiny_model())
                    assert len(reports) == 1 and ckpt.step == 1
        finally:
            trainer._blas_threads.cache_clear()
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "OPENBLAS_NUM_THREADS" in warnings[0].getMessage()

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

    def test_transform_rejects_non_finite_points(self):
        """Named by row, instead of failing deep in the voxel key packing."""
        model = tiny_model()
        est = ContrastivePretrainer(model=model)
        params = build_parameters(model, seed=0)
        est.checkpoint_ = Checkpoint({k: p.value for k, p in params.items()}, 0, model, tiny_cfg())
        pts = np.random.default_rng(0).uniform(0, 2, size=(20, 3))
        assert est.transform(pts).shape == (20, model.unet3d.projection_width)
        pts[[3, 7], [0, 2]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match=r"2 points have non-finite coordinates, the first at rows \[3, 7\]"):
            est.transform(pts)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            ContrastivePretrainer().transform(np.zeros((3, 3)))

    def test_fit_from_directory(self, small_dataset):
        est = ContrastivePretrainer(steps=1, batch_size=2, model=tiny_model())
        est.fit(small_dataset)
        assert est.checkpoint_.step == 1
