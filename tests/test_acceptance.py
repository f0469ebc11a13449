"""Acceptance suite: one pass/fail line per criterion (P1-P9).

Each test verifies one end-to-end guarantee of the package and records a
single PASS/FAIL line, printed in the terminal summary. P7 runs the full toy
pre-training pipeline and dominates the runtime: 2.5 to 4 of the whole
suite's 3 to 4.5 minutes on two cores.
"""

import itertools
import time

import numpy as np
import pytest

import conftest
from seqcontrast import autodiff as ad
from seqcontrast import seqgen
from seqcontrast import sparse as sp
from seqcontrast import synth
from seqcontrast.autodiff import Var
from seqcontrast.config import RunConfig
from seqcontrast.geom import FLOOR_BAND, MAP_CELL, OBJECT_ID_OFFSET, height_accumulate
from seqcontrast.gradcheck import run_gradcheck, tiny_model, tiny_sequence
from seqcontrast.losses import LossWeights, loss_3d, loss_3d4d, loss_4d, loss_total
from seqcontrast.nets import ModelConfig, UNetConfig, build_parameters
from seqcontrast.seqgen import (
    CHUNK_FRACTION_MAX,
    CHUNK_FRACTION_MIN,
    CHUNKS_MAX,
    CHUNKS_MIN,
    MIN_CONSISTENT,
    MIN_RETENTION,
    STEP_MAX,
    STEP_MIN,
    TURN_LIMIT,
    GenParams,
    Sequence,
    augment_scene,
    build_correspondences,
    compose_frame,
    generate_dataset,
    read_sequence,
    sample_scene_canonical,
    sample_trajectory,
    trajectory_violations,
    valid_positions,
)
from seqcontrast.formats import read_sidecar
from seqcontrast.trainer import (
    Checkpoint,
    TrainConfig,
    balance_batch,
    load_dataset,
    pretrain,
    probe,
)


def record(name: str, ok: bool, detail: str) -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Toy pipeline shared by P5, P6, and P7: 8 rooms x 4 objects, t=4.


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    rooms = [
        synth.make_room(
            np.random.default_rng(np.random.SeedSequence((7, 0, i))),
            size=2.8, spacing=0.10,
        )
        for i in range(8)
    ]
    objects = [
        synth.make_object(
            np.random.default_rng(np.random.SeedSequence((7, 1, j))), n_points=300
        )
        for j in range(4)
    ]
    params = GenParams(t=4, object_sample=300, scene_cell=0.02)
    stats = generate_dataset(rooms, objects, out, per_scene=2, t=4, seed=7, params=params)
    assert stats["written"] >= 12
    return out, rooms, objects


def toy_train_config() -> TrainConfig:
    # Desk-scale stand-in for the full setup: coarser voxels, narrower nets,
    # and a step decay fast enough to settle within the 500-step budget (the
    # reference 0.99-per-1000 schedule is calibrated to 50k-step runs).
    return TrainConfig(
        learning_rate=0.25,
        batch_size=4,
        steps=500,
        decay_factor=0.9,
        decay_interval=50,
        seed=0,
        voxel3d=0.06,
        voxel4d=0.12,
        max_corr_per_pair=192,
        max_points_3d4d=384,
    )


def toy_model_config() -> ModelConfig:
    return ModelConfig(
        UNetConfig(3, (8, 16), projection_width=32),
        UNetConfig(4, (8, 16), projection_width=32),
        voxel3d=0.06,
        voxel4d=0.12,
    )


# ---------------------------------------------------------------------------


class TestP1GradientFidelity:
    def test_p1(self):
        start = time.monotonic()
        report = run_gradcheck(seed=0, n_seeds=20, tolerance=1e-4, n_components=20)
        elapsed = time.monotonic() - start
        ok = not report["failures"] and report["worst"] <= 1e-4 and elapsed <= 120
        record(
            "P1",
            ok,
            f"{report['checked']} FD checks over 20 seeds, worst rel err "
            f"{report['worst']:.2e} (tol 1e-4), {elapsed:.0f}s (limit 120s)",
        )


class TestP2ConvolutionOracle:
    @staticmethod
    def _grid(shape, channels, rng):
        coords = np.array(list(itertools.product(*[range(s) for s in shape])), dtype=np.int64)
        coords = np.column_stack([np.zeros(len(coords), dtype=np.int64), coords])
        return sp.SparseTensor(coords, rng.normal(size=(len(coords), channels)), (1,) * len(shape))

    @staticmethod
    def _dense_oracle(coords, feats, weight, offsets):
        index = {tuple(c): i for i, c in enumerate(coords)}
        out = np.zeros((len(coords), weight.shape[2]))
        for o, c in enumerate(coords):
            for k, off in enumerate(offsets):
                i = index.get(tuple(np.concatenate([[c[0]], c[1:] + off])))
                if i is not None:
                    out[o] += feats[i] @ weight[k]
        return out

    def test_p2(self):
        rng = np.random.default_rng(0)
        errs = []
        for shape, dim, cin, cout in (((8, 8, 8), 3, 3, 4), ((6, 6, 6, 4), 4, 2, 3)):
            x = self._grid(shape, cin, rng)
            w = Var(rng.normal(size=(3**dim, cin, cout)))
            got = sp.sparse_conv(x, w, stride=1).feats.value
            want = self._dense_oracle(x.coords, x.feats.value, w.value, sp.kernel_offsets(dim, 3))
            errs.append(float(np.max(np.abs(got - want))))
        conv_err = max(errs)

        # adjoint identity: <down(x), y> == <x, up(y)>
        x = self._grid((6, 6, 6), 3, rng)
        w = Var(rng.normal(size=(8, 3, 5)))
        down = sp.sparse_conv(x, w, stride=2)
        y = rng.normal(size=down.feats.value.shape)
        up = sp.transpose_conv(sp.SparseTensor(down.coords, y, down.stride), w, x.coords, x.stride)
        lhs = float((down.feats.value * y).sum())
        rhs = float((x.feats.value * up.feats.value).sum())
        adj_err = abs(lhs - rhs) / max(1.0, abs(lhs))

        ok = conv_err <= 1e-6 and adj_err <= 1e-8
        record(
            "P2",
            ok,
            f"dense-oracle max err {conv_err:.2e} on 8^3 and 6^3x4 grids (tol 1e-6), "
            f"adjoint identity err {adj_err:.2e} (tol 1e-8)",
        )


class TestP3StopGradientContract:
    def test_p3(self):
        # exact zeros through every stop-gradient branch
        rng = np.random.default_rng(1)
        t, n, c = 2, 6, 4
        # one stacked matrix per view; frame i owns rows i*n to i*n+n-1
        mk = lambda: ad.parameter(np.concatenate([rng.normal(size=(n, c)) for _ in range(t)]))
        p3, z3, p4, z4 = mk(), mk(), mk(), mk()
        maps = {(0, 1): (np.arange(n), np.arange(n) + n)}
        per_frame = [(np.arange(n) + i * n, np.arange(n) + i * n) for i in range(t)]
        l3, _ = loss_3d(p3, z3, maps)
        l34, _ = loss_3d4d(p3, z3, p4, z4, per_frame)
        l4, _ = loss_4d(p4, z4, maps)
        g = ad.grad(loss_total(l3, l34, l4), {"p3": p3, "z3": z3, "p4": p4, "z4": z4})
        g34 = ad.grad(l34, {"p3": p3, "p4": p4})
        sg_zero = np.all(g34["p3"] == 0.0) and np.all(g34["p4"] == 0.0)

        # 100 steps with only the 3D-4D term: predictors never move
        rng = np.random.default_rng(2)
        sequences = [tiny_sequence(rng, t=3, n_points=24) for _ in range(3)]
        model = tiny_model()
        cfg = TrainConfig(
            learning_rate=0.1, batch_size=2, steps=100, seed=0, dtype="float64",
            weights=LossWeights(0.0, 1.0, 0.0),
            voxel3d=model.voxel3d, voxel4d=model.voxel4d,
            max_corr_per_pair=0, max_points_3d4d=0,
        )
        ckpt, _ = pretrain(sequences, cfg, model)
        init = build_parameters(model, seed=0, dtype=np.float64)
        pred_frozen = all(
            np.array_equal(ckpt.tensors[k], init[k].value)
            for k in ckpt.tensors
            if k.startswith(("pred3d.", "pred4d."))
        )
        encoders_moved = any(
            not np.array_equal(ckpt.tensors[k], init[k].value)
            for k in ckpt.tensors
            if k.startswith("unet")
        )
        ok = sg_zero and pred_frozen and encoders_moved
        record(
            "P3",
            ok,
            f"SG branch gradients exactly zero: {sg_zero}; predictors bit-identical "
            f"after 100 steps of the 3D-4D-only loss: {pred_frozen} (encoders moved: {encoders_moved})",
        )


class TestP4LossAlgebra:
    def test_p4(self):
        rng = np.random.default_rng(3)
        worst_oracle = 0.0
        worst_scale = 0.0
        in_bounds = True
        for trial in range(20):
            t = int(rng.integers(2, 4))
            n = int(rng.integers(4, 10))
            c = 5
            # per-frame features, stacked into one matrix per view
            p = [rng.normal(size=(n, c)) for _ in range(t)]
            z = [rng.normal(size=(n, c)) for _ in range(t)]
            p_all, z_all = Var(np.concatenate(p)), Var(np.concatenate(z))
            maps = {
                (i, j): (rng.integers(0, n, size=int(rng.integers(1, 7))),) * 2
                for i in range(t) for j in range(i + 1, t)
            }
            maps = {k: (v[0], rng.integers(0, n, size=len(v[0]))) for k, v in maps.items()}
            rows = {(i, j): (ia + i * n, ib + j * n) for (i, j), (ia, ib) in maps.items()}
            val, _ = loss_3d(p_all, z_all, rows)
            in_bounds &= -1 - 1e-12 <= float(val.value) <= 1 + 1e-12
            # nested-loop oracle
            terms = []
            for (i, j) in sorted(maps):
                ia, ib = maps[(i, j)]
                vals = []
                for a, b in zip(ia, ib):
                    pa, zb = p[i][a], z[j][b]
                    pb, za = p[j][b], z[i][a]
                    vals.append(
                        -0.5 * pa @ zb / (np.linalg.norm(pa) * np.linalg.norm(zb))
                        - 0.5 * pb @ za / (np.linalg.norm(pb) * np.linalg.norm(za))
                    )
                terms.append(np.mean(vals))
            worst_oracle = max(worst_oracle, abs(float(val.value) - np.mean(terms)))
            # per-vector positive rescaling
            s = float(rng.uniform(0.01, 100.0))
            val2, _ = loss_3d(Var(p_all.value * s), z_all, rows)
            worst_scale = max(worst_scale, abs(float(val.value) - float(val2.value)))

        # all-identical unit features
        base = rng.normal(size=(6, 5))
        shared = Var(np.tile(base, (3, 1)))
        full = {(i, j): (np.arange(6) + 6 * i, np.arange(6) + 6 * j) for i in range(3) for j in range(i + 1, 3)}
        l3, _ = loss_3d(shared, shared, full)
        l34, _ = loss_3d4d(shared, shared, shared, shared, [(np.arange(6) + 6 * i,) * 2 for i in range(3)])
        l4, _ = loss_4d(shared, shared, full)
        total = float(loss_total(l3, l34, l4).value)
        identical_ok = (
            abs(float(l3.value) + 1) <= 1e-12
            and abs(float(l34.value) + 1) <= 1e-12
            and abs(float(l4.value) + 1) <= 1e-12
            and abs(total + 3) <= 1e-12
        )
        ok = in_bounds and worst_oracle <= 1e-12 and worst_scale <= 1e-12 and identical_ok
        record(
            "P4",
            ok,
            f"terms in [-1,1]: {in_bounds}; brute-force oracle max err {worst_oracle:.2e} "
            f"(tol 1e-12); rescale max drift {worst_scale:.2e} (tol 1e-12); "
            f"identical unit features give -1/-1/-1 and total -3: {identical_ok}",
        )


class TestP5GenerationConstraints:
    def test_p5(self, toy_dataset, monkeypatch):
        out, rooms, _ = toy_dataset
        # 1000 fresh trajectories across the synthetic rooms
        rng = np.random.default_rng(11)
        violations = 0
        n_traj = 0
        candidate_sets = []
        for room in rooms[:4]:
            occ = height_accumulate(room)
            candidate_sets.append((valid_positions(occ, 0.2), occ))
        while n_traj < 1000:
            cand, _ = candidate_sets[n_traj % len(candidate_sets)]
            traj = sample_trajectory(cand, 4, rng)
            if trajectory_violations(traj, cand):
                violations += 1
            n_traj += 1

        # every persisted sequence satisfies consistency and retention
        persisted_ok = True
        for p in sorted(out.glob("*.4dc")):
            seq = read_sequence(p)
            side = read_sidecar(p.with_suffix(".txt"))
            scene_ref = int(side["scene_ref_points"])
            obj_ref = int(side["object_ref_points"])
            pre = scene_ref + obj_ref
            common = None
            for frame in seq.frames:
                if len(frame.cloud) / pre < MIN_RETENTION:
                    persisted_ok = False
                ids = frame.cloud.provenance
                common = ids if common is None else np.intersect1d(common, ids)
            n_scene = int(np.sum(common < OBJECT_ID_OFFSET))
            if n_scene / scene_ref < MIN_CONSISTENT or (len(common) - n_scene) / obj_ref < MIN_CONSISTENT:
                persisted_ok = False

        # augmentation parameters, observed where `augment_scene` draws them;
        # rounding is monotone, so an edge fraction in range gives an edge
        # between the rounded products of the extent with the range's ends
        draws = []

        def recording_draws(scene, rng):
            out = scene_draws(scene, rng)
            draws.append((scene.extent, out[1]))
            return out

        scene_draws = seqgen._scene_draws
        monkeypatch.setattr(seqgen, "_scene_draws", recording_draws)
        rng = np.random.default_rng(12)
        canon = sample_scene_canonical(rooms[0], np.random.default_rng(13), 0.02)
        obj = synth.make_object(np.random.default_rng(14), kind="box", n_points=300)
        frame = compose_frame(canon, obj, (np.zeros(2), 0.0), np.random.default_rng(15), object_sample=300)
        for _ in range(1000):
            augment_scene(frame, rng)
        aug_ok = len(draws) == 1000 and all(
            CHUNKS_MIN <= len(edges) <= CHUNKS_MAX
            and np.all(CHUNK_FRACTION_MIN * extent <= edges)
            and np.all(edges <= CHUNK_FRACTION_MAX * extent)
            for extent, edges in draws
        )
        ok = violations == 0 and persisted_ok and aug_ok
        record(
            "P5",
            ok,
            f"{n_traj} trajectories with 0 violations (step [{STEP_MIN},{STEP_MAX}] m, "
            f"turn < {np.rad2deg(TURN_LIMIT):.0f} deg, valid waypoints); persisted "
            f"sequences meet 30%/30%/50% rules: {persisted_ok}; 1000 augmentations with "
            f"chunks in [5,15], fractions in [0.15,0.45]: {aug_ok}",
        )


class TestP6CorrespondenceExactness:
    def test_p6(self, toy_dataset):
        out, _, _ = toy_dataset
        worst = 0.0
        bijective = True
        n_pairs = 0
        for p in sorted(out.glob("*.4dc")):
            seq = read_sequence(p)
            corr = build_correspondences(seq)
            t = len(seq.frames)
            bijective &= sorted(corr) == [(i, j) for i in range(t) for j in range(i + 1, t)]
            for (i, j), (ia, ib) in corr.items():
                fi, fj = seq.frames[i], seq.frames[j]
                bijective &= len(ia) == len(ib)
                bijective &= len(np.unique(ia)) == len(ia) and len(np.unique(ib)) == len(ib)
                bijective &= bool(np.array_equal(fi.cloud.provenance[ia], fj.cloud.provenance[ib]))
                prov = fi.cloud.provenance[ia]
                scene = prov < OBJECT_ID_OFFSET
                if scene.any():
                    d = np.abs(fi.cloud.points[ia][scene] - fj.cloud.points[ib][scene])
                    worst = max(worst, float(d.max()))
                if (~scene).any():
                    a = fi.object_pose.inverse().apply(fi.cloud.points[ia][~scene])
                    b = fj.object_pose.inverse().apply(fj.cloud.points[ib][~scene])
                    worst = max(worst, float(np.abs(a - b).max()))
                n_pairs += len(ia)
        ok = bijective and worst <= 1e-6
        record(
            "P6",
            ok,
            f"{n_pairs} correspondences across all persisted sequences resolve to "
            f"canonical coordinates within {worst:.2e} m (tol 1e-6); one pair map "
            f"per frame pair, each a partial bijection: {bijective}",
        )


class TestP7ToyPretraining:
    def test_p7(self, toy_dataset):
        out, _, _ = toy_dataset
        sequences = load_dataset(out)
        cfg = toy_train_config()
        model = toy_model_config()

        # untrained baseline margin
        init = build_parameters(model, seed=cfg.seed)
        ckpt0 = Checkpoint({k: p.value for k, p in init.items()}, 0, model, cfg)
        base = probe(ckpt0, sequences, seed=3)

        start = time.monotonic()
        ckpt, reports = pretrain(sequences, cfg, model)
        elapsed = time.monotonic() - start

        totals = np.array([r.total for r in reports])
        windows = [float(totals[i : i + 50].mean()) for i in range(0, 500, 50)]
        monotone = all(b < a for a, b in zip(windows, windows[1:]))
        step1 = float(totals[0])
        closure = (totals[-1] - step1) / (-3.0 - step1)

        trained = probe(ckpt, sequences, seed=3)

        ok = (
            monotone
            and closure >= 0.5
            and trained["margin"] >= 0.2
            and abs(base["margin"]) < 0.1
            and base["pairs"] >= 1000
            and elapsed <= 15 * 60
        )
        record(
            "P7",
            ok,
            f"500 steps in {elapsed / 60:.1f} min (limit 15); 50-step windows "
            f"monotone: {monotone} ({windows[0]:.2f} .. {windows[-1]:.2f}); gap "
            f"closure {closure:.0%} (need 50%); probe margin {trained['margin']:.3f} "
            f"(need 0.2) vs untrained {base['margin']:.3f} (|.| < 0.1, "
            f"{base['pairs']} pairs)",
        )


class TestP8Determinism:
    def test_p8(self, tmp_path):
        # synth: byte-identical across runs
        synth_ok = True
        dirs = [tmp_path / "s1", tmp_path / "s2"]
        for d in dirs:
            d.mkdir()
            for i in range(2):
                rng = np.random.default_rng(np.random.SeedSequence((5, 0, i)))
                room = synth.make_room(rng, size=3.0, spacing=0.08)
                from seqcontrast.formats import write_xyz

                write_xyz(d / f"room_{i:04d}.xyz", room)
        for i in range(2):
            name = f"room_{i:04d}.xyz"
            synth_ok &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        # gen: byte-identical across runs and worker counts
        rng = np.random.default_rng(0)
        room = synth.make_room(np.random.default_rng(21), size=3.0, spacing=0.08)
        obj = synth.make_object(np.random.default_rng(22), kind="box", n_points=300)
        params = GenParams(t=3, object_sample=300, scene_cell=0.05)
        outs = []
        for tag, workers in (("g1", 1), ("g2", 1), ("g4", 4)):
            d = tmp_path / tag
            generate_dataset([room], [obj], d, per_scene=2, t=3, seed=6, workers=workers, params=params)
            outs.append(d)
        names = sorted(p.name for p in outs[0].glob("*.4dc"))
        gen_ok = bool(names)
        for d in outs[1:]:
            for name in names:
                gen_ok &= (d / name).read_bytes() == (outs[0] / name).read_bytes()

        # float64 training reproduces bit-exactly
        sequences = [read_sequence(outs[0] / n) for n in names]
        model = tiny_model()
        cfg = TrainConfig(
            learning_rate=0.1, batch_size=2, steps=3, seed=0, dtype="float64",
            voxel3d=model.voxel3d, voxel4d=model.voxel4d, max_corr_per_pair=64, max_points_3d4d=96,
        )
        a, ra = pretrain(sequences, cfg, model)
        b, rb = pretrain(sequences, cfg, model)
        train_ok = all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)
        train_ok &= [r.total for r in ra] == [r.total for r in rb]

        ok = synth_ok and gen_ok and train_ok
        record(
            "P8",
            ok,
            f"synthesis byte-identical across runs: {synth_ok}; generation "
            f"byte-identical across runs and worker counts 1/4: {gen_ok}; float64 "
            f"training bit-exact: {train_ok}",
        )


class TestP9PaperParityConfiguration:
    def test_p9(self):
        cfg = RunConfig()
        snapshot = {
            "map_cell": (MAP_CELL, 0.10),
            "floor_band": (FLOOR_BAND, 0.20),
            "voxel3d": (cfg.model.voxel3d, 0.02),
            "voxel4d": (cfg.model.voxel4d, 0.05),
            "object_sample": (cfg.gen.object_sample, 1000),
            "per_scene": (cfg.gen.per_scene, 20),
            "t": (cfg.gen.t, 4),
            "learning_rate": (cfg.train.learning_rate, 0.25),
            "decay_factor": (cfg.train.decay_factor, 0.99),
            "decay_interval": (cfg.train.decay_interval, 1000),
            "batch(t=3)": (balance_batch(3), 16),
            "batch(t=4)": (balance_batch(4), 12),
            "batch(t=5)": (balance_batch(5), 10),
        }
        bad = {k: v for k, v in snapshot.items() if v[0] != v[1]}
        record(
            "P9",
            not bad,
            "all reference defaults match the snapshot "
            f"({len(snapshot)} values)" if not bad else f"mismatches: {bad}",
        )
