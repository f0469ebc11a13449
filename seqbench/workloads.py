"""The benchmark's three workloads: their inputs, timed loops and checks.

Each workload class does one thing per method:

- ``prepare(work, seed)`` (static) writes the workload's inputs under
  ``work``; every input is a function of ``seed`` alone.
- ``setup()`` does the work between the first call into the program and
  the first timed operation; the caller times it.
- ``timed(seconds, probe)`` runs whole rounds of operations for about
  ``seconds`` inside the `speed.SpeedProbe` ``probe`` and returns
  per-operation wall times.
- ``traced_round(probe)`` runs one fixed round, so per-layer counts repeat.
- ``watched`` names the program functions before which the probe may run:
  called at least every ~50 ms while the workload runs.
- ``checks()`` verifies the program's outputs, outside any timed region.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
from tracing import INFER_SHAPES, TRAIN_SHAPES, Patcher, conv_call, shape_name

from seqcontrast import autodiff as ad
from seqcontrast import formats, nets, seqgen, sparse, synth, trainer
from seqcontrast.nets import ModelConfig, UNetConfig
from seqcontrast.seqgen import GenParams
from seqcontrast.trainer import TrainConfig

# the constructor the trainer uses for per-sequence state, before any patch
_SEQUENCE_STATE = trainer._SequenceState


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def rng_for(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(parts))


@dataclass
class Timed:
    op_ms: list[float]      # wall time of each operation
    total_s: float          # wall time of the timed region
    ops: int                # operations attempted


def paper_rooms(seed: int, n: int) -> list:
    """Rooms at the `synth.make_room` defaults, except that their sizes sit at
    the centres of ``n`` equal strata of the default 3-4 m range, so every
    seed sees the same scene sizes; clutter and jitter still follow the seed."""
    return [synth.make_room(rng_for(seed, 0, i), size=3.0 + (i + 0.5) / n) for i in range(n)]


def paper_objects(seed: int, n: int = 4) -> list:
    return [synth.make_object(rng_for(seed, 1, j)) for j in range(n)]


def generate_sequences(rooms, objects, out: Path, per_scene: int, params: GenParams, seed: int) -> None:
    """Write exactly ``per_scene`` sequences per room into ``out``.

    A room whose generation gives up on a trajectory is generated again with
    the next derived seed, so the inputs always have the same make-up.
    """
    out.mkdir(parents=True, exist_ok=True)
    for i, room in enumerate(rooms):
        for attempt in range(16):
            tmp = out / f"tmp_{i}"
            stats = seqgen.generate_dataset(
                [room], objects, tmp, per_scene=per_scene, t=params.t,
                seed=derive_seed(seed, 2, i, attempt), params=replace(params),
            )
            if stats["written"] == per_scene:
                for j, path in enumerate(sorted(tmp.glob("*.4dc"))):
                    path.rename(out / f"seq_{i:04d}_{j:04d}.4dc")
                    path.with_suffix(".txt").rename(out / f"seq_{i:04d}_{j:04d}.txt")
                shutil.rmtree(tmp)
                break
            shutil.rmtree(tmp)
        else:
            raise RuntimeError(f"room {i}: no complete set of sequences in 16 tries")


class _StepClock:
    """Records when each training step ends: `pretrain` asks for the step's
    learning rate once per step, after the gradients and before the update."""

    def __init__(self):
        self.marks: list[float] = []
        self._patcher = Patcher()

    def __enter__(self):
        def make(fn):
            def learning_rate_at(step, cfg):
                self.marks.append(perf_counter())
                return fn(step, cfg)
            return learning_rate_at

        self._patcher.replace(trainer, "learning_rate_at", make)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


class _WarmStates:
    """Stands in for the trainer's per-sequence state constructor and hands
    back the state (with its kernel-map cache) built in set-up, so timed
    `pretrain` calls run warm, as every step after the first epoch does."""

    def __init__(self):
        self.states: dict[tuple[int, int], object] = {}

    def __call__(self, seq, cfg, seq_key):
        key = (id(seq), seq_key)
        if key not in self.states:
            self.states[key] = _SEQUENCE_STATE(seq, cfg, seq_key)
        return self.states[key]


def _capture_convs(run) -> dict[tuple, dict]:
    """Inputs and outputs of the first sparse conv of each shape during ``run()``."""
    seen: dict[tuple, dict] = {}
    patcher = Patcher()

    def make(kind):
        def wrap(fn):
            def conv(x, weight, *args, **kwargs):
                out = fn(x, weight, *args, **kwargs)
                shape, map_kind, target = conv_call(kind, x, weight, args, kwargs)
                seen.setdefault(shape, {
                    "kind": map_kind, "x_coords": x.coords.copy(), "x_feats": x.feats.value.copy(),
                    "weight": weight.value.copy(), "x_stride": tuple(x.stride),
                    "out_coords": out.coords.copy(), "out_feats": out.feats.value.copy(),
                    "target_coords": None if target is None else np.array(target),
                })
                return out
            return conv
        return wrap

    patcher.replace(sparse, "sparse_conv", make("conv"))
    patcher.replace(sparse, "transpose_conv", make("up"))
    try:
        run()
    finally:
        patcher.restore()
    return seen


def _conv_checks(captured: dict, shapes: list[tuple]) -> list[tuple[str, bool, str]]:
    checks = []
    for shape in shapes:
        name = f"conv oracle {shape_name(*shape)}"
        c = captured.get(shape)
        if c is None:
            checks.append((name, False, "shape never ran"))
            continue
        problems = oracles.conv_errors(
            c["kind"], c["x_coords"], c["x_feats"], c["weight"], c["x_stride"],
            c["out_coords"], c["out_feats"], c["target_coords"],
        )
        checks.append((name, not problems, "; ".join(problems) or f"{len(c['out_coords'])} rows match"))
    return checks


# ---------------------------------------------------------------------------


class PretrainToy:
    """`trainer.pretrain` on the toy configuration, every kernel map cached."""

    name = "pretrain-toy"
    op = "training steps"
    setup_repeats = 3
    traced_steps = 8
    watched = ((sparse, "sparse_conv", "transpose_conv"), (trainer, "sequence_loss", "learning_rate_at"), (ad, "grad"))

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        rooms = [synth.make_room(rng_for(seed, 0, i), size=2.8, spacing=0.10) for i in range(8)]
        objects = [synth.make_object(rng_for(seed, 1, j), n_points=300) for j in range(4)]
        params = GenParams(t=4, object_sample=300, scene_cell=0.02)
        generate_sequences(rooms, objects, work / "data", 2, params, seed)

    def __init__(self, work: Path, seed: int, short: bool):
        self.work, self.seed, self.short = work, seed, short
        self.model = ModelConfig(
            UNetConfig(3, (8, 16), projection_width=32),
            UNetConfig(4, (8, 16), projection_width=32),
            voxel3d=0.06, voxel4d=0.12,
        )
        self.warm = _WarmStates()
        self.patcher = Patcher()
        self.patcher.replace(trainer, "_SequenceState", lambda _: self.warm)

    def config(self, steps: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=0.25, batch_size=4, steps=steps, decay_factor=0.9,
            decay_interval=50, seed=self.seed, voxel3d=0.06, voxel4d=0.12,
            max_corr_per_pair=192, max_points_3d4d=384,
        )

    def setup(self) -> None:
        """Load the dataset, then one forward pass per sequence builds its
        state and fills its kernel-map cache."""
        self.sequences = trainer.load_dataset(self.work / "data")
        self.warm.states.clear()
        cfg = self.config(1)
        params = nets.build_parameters(self.model, seed=cfg.seed)
        for i, seq in enumerate(self.sequences):
            trainer.sequence_loss(trainer._SequenceState(seq, cfg, i), params, self.model, cfg)

    def _pretrain(self, steps: int) -> tuple[list[float], float]:
        with _StepClock() as clock:
            t0 = perf_counter()
            self.checkpoint, self.reports = trainer.pretrain(self.sequences, self.config(steps), self.model)
            total = perf_counter() - t0
        marks = [t0] + clock.marks
        if len(clock.marks) != steps:   # no per-step marks: spread the total evenly
            return [total * 1e3 / steps] * steps, total
        return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])], total

    def timed(self, seconds: float, probe) -> Timed:
        warm_ms, _ = self._pretrain(2)   # untimed; its second step sizes the timed run
        steps = 3 if self.short else max(3, round(seconds * 1e3 / warm_ms[-1]))
        with probe:
            op_ms, total = self._pretrain(steps)
        self.timed_reports = self.reports
        return Timed(op_ms, total, steps)

    def traced_round(self, probe) -> Timed:
        steps = 2 if self.short else self.traced_steps
        with probe:
            op_ms, total = self._pretrain(steps)
        return Timed(op_ms, total, steps)

    def checks(self) -> list[tuple[str, bool, str]]:
        self.patcher.restore()
        checks = []
        reports = self.timed_reports
        worst = 0.0
        in_range = True
        for r in reports:
            w = r.weights
            worst = max(worst, abs(r.total - (w.w_3d * r.l_3d + w.w_3d4d * r.l_3d4d + w.w_4d * r.l_4d)))
            in_range &= all(-1.0 <= v <= 1.0 for v in (r.l_3d, r.l_3d4d, r.l_4d))
        checks.append(("step total is the weighted sum of its terms", worst <= 1e-6, f"worst gap {worst:.2e}"))
        checks.append(("every loss term lies in [-1, 1]", in_range, f"{len(reports)} steps"))
        k = max(1, len(reports) // 3)
        first = float(np.mean([r.total for r in reports[:k]]))
        last = float(np.mean([r.total for r in reports[-k:]]))
        checks.append(("training makes progress", last < first, f"mean of first {k} steps {first:.4f}, last {k} {last:.4f}"))

        params = {k: ad.Var(v) for k, v in self.checkpoint.tensors.items()}
        cfg = self.config(1)
        state = _SEQUENCE_STATE(self.sequences[0], cfg, 0)
        captured = _capture_convs(lambda: trainer.sequence_loss(state, params, self.model, cfg))
        checks += _conv_checks(captured, TRAIN_SHAPES)
        checks.append(self._gradient_check())
        return checks

    def _gradient_check(self) -> tuple[str, bool, str]:
        """Central differences of one sequence's float64 loss against
        `autodiff.grad`, with stop-gradient values held by `SGFreeze`."""
        cfg = replace(self.config(1), dtype="float64")
        smallest = min(range(len(self.sequences)), key=lambda i: sum(len(f.cloud) for f in self.sequences[i].frames))
        state = _SEQUENCE_STATE(self.sequences[smallest], cfg, smallest)
        params = {k: ad.parameter(v.astype(np.float64), name=k) for k, v in self.checkpoint.tensors.items()}
        freeze = ad.SGFreeze()
        with freeze.recording():
            loss, _ = trainer.sequence_loss(state, params, self.model, cfg)
        analytic = ad.grad(loss, params)

        def loss_at() -> float:
            with freeze.replaying():
                value, _ = trainer.sequence_loss(state, params, self.model, cfg)
            return float(value.value)

        # Not sampled: the stems and the first residual block of each U-Net.
        # Their input is the constant occupancy feature, so the block's first
        # channel_norm sees a zero-variance column and the loss depends on
        # these weights through amplified rounding noise (~1e-10 jumps), which
        # central differences cannot resolve at any step size.
        rng = rng_for(self.seed, 5)
        names = sorted(n for n in params if ".stem." not in n and ".enc0.block0." not in n)
        picks = []
        for name in rng.choice(names, size=2 if self.short else 6, replace=False):
            picks.append((str(name), int(rng.integers(params[name].value.size))))
        problems = oracles.finite_difference_errors(loss_at, {k: p.value for k, p in params.items()}, analytic, picks)
        return ("finite-difference gradient matches autodiff.grad", not problems,
                "; ".join(problems) or f"{len(picks)} weights within {oracles.FD_RTOL:g}")


class InferPaper:
    """`trainer.backbone_features` on frames at the paper defaults, cold."""

    name = "infer-paper"
    op = "frames encoded"
    setup_repeats = 15
    rooms = 8
    watched = ((sparse, "sparse_conv", "transpose_conv"), (trainer, "backbone_features"))

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        generate_sequences(paper_rooms(seed, InferPaper.rooms), paper_objects(seed), work / "data", 1, GenParams(), seed)
        model = ModelConfig()
        params = nets.build_parameters(model, seed=seed)
        ckpt = trainer.Checkpoint({k: p.value for k, p in params.items()}, 0, model, TrainConfig())
        trainer.save_checkpoint(work / "backbone.4dcw", trainer.export_backbone(ckpt))

    def __init__(self, work: Path, seed: int, short: bool):
        self.work, self.seed, self.short = work, seed, short
        self.outputs: list = []

    def setup(self) -> None:
        self.ckpt = trainer.load_checkpoint(self.work / "backbone.4dcw")
        sequences = trainer.load_dataset(self.work / "data")
        self.frames = [f.cloud.points for seq in sequences for f in seq.frames]
        if self.short:
            self.frames = self.frames[:2]

    def _round(self) -> list[float]:
        times, outputs = [], []
        for pts in self.frames:
            t0 = perf_counter()
            feats, rows = trainer.backbone_features(pts, self.ckpt)
            times.append((perf_counter() - t0) * 1e3)
            outputs.append((feats, rows))
        self.outputs = outputs
        return times

    def timed(self, seconds: float, probe) -> Timed:
        op_ms = []
        with probe:
            t0 = perf_counter()
            while not op_ms or (perf_counter() - t0 < seconds and not self.short):
                op_ms += self._round()
            total = perf_counter() - t0
        return Timed(op_ms, total, len(op_ms))

    def traced_round(self, probe) -> Timed:
        with probe:
            t0 = perf_counter()
            op_ms = self._round()
            total = perf_counter() - t0
        return Timed(op_ms, total, len(op_ms))

    def checks(self) -> list[tuple[str, bool, str]]:
        voxel = self.ckpt.model.voxel3d
        bad_rows, bad_finite = [], []
        for k, (pts, (feats, rows)) in enumerate(zip(self.frames, self.outputs)):
            cells = np.floor(pts / voxel).astype(np.int64)
            distinct, inverse = np.unique(cells, axis=0, return_inverse=True)
            # same voxel <=> same row: the rows are a relabelling of the voxels
            pairs = np.unique(np.stack([inverse.ravel(), rows]), axis=1)
            if not feats.shape[0] == len(distinct) == pairs.shape[1] == len(np.unique(rows)):
                bad_rows.append(k)
            if not np.all(np.isfinite(feats)):
                bad_finite.append(k)
        n = len(self.outputs)
        checks = [
            (f"rows per frame equal the distinct {voxel:g} m voxels", not bad_rows,
             f"{n} frames" + (f", wrong: {bad_rows}" if bad_rows else "")),
            ("every feature is finite", not bad_finite, f"{n} frames" + (f", non-finite: {bad_finite}" if bad_finite else "")),
        ]
        captured = _capture_convs(lambda: trainer.backbone_features(self.frames[0], self.ckpt))
        checks += _conv_checks(captured, [("conv", 3, 27, 16, 16)] + INFER_SHAPES)
        return checks


class GenPaper:
    """`seqgen.generate_dataset` at the paper defaults with one worker."""

    name = "gen-paper"
    op = "sequence attempts"
    setup_repeats = 9
    traced_rounds = 3
    rooms = 8
    watched = ((seqgen, "make_sequence", "compose_frame", "validate_sequence"), (formats, "read_point_cloud"))

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        for sub, clouds in (("rooms", paper_rooms(seed, GenPaper.rooms)), ("objects", paper_objects(seed))):
            (work / sub).mkdir(parents=True)
            for i, cloud in enumerate(clouds):
                formats.write_xyz(work / sub / f"{sub}_{i:04d}.xyz", cloud)

    def __init__(self, work: Path, seed: int, short: bool):
        self.work, self.seed, self.short = work, seed, short
        self.rounds: list[dict] = []
        self.attempt_ms: list[float] = []
        self._mark = 0.0
        self.patcher = Patcher()

        # An attempt builds t frames and ends in `validate_sequence`; it runs
        # from the start of `make_sequence` or the end of the previous attempt.
        def start(fn):
            def make_sequence(*args, **kwargs):
                self._mark = perf_counter()
                return fn(*args, **kwargs)
            return make_sequence

        def attempt(fn):
            def validate_sequence(seq):
                ok = fn(seq)
                now = perf_counter()
                self.attempt_ms.append((now - self._mark) * 1e3)
                self._mark = now
                return ok
            return validate_sequence

        self.patcher.replace(seqgen, "make_sequence", start)
        self.patcher.replace(seqgen, "validate_sequence", attempt)

    def setup(self) -> None:
        self.scenes = [formats.read_point_cloud(p) for p in sorted((self.work / "rooms").glob("*.xyz"))]
        self.objects = [formats.read_point_cloud(p) for p in sorted((self.work / "objects").glob("*.xyz"))]
        if self.short:
            self.scenes = self.scenes[:1]

    def _round(self, tag: str, seed: int) -> dict:
        out = self.work / "out" / tag
        first = len(self.attempt_ms)
        t0 = perf_counter()
        stats = seqgen.generate_dataset(self.scenes, self.objects, out, per_scene=1, t=4, seed=seed, workers=1)
        elapsed = perf_counter() - t0
        record = {"dir": out, "s": elapsed, "attempt_ms": self.attempt_ms[first:], "tasks": len(self.scenes), **stats}
        self.rounds.append(record)
        return record

    def timed(self, seconds: float, probe) -> Timed:
        rounds = []
        with probe:
            t0 = perf_counter()
            while not rounds or (perf_counter() - t0 < seconds and not self.short):
                rounds.append(self._round(f"r{len(rounds)}", derive_seed(self.seed, 3, len(rounds))))
            total = perf_counter() - t0
        self.accepted = sum(r["written"] for r in rounds)
        op_ms = [ms for r in rounds for ms in r["attempt_ms"]]
        return Timed(op_ms, total, len(op_ms))

    def traced_round(self, probe) -> Timed:
        with probe:
            rounds = [self._round(f"traced{i}", derive_seed(self.seed, 4, i)) for i in range(1 if self.short else self.traced_rounds)]
        op_ms = [ms for r in rounds for ms in r["attempt_ms"]]
        return Timed(op_ms, sum(r["s"] for r in rounds), len(op_ms))

    def checks(self) -> list[tuple[str, bool, str]]:
        self.patcher.restore()
        files, unread, problems = 0, [], []
        tasks = written = 0
        for r in self.rounds:
            tasks += r["tasks"]
            written += r["written"]
            for path in sorted(r["dir"].glob("*.4dc")):
                files += 1
                try:
                    seqgen.read_sequence(path)
                except Exception as exc:  # any failure to re-read is a finding
                    unread.append(f"{path.name}: {exc}")
                problems += [f"{r['dir'].name}/{path.name}: {p}" for p in oracles.generated_file_errors(path, path.with_suffix(".txt"))]
        return [
            ("every written file re-reads through its CRC", not unread and files == written,
             f"{files} files" + (f"; {unread[:3]}" if unread else "")),
            ("files meet retention, consistency, step, turn and provenance rules", not problems,
             f"{files} files" + (f"; {problems[:3]}" if problems else "")),
            ("each task wrote a sequence or was counted as rejected",
             written + sum(r["rejected"] for r in self.rounds) == tasks, f"{tasks} tasks, {written} written"),
        ]


WORKLOADS = {w.name: w for w in (PretrainToy, InferPaper, GenPaper)}
