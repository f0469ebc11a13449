"""Per-layer tracing of seqcontrast from outside the program.

`Tracer.install` replaces public functions of the program's modules with
timing and counting wrappers, in every seqcontrast module that holds a
reference to them (so `from .losses import loss_3d` call sites are covered
too). `Tracer.uninstall` puts the originals back. Backward passes are timed
by wrapping the backward closure of the `Var` a wrapped op returns.

Statistics are kept per phase: "setup" for the traced set-up and "round" for
the traced round of operations. `Tracer.metrics` turns them into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from seqcontrast import autodiff, geom, losses, nets, seqgen, sparse, trainer

# Conv shapes the workloads run: (kind, dim, offsets, C_in, C_out).
# pretrain-toy: 3D and 4D U-Nets of channels (8, 16), forward and backward.
TRAIN_SHAPES = [
    ("conv", 3, 27, 8, 8), ("conv", 3, 8, 8, 16), ("conv", 3, 27, 16, 16), ("up", 3, 8, 16, 8),
    ("conv", 4, 81, 8, 8), ("conv", 4, 16, 8, 16), ("conv", 4, 81, 16, 16), ("up", 4, 16, 16, 8),
]
# infer-paper: the paper-default 3D U-Net of channels (16, 32, 64), forward only.
INFER_SHAPES = [
    ("conv", 3, 8, 16, 32), ("conv", 3, 27, 32, 32), ("conv", 3, 8, 32, 64),
    ("conv", 3, 27, 64, 64), ("up", 3, 8, 64, 32), ("up", 3, 8, 32, 16),
]
KMAP_KINDS = [f"{kind}{dim}d" for dim in (3, 4) for kind in ("sub", "down", "up")]


def shape_name(kind: str, dim: int, k: int, cin: int, cout: int) -> str:
    return f"sparse.{kind}{dim}d_k{k}_{cin}x{cout}"


def conv_call(kind: str, x, weight, args: tuple, kwargs: dict) -> tuple[tuple, str, object]:
    """(shape, kernel-map kind, target coords) of a `sparse_conv` call
    (``kind`` "conv") or a `transpose_conv` call (``kind`` "up")."""
    k_n, c_a, c_b = weight.value.shape
    if kind == "up":
        return ("up", x.dim, k_n, c_b, c_a), "up", args[0] if args else kwargs["target_coords"]
    stride = args[0] if args else kwargs.get("stride", 1)
    return ("conv", x.dim, k_n, c_a, c_b), ("sub" if stride == 1 else "down"), None


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    spec = []
    for shape in TRAIN_SHAPES:
        base = shape_name(*shape)
        spec += [(f"{base}.fwd_ms", "ms/op"), (f"{base}.bwd_ms", "ms/op"), (f"{base}.pairs", "pairs/op")]
    for shape in INFER_SHAPES:
        base = shape_name(*shape)
        spec += [(f"{base}.fwd_ms", "ms/op"), (f"{base}.pairs", "pairs/op")]
    spec += [
        ("sparse.channel_norm_ms", "ms/op"),
        ("sparse.kmap_build_ms", "ms"),
        ("sparse.kmap_builds", "count"),
        ("sparse.kmap_hit_ratio", "ratio"),
    ]
    spec += [(f"sparse.kmap_density.{k}", "ratio") for k in KMAP_KINDS]
    spec += [
        ("sparse.kmap_cache_mb", "MB"),
        ("autodiff.grad_ms", "ms/op"),
        ("autodiff.rows_bwd_ms", "ms/op"),
        ("autodiff.graph_nodes", "nodes/seq"),
        ("nets.encode_3d_ms", "ms/op"),
        ("nets.encode_4d_ms", "ms/op"),
    ]
    spec += [(f"nets.rows_3d.L{i}", "rows/op") for i in range(3)]
    spec += [(f"nets.rows_4d.L{i}", "rows/op") for i in range(2)]
    spec += [
        ("nets.voxelize_ms", "ms/op"),
        ("losses.loss_ms", "ms/op"),
        ("losses.correspondences", "count/op"),
        ("trainer.sequence_loss_ms", "ms/op"),
        ("trainer.update_ms", "ms/op"),
        ("trainer.sequence_state_ms", "ms"),
        ("seqgen.make_sequence_ms", "ms/op"),
        ("seqgen.augment_scene_ms", "ms/op"),
        ("seqgen.validate_ms", "ms/op"),
        ("seqgen.trajectory_ms", "ms/op"),
        ("seqgen.valid_positions_ms", "ms/op"),
        ("geom.height_accumulate_ms", "ms/op"),
        ("seqgen.serialize_ms", "ms/op"),
        ("seqgen.attempts_per_sequence", "count"),
        ("seqgen.accept_ratio", "ratio"),
        ("seqgen.read_sequence_ms", "ms"),
        ("trace.overhead.setup_s", "%"),
        ("trace.overhead.op_ms", "%"),
        ("trace.overhead.ops_per_s", "%"),
        ("trace.overhead.peak_rss_mb", "%"),
    ]
    return spec


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "seqcontrast" and m is not None]


class Patcher:
    """Rebinds a program function in every seqcontrast module that refers to it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapped = make_wrapper(original)
        for mod in _program_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats: dict[str, dict[str, float]] = {"setup": defaultdict(float), "round": defaultdict(float)}
        self.densities: dict[str, list[float]] = defaultdict(list)
        self._pairs_by_map: dict[tuple, int] = {}
        self._conv_ctx: tuple | None = None
        self._build_ms_in_conv = 0.0
        self._active: set[str] = set()
        self._patcher = Patcher()

    # -- accumulation -----------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.stats[self.phase][key] += value

    def total(self, key: str) -> float:
        return self.stats["setup"][key] + self.stats["round"][key]

    def _timed(self, key: str, fn, group: str | None = None, on_result=None):
        """Wrapper adding the wall time of outermost calls of ``group`` to ``key``."""
        group = group or key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if group in self._active:
                return fn(*args, **kwargs)
            self._active.add(group)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._active.discard(group)
                self.add(key, (perf_counter() - t0) * 1e3)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def _time_backward(self, var, key: str) -> None:
        bw = getattr(var, "_backward", None)
        if bw is None:
            return

        def timed_bw(g):
            t0 = perf_counter()
            try:
                return bw(g)
            finally:
                self.add(key, (perf_counter() - t0) * 1e3)

        var._backward = timed_bw

    # -- sparse -------------------------------------------------------------

    def _conv_wrapper(self, kind: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(x, weight, *args, **kwargs):
                shape, map_kind, target = conv_call(kind, x, weight, args, kwargs)
                name, dim = shape_name(*shape), x.dim
                # the pairs of a cached map were counted when it was built
                map_key = (map_kind, shape[2], x.stride, hash(x.coords.tobytes()))
                if target is not None:
                    map_key += (hash(np.asarray(target).tobytes()),)
                self._conv_ctx = (f"{map_kind}{dim}d", map_key)
                self._build_ms_in_conv = 0.0
                t0 = perf_counter()
                try:
                    out = fn(x, weight, *args, **kwargs)
                finally:
                    self._conv_ctx = None
                # a kernel map built inside this call counts under kmap_build_ms only
                fwd_ms = (perf_counter() - t0) * 1e3 - self._build_ms_in_conv
                self.add(f"{name}.fwd_ms", fwd_ms)
                self.add(f"{name}.pairs", self._pairs_by_map.get(map_key, 0))
                self.add("sparse.conv_calls", 1)
                if map_kind == "down":
                    level = int(np.log2(out.stride[0]))
                    self.add(f"nets.rows_{dim}d.L{level}", len(out.coords))
                self._time_backward(out.feats, f"{name}.bwd_ms")
                return out

            return wrapper

        return make

    def _build_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(in_coords, out_coords, offsets, offset_stride):
            t0 = perf_counter()
            kmap = fn(in_coords, out_coords, offsets, offset_stride)
            build_ms = (perf_counter() - t0) * 1e3
            self._build_ms_in_conv += build_ms
            self.add("sparse.kmap_build_ms", build_ms)
            self.add("sparse.kmap_builds", 1)
            n_pairs = sum(len(ii) for ii, _ in kmap.pairs)
            self.add("sparse.kmap_bytes", sum(ii.nbytes + oi.nbytes for ii, oi in kmap.pairs))
            if self._conv_ctx is not None:
                kind, map_key = self._conv_ctx
                self._pairs_by_map[map_key] = n_pairs
                self.densities[kind].append(n_pairs / max(len(in_coords) * len(offsets), 1))
            return kmap

        return wrapper

    def _norm_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            self.add("sparse.channel_norm_ms", (perf_counter() - t0) * 1e3)
            self._time_backward(out.feats, "sparse.channel_norm_ms")
            return out

        return wrapper

    # -- autodiff -----------------------------------------------------------

    def _rows_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(x, idx):
            out = fn(x, idx)
            self._time_backward(out, "autodiff.rows_bwd_ms")
            return out

        return wrapper

    def _topo_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(root):
            order = fn(root)
            self.add("autodiff.graph_nodes", len(order))
            self.add("autodiff.graphs", 1)
            return order

        return wrapper

    # -- nets ---------------------------------------------------------------

    def _unet_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(x, params, cfg, *args, **kwargs):
            self.add(f"nets.rows_{cfg.dim}d.L0", len(x.coords))
            t0 = perf_counter()
            out = fn(x, params, cfg, *args, **kwargs)
            self.add(f"nets.encode_{cfg.dim}d_ms", (perf_counter() - t0) * 1e3)
            return out

        return wrapper

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        p = self._patcher
        p.replace(sparse, "sparse_conv", self._conv_wrapper("conv"))
        p.replace(sparse, "transpose_conv", self._conv_wrapper("up"))
        p.replace(sparse, "build_kernel_map", self._build_wrapper)
        p.replace(sparse, "channel_norm", self._norm_wrapper)
        p.replace(autodiff, "rows", self._rows_wrapper)
        p.replace(autodiff, "topo_order", self._topo_wrapper)
        p.replace(autodiff, "grad", lambda fn: self._timed("autodiff.grad_ms", fn))
        p.replace(nets, "unet_forward", self._unet_wrapper)
        for name in ("points_to_tensor", "frames_to_tensor", "sequence_to_4d"):
            p.replace(nets, name, lambda fn: self._timed("nets.voxelize_ms", fn))

        def count_corr(result, *args, **kwargs):
            self.add("losses.correspondences", result[1])

        for name in ("loss_3d", "loss_3d4d", "loss_4d"):
            p.replace(losses, name, lambda fn: self._timed("losses.loss_ms", fn, "losses", count_corr))
        p.replace(losses, "loss_total", lambda fn: self._timed("losses.loss_ms", fn, "losses"))
        p.replace(trainer, "sequence_loss", lambda fn: self._timed("trainer.sequence_loss_ms", fn))
        p.replace(trainer, "_SequenceState", lambda fn: self._timed("trainer.sequence_state_ms", fn))

        def count_validate(result, *args, **kwargs):
            self.add("seqgen.validate_calls", 1)
            self.add("seqgen.validate_accepted", int(bool(result)))

        p.replace(seqgen, "make_sequence", lambda fn: self._timed("seqgen.make_sequence_ms", fn))
        p.replace(seqgen, "augment_scene", lambda fn: self._timed("seqgen.augment_scene_ms", fn))
        p.replace(seqgen, "validate_sequence", lambda fn: self._timed("seqgen.validate_ms", fn, on_result=count_validate))
        p.replace(seqgen, "sample_trajectory", lambda fn: self._timed("seqgen.trajectory_ms", fn))
        p.replace(seqgen, "valid_positions", lambda fn: self._timed("seqgen.valid_positions_ms", fn))
        p.replace(geom, "height_accumulate", lambda fn: self._timed("geom.height_accumulate_ms", fn))
        p.replace(seqgen, "sequence_to_bytes", lambda fn: self._timed("seqgen.serialize_ms", fn))
        p.replace(seqgen, "read_sequence", lambda fn: self._timed("seqgen.read_sequence_ms", fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- report -------------------------------------------------------------

    def metrics(self, round_ops: int, round_ms: float, overhead: dict[str, float]) -> dict:
        """Per-layer metrics; ``/op`` values are per operation of the traced round.

        ``round_ms`` is the wall time of the traced round; for training it
        gives the step time spent outside `sequence_loss` and `grad`.
        """
        rnd = self.stats["round"]
        ops = max(round_ops, 1)
        out: dict[str, dict] = {}
        for name, unit in per_layer_spec():
            if name.startswith("trace.overhead."):
                value = overhead[name.rsplit(".", 1)[1]]
            elif unit.endswith("/op"):
                value = rnd[name] / ops
            elif name == "sparse.kmap_hit_ratio":
                calls = self.total("sparse.conv_calls")
                value = (calls - self.total("sparse.kmap_builds")) / calls if calls else 0.0
            elif name.startswith("sparse.kmap_density."):
                found = self.densities.get(name.rsplit(".", 1)[1])
                value = float(np.median(found)) if found else 0.0
            elif name == "sparse.kmap_cache_mb":
                value = self.total("sparse.kmap_bytes") / 2**20
            elif name == "autodiff.graph_nodes":
                graphs = rnd["autodiff.graphs"]
                value = rnd[name] / graphs if graphs else 0.0
            elif name == "seqgen.attempts_per_sequence":
                accepted = rnd["seqgen.validate_accepted"]
                value = rnd["seqgen.validate_calls"] / accepted if accepted else 0.0
            elif name == "seqgen.accept_ratio":
                calls = rnd["seqgen.validate_calls"]
                value = rnd["seqgen.validate_accepted"] / calls if calls else 0.0
            else:
                value = self.total(name)
            out[name] = {"value": float(value), "unit": unit}
        if rnd["autodiff.grad_ms"]:
            inside = rnd["trainer.sequence_loss_ms"] + rnd["autodiff.grad_ms"]
            out["trainer.update_ms"]["value"] = (round_ms - inside) / ops
        return out
