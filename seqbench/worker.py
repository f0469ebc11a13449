"""One step of one workload, in a process of its own; `run.py` starts it.

    python3 seqbench/worker.py prepare --workload NAME --seed N --work DIR [--short]
    python3 seqbench/worker.py measure --workload NAME --seed N --work DIR --seconds S --trace 0|1 [--short]

`prepare` writes the workload's inputs into DIR. `measure` times set-up
and the workload, optionally runs one traced round, checks the outputs and
prints one JSON object as its last line. Inputs are made in their own
process so that `peak_rss_mb` covers only the program at work. Times are
rescaled to a fixed machine speed by `speed.SpeedProbe`; wall times are
kept beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS


def machine_context() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def measure(args) -> dict:
    wl = WORKLOADS[args.workload](Path(args.work), args.seed, args.short)
    probes = []

    def probe() -> SpeedProbe:
        probes.append(SpeedProbe(wl.watched))
        return probes[-1]

    def setup() -> SpeedProbe:
        with probe() as p:
            wl.setup()
        return p

    # The machine's speed drifts over tens of seconds, so set-up is repeated
    # on both sides of the timed region and the median taken.
    repeats = 1 if args.short else wl.setup_repeats
    setups = [setup() for _ in range((repeats + 1) // 2)]
    timed_probe = probe()
    timed = wl.timed(args.seconds, timed_probe)
    rss = peak_rss_mb()
    setups += [setup() for _ in range(repeats // 2)]
    metrics = {
        "setup_s": {"value": statistics.median(p.scaled_s() for p in setups), "unit": "s"},
        "ops_per_s": {"value": timed.ops / timed_probe.scaled_s(), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    # printed and kept but not gated: see "End-to-end metrics" in README.md
    op_ms = {"value": statistics.median(timed.op_ms), "unit": "ms"}
    wall_ops_per_s = timed.ops / timed_probe.wall_s()
    result = {"attempted": timed.ops, "failed": 0, "metrics": metrics,
              "setup_runs_s": [p.scaled_s() for p in setups], "setup_runs_wall_s": [p.wall_s() for p in setups],
              "op_ms_samples": timed.op_ms, "speed_probe": timed_probe.summary()}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_setup = setup().scaled_s()
            tracer.phase = "round"
            traced_probe = probe()
            traced = wl.traced_round(traced_probe)
        finally:
            tracer.uninstall()
        # extra time (or memory) of the traced pass over the untraced run, in percent
        overhead = {
            "setup_s": 100.0 * (traced_setup / metrics["setup_s"]["value"] - 1.0),
            "op_ms": 100.0 * (statistics.median(traced.op_ms) / op_ms["value"] - 1.0),
            "ops_per_s": 100.0 * (metrics["ops_per_s"]["value"] / (traced.ops / traced_probe.scaled_s()) - 1.0),
            "peak_rss_mb": 100.0 * (peak_rss_mb() / metrics["peak_rss_mb"]["value"] - 1.0),
        }
        result["per_layer"] = tracer.metrics(traced.ops, traced.total_s * 1e3, overhead)
        result["trace_overhead_pct"] = overhead
        result["traced_round_ops"] = traced.ops

    checks = wl.checks()
    interference = sorted(set().union(*(p.interference for p in probes)))
    checks.append(("nothing of the program's slowed the speed probe", not interference,
                   "; ".join(interference) or f"{sum(len(p.runs) for p in probes)} probes"))
    result["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    result["correct"] = all(ok for _, ok, _ in checks)
    result["ungated"] = {
        "op_ms": op_ms,
        "wall_ops_per_s": {"value": wall_ops_per_s, "unit": "1/s"},
        "wall_setup_s": {"value": statistics.median(p.wall_s() for p in setups), "unit": "s"},
    }
    if args.workload == "pretrain-toy":
        result["ungated"]["step_ms"] = op_ms
    elif args.workload == "infer-paper":
        result["ungated"]["frames_per_s"] = {"value": metrics["ops_per_s"]["value"], "unit": "frames/s"}
    else:
        result["ungated"]["gen_seq_per_s"] = {"value": wl.accepted / timed_probe.scaled_s(), "unit": "sequences/s"}
        result["rejected_tasks"] = sum(r["rejected"] for r in wl.rounds)
    result["op"] = wl.op
    result["machine"] = machine_context()
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("prepare", "measure"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)
    if args.step == "prepare":
        WORKLOADS[args.workload].prepare(Path(args.work), args.seed)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
