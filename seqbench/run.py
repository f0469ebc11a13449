"""Benchmark of the seqcontrast library: run from the root of a checkout.

    python3 seqbench/run.py                         # every workload, untraced
    python3 seqbench/run.py --trace 1               # every workload, traced
    python3 seqbench/run.py --workload pretrain-toy --seed 3 --seconds 10 --trace 0
    python3 seqbench/run.py --short                 # a few operations each, all checks on

For each workload, one process makes the inputs from ``--seed`` and a second
one runs the program on them (see worker.py). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. A result file with the seed, the commit, the machine, the
checks and the tracing overhead goes to seqbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic, strftime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pretrain-toy", "infer-paper", "gen-paper")
DEADLINE_S = 175.0   # a run must end within 180 s


class BenchError(Exception):
    pass


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_child(cmd: list[str], deadline: float) -> str:
    env = dict(os.environ)
    # one BLAS thread: the GEMMs are small, and threaded OpenBLAS spin-waits
    # when another process holds the other cores, which swamps the timings
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + cmd[2])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[2]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[2]} failed with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: float, trace: int, short: bool, deadline: float) -> dict:
    work = BENCH / "work" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = [sys.executable, str(BENCH / "worker.py")]
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)] + (["--short"] if short else [])
    try:
        run_child(base + ["prepare"] + common, deadline)
        out = run_child(base + ["measure"] + common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace, short=short,
                  commit=git_commit(), finished=strftime("%Y-%m-%dT%H:%M:%S%z"))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tag = "-short" if short else ""
    (results / f"{name}-seed{seed}-trace{trace}{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def summary_line(r: dict) -> str:
    shown = dict(r["metrics"], **r["ungated"])
    parts = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in shown.items()]
    if "trace_overhead_pct" in r:
        parts += [f"trace overhead {k} {v:+.1f}%" for k, v in r["trace_overhead_pct"].items()]
    failed = [c["name"] for c in r["checks"] if not c["ok"]]
    status = "correct" if r["correct"] else "INCORRECT: " + "; ".join(failed)
    return (f"{r['workload']}: attempted={r['attempted']} ({r['op']}) failed={r['failed']} "
            + " ".join(parts) + f" [{status}]")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="a few operations per workload, every check on")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "seqcontrast" / "__init__.py").is_file():
        print(f"error: no seqcontrast sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = monotonic()
    results = []
    try:
        for name in names:
            # a single workload must end within the run limit; "all" gives each its own
            deadline = (start if len(names) == 1 else monotonic()) + DEADLINE_S
            results.append(run_workload(name, args.seed, args.seconds, args.trace, args.short, deadline))
            print(summary_line(results[-1]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    key = "per_layer" if args.trace else "metrics"
    if len(results) == 1:
        metrics = results[0][key]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[key].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
