"""Benchmark of the debranges library: four workloads, end-to-end metrics
from untraced runs, per-layer metrics from a traced run.

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload chain --seed 3 --trace 0
    python3 perfbench/run.py --workload gosper --seed 3 --trace 1

Each workload runs in a fresh process (``worker.py``) against the sources
under ``src/`` of this checkout.  ``--seconds`` defaults to ``run_seconds``
of BENCHMARK.json.  ``--trace 0`` reports the ``end_to_end`` metrics;
``setup_s`` is the median over several fresh processes that only import
and generate inputs, half of them started before the timed run and half
after it.  ``--trace 1`` runs untraced, traced, traced and untraced rounds
in one fresh process and reports the ``per_layer`` metrics with the
tracing overhead; the spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_KERNEL_S, WORKLOADS, speed_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 8  # set-up samples per run, plus one discarded warm-up start
RUN_LIMIT_S = 170  # a run of one workload ends within this, or fails


class BenchError(Exception):
    pass


def deadline_s(seconds: float, trace: bool) -> float:
    """How long a run may take: the timed part, as much again for set-up
    samples and a last round that overruns, and a minute of margin; a traced
    run has a fixed number of rounds instead.  Never more than RUN_LIMIT_S."""
    return RUN_LIMIT_S if trace else min(RUN_LIMIT_S, 2 * seconds + 60)


def worker(workload: str, seed: int, seconds: float, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh process and return its JSON result; the
    ``spawned`` key is the clock reading just before the process started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the warm-up start writes bytecode, so set-up loads it as an installed
    # package would, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - spawned, 1), env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish by its deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def setup_sample(workload: str, seed: int, seconds: float, deadline: float) -> tuple[float, float]:
    """Set-up time of one fresh worker, from its first statement to the end
    of input generation, scaled by the speed kernel timed here just before
    it starts; and the wall time from before its start, for the record."""
    kernel = statistics.median(speed_kernel() for _ in range(5))
    result = worker(workload, seed, seconds, deadline, "--setup-only")
    setup = result["ready"] - result["started"]
    return setup * REFERENCE_KERNEL_S / kernel, result["ready"] - result["spawned"]


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    def sample():
        return setup_sample(workload, seed, seconds, deadline)

    sample()  # warm-up: the first start may compile bytecode
    setups = [sample() for _ in range(SETUP_STARTS // 2)]
    result = worker(workload, seed, seconds, deadline)
    setups += [sample() for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
    result["wall_setup_s"] = statistics.median(wall for _, wall in setups)
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "run_s": result["run_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values, result


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-{seed}.jsonl"
    result = worker(workload, seed, seconds, deadline, "--trace-out", str(trace_file))
    return result["per_layer"], result


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.perf_counter() + deadline_s(seconds, trace)
    run = run_traced if trace else run_untraced
    values, result = run(workload, seed, seconds, deadline)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            raise BenchError(f"{workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if "wall_run_s" in result:
        print(f"{workload}: {result['rounds']} rounds, wall {result['wall_run_s']:.4f} s per round,"
              f" kernel {result['kernel_ms']:.3f} ms, wall set-up with process start {result['wall_setup_s']:.4f} s",
              file=sys.stderr)
    for what in result["first_failures"]:
        print(f"{workload}: failed: {what}", file=sys.stderr)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="debranges benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "debranges").is_dir():
        print(f"no debranges sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, seconds, bool(args.trace), spec) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for w, r in results.items():
        print(f"{w}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for name, m in r["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
