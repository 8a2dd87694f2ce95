"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload chain --seed 1 --seconds 25
    python3 perfbench/worker.py --workload chain --seed 1 --seconds 25 --setup-only
    python3 perfbench/worker.py --workload chain --seed 1 --seconds 25 --trace-out FILE

Prints one JSON object.  ``started`` and ``ready`` are ``time.perf_counter()``
readings (a system-wide monotonic clock) at this file's first statement and
when imports and input generation are done.  Rounds run while the next one
is expected to end within ``--seconds``; at least MIN_ROUNDS run.  With
``--trace-out`` the run is instead four rounds, untraced, traced, traced,
untraced, and ``--seconds`` is not used.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, after interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Recorder  # noqa: E402


MIN_ROUNDS = 2  # a round of `verify` takes half a run; one alone is a noisy run


def run_rounds(workload, seconds: float, rounds: int | None = None) -> dict:
    """Run whole rounds and summarize them.  ``run_s`` is the timed work
    of one round, the median over the rounds run."""
    rec = Recorder()
    rec.calibrate()
    start = time.perf_counter()
    ends = [0]  # index into rec.walls where each round ends
    while True:
        workload.round(rec)
        ends.append(len(rec.walls))
        done = len(ends) - 1
        if done == 1:
            # later rounds repeat the first, but the samples kept here grow
            # with their number, which depends on the machine's speed
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= MIN_ROUNDS and elapsed + elapsed / done > seconds:
            break
    rec.calibrate()
    scaled = rec.scaled()
    per_round = [sum(scaled[a:b]) for a, b in zip(ends, ends[1:])]
    walls = [w for _, w in rec.walls]
    samples = sorted(scaled) or [0.0]
    return {
        "rounds": done,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "correct": rec.wrong == 0,
        "first_failures": rec.first_failures,
        "samples": len(samples),
        "run_s": statistics.median(per_round),
        "op_p50_ms": 1000 * statistics.median(samples),
        "op_p90_ms": 1000 * _p90(samples),
        "wall_run_s": sum(walls) / done,
        "kernel_ms": 1000 * statistics.median(k for _, k in rec.calibration),
        "peak_rss_mb": peak_kb / 1024,
    }


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


TRACE_ORDER = (False, True, True, False)  # ABBA: a linear drift in speed cancels


def run_traced(workload, trace_out: Path) -> dict:
    """Rounds in TRACE_ORDER, the tracer installed only for the traced
    ones.  Every time here is wall seconds per round, the unit the spans
    are taken in: a round's time is the sum of its operations' times, and
    the overhead is the traced mean minus the untraced mean."""
    from tracer import Tracer

    tracer = Tracer()
    rec = Recorder()
    rec.calibrate()
    walls = {False: [], True: []}
    for traced in TRACE_ORDER:
        first = len(rec.walls)
        if traced:
            tracer.install(workload.prog.mods)
        try:
            workload.round(rec)
        finally:
            tracer.uninstall()
        walls[traced].append(sum(w for _, w in rec.walls[first:]))
    tracer.write(trace_out)
    values = per_layer(tracer, workload.prog, len(walls[True]), len(TRACE_ORDER))
    values["trace.run_s"] = statistics.fmean(walls[True])
    values["trace.untraced_run_s"] = statistics.fmean(walls[False])
    values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    return {
        "rounds": len(TRACE_ORDER),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "correct": rec.wrong == 0,
        "first_failures": rec.first_failures,
        "per_layer": values,
    }


def per_layer(tracer, prog, traced: int, rounds: int) -> dict:
    """Call counts, self times and memo statistics, each per round: the
    tracer's totals over the ``traced`` rounds, the memo totals over all
    ``rounds``.  A layer the workload never reached reads 0."""
    n = traced
    out = {}
    for name, (calls, self_s, total_s) in tracer.stats.items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
        if name.startswith("cli.suite."):
            out[f"{name}.s"] = total_s / n
    prog.clear_caches()  # folds in the memo statistics of the last round
    for short, (hits, misses) in prog.cache_stats.items():
        lookups = hits + misses
        out[f"{short}.memo.lookups"] = lookups / rounds
        out[f"{short}.memo.hit_ratio"] = hits / lookups if lookups else 0.0
    out["lowner.coeff_table.extensions"] = tracer.extensions / n
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, tiny=False)
    ready = time.perf_counter()
    if args.setup_only:
        result = {}
    elif args.trace_out is not None:
        result = run_traced(workload, args.trace_out)
    else:
        result = run_rounds(workload, args.seconds)
    result.update(started=STARTED, ready=ready)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
