"""Reference figures for the README: cold koebe_chain(N), each verify suite
cold at n = 30, and two CLI commands as subprocesses.

    python3 perfbench/figures.py

Wall seconds on this machine, one measurement each, so expect the machine's
speed phases in them; the benchmark's own metrics are the steady numbers.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import Program, Verify  # noqa: E402


def wall(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def cli_wall(*argv: str) -> float:
    cmd = [sys.executable, "-m", "debranges.cli", *argv]
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PYTHONHASHSEED": "0"}
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=600)
    return time.perf_counter() - t0


def main() -> int:
    prog = Program()
    print(f"Python {sys.version.split()[0]}")
    print("| what | wall s |\n| --- | --- |")
    for order in (20, 30, 40, 60):
        prog.clear_caches()
        print(f"| cold `koebe_chain({order})` | {wall(prog.series.koebe_chain, order):.2f} |")
    for name, _ in Verify.SUITES:
        prog.clear_caches()
        print(f"| suite `{name}`, cold, n = 30 | {wall(prog.cli.run_suite, name, 30):.2f} |")
    print(f"| `debranges verify all --n 30`, subprocess | {cli_wall('verify', 'all', '--n', '30'):.2f} |")
    print(f"| `debranges table tau --n 60`, subprocess | {cli_wall('table', 'tau', '--n', '60'):.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
