#!/usr/bin/env python3
"""Print the peak resident memory of framekit CLI commands, each in a fresh interpreter.

Each command line runs as `python -m framekit.cli <command>` from this
tree's src/, with one BLAS thread and its stdout discarded.  Its ru_maxrss,
read from os.wait4 when it exits, is printed in MB (KiB / 1024, the unit of
perfbench's peak_rss_mb), then its exit code and the command.  The script
exits 1 when a command exits non-zero.

Usage:
    python scripts/peak_rss.py \\
        "gen --spec '{\\"kind\\": \\"prop53Truncation\\", \\"M\\": 2, \\"epsilons\\": [0.1, 0.05]}' --out big.json" \\
        "select --in big.json --size 8 --method greedy" "verify-lemmas --in big.json"
"""
import argparse
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def peak_rss(argv: list[str]) -> tuple[float, int]:
    """The ru_maxrss in MB and the exit code of `python -m framekit.cli *argv`."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "framekit.cli", *argv], env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("commands", nargs="+", help="one framekit CLI command line per argument")
    args = parser.parse_args(argv)
    failed = False
    for command in args.commands:
        megabytes, code = peak_rss(shlex.split(command))
        print(f"{megabytes:8.1f} MB  exit {code}  {command}")
        failed |= code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
