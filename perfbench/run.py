"""mbz benchmark: one command for the connect, bulk and app-mix workloads.

    python3 perfbench/run.py --workload app-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Generates the workload's inputs from
the seed under `.bench_work/`, then measures them in a fresh process
(`measure.py`) so peak RSS belongs to that workload alone. The last line
of standard output is the JSON result: end-to-end metrics with
`--trace 0`, per-layer metrics from the traced run with `--trace 1`.
Exits non-zero without a result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170  # a run must end within 180 s


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="mbz benchmark")
    parser.add_argument("--workload", required=True, choices=("connect", "bulk", "app-mix"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mbz" / "__init__.py").is_file():
        print(f"mbz sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mbz
    if Path(mbz.__file__).resolve().parent != SRC / "mbz":
        print(f"imported mbz from {mbz.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import gen

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    gen.GENERATORS[args.workload](workdir, args.seed)

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--dir", str(workdir), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=TIME_LIMIT_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        print("measurement did not finish in time", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
