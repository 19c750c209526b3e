"""Airshed benchmark: one workload, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload la_episode --seed 0 --seconds 20 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is the host
fingerprint the numbers belong to.  ``--short`` runs a tiny size for
the benchmark's own tests.

Every workload runs in a fresh process (``workloads.py``).  ``setup_s``
is the time from spawning that process to its first timed operation,
taken as the median over ``SETUP_RUNS`` processes that each do the
whole set-up.  The one-off C kernel build happens before any of them.
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

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED, END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS)

SETUP_RUNS = 3
CHILD_TIMEOUT_S = 160.0


def _spawn(env, args, timeout: float) -> dict:
    """Run one workload process; its last stdout line is its result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Airshed benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    started = time.monotonic()

    # Compile the C kernel (once per checkout) outside every timed run.
    subprocess.run(
        [sys.executable, "-c",
         "from repro.chemistry import cfused; cfused.load()"],
        env=env, check=True, timeout=CHILD_TIMEOUT_S)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        common.append("--short")
    setups = []
    if not args.trace:
        for _ in range(1 if args.short else SETUP_RUNS - 1):
            setups.append(_spawn(env, common + ["--setup-only"],
                                 CHILD_TIMEOUT_S)["setup_s"])
    result = _spawn(env, common,
                    CHILD_TIMEOUT_S - (time.monotonic() - started))
    setups.append(result["setup_s"])

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = result["failed"] == 0 and len(metrics) == len(units)
    print(json.dumps({"host": result["host"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
