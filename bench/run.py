"""Benchmark of the freezeml checker.

Run from the repository root:

    python3 bench/run.py --workload corpus|scaling|roundtrip --seed N \
        --seconds S --trace 0|1

Set-up writes the workload's inputs (made from the seed) under
``.bench_work/`` and times fresh interpreter starts for ``setup_s``;
neither is part of any other timing.  A fresh worker process then runs
the ops (see ``worker.py``).  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  See ``NOTES.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.abspath("src")
WORK = os.path.abspath(".bench_work")
WORKLOADS = ("corpus", "scaling", "roundtrip")
# Fresh starts for setup_s, half before and half after the worker, so
# that one slow spell of the machine does not set the median.
SETUP_STARTS = 21
WORKER_TIMEOUT_S = 160

# What "ready" means for setup_s: the package imported, the prelude
# built and the CLI's argument parser constructed.
READY = (
    "import sys, freezeml\n"
    "from freezeml.prelude import build_prelude\n"
    "from freezeml.cli import build_arg_parser\n"
    "build_prelude(); build_arg_parser()\n"
    "sys.stdout.write(freezeml.__file__ + '\\n'); sys.stdout.flush()\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SOURCE
    env["PYTHONHASHSEED"] = "0"
    return env


def fresh_start() -> tuple[float, float]:
    """Seconds from spawning an interpreter until it reports ready, as
    measured and at the reference speed (see ``reference.py``)."""
    before = reference.loop_seconds()
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", READY], stdout=subprocess.PIPE, env=child_env(), text=True
    ) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not os.path.abspath(line.strip()).startswith(SOURCE + os.sep):
        raise SystemExit(f"bench: the package did not load from {SOURCE}")
    after = reference.loop_seconds()
    return ready, ready * reference.factor((before + after) / 2)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SOURCE, "freezeml", "__init__.py")):
        print(f"bench: no freezeml package under {SOURCE}; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    sys.path[:0] = [SOURCE]
    import inputs

    start = perf_counter()
    manifest = inputs.build(args.workload, args.seed, work)
    print(f"workload {args.workload}: {manifest['why']}")
    print(f"inputs: {len(manifest['ops'])} ops in {perf_counter() - start:.2f} s (untimed)")
    starts = []
    if not args.trace:
        fresh_start()  # untimed: fills the bytecode cache
        starts = [fresh_start() for _ in range(SETUP_STARTS // 2 + 1)]

    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), work, str(args.seconds), str(args.trace)],
        stdout=subprocess.PIPE, env=child_env(), text=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("bench: the worker timed out", file=sys.stderr)
            return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: the worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        starts += [fresh_start() for _ in range(SETUP_STARTS // 2)]
        print(f"setup_s as measured: {median([raw for raw, _ in starts]):.4f} s")
        result["metrics"]["setup_s"] = {"value": median([s for _, s in starts]), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
