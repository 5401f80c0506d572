"""Benchmark of robust-pandora: solve, verify and simulate, end to end.

    python3 bench/run.py                          # every workload, 25 s each
    python3 bench/run.py --workload het-lattice --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload homog-verify --trace 1   # per-layer run

Each workload runs in its own worker process (``bench/worker.py``) with
one caller.  The package comes from the checkout's ``src/``; nothing needs
to be installed.  The output lists the machine, then every metric by name
with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (set-up time is the median of several set-ups);
with ``--trace 1`` they are the per-layer ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("het-lattice", "homog-verify", "cli-readme")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is sampled this many times per run: by as many set-up-only
# workers, less one, plus the worker that then runs the workload
SETUP_SAMPLES = 3
# a run, all its workers included, ends within this many seconds
RUN_BUDGET_S = 175.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args, deadline):
    """Run one worker; return (seconds from spawn to ready, its result line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=_env(),
        text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return setup, rest.strip().splitlines()[-1] if rest.strip() else ""


def run_workload(name, seed, seconds, trace, blocks, deadline) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if blocks:
        base += ["--blocks", str(blocks)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(base + ["--setup-only"], deadline)[0])
    setup, line = _spawn(base, deadline)
    setups.append(setup)
    res = json.loads(line)
    if not trace:
        res["metrics"] = {"setup_s": (statistics.median(setups), "s"), **res["metrics"]}
    return res


def _show(name, res, seed):
    print(f"{name}: seed {seed}, {res['blocks']} blocks, {res['attempted']} tasks")
    for metric, (value, unit) in {**res["metrics"], **res["also"]}.items():
        print(f"  {metric:44s} {value:>14.6g} {unit}")
    known = ", ".join(f"{k} {v}" for k, v in sorted(res["known_defects"].items())) or "none"
    print(f"  known defects: {known}")
    for detail in res["unexpected"]:
        print(f"  UNEXPECTED: {detail}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, default=0, help="run exactly this many blocks instead of --seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.blocks < 0:
        parser.error("--seed and --blocks must be >= 0 and --seconds >= 1")
    if not (SRC / "robust_pandora" / "__init__.py").is_file():
        print(f"bench: no robust_pandora package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.blocks, deadline)
    except (BenchError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(next(iter(results.values()))["machine"], sort_keys=True))
    for name, res in results.items():
        _show(name, res, args.seed)

    prefix = len(names) > 1
    failed = sum(res["failed"] for res in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": failed,
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, res in results.items()
            for metric, (value, unit) in res["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
