"""Workload process of the robust-pandora benchmark.

``bench/run.py`` starts one of these per workload run (and a few more that
only set up, to sample set-up time):

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                           [--blocks N] [--setup-only]

It imports the package from the checkout's ``src/``, builds its inputs from
the seed, warms up, prints ``ready``, runs the workload and prints one JSON
line with the results.  With ``--trace 1`` it runs a fixed number of blocks
with the tracer installed, then the same blocks again without it; the
difference in task time is the tracing overhead.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy reads these when it loads its BLAS, so they are set before the import
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# the CLI children of cli-readme import the same package
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

import numpy as np  # noqa: E402

import robust_pandora  # noqa: E402
import workloads  # noqa: E402
from tracer import QUANTITIES, SPANS, WORK, Tracer  # noqa: E402

# a run has at least this many tasks, so that ten lie beyond its p90
MIN_TASKS = 100
UNEXPECTED_SHOWN = 5


@dataclass
class Record:
    kind: str
    duration: float
    status: str  # ok | check-fail | known-check-fail | error | known-error
    detail: str = ""


def execute(task, tracer) -> Record:
    start = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # the loop records a failing task and goes on
        duration = time.perf_counter() - start
        known = task.known_error is not None and isinstance(exc, task.known_error)
        detail = f"{task.kind} {task.params}: {type(exc).__name__}: {str(exc)[:300]}"
        if not known:
            traceback.print_exc(file=sys.stderr)
        return Record(task.kind, duration, "known-error" if known else "error", detail)
    duration = time.perf_counter() - start
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            reason = task.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is None:
        return Record(task.kind, duration, "ok")
    status = "known-check-fail" if task.known_check_fail else "check-fail"
    return Record(task.kind, duration, status, f"{task.kind} {task.params}: {reason}")


def run_blocks(wl, count, tracer=None):
    records = []
    for b in range(count):
        records += [execute(task, tracer) for task in wl.block(b)]
    return records


def timed_run(wl, seconds):
    """Whole blocks until ``seconds`` have passed and MIN_TASKS are done."""
    records = []
    start = time.perf_counter()
    b = 0
    while b == 0 or time.perf_counter() - start < seconds or len(records) < MIN_TASKS:
        records += [execute(task, None) for task in wl.block(b)]
        b += 1
    return records, b


def outcome(records) -> dict:
    status = Counter(r.status for r in records)
    known = Counter(f"{r.kind} {r.status.removeprefix('known-')}" for r in records if r.status.startswith("known-"))
    return {
        "attempted": len(records),
        "errors": status["error"] + status["known-error"],
        "check_fails": status["check-fail"] + status["known-check-fail"],
        "failed": status["error"] + status["check-fail"],
        "known_defects": dict(known),
        "unexpected": [r.detail for r in records if r.status in ("error", "check-fail")][:UNEXPECTED_SHOWN],
    }


def end_to_end(wl, records) -> dict:
    res = outcome(records)
    ran = [r.duration for r in records if not r.status.endswith("error")]
    wall = sum(r.duration for r in records)
    attempted = res["attempted"]
    q = statistics.quantiles(ran, n=10, method="inclusive") if len(ran) > 1 else [ran[0] if ran else 0.0] * 9
    res["metrics"] = {
        "tasks_per_s": (len(ran) / wall, "1/s"),
        "task_p50_ms": (q[4] * 1e3, "ms"),
        "task_p90_ms": (q[8] * 1e3, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "error_free_ratio": (1.0 - res["errors"] / attempted, "ratio"),
        "check_pass_ratio": (1.0 - res["check_fails"] / attempted, "ratio"),
    }
    res["also"] = {
        "error_ratio": (res["errors"] / attempted, "ratio"),
        "check_fail_ratio": (res["check_fails"] / attempted, "ratio"),
        "tasks_beyond_p90": (sum(d > q[8] for d in ran), "count"),
    }
    return res


def traced(wl, blocks) -> dict:
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        records = run_blocks(wl, blocks, tracer)
    finally:
        wl.tracer = None
        tracer.uninstall()
    replay = run_blocks(wl, blocks)
    res = outcome(records + replay)
    traced_s = sum(r.duration for r in records)
    untraced_s = sum(r.duration for r in replay)
    metrics = {name: (0, unit) for name, unit in per_layer_names()}
    metrics.update(tracer.metrics())
    tasks = [t for b in range(blocks) for t in wl.block(b)]
    metrics.update(wl.trace_extras(tasks, replay))
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    res["metrics"] = metrics
    res["also"] = {}
    return res


def per_layer_names():
    """Every per-layer metric, with its unit, in a fixed order."""
    names = [(f"{span}.{q}", unit) for span in SPANS for q, unit in QUANTITIES]
    names += list(WORK) + [("het.solve_het.peak_mb", "MB")]
    names += list(workloads.CLI_METRICS)
    names += [("trace.traced_s", "s"), ("trace.untraced_s", "s"), ("trace.overhead_pct", "%")]
    return names


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("het-lattice", "homog-verify", "cli-readme"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, default=0, help="run exactly this many blocks")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(robust_pandora.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: robust_pandora imported from {robust_pandora.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, ROOT)
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        blocks = args.blocks or max(1, round(args.seconds / (2.0 * wl.nominal_block_s)))
        res = traced(wl, blocks)
    else:
        if args.blocks:
            records, blocks = run_blocks(wl, args.blocks), args.blocks
        else:
            records, blocks = timed_run(wl, args.seconds)
        res = end_to_end(wl, records)
    res["blocks"] = blocks
    res["machine"] = machine()
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
