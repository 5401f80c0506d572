"""Workloads of the robust-pandora benchmark: seeded inputs, tasks and checks.

Every workload is a closed loop with one caller: the worker runs a task,
checks its output, and only then starts the next one.  Tasks come in
blocks.  A block has a fixed composition (which kinds of task, and which
size stratum each draws from), and the seed picks the values inside the
strata and the order.  A run executes whole blocks, so two runs with
different seeds do the same mix of work and their figures can be compared.

A task's ``run`` is the user-level call sequence and is what gets timed and
traced.  Its ``check`` compares the outputs with each other or with an
independent value and returns a reason on failure; checks are neither timed
nor traced.  Two defects of the package are known and kept in the mix
(``known_error`` and ``known_check_fail``); they are counted apart from
unexpected failures.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import robust_pandora as rp

from tracer import TRACE_PREFIX

BENCH_DIR = Path(__file__).resolve().parent

# verify_two_box reports a nature gap above its 1e-9 tolerance from about
# ubar/c = 8.50 (grid 1000) to 8.65 (grid 200) upward; the wide regime is the
# known defect of ROADMAP item 4.
TWO_BOX_WIDE_RATIO = 8.0
TWO_BOX_RATIOS = (1.5, 15.0)
P_GRID = np.linspace(0.0, 1.0, 1001)


@dataclass
class Task:
    kind: str
    params: dict
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_error: Optional[type] = None
    known_check_fail: bool = False
    extra: dict = field(default_factory=dict)


def _stratified(rng, lo, hi, strata, integer=True):
    """One draw per stratum of [lo, hi], in stratum order."""
    u = (np.arange(strata) + rng.random(strata)) / strata
    if integer:
        return [min(hi, lo + int(x * (hi - lo + 1))) for x in u]
    return [lo + x * (hi - lo) for x in u]


def _close(a, b, tol, what):
    return None if abs(a - b) <= tol else f"{what}: {a!r} vs {b!r}"


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# het-lattice
# ---------------------------------------------------------------------------

HET_SIM_MAX_N = 8
HET_EPISODES = 20_000
# 24 small menus, then two n=12 and one each of n=13, 14: four blocks make
# the 100 tasks a run needs, and p90 falls inside the n=12 class
HET_SIZES = [6, 7, 8, 9, 10, 11] * 4 + [12, 12, 13, 14]
HET_PEAK_N = 10


def _het_task(rng, n) -> Task:
    ubars = rng.uniform(0.5, 2.0, n)
    costs = ubars * rng.uniform(0.05, 0.6, n)
    spec = rp.HeterogeneousSpec(tuple(zip(ubars.tolist(), costs.tolist())))
    dev = list(spec.p_hats)
    i = int(rng.integers(n))
    dev[i] = float(rng.random())
    truth = rp.HeteroPVector(tuple(rng.random(n).tolist())) if n <= HET_SIM_MAX_N else None
    sim_seed = int(rng.integers(2**32))

    def run():
        sol = rp.solve_het(spec)
        at_phat = rp.regret_het(sol.policy, spec.p_hats, spec)
        at_dev = rp.regret_het(sol.policy, dev, spec)
        sim = rp.simulate(sol.policy, truth, spec, HET_EPISODES, sim_seed) if truth else None
        return sol.regret(), at_phat, at_dev, sim, sol.policy

    def check(out):
        value, at_phat, at_dev, sim, policy = out
        reason = _close(at_phat, value, 1e-9, "regret_het at p_hat") or _close(
            at_dev, value, 1e-9, f"regret_het with p_{i} moved"
        )
        if reason or sim is None:
            return reason
        exact = rp.regret_het(policy, truth, spec)
        return _close(sim.mean_regret, exact, 5.0 * sim.se_regret + 1e-12, "simulated regret")

    return Task("het", {"n": n}, run, check, extra={"spec": spec})


class HetLattice:
    name = "het-lattice"
    nominal_block_s = 6.0

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        warm = _het_task(np.random.default_rng([self.seed, 1]), 6)
        if warm.check(warm.run()):
            raise RuntimeError("warm-up task failed its check")

    def block(self, b):
        rng = np.random.default_rng([self.seed, 0, b])
        return [_het_task(rng, int(n)) for n in rng.permutation(HET_SIZES)]

    def peak_rss_mb(self):
        return _rss_mb(resource.RUSAGE_SELF)

    def trace_extras(self, tasks, replay):
        """tracemalloc peak of solve_het on the first n=10 menu traced.

        tracemalloc slows solve_het about 19-fold, so n=14 would take
        minutes; the lattice is the same structure at every n.
        """
        spec = next(t.extra["spec"] for t in tasks if t.params["n"] == HET_PEAK_N)
        tracemalloc.start()
        try:
            rp.solve_het(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"het.solve_het.peak_mb": (peak / 2**20, "MB")}


# ---------------------------------------------------------------------------
# homog-verify
# ---------------------------------------------------------------------------

HOMOG_STRATA = 8
HOMOG_KINDS = ("indep", "corr", "corr-intra", "needle", "count", "interim", "two-box")
INTERIM_ORACLE_MAX_N = 6


def _homog_task(rng, kind, size, ratio=None) -> Task:
    ubar = float(rng.uniform(0.5, 2.0))
    seed = int(rng.integers(2**31))
    if kind == "indep":
        spec = rp.HomogeneousSpec(ubar, ubar * float(rng.uniform(0.05, 0.6)), size)
        return Task(kind, {"n": size}, lambda: rp.saddle_check_indep(spec, seed=seed), _report_passed)
    if kind in ("corr", "corr-intra"):
        spec = rp.HomogeneousSpec(ubar, ubar * float(rng.uniform(0.02, 0.6)), size)
        mode = "commitment" if kind == "corr" else "intrapersonal"
        return Task(kind, {"n": size}, lambda: rp.saddle_check_corr(spec, mode=mode, seed=seed), _report_passed)
    if kind == "needle":
        spec = rp.HomogeneousSpec(ubar, ubar * float(rng.uniform(0.2, 3.0)) / size, size)

        def run():
            sol = rp.solve_corr_commitment(spec)
            return sol.regret, float(np.max(rp.regret_needle(sol.policy, P_GRID, spec)))

        def check(out):
            regret, worst = out
            return None if worst <= regret + 1e-9 else f"needle beats the claimed regret by {worst - regret:.3e}"

        # the recursion in regret_needle is one Python frame per box
        return Task(kind, {"n": size}, run, check, known_error=RecursionError)
    if kind == "count":
        spec = rp.HomogeneousSpec(ubar, ubar * float(rng.uniform(0.2, 3.0)) / size, size)
        Q = rp.CountProfile(rng.dirichlet(np.ones(size + 1)))

        def run():
            w = rp.StoppingMixture.from_policy(rp.solve_corr_commitment(spec).policy)
            return (
                rp.regret_count_profile(w, Q, spec),
                rp.regret_count_profile(w, rp.single_treasure_equivalent(Q), spec),
            )

        def check(out):
            value, flat = out
            return None if value <= flat + 1e-12 else f"profile beats its flattening by {value - flat:.3e}"

        return Task(kind, {"n": size}, run, check)
    if kind == "interim":
        spec = rp.HomogeneousSpec(ubar, ubar * float(rng.uniform(0.05, 0.6)), size)

        def run():
            rep = rp.solve_interim(spec)
            at_worst = rp.interim_regret(rep.policy, rep.worst_p_high, spec)
            at_zero = rp.interim_regret(rep.policy, 0.0, spec)
            oracle = rp.interim_grid_oracle(spec) if size <= INTERIM_ORACLE_MAX_N else None
            return rep, at_worst, at_zero, oracle

        def check(out):
            rep, at_worst, at_zero, oracle = out
            reason = _close(at_worst, rep.regret, 1e-9, "interim regret at worst p") or _close(
                at_zero, rep.regret, 1e-9, "interim regret at p=0"
            )
            if reason or oracle is None:
                return reason
            m, alpha, _ = oracle
            if m != rep.policy.m:
                return f"grid oracle m={m}, solver m={rep.policy.m}"
            return _close(alpha, rep.policy.alpha, 1e-3, "grid oracle alpha")

        return Task(kind, {"n": size}, run, check)
    if kind == "two-box":
        spec = rp.HomogeneousSpec(ubar, ubar / ratio, 2)

        def run():
            policy, nature, _ = rp.solve_two_box(spec)
            return rp.verify_two_box(policy, nature, spec, size)

        return Task(
            kind, {"grid": size, "ratio": ratio}, run, _report_passed, known_check_fail=ratio > TWO_BOX_WIDE_RATIO
        )
    raise ValueError(f"unknown task kind {kind!r}")


def _report_passed(report):
    return None if report.passed else str(report)


_HOMOG_RANGES = {
    "indep": (1, 60),
    "corr": (1, 8),
    "corr-intra": (1, 8),
    "needle": (100, 2000),
    "count": (50, 300),
    "interim": (2, 100),
    "two-box": (200, 1000),
}


class HomogVerify:
    name = "homog-verify"
    nominal_block_s = 9.0

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        for kind in HOMOG_KINDS:
            warm = _homog_task(rng, kind, _HOMOG_RANGES[kind][0], 1.5)
            if warm.check(warm.run()):
                raise RuntimeError(f"warm-up {kind} task failed its check")

    def block(self, b):
        rng = np.random.default_rng([self.seed, 0, b])
        tasks = []
        for kind in HOMOG_KINDS:
            lo, hi = _HOMOG_RANGES[kind]
            if kind == "interim":
                # the first stratum is exactly the sizes checked against the
                # grid oracle, whose arrays set the workload's peak memory
                sizes = [int(rng.integers(lo, INTERIM_ORACLE_MAX_N + 1))]
                sizes += _stratified(rng, INTERIM_ORACLE_MAX_N + 1, hi, HOMOG_STRATA - 1)
            else:
                sizes = _stratified(rng, lo, hi, HOMOG_STRATA)
            sizes = rng.permutation(sizes)
            ratios = [None] * HOMOG_STRATA
            if kind == "two-box":
                # ubar/c is stratified too, independently of the grid size
                ratios = rng.permutation(_stratified(rng, *TWO_BOX_RATIOS, HOMOG_STRATA, integer=False)).tolist()
            tasks += [_homog_task(rng, kind, int(s), r) for s, r in zip(sizes, ratios)]
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def peak_rss_mb(self):
        return _rss_mb(resource.RUSAGE_SELF)

    def trace_extras(self, tasks, replay):
        return {}


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

# the seven commands of the README, with a bare package import as the eighth
CLI_COMMANDS = (
    ("solve-indep", "solve --regime indep --ubar 1 --c 0.3 --n 3 --format json"),
    ("solve-het", "solve --regime het --boxes 1:0.2,1:0.4"),
    ("sweep-indep-n", "sweep --regime indep --sweep n --from 1 --to 50 --ubar 1 --c 0.3"),
    ("sweep-het-delta", "sweep --regime het --sweep delta --from 0 --to 0.5 --steps 30 --ubar 1 --ctotal 0.6"),
    ("verify-indep", "verify --regime indep --ubar 1 --c 0.3 --n 4 --tol 1e-6"),
    ("verify-two-box", "verify --regime two-box --ubar 1 --c 0.2 --grid 200"),
    ("simulate-indep", "simulate --regime indep --ubar 1 --c 0.3 --n 5 --truth iid:0.3 --episodes 1000000 --seed 42"),
    ("import", None),
)
# per-layer figures of the traced run, from the untraced replay
CLI_METRICS = tuple(
    [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    + [(f"cli.{name}.ms", "ms") for name, args in CLI_COMMANDS if args is not None]
)
CLI_TIMEOUT_S = 120
INTERPRETER_SAMPLES = 5


class CommandFailed(RuntimeError):
    pass


class CliReadme:
    name = "cli-readme"
    nominal_block_s = 1.5

    def __init__(self, seed, root: Path):
        self.seed = seed
        self.root = root
        self.tracer = None  # set by the worker for the traced pass
        self.reference = {}
        spec = rp.HomogeneousSpec(1.0, 0.3, 5)
        self.simulate_exact = rp.regret_indep(rp.solve_indep(spec).policy, 0.3, spec)

    def _argv(self, args):
        if args is None:
            return [sys.executable, "-c", "import robust_pandora"]
        if self.tracer is not None:
            return [sys.executable, str(BENCH_DIR / "tracer.py"), *args.split()]
        return [sys.executable, "-m", "robust_pandora.cli", *args.split()]

    def _invoke(self, name, args):
        proc = subprocess.run(
            self._argv(args), cwd=self.root, env=os.environ, capture_output=True, timeout=CLI_TIMEOUT_S
        )
        if self.tracer is not None and args is not None:
            for line in proc.stderr.decode().splitlines():
                if line.startswith(TRACE_PREFIX):
                    self.tracer.merge(json.loads(line[len(TRACE_PREFIX) :]))
        if proc.returncode != 0:
            raise CommandFailed(f"{name} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        return proc.stdout

    def _check(self, name, stdout):
        if name == "simulate-indep":
            res = json.loads(stdout)["results"]
            reason = _close(res["mean_regret"], self.simulate_exact, 5.0 * res["se_regret"], "simulated regret")
            if reason:
                return reason
        if name in self.reference and stdout != self.reference[name]:
            return f"{name} stdout differs from the first cycle's"
        return None

    def _task(self, name, args):
        return Task(name, {}, lambda: self._invoke(name, args), lambda out: self._check(name, out))

    def setup(self):
        for name, args in CLI_COMMANDS:
            out = self._invoke(name, args)
            reason = self._check(name, out)
            if reason:
                raise RuntimeError(f"first cycle: {reason}")
            self.reference[name] = out

    def block(self, b):
        rng = np.random.default_rng([self.seed, 0, b])
        return [self._task(*CLI_COMMANDS[i]) for i in rng.permutation(len(CLI_COMMANDS))]

    def peak_rss_mb(self):
        return _rss_mb(resource.RUSAGE_CHILDREN)

    def trace_extras(self, tasks, replay):
        """Per-command wall times from the untraced replay, and the interpreter alone."""
        pass_ms = []
        for _ in range(INTERPRETER_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, check=True, timeout=CLI_TIMEOUT_S)
            pass_ms.append((time.perf_counter() - t0) * 1e3)
        interpreter = statistics.median(pass_ms)
        out = {"cli.interpreter_ms": (interpreter, "ms")}
        for name, _ in CLI_COMMANDS:
            ms = statistics.median([r.duration * 1e3 for r in replay if r.kind == name])
            if name == "import":
                out["cli.import_ms"] = (ms - interpreter, "ms")
            else:
                out[f"cli.{name}.ms"] = (ms, "ms")
        return out


def make(name, seed, root):
    if name == "het-lattice":
        return HetLattice(seed)
    if name == "homog-verify":
        return HomogVerify(seed)
    if name == "cli-readme":
        return CliReadme(seed, root)
    raise ValueError(f"unknown workload {name!r}")
