"""Per-layer spans for the robust-pandora benchmark.

The tracer wraps the public entry points of each package module from the
outside: every module namespace of the package that holds one of these
functions gets a wrapper in its place, so calls between modules are traced
too.  Each call opens a span; on exit the span's duration is added to the
function's busy time, and its duration minus the time covered by traced
calls made inside it is added to its self time.  Spans are aggregated as
they close, per function: calls, busy seconds, self seconds and calls that
raised, plus work counts read from the arguments.

Helpers called once per grid point or per episode (for example
``two_box.regret_against_pair``) are not wrapped: a wrapper costs about as
much as their body.  Their time is the self time of the caller.

Run as a script, this module is the traced form of the command line:
``python bench/tracer.py solve --regime indep ...`` behaves like
``python -m robust_pandora.cli solve --regime indep ...`` and in addition
writes one ``TRACE_PREFIX`` line with its aggregates to stderr.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

TRACE_PREFIX = "bench-trace "

# (module, function) pairs wrapped by the tracer; the span of ``simulate``
# is split by spec type into ``simulate.het`` and ``simulate.homog``.
LAYERS = (
    ("core", "regret_indep"),
    ("core", "regret_needle"),
    ("core", "first_success_probabilities"),
    ("core", "regret_count_profile"),
    ("indep", "solve_indep"),
    ("corr", "solve_corr_commitment"),
    ("corr", "solve_corr_intrapersonal"),
    ("het", "solve_het"),
    ("het", "regret_het"),
    ("interim", "solve_interim"),
    ("interim", "interim_regret"),
    ("two_box", "solve_two_box"),
    ("two_box", "verify_two_box"),
    ("verify", "saddle_check_indep"),
    ("verify", "saddle_check_corr"),
    ("verify", "interim_grid_oracle"),
    ("verify", "nature_best_response_indep"),
    ("_optim", "grid_then_golden_max"),
    ("simulate", "simulate"),
    ("cli", "main"),
)


def _span_names():
    names = []
    for module, func in LAYERS:
        if (module, func) == ("simulate", "simulate"):
            names += ["simulate.het", "simulate.homog"]
        else:
            names.append(f"{module.lstrip('_')}.{func}")
    return names


SPANS = tuple(_span_names())
QUANTITIES = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))
# work counts, read from the arguments of successful calls
WORK = (
    ("het.solve_het.menus", "count"),
    ("het.regret_het.menus", "count"),
    ("simulate.het.episodes", "count"),
    ("simulate.homog.episodes", "count"),
    ("two_box.verify_two_box.pairs", "count"),
)


def _lattice(args):
    return 2 ** args["spec"].n - 1


def _pairs(args):
    g = int(args["grid_size"])
    return g * (g + 1) // 2


_WORK_OF = {
    "het.solve_het": ("menus", _lattice),
    "het.regret_het": ("menus", _lattice),
    "simulate.simulate": ("episodes", lambda args: int(args["episodes"])),
    "two_box.verify_two_box": ("pairs", _pairs),
}


class Tracer:
    """Wraps the package's layer functions and aggregates their spans."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPANS}
        self.work = {name: 0 for name, _ in WORK}
        self.active = True
        self._stack = []  # time covered by traced children of each open span
        self._patched = []

    def _wrap(self, span, fn):
        tracer = self
        split = span == "simulate.simulate"
        work = _WORK_OF.get(span)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = None
            name = span
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if split:
                    is_het = type(bound.arguments["spec"]).__name__ == "HeterogeneousSpec"
                    name = "simulate.het" if is_het else "simulate.homog"
            tracer._stack.append(0.0)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dur = time.perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                s = tracer.stats[name]
                s[0] += 1
                s[1] += dur
                s[2] += dur - children
                s[3] += not ok
                if ok and work is not None:
                    tracer.work[f"{name}.{work[0]}"] += work[1](bound.arguments)

        return wrapper

    def install(self):
        """Replace every reference the package holds to a layer function."""
        import robust_pandora  # noqa: F401  (loads every module but cli)

        modules = [m for n, m in list(sys.modules.items()) if n == "robust_pandora" or n.startswith("robust_pandora.")]
        for module, func in LAYERS:
            mod = sys.modules.get(f"robust_pandora.{module}")
            if mod is None:
                continue
            original = getattr(mod, func)
            wrapper = self._wrap(f"{module.lstrip('_')}.{func}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) are not traced."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def snapshot(self) -> dict:
        return {"stats": self.stats, "work": self.work}

    def merge(self, snap: dict):
        for name, values in snap["stats"].items():
            mine = self.stats[name]
            for i, v in enumerate(values):
                mine[i] += v
        for name, v in snap["work"].items():
            self.work[name] += v

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            for (quantity, unit), value in zip(QUANTITIES, self.stats[name]):
                out[f"{name}.{quantity}"] = (value, unit)
        for name, unit in WORK:
            out[name] = (self.work[name], unit)
        return out


def _cli_main(argv) -> int:
    import robust_pandora.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
