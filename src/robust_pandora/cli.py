"""Command-line front end: solve, sweep, verify, and simulate.

Every command emits a machine-readable record (JSON object or CSV table)
on stdout or to ``--out``, built deterministically so repeated runs are
byte-identical.  Exit codes: 0 success, 1 usage error, 2 invalid model
parameters or an unreadable policy file, 3 verification gap above tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    SaddleReport,
    SeedError,
    SizeError,
    StationaryPolicy,
    _MAX_SPEC_BOXES,
    _require_tolerance,
)
from .corr import _first_opening, solve_corr_commitment, solve_corr_intrapersonal
from .het import HeterogeneousSpec, cost_asymmetry_sweep, solve_het
from .indep import _minimax_regret, search_count_profile, solve_indep
from .interim import solve_interim
from .simulate import simulate
from .two_box import solve_two_box, verify_two_box
from .verify import nature_best_response_indep, nature_best_response_needle, saddle_check_corr, saddle_check_indep

__all__ = ["main"]

_SCHEMA = "1"

# Rows of one sweep table.  Wall time of the whole process at 10 000 rows on
# a 2-vCPU x86-64 VM (ubar 1, c 0.3): indep n-sweep 0.25 s and corr n-sweep
# 0.29 s (one solve at --to, then O(1) per row), delta sweep (c_total 0.6)
# 1.9 s, q-sweep 0.3 s, two-box ubar sweep 0.5 s.
_MAX_SWEEP_ROWS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1 (argparse defaults to 2, reserved here for
        # validation failures)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return f"{float(value):.12g}"


def _emit(args, command: str, params: dict, results: dict) -> str:
    """The JSON record of one call, or its results as a ``field,value`` CSV."""
    if args.format == "json":
        payload = {"schema_version": _SCHEMA, "command": command, "params": params, "results": results}
        return json.dumps(payload, sort_keys=True, indent=2, default=lambda obj: obj.tolist()) + "\n"
    rows = []
    for key, value in results.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            rows += [(f"{key}_{i}", v) for i, v in enumerate(value, start=1)]
        else:
            rows.append((key, value))
    return _emit_table_csv(("field", "value"), rows)


def _emit_table_csv(columns, rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in (columns, *rows))


def _reject(args, names, message: str):
    """Exit 2 with ``message`` when any of the flags ``names`` is given."""
    if any(getattr(args, name, None) is not None for name in names):
        raise DomainError(message)


def _spec_from(args):
    """The spec named by the arguments, and the ``params`` its record echoes."""
    if args.regime == "het":
        if not args.boxes:
            raise DomainError("--boxes is required for the het regime")
        _reject(args, ("ubar", "c", "n"), "--ubar, --c, and --n do not apply to the het regime; --boxes gives each box")
        boxes = []
        for part in args.boxes.split(","):
            try:
                u, c = part.split(":")
                boxes.append((float(u), float(c)))
            except ValueError:
                raise DomainError(f"cannot parse box {part!r}; expected 'ubar:cost'") from None
        return HeterogeneousSpec(tuple(boxes)), {"regime": args.regime, "boxes": args.boxes}
    _reject(args, ("boxes",), f"the {args.regime} regime does not read --boxes")
    n = 2 if args.n is None and args.regime == "two-box" else args.n
    if args.ubar is None or args.c is None or n is None:
        raise DomainError("--ubar, --c, and --n are required for this regime")
    spec = HomogeneousSpec(args.ubar, args.c, n)
    return spec, {"regime": args.regime, "ubar": spec.ubar, "c": spec.c, "n": spec.n}


def _corr_solver(regime: str):
    # built per call, so that a function replaced on this module at run time
    # (a tracing wrapper, say) is the one called
    return {"corr": solve_corr_commitment, "corr-intra": solve_corr_intrapersonal}[regime]


def _cmd_solve(args):
    spec, params = _spec_from(args)
    if args.regime == "indep":
        sol = solve_indep(spec)
        results = {
            "alpha": list(sol.alphas),
            "regret": sol.regret,
            "worst_case_p": sol.worst_case_p,
        }
    elif args.regime in ("corr", "corr-intra"):
        sol = _corr_solver(args.regime)(spec)
        results = {
            "alpha": list(sol.policy.alphas),
            "regret": sol.regret,
            "regret_per_k": list(sol.regret_per_k),
            "worst_case_P": list(sol.worst_case_P),
            "optout": sol.opts_out,
            "optout_threshold": sol.optout_threshold,
        }
        if args.regime == "corr-intra":
            results["searches_up_to"] = sol.searches_up_to
    elif args.regime == "het":
        sol = solve_het(spec)
        rule = sol.rule_for()
        results = {
            "open_probs": [rule.open_probs[i] for i in range(spec.n)],
            "optout": rule.optout,
            "total_search": rule.total_search,
            "regret": sol.regret(),
        }
    elif args.regime == "interim":
        rep = solve_interim(spec)
        results = {
            "m": rep.policy.m,
            "alpha": rep.policy.alpha,
            "regret": rep.regret,
            "worst_p_high": rep.worst_p_high,
            "residual": rep.residual,
            "degenerate_tie": rep.degenerate_tie,
        }
    else:
        policy, nature, regret = solve_two_box(spec)
        results = {
            "regime": policy.regime,
            "alpha2_0": policy.alpha2_0,
            "v_low": policy.v_low,
            "v_acc": policy.v_acc,
            "v_hat": nature.v_hat,
            "q": nature.q,
            "r": nature.r,
            "s": nature.s,
            "regret": regret,
        }
    return _emit(args, "solve", params, results), 0


def _require(args, *options):
    if any(getattr(args, name) is None for name in options):
        flags = " and ".join(f"--{name}" for name in options)
        raise DomainError(f"{flags} {'is' if len(options) == 1 else 'are'} required for {args.sweep}-sweeps")
    unread = {"n": ("n", "ctotal"), "q": ("ctotal",), "delta": ("c", "n"), "ubar": ("ubar", "n", "ctotal")}[args.sweep]
    _reject(args, unread, f"{args.sweep}-sweeps do not read {', '.join('--' + name for name in unread)}")


def _cmd_sweep(args):
    if args.steps < 0:
        raise DomainError(f"--steps must be non-negative, got {args.steps}")
    if args.sweep == "n" and not (args.from_.is_integer() and args.to.is_integer()):
        raise DomainError(f"n-sweep bounds must be whole numbers, got --from {args.from_} --to {args.to}")
    rows = {"n": args.to - args.from_ + 1, "q": args.steps * (args.n or 0)}.get(args.sweep, args.steps)
    if rows > _MAX_SWEEP_ROWS:
        raise SizeError(f"sweep tables limited to {_MAX_SWEEP_ROWS} rows, got {rows:.0f}")
    grid = np.linspace(args.from_, args.to, args.steps) if args.sweep != "n" else None
    if args.sweep == "n":
        if args.regime not in ("indep", "corr"):
            raise DomainError("n-sweeps support the indep and corr regimes")
        _require(args, "ubar", "c")
        columns = ["n", "alpha_n", "regret"] + (["worst_case_P", "optout"] if args.regime == "corr" else [])
        ns = range(int(args.from_), int(args.to) + 1)
        # refuse the first invalid row, --from or the first past the size cap; an empty sweep checks its costs
        for n in (ns[0], min(ns[-1], _MAX_SPEC_BOXES + 1), ns[-1]) if ns else (1,):
            spec = HomogeneousSpec(args.ubar, args.c, n)
        if args.regime == "indep":  # row k of the solve at --to is the k-box solve
            alphas = solve_indep(spec).alphas
            rows = [(k, alphas[k - 1], _minimax_regret(spec.ubar, spec.c, k)) for k in ns]
        else:
            sol = solve_corr_commitment(spec)
            nbar = sol.optout_threshold
            alpha_n = [_first_opening(spec.ubar, spec.c, k) if k < nbar else 0.0 for k in ns]
            rows = [(k, a, sol.regret_per_k[k - 1], sol.worst_case_P[k - 1], k >= nbar) for k, a in zip(ns, alpha_n)]
    elif args.sweep == "q":
        if args.regime != "indep":
            raise DomainError("q-sweeps support the indep regime")
        if args.n is None:
            raise DomainError("--n (maximum menu size) is required for q-sweeps")
        _require(args, "ubar", "c")
        spec = HomogeneousSpec(args.ubar, args.c, args.n)
        columns = ["q", "n", "expected_opened"]
        profiles = [(q, search_count_profile(float(q), spec).values) for q in grid]
        rows = [(q, n, s) for q, values in profiles for n, s in enumerate(values, start=1)]
    elif args.sweep == "delta":
        if args.regime != "het":
            raise DomainError("delta-sweeps support the het regime")
        if args.ctotal is None:
            raise DomainError("--ctotal is required for delta-sweeps")
        _require(args, "ubar")
        columns = ["delta", "open_costlier", "open_cheaper", "total_search"]
        rows = [[r[key] for key in columns] for r in cost_asymmetry_sweep(args.ubar, args.ctotal, grid)]
    else:
        if args.regime != "two-box":
            raise DomainError("ubar-sweeps support the two-box regime")
        _require(args, "c")
        HomogeneousSpec(args.from_, args.c, 2)  # the first row's spec, also when --steps 0 builds no row
        columns = ["ubar", "regime", "alpha2_0", "v_low", "v_hat", "regret"]
        rows = []
        for ubar in grid:
            policy, nature, regret = solve_two_box(HomogeneousSpec(float(ubar), args.c, 2))
            rows.append((ubar, policy.regime, policy.alpha2_0, policy.v_low, nature.v_hat, regret))
    return _emit_table_csv(columns, rows), 0


def _check_policy_file(args, spec) -> SaddleReport:
    """Nature's side only: the worst case of the file's policy against its claimed regret."""
    try:
        with open(args.policy_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        alpha, claimed = payload["alpha"], payload["regret"]
        # JSON numbers only: no bool, no string, no NaN or infinity
        entries = [*alpha, claimed] if isinstance(alpha, list) else [None]
        if not all(type(v) in (int, float) and math.isfinite(v) for v in entries):
            raise ValueError
    except OSError as exc:
        raise DomainError(f"cannot read policy file {args.policy_file}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError, OverflowError):
        raise DomainError(
            f"policy file {args.policy_file} must hold a JSON object with a list of finite numbers"
            " 'alpha' and a finite number 'regret'"
        ) from None
    policy = StationaryPolicy(np.asarray(alpha, dtype=float))
    if args.regime == "indep":
        p_star, worst = nature_best_response_indep(policy, spec)
        belief = IidBinary(p_star)
    else:
        P_star, worst = nature_best_response_needle(policy, spec)
        belief = NeedleP(P_star)
    name = os.path.basename(args.policy_file)
    notes = (f"checked policy file {name}", "dm_gap not priced: a policy file is checked on Nature's side only")
    return SaddleReport(worst - float(claimed), 0.0, belief, args.tol * spec.ubar, notes)


def _cmd_verify(args):
    spec, params = _spec_from(args)
    _require_tolerance(args.tol, "--tol")
    if args.regime != "two-box" and args.grid is not None:
        raise DomainError(f"the {args.regime} regime does not read --grid")
    params["tol"] = args.tol
    if args.regime == "two-box":
        if args.policy_file is not None:
            raise DomainError("--policy-file is not supported for the two-box regime")
        del params["n"]
        params["grid"] = grid = 2001 if args.grid is None else args.grid
        policy, nature, _ = solve_two_box(spec)
        report = verify_two_box(policy, nature, spec, grid_size=grid, tolerance=args.tol)
    elif args.policy_file is not None:
        report = _check_policy_file(args, spec)
    elif args.regime == "indep":
        report = saddle_check_indep(spec, tol=args.tol)
    else:
        mode = "commitment" if args.regime == "corr" else "intrapersonal"
        report = saddle_check_corr(spec, tol=args.tol, mode=mode)
    results = {
        "nature_gap": report.nature_gap,
        "dm_gap": report.dm_gap,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "notes": list(report.notes),
    }
    return _emit(args, "verify", params, results), 0 if report.passed else 3


def _parse_truth(text: str):
    try:
        kind, value = text.split(":")
        value = float(value)
    except ValueError:
        raise DomainError(f"cannot parse truth {text!r}; expected iid:<q> or needle:<P>") from None
    if kind == "iid":
        return IidBinary(value)
    if kind == "needle":
        return NeedleP(value)
    raise DomainError(f"unknown truth kind {kind!r}")


def _cmd_simulate(args):
    spec, params = _spec_from(args)
    solver = solve_indep if args.regime == "indep" else _corr_solver(args.regime)
    result = simulate(solver(spec).policy, _parse_truth(args.truth), spec, args.episodes, args.seed)
    params.update(truth=args.truth, episodes=args.episodes, seed=args.seed)
    results = {
        "episodes": result.episodes,
        "mean_opened": result.mean_opened,
        "se_opened": result.se_opened,
        "mean_regret": result.mean_regret,
        "se_regret": result.se_regret,
        "seed": result.seed,
    }
    return _emit(args, "simulate", params, results), 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robust-pandora", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--ubar", type=float, default=None, help="high reward")
        p.add_argument("--c", type=float, default=None, help="per-box search cost")
        p.add_argument("--n", type=int, default=None, help="number of boxes")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    solve = sub.add_parser("solve", help="solve one regime and print the policy")
    add_common(solve)
    solve.add_argument("--regime", required=True, choices=("indep", "corr", "corr-intra", "het", "interim", "two-box"))
    solve.add_argument("--boxes", default=None, help="heterogeneous boxes as 'u1:c1,u2:c2,...'")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="parameter sweeps as CSV tables")
    add_common(sweep)
    sweep.add_argument("--regime", required=True, choices=("indep", "corr", "het", "two-box"))
    sweep.add_argument("--sweep", required=True, choices=("n", "q", "delta", "ubar"))
    sweep.add_argument("--from", dest="from_", type=float, required=True)
    sweep.add_argument("--to", type=float, required=True)
    sweep.add_argument("--steps", type=int, default=30)
    sweep.add_argument("--ctotal", type=float, default=None, help="total cost for delta-sweeps")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="numerically check a solution's saddle point")
    add_common(verify)
    verify.add_argument("--regime", required=True, choices=("indep", "corr", "corr-intra", "two-box"))
    verify.add_argument("--tol", type=float, default=1e-6, help="gap tolerance in units of ubar")
    verify.add_argument("--grid", type=int, default=None, help="two-box reward pairs per axis (default 2001)")
    verify.add_argument("--policy-file", default=None, help="JSON file with 'alpha' and 'regret' to check")
    verify.set_defaults(func=_cmd_verify)

    sim = sub.add_parser("simulate", help="Monte-Carlo run under an explicit truth")
    add_common(sim)
    sim.add_argument("--regime", required=True, choices=("indep", "corr", "corr-intra"))
    sim.add_argument("--truth", required=True, help="iid:<q> or needle:<P>")
    sim.add_argument("--episodes", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output, status = args.func(args)
    except (DomainError, SizeError, SeedError, ConvergenceError) as exc:
        print(f"robust-pandora: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
