"""Numerical confirmation of the closed-form solutions.

Every solver in this package claims a saddle point: a policy whose worst
case over beliefs equals a value no deviation can beat.  The checks here
recompute both sides instead of the closed forms: exactly where the regret
is affine in the belief (at its extreme points), with Newton-polished grids
where it is a polynomial, with seeded random policies (scored as array
batches in row blocks) plus a coordinate descent on Python floats on the DM
side of the independent check, with seeded Dirichlet count profiles scored
as array batches, and with plan scans.  They report the two one-sided
gaps:

* ``nature_gap``: best belief deviation found, minus the claimed value
  (positive means Nature can beat the claim);
* ``dm_gap``: claimed value minus the best policy deviation against the
  worst belief (positive means the DM left value on the table).

A saddle point passes when both gaps stay within tolerance.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .core import (
    DomainError,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    SaddleReport,
    SizeError,
    StationaryPolicy,
    StoppingMixture,
    _count_profiles,
    _mixture_regrets,
    _plan_regrets,
    _poly_max,
    _probability_array,
    _regret_indep_alphas,
    _regret_indep_poly,
    regret_needle,
)
from .corr import solve_corr_commitment, solve_corr_intrapersonal
from .indep import solve_indep, weitzman_threshold
from .interim import InterimPolicy, interim_regret

__all__ = [
    "SaddleReport",
    "nature_best_response_indep",
    "nature_best_response_needle",
    "saddle_check_indep",
    "saddle_check_corr",
    "interim_grid_oracle",
]

# Newton's method polishes the best grid point, so finer grids only cost
# memory.  Wall time and peak RSS (ru_maxrss, interpreter included) of
# saddle_check_indep at n = 20 on a 2-vCPU x86-64 VM: 1e6 points 0.05 s /
# 53 MB, 1e7 points 0.74 s / 259 MB.
MAX_GRID_POINTS = 1_000_000

_PROFILE_BLOCK = 1 << 16  # count-profile table or probe entries scored at once, 0.5 MB per float temporary


def _require_count(value, what: str, least: int) -> int:
    """``value`` as an ``int`` if it is an integer (not a bool) of at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise DomainError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def nature_best_response_indep(policy: StationaryPolicy, spec: HomogeneousSpec, grid_points: int = 2001):
    """Worst i.i.d. success probability against a fixed policy.

    The regret is a polynomial of degree ``n`` in ``1 - p``; its best point
    on an even grid over [0, 1] is polished by Newton's method on the
    derivative.  Returns ``(p_star, regret)``.
    """
    grid_points = _require_count(grid_points, "grid_points", 2)
    if grid_points > MAX_GRID_POINTS:
        raise SizeError(f"belief grid limited to {MAX_GRID_POINTS} points, got {grid_points}")
    x, worst = _poly_max(_regret_indep_poly(policy, spec), 0.0, 1.0, grid_points)
    return 1.0 - x, worst


def nature_best_response_needle(policy: StationaryPolicy, spec: HomogeneousSpec):
    """Worst single-treasure probability against a fixed policy.

    The regret is affine in ``P``, so an endpoint is a worst case; returns
    ``(P_star, regret)`` with ``P_star`` 1 only if the value there beats
    the value at 0 by more than 1e-12 (a flat saddle line reports 0).
    """
    values = regret_needle(policy, np.array([0.0, 1.0]), spec)
    P_star = 1 if values[1] > values[0] + 1e-12 else 0
    return float(P_star), float(values[P_star])


def saddle_check_indep(
    spec: HomogeneousSpec,
    tol: float = 1e-6,
    grid_points: int = 2001,
    dm_probes: int = 10_000,
    seed: int = 0,
) -> SaddleReport:
    """Check the independent-rewards solution without using its closed forms.

    Nature's side is :func:`nature_best_response_indep`, a grid over success
    probabilities polished by Newton's method.  The DM's side exploits the
    saddle structure: at the worst-case belief the value must be
    unimprovable, so ``dm_probes`` random policies plus three coordinate
    descent passes (the regret is linear in each stage probability, so
    descent only needs the endpoints) hunt for anything cheaper.  The
    probes are drawn and scored in row blocks of a fixed size, so memory
    does not grow with ``dm_probes``.  A descent trial at stage ``k``
    resumes the backward recursion from the cached regret with ``k - 1``
    boxes left, which the move leaves untouched, so a pass costs O(n^2)
    float operations.
    """
    dm_probes = _require_count(dm_probes, "dm_probes", 1)
    seed = _require_count(seed, "seed", 0)
    sol = solve_indep(spec)
    p_star, worst = nature_best_response_indep(sol.policy, spec, grid_points)
    nature_gap = worst - sol.regret

    # the probes in row blocks (the same stream as one draw), keeping the
    # first of equal minima
    n, ubar, c = spec.n, spec.ubar, spec.c
    rng = np.random.default_rng(seed)
    phat = weitzman_threshold(spec)
    rows = max(1, _PROFILE_BLOCK // n)
    best = math.inf
    for start in range(0, dm_probes, rows):
        probes = rng.random((min(rows, dm_probes - start), n))
        values = _regret_indep_alphas(probes, phat, spec)
        idx = int(np.argmin(values))
        if values[idx] < best:
            best, alphas = float(values[idx]), probes[idx].tolist()

    # coordinate descent on Python floats.  With i + 1 boxes left the regret
    # is R[i + 1] = u[i] + v[i] (c + R[i]), u[i] = (1 - a) (1 - fail^(i+1))
    # (ubar - c) and v[i] = a fail, in the operation order of
    # _regret_indep_alphas; a trial at stage i resumes from R[i], which
    # moving that stage leaves untouched
    fail = 1.0 - _probability_array(phat, "p")
    hit = [float(1.0 - fail**k) for k in range(1, n + 1)]
    fail = float(fail)

    def stage(i, a):
        return (1.0 - a) * hit[i] * (ubar - c), a * fail

    u, v = map(list, zip(*(stage(i, a) for i, a in enumerate(alphas))))
    R = [0.0]
    for ui, vi in zip(u, v):
        R.append(ui + vi * (c + R[-1]))
    for _ in range(3):
        for i in range(n):
            for endpoint in (0.0, 1.0):
                ui, vi = stage(i, endpoint)
                r = ui + vi * (c + R[i])
                for uj, vj in zip(u[i + 1 :], v[i + 1 :]):
                    r = uj + vj * (c + r)
                if r < best:
                    best, u[i], v[i] = r, ui, vi
                    for j in range(i, n):
                        R[j + 1] = u[j] + v[j] * (c + R[j])
    dm_gap = sol.regret - best

    return SaddleReport(
        nature_gap=float(nature_gap),
        dm_gap=float(dm_gap),
        worst_belief=IidBinary(p_star),
        tolerance=tol,
        passed=bool(nature_gap <= tol and dm_gap <= tol),
    )


def saddle_check_corr(
    spec: HomogeneousSpec,
    tol: float = 1e-9,
    q_draws: int = 1000,
    mode: str = "commitment",
    seed: int = 0,
) -> SaddleReport:
    """Check a correlated-rewards solution against belief and plan deviations.

    Nature's deviations cover the single-treasure probabilities (exactly,
    by :func:`nature_best_response_needle`) plus ``q_draws`` seeded
    Dirichlet count profiles and the ``n + 1`` degenerate ones, whose
    flattened versions must dominate them (confirming the hidden-treasure
    reduction).  The profiles and their flattenings are scored as array
    batches in row blocks of a fixed size, so memory does not grow with
    ``q_draws``.  The DM's deviations are every pure stop-after-m plan
    against the worst belief in commitment mode, and every one-step stage
    deviation in intrapersonal mode.
    """
    q_draws = _require_count(q_draws, "q_draws", 0)
    seed = _require_count(seed, "seed", 0)
    if spec.n > 32:
        raise DomainError("count-profile deviation scan is limited to n <= 32")
    if mode == "commitment":
        sol = solve_corr_commitment(spec)
    elif mode == "intrapersonal":
        sol = solve_corr_intrapersonal(spec)
    else:
        raise DomainError(f"unknown mode {mode!r}")

    n = spec.n
    worst_P, worst = nature_best_response_needle(sol.policy, spec)
    nature_gap = worst - sol.regret

    # the draws in row blocks (the same stream as one draw at a time), then
    # the n + 1 vertices; a flattening keeps Q[0] and puts the rest on j = 1
    rng = np.random.default_rng(seed)
    w = StoppingMixture.from_policy(sol.policy).w
    rows = max(1, _PROFILE_BLOCK // (n * (n + 1)))
    draws = (rng.dirichlet(np.ones(n + 1), size=min(rows, q_draws - start)) for start in range(0, q_draws, rows))
    flattening_ok = True
    for Q_raw in itertools.chain(draws, [np.eye(n + 1)]):
        Q = _count_profiles(Q_raw)
        flat = np.zeros_like(Q)
        flat[:, 0] = Q[:, 0]
        flat[:, 1] = 1.0 - Q[:, 0]
        values = _mixture_regrets(w, Q, spec)
        flattening_ok &= not np.any(values > _mixture_regrets(w, flat, spec) + 1e-12)
        nature_gap = max(nature_gap, (values - sol.regret).max())

    if mode == "commitment":
        # every pure stop-after-m plan against the worst needle [1 - P, P, 0, ...]
        needle = np.zeros(n + 1)
        needle[:2] = 1.0 - sol.worst_case_P[-1], sol.worst_case_P[-1]
        dm_gap = sol.regret - _plan_regrets(needle, spec).min()
    else:
        dm_gap = -np.inf
        prev = 0.0
        for k in range(1, n + 1):
            P_k = float(sol.worst_case_P[k - 1])
            stay_out = P_k * (spec.ubar - spec.c)
            open_once = (1.0 - P_k / k) * (spec.c + prev)
            dm_gap = max(dm_gap, float(sol.regret_per_k[k - 1]) - min(stay_out, open_once))
            prev = float(sol.regret_per_k[k - 1])

    notes = () if flattening_ok else ("a correlated profile beat its single-treasure flattening",)
    return SaddleReport(
        nature_gap=float(nature_gap),
        dm_gap=float(dm_gap),
        worst_belief=NeedleP(worst_P),
        tolerance=tol,
        passed=bool(nature_gap <= tol and dm_gap <= tol and flattening_ok),
        notes=notes,
    )


def interim_grid_oracle(spec: HomogeneousSpec, m_range=None, alpha_grid=None, p_grid=None):
    """Brute-force min-max over discretized interim plans.

    Scans every staircase plan on the grids and returns the minimizing
    ``(m, alpha, worst_regret)``; the closed-form solver must land within
    one grid step of this.
    """
    n = spec.n
    if m_range is None:
        m_range = range(n)
    if alpha_grid is None:
        alpha_grid = np.linspace(0.0, 1.0, 1001)
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 2001)
    p_grid = np.asarray(p_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    best = None
    for m in m_range:
        # regret is linear in alpha at every p, so the two endpoint policies
        # span the whole alpha axis
        at_zero = interim_regret(InterimPolicy.from_m_alpha(int(m), 0.0, n), p_grid, spec)
        at_one = interim_regret(InterimPolicy.from_m_alpha(int(m), 1.0, n), p_grid, spec)
        # 64 alpha rows at a time keep each alpha x p table near 1 MB
        blocks = np.split(alpha_grid, range(64, alpha_grid.size, 64))
        worst = np.concatenate([(np.outer(1.0 - a, at_zero) + np.outer(a, at_one)).max(axis=1) for a in blocks])
        idx = int(np.argmin(worst))
        if best is None or worst[idx] < best[2]:
            best = (int(m), float(alpha_grid[idx]), float(worst[idx]))
    return best
