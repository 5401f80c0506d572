"""Numerical confirmation of the closed-form solutions.

Every solver in this package claims a saddle point: a policy whose worst
case over beliefs equals a value no deviation can beat.  The checks here
recompute both sides instead of the closed forms, and sample nothing.
For a fixed policy the regret is linear in Nature's belief, a functional
of a binary belief's tails (``core._regret_terms``), so her best response
over a convex family sits at an extreme point (the needle endpoints, count
profiles 0 and 1, the worst of all count profiles), or, where it is a
polynomial in one belief built in O(n), at its one peak (by Descartes'
rule of signs), bracketed by bisection and found by the interim solver's
Newton search.  Against a fixed belief the DM's best response is a
backward induction or a scan of pure plans.
They report the two one-sided gaps:

* ``nature_gap``: best belief deviation found, minus the claimed value
  (positive means Nature can beat the claim);
* ``dm_gap``: claimed value minus the best policy deviation against the
  worst belief (positive means the DM left value on the table).

A saddle point passes when both gaps stay within tolerance; :class:`SaddleReport`
derives that verdict.
"""

from __future__ import annotations

import numpy as np

from .core import (
    _MAX_COUNT_BOXES,
    DomainError,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    SaddleReport,
    SizeError,
    StationaryPolicy,
    _alphas_for,
    _needle_ends,
    _peak_search,
    _plan_regrets,
    _regret_indep_poly,
    _require_count,
    _require_tolerance,
    _shown,
    _stopping_weights,
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

_P_GRID = np.linspace(0.0, 1.0, 2001)  # interim_grid_oracle's beliefs


def nature_best_response_indep(policy: StationaryPolicy, spec: HomogeneousSpec):
    """Worst i.i.d. success probability against a fixed policy: ``(p_star, regret)``.

    The regret is a polynomial of degree ``n`` in ``x = 1 - p``, built in O(n)
    by :func:`core._regret_indep_poly`; below the top its coefficients are the
    non-negative ``v_i`` of ``core._regret_terms``, so by Descartes' rule of
    signs it rises, then falls, on [0, 1].  A slope >= 0 at ``x = 1`` puts the
    worst case at ``p = 0``, and ``v_0 + ... + v_{n-1}`` rounding to ``v_0`` at
    ``p = 1``.  Otherwise a bisection on the slope's sign over the bit
    patterns of [0, 1], probing ``1/n`` either side of ``1 - c/ubar`` first,
    brackets the peak within a factor ``1 + 2/n`` for :func:`core._peak_search`
    (from far right of the peak a Newton step moves ``x`` by only about ``x/n``).
    """
    coef = _regret_indep_poly(policy, spec)
    terms = coef.tolist()

    def at(x):
        value = slope = half_bend = 0.0
        for a in terms:
            half_bend = half_bend * x + slope
            slope = slope * x + value
            value = value * x + a
        return value, slope, 2.0 * half_bend

    value, slope, _ = at(1.0)
    if slope >= 0.0:
        return 0.0, value
    if terms[-1] + float(coef[1:-1].sum()) == terms[-1]:
        return 1.0, terms[-1]
    lo, x, hi = np.array([0.0, 1.0 - spec.c / spec.ubar, 1.0]).view(np.int64).tolist()
    width = (1 << 52) // spec.n
    probes = [x + width, x - width]
    while hi - lo > 2 * width:
        bits = probes.pop() if probes else (lo + hi) // 2
        if lo < bits < hi:
            lo, hi = (bits, hi) if at(float(np.int64(bits).view(np.float64)))[1] >= 0.0 else (lo, bits)
    lo, x, hi = np.array([lo, x, hi]).view(np.float64).tolist()
    x, worst = _peak_search(at, lo, hi, x if lo < x < hi else hi)
    return 1.0 - x, worst


def nature_best_response_needle(policy: StationaryPolicy, spec: HomogeneousSpec):
    """Worst single-treasure probability against a fixed policy.

    The regret is affine in ``P``, so an endpoint is a worst case; returns
    ``(P_star, regret)`` with ``P_star`` 1 only if the value there beats
    the value at 0 by more than 1e-12 ubar (a flat saddle line reports 0).
    """
    K, treasure, _ = _needle_ends(_stopping_weights(_alphas_for(policy, spec)), spec)
    return _worse_end(K, treasure, spec)


def _worse_end(K, treasure, spec: HomogeneousSpec):
    """``(P_star, regret)`` of the needle ends: 1 only if ``R_1`` beats ``K`` by over 1e-12 ubar, else 0."""
    return (1.0, float(treasure)) if treasure > K + 1e-12 * spec.ubar else (0.0, float(K))


def saddle_check_indep(spec: HomogeneousSpec, tol: float = 1e-6, seed: int = 0) -> SaddleReport:
    """Check the independent-rewards solution without using its closed forms.

    Nature's side is :func:`nature_best_response_indep`, the one peak of the
    regret polynomial.  The DM's side is exact: her best response to the
    worst-case (threshold) belief, an O(n) backward induction, must not beat
    the value.  ``tol`` is in units of ubar: the regret scales with
    ``(ubar, c)``, so both gaps are held to ``tol * ubar``, the report's
    ``tolerance``.  ``seed`` is validated and ignored: nothing is sampled, and
    it stays only so that callers passing it keep working.
    """
    _require_count(seed, "seed", 0)
    tol = _require_tolerance(tol, "tol")
    sol = solve_indep(spec)
    p_star, worst = nature_best_response_indep(sol.policy, spec)

    # backward induction: the regret is linear in each stage probability and
    # R_{k-1} enters with a nonnegative weight, so each stage takes the better
    # pure choice; the branches are regret_indep's recursion at a_k = 0 and 1
    ubar, c = spec.ubar, spec.c
    fail = 1.0 - weitzman_threshold(spec)
    best = 0.0
    for k in range(1, spec.n + 1):
        best = min((1.0 - fail**k) * (ubar - c), fail * (c + best))
    return SaddleReport(worst - sol.regret, sol.regret - best, IidBinary(p_star), tol * ubar)


def saddle_check_corr(
    spec: HomogeneousSpec,
    tol: float = 1e-9,
    mode: str = "commitment",
    seed: int = 0,
) -> SaddleReport:
    """Check a correlated-rewards solution against belief and plan deviations.

    Nature's adversary class is all count profiles, reduced exactly to
    vertices 0 and 1, the needle endpoints of
    :func:`nature_best_response_needle`, scored once.  The regret is linear
    in the profile, so one of the ``n + 1`` vertices is worst; for j >= 1
    vertex j's tails ``C(n - j, i) / C(n, i)`` do not rise with j and weigh
    in non-negatively (``core._regret_terms``), so no vertex j >= 2 beats
    vertex 1 (the hidden-treasure lemma, bit for bit: each step is a
    correctly rounded, monotone operation on non-negative numbers).  The
    DM's deviations are every pure stop-after-m plan against the worst
    belief in commitment mode, and every one-step stage deviation in
    intrapersonal mode.  All of it is O(n).  ``tol`` is in units of ubar:
    both gaps are held to ``tol * ubar``, the report's ``tolerance``.
    ``seed`` is validated and ignored: nothing is sampled, and it stays only
    so that callers passing it keep working.
    """
    _require_count(seed, "seed", 0)
    tol = _require_tolerance(tol, "tol")
    if mode == "commitment":
        sol = solve_corr_commitment(spec)
    elif mode == "intrapersonal":
        sol = solve_corr_intrapersonal(spec)
    else:
        raise DomainError(f"unknown mode {_shown(mode)}")

    n = spec.n
    K, treasure, row = _needle_ends(_stopping_weights(sol.policy.alphas), spec)
    worst_P, _ = _worse_end(K, treasure, spec)
    nature_gap = np.maximum(K, treasure) - sol.regret  # a NaN end makes a NaN gap

    if mode == "commitment":
        # every pure stop-after-m plan against the worst needle [1 - P, P, 0, ...],
        # whose tails are P T[1, i]
        dm_gap = sol.regret - _plan_regrets(sol.worst_case_P[-1] * row, spec).min()
    else:
        # at k boxes, stay out or open once and continue at k - 1 boxes
        P, regret = sol.worst_case_P, sol.regret_per_k
        open_once = (1.0 - P / np.arange(1, n + 1)) * (spec.c + np.append(0.0, regret[:-1]))
        dm_gap = (regret - np.minimum(P * (spec.ubar - spec.c), open_once)).max()

    return SaddleReport(nature_gap, dm_gap, NeedleP(worst_P), tol * spec.ubar)


def interim_grid_oracle(spec: HomogeneousSpec):
    """Exact min-max over interim plans ``(m, alpha)`` against the beliefs of ``_P_GRID``.

    At every ``p`` the regret is linear in ``alpha``, so for each ``m`` the
    worst regret is the upper envelope of one line per grid point: convex
    and piecewise linear in ``alpha``, with its minimum where two lines
    cross.  Returns the minimizing ``(m, alpha, worst_regret)``.  It calls
    neither ``solve_interim`` nor its polynomial maximizer: the grid is its
    only approximation.  More than 5 000 boxes raise :class:`SizeError`.
    """
    n = spec.n
    if n > _MAX_COUNT_BOXES:
        raise SizeError(f"interim grid oracle limited to {_MAX_COUNT_BOXES} boxes, got {_shown(n)}")
    best = None
    for m in range(n):
        at_zero = interim_regret(InterimPolicy(m, 0.0, n), _P_GRID, spec)
        slope = interim_regret(InterimPolicy(m, 1.0, n), _P_GRID, spec) - at_zero

        def active(alpha):
            return int(np.argmax(at_zero + alpha * slope))

        lo, hi = 0.0, 1.0
        i, j = active(lo), active(hi)
        alpha = lo if slope[i] > 0.0 else hi
        # bisect on the sign of the active line's slope: while slope[i] <= 0 <
        # slope[j] a minimum lies in [lo, hi], at the crossing of lines i and j
        # once no other line is above them there
        while slope[i] <= 0.0 < slope[j]:
            alpha = min(max(float((at_zero[i] - at_zero[j]) / (slope[j] - slope[i])), lo), hi)
            if active(alpha) in (i, j) or hi - lo <= 1e-12:
                break
            mid = 0.5 * (lo + hi)
            k = active(mid)
            if slope[k] > 0.0:
                hi, j = mid, k
            else:
                lo, i = mid, k
        worst = float((at_zero + alpha * slope).max())
        if best is None or worst < best[2]:
            best = (m, alpha, worst)
    return best
