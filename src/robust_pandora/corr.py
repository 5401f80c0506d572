"""Robust search under arbitrarily correlated binary rewards.

Dropping independence hands Nature far more freedom, but her worst case
collapses to a simple structure: at most one box, uniformly placed, holds
the high reward.  Spreading the reward over several boxes would leave the
opt-out regret unchanged while making search cheaper, so Nature never does
it.  Against this "hidden treasure" belief a searching DM grows more
optimistic with every empty box and, under commitment, searches
exhaustively once started.  The initial search probability shrinks with the
menu and hits zero at a finite menu size.

Without commitment the DM reneges: beliefs about the shrinking menu drift
toward "no treasure" and the continuation play under-searches.  The
sophisticated (intrapersonal) solution anticipates this, searches harder at
every stage, and opts out at a smaller menu size.

Where it opts out follows from a Riccati equation.  Let eps = c/ubar and
k = s/eps.  As eps -> 0 the intrapersonal regret R_k / ubar tends to rho(s),
with rho' = 1 - rho^2 / s and rho(0) = 0.  The substitution
rho = s phi'/phi gives s phi'' + phi' - phi = 0, solved by
phi = I_0(2 sqrt(s)), so

    rho(s) = sqrt(s) I_1(2 sqrt(s)) / I_0(2 sqrt(s))

(Abramowitz and Stegun, "Handbook of Mathematical Functions", 1964, 9.6).
The DM refuses where rho reaches 1, that is at z = 2 sqrt(s) with
z I_1(z) = 2 I_0(z): z* = 2.5843996, s* = z*^2/4.  The commitment plan
opts out at about 2 ubar/c boxes, s = 2, so the refusal point is
z*^2/8 = 0.8348902 of the commitment opt-out size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CountProfile,
    DomainError,
    HomogeneousSpec,
    SizeError,
    StationaryPolicy,
    _shown,
    first_success_probabilities,
)

__all__ = [
    "CorrSolution",
    "success_profile",
    "single_treasure_equivalent",
    "optout_menu_size",
    "solve_corr_commitment",
    "solve_corr_intrapersonal",
    "naive_trajectory",
]

# solve_corr_intrapersonal runs its recursion up to the refusal point,
# z*^2/8 = 0.8348902 optout_menu_size, z* = 2.5843996 the root of
# z I_1(z) = 2 I_0(z); only the n requested stages are stored.  Wall time
# and peak RSS (ru_maxrss, interpreter included) at n = 5 on a 2-vCPU
# x86-64 VM: c/ubar = 1e-5 (opt-out menu 199 999) 0.07 s / 29 MB, 1e-6
# (1 999 999) 0.67 s / 29 MB, 1e-7 (19 999 999) 6.0 s / 29 MB.
_MAX_OPTOUT_MENU = 2_000_000


@dataclass(frozen=True)
class CorrSolution:
    """Per-stage solution of the correlated-rewards game.

    ``regret_per_k[k-1]`` and ``worst_case_P[k-1]`` describe the k-box
    problem solved in the requested mode, so the last entries are the
    headline values for the full menu.  ``optout_threshold`` is the smallest
    menu size at which the DM refuses to search.
    """

    policy: StationaryPolicy
    regret_per_k: np.ndarray
    worst_case_P: np.ndarray
    optout_threshold: int

    @property
    def regret(self) -> float:
        return float(self.regret_per_k[-1])

    @property
    def opts_out(self) -> bool:
        return self.policy.n >= self.optout_threshold

    @property
    def searches_up_to(self) -> int:
        """Largest menu size at which search still happens with positive probability."""
        return self.optout_threshold - 1


def success_profile(Q: CountProfile) -> np.ndarray:
    """First-success probabilities q_1..q_n under random opening order.

    Output is weakly decreasing: under any exchangeable belief, early
    openings are at least as likely to strike the high reward as later ones,
    with equality exactly in the single-treasure case.
    """
    return first_success_probabilities(Q.Q)


def single_treasure_equivalent(Q: CountProfile) -> CountProfile:
    """Count profile concentrating the same treasure mass on exactly one box.

    Keeps the probability that at least one box is full, 1 - Q[0], and moves
    all of it to the single-treasure event.  This reallocation never lowers
    the DM's regret, which is what makes the hidden-treasure belief Nature's
    universal worst case.
    """
    flat = np.zeros_like(Q.Q)
    flat[0] = Q.Q[0]
    flat[1] = 1.0 - Q.Q[0]
    return CountProfile(flat)


def optout_menu_size(spec: HomogeneousSpec) -> int:
    """Smallest integer n with n >= (2 ubar - c) / c (boundary opts out).

    Past float range (``c/ubar`` below about 1e-308) the ratio is taken exactly.
    """
    t = (2.0 * spec.ubar - spec.c) / spec.c
    if t == math.inf:  # ceil(a/b / (p/q)) in integers
        (a, b), (p, q) = (2.0 * spec.ubar - spec.c).as_integer_ratio(), spec.c.as_integer_ratio()
        return -(-a * q // (b * p))
    nearest = round(t)
    if abs(t - nearest) < 1e-9 * max(1.0, abs(t)):
        return int(nearest)
    return math.ceil(t)


def _first_opening(ubar, c, k):
    """First-opening probability of the commitment plan with ``k`` boxes, scalar or array."""
    return (ubar - c) / (ubar - c + (k + 1) * c / 2.0)


def solve_corr_commitment(spec: HomogeneousSpec) -> CorrSolution:
    """Ex-ante optimal plan against arbitrary correlation.

    Below the opt-out menu size the DM randomizes only on the first opening,

        alpha_n = (ubar - c) / (ubar - c + (n + 1) c / 2),

    then searches exhaustively; regret is ``n c alpha_n`` and Nature's
    indifferent treasure probability is ``P_n = n c / (ubar + (n - 1) c / 2)``.
    At or beyond the threshold the DM refuses to search and the regret is the
    full net reward ``ubar - c``.
    """
    ubar, c, n = spec.ubar, spec.c, spec.n
    nbar = optout_menu_size(spec)
    ks = np.arange(1, n + 1, dtype=float)
    searching = ks < min(nbar, n + 1)  # nbar may be past float range
    regret_per_k = np.where(searching, (ubar - c) * c * ks / (ubar - c + (ks + 1) * c / 2.0), ubar - c)
    worst_P = np.where(searching, ks * c / (ubar + (ks - 1) * c / 2.0), 1.0)
    alphas = np.ones(n)
    if n >= nbar:
        # stages below n are never reached; pin them for determinism
        alphas[:] = 0.0
    else:
        alphas[n - 1] = _first_opening(ubar, c, n)
    return CorrSolution(
        policy=StationaryPolicy(alphas),
        regret_per_k=regret_per_k,
        worst_case_P=worst_P,
        optout_threshold=nbar,
    )


def solve_corr_intrapersonal(spec: HomogeneousSpec) -> CorrSolution:
    """Backward-induction-consistent plan of a sophisticated DM.

    Stage values follow the recursion (with R_0 = 0)

        alpha_k = k (ubar - c) / (k (ubar - c) + c + R_{k-1}),
        R_k     = k (ubar - c) (c + R_{k-1}) / (k (ubar - c) + c + R_{k-1}),
        P_k     = k (c + R_{k-1}) / (k (ubar - c) + c + R_{k-1}),

    valid while the implied worst case is a probability, i.e. while
    ``c + R_{k-1} <= k/(k-1) (ubar - c)`` (equality included).  Beyond the
    largest such stage the DM opts out: alpha = 0, R = ubar - c, P = 1.
    The recursion runs up to that stage whatever ``n`` is, so a spec whose
    :func:`optout_menu_size` exceeds 2 000 000 (``c/ubar`` below about
    1e-6) raises :class:`SizeError`.
    """
    ubar, c, n = spec.ubar, spec.c, spec.n
    # the refusal point is bounded by the commitment opt-out size; stages
    # past n advance the recursion only to find it
    horizon = optout_menu_size(spec)
    if horizon > _MAX_OPTOUT_MENU:
        raise SizeError(f"intrapersonal recursion limited to opt-out menu sizes of {_MAX_OPTOUT_MENU}, got {_shown(horizon)}")
    alphas = np.zeros(n)
    regret_per_k = np.full(n, ubar - c)
    worst_P = np.ones(n)
    nbar = 0
    prev = 0.0  # R_{k-1}
    for k in range(1, max(n, horizon + 1) + 1):
        if k > 1 and c + prev > k / (k - 1) * (ubar - c):
            break
        denom = k * (ubar - c) + c + prev
        regret = k * (ubar - c) * (c + prev) / denom
        if k <= n:
            alphas[k - 1] = k * (ubar - c) / denom
            regret_per_k[k - 1] = regret
            worst_P[k - 1] = k * (c + prev) / denom
        nbar = k
        prev = regret
    return CorrSolution(
        policy=StationaryPolicy(alphas),
        regret_per_k=regret_per_k,
        worst_case_P=worst_P,
        optout_threshold=nbar + 1,
    )


def naive_trajectory(spec: HomogeneousSpec) -> np.ndarray:
    """Stage probabilities of a DM who re-solves the commitment plan each period.

    Entry ``t`` is the search probability used when ``n - t`` boxes remain,
    i.e. the first-opening probability of the commitment solution for that
    menu size.  Requires a menu below the opt-out threshold; above it the
    whole plan is the single decision not to search.
    """
    nbar = optout_menu_size(spec)
    if spec.n >= nbar:
        raise DomainError(
            f"menu of {spec.n} is at or beyond the opt-out size {nbar}; the naive plan never searches"
        )
    return _first_opening(spec.ubar, spec.c, np.arange(spec.n, 0, -1, dtype=float))
