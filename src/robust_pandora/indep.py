"""Closed-form robust search rule for independent binary rewards.

With i.i.d. rewards the worst case pins Nature to the single success
probability that makes searching a fair bet, ``p_hat = c / ubar``.  The DM
in turn randomizes between opening one more box and quitting, with a search
probability that shrinks as the menu grows: the model's basic choice-overload
prediction.  The commitment plan and the no-commitment (intrapersonal)
equilibrium coincide in value here, so one solver covers both.  At ``p_hat``
every stopping mixture is a best response, so the minimax rules form a set;
the rule returned is its dynamically consistent selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HomogeneousSpec, StationaryPolicy, as_probability

__all__ = [
    "IndepSolution",
    "SearchCountProfile",
    "weitzman_threshold",
    "solve_indep",
    "expected_search_count",
    "search_count_profile",
    "eu_benchmark",
]


@dataclass(frozen=True)
class IndepSolution:
    """Saddle-point policy, regret, and worst-case belief for i.i.d. rewards."""

    policy: StationaryPolicy
    regret: float
    worst_case_p: float

    @property
    def alphas(self) -> np.ndarray:
        return self.policy.alphas


@dataclass(frozen=True)
class SearchCountProfile:
    """Expected number of opened boxes as the menu size varies.

    ``values[i]`` is the expected count with ``i + 1`` boxes available when
    the true process is i.i.d. with the success rate given to
    :func:`search_count_profile`.
    """

    values: np.ndarray
    argmax_n: int


def weitzman_threshold(spec: HomogeneousSpec) -> float:
    """Success probability at which a Bayesian is indifferent about opening."""
    return spec.c / spec.ubar


def _alpha_star(ks: np.ndarray, ubar: float, c: float) -> np.ndarray:
    # n (ubar-c)^n / ((n-1) (ubar-c)^n + ubar^n), numerically stabilized by
    # pulling out ubar^n to avoid overflow for large n
    ratio = ((ubar - c) / ubar) ** ks
    return ks * ratio / ((ks - 1) * ratio + 1.0)


def _minimax_regret(ubar: float, c: float, n: int) -> float:
    # Python's scalar power: numpy's array power can differ from it in the last bit
    return (1.0 - ((ubar - c) / ubar) ** n) * (ubar - c)


def solve_indep(spec: HomogeneousSpec) -> IndepSolution:
    """Minimax-regret policy for independently distributed binary rewards.

    With ``k`` boxes remaining the DM searches with probability

        alpha_k = k (ubar - c)^k / ((k - 1) (ubar - c)^k + ubar^k),

    against the worst-case belief ``p_hat = c / ubar``, guaranteeing regret
    ``(1 - ((ubar - c)/ubar)^n) (ubar - c)``.  The same plan is the unique
    dynamically consistent optimum, so no commitment flag is needed.
    """
    ks = np.arange(1, spec.n + 1, dtype=float)
    alphas = _alpha_star(ks, spec.ubar, spec.c)
    return IndepSolution(
        policy=StationaryPolicy(alphas),
        regret=_minimax_regret(spec.ubar, spec.c, spec.n),
        worst_case_p=weitzman_threshold(spec),
    )


def expected_search_count(q: float, spec: HomogeneousSpec) -> float:
    """Expected number of boxes the robust rule opens against an i.i.d. truth.

    The last entry of :func:`search_count_profile`: the full menu of ``spec.n`` boxes.
    """
    return float(search_count_profile(q, spec).values[-1])


def search_count_profile(q: float, spec: HomogeneousSpec) -> SearchCountProfile:
    """Table of expected opened-box counts for menu sizes 1..spec.n.

    Evaluates S(k) = alpha_k (1 + (1 - q) S(k-1)) upward from S(0) = 0; the
    policy is re-solved at each remaining-box count, so the stage behavior
    does not depend on the menu size except through the starting point.
    """
    q = as_probability(q, "q")
    n = spec.n
    alphas = _alpha_star(np.arange(1, n + 1, dtype=float), spec.ubar, spec.c)
    values = np.empty(n)
    s = 0.0
    for k in range(1, n + 1):
        s = alphas[k - 1] * (1.0 + (1.0 - q) * s)
        values[k - 1] = s
    values.flags.writeable = False
    return SearchCountProfile(values=values, argmax_n=int(np.argmax(values)) + 1)


def eu_benchmark(p: float, spec: HomogeneousSpec) -> StationaryPolicy:
    """Expected-utility benchmark policy for a known success probability.

    Search exhaustively (until a success) when ``p`` reaches the indifference
    belief, never search below it.  At exact indifference any behavior is
    optimal; the tie goes to searching.
    """
    p = as_probability(p, "p")
    if p >= weitzman_threshold(spec):
        return StationaryPolicy(np.ones(spec.n))
    return StationaryPolicy(np.zeros(spec.n))
