"""Closed-form robust search rule for independent binary rewards.

With i.i.d. rewards the worst case pins Nature to the single success
probability that makes searching a fair bet, ``p_hat = c / ubar``.  The DM
in turn randomizes between opening one more box and quitting, with a search
probability that shrinks as the menu grows: the model's basic choice-overload
prediction.  The commitment plan and the no-commitment (intrapersonal)
equilibrium coincide here, so one solver covers both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, HomogeneousSpec, StationaryPolicy

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
    the true process is i.i.d. with success rate ``q_true``.
    """

    q_true: float
    values: np.ndarray
    argmax_n: int

    @property
    def has_interior_max(self) -> bool:
        return 1 < self.argmax_n < self.values.size


def weitzman_threshold(spec: HomogeneousSpec) -> float:
    """Success probability at which a Bayesian is indifferent about opening."""
    return spec.c / spec.ubar


def _alpha_star(ks: np.ndarray, ubar: float, c: float) -> np.ndarray:
    # n (ubar-c)^n / ((n-1) (ubar-c)^n + ubar^n), numerically stabilized by
    # pulling out ubar^n to avoid overflow for large n
    ratio = ((ubar - c) / ubar) ** ks
    return ks * ratio / ((ks - 1) * ratio + 1.0)


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
    regret = (1.0 - ((spec.ubar - spec.c) / spec.ubar) ** spec.n) * (spec.ubar - spec.c)
    return IndepSolution(
        policy=StationaryPolicy(alphas),
        regret=float(regret),
        worst_case_p=weitzman_threshold(spec),
    )


def expected_search_count(q: float, n: int, spec: HomogeneousSpec) -> float:
    """Expected number of boxes the robust rule opens against an i.i.d. truth.

    Evaluates S(k) = alpha_k (1 + (1 - q) S(k-1)) upward from S(0) = 0; the
    policy is re-solved at each remaining-box count, so the stage behavior
    does not depend on the menu size ``n`` except through the starting point.
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    if n < 1:
        raise DomainError("n must be at least 1")
    alphas = _alpha_star(np.arange(1, n + 1, dtype=float), spec.ubar, spec.c)
    s = 0.0
    for k in range(1, n + 1):
        s = alphas[k - 1] * (1.0 + (1.0 - q) * s)
    return float(s)


def search_count_profile(q: float, n_max: int, spec: HomogeneousSpec) -> SearchCountProfile:
    """Table of expected opened-box counts for menu sizes 1..n_max."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    alphas = _alpha_star(np.arange(1, n_max + 1, dtype=float), spec.ubar, spec.c)
    values = np.empty(n_max)
    s = 0.0
    for k in range(1, n_max + 1):
        s = alphas[k - 1] * (1.0 + (1.0 - q) * s)
        values[k - 1] = s
    values.flags.writeable = False
    return SearchCountProfile(q_true=q, values=values, argmax_n=int(np.argmax(values)) + 1)


def eu_benchmark(p: float, spec: HomogeneousSpec, search_at_indifference: bool = True) -> StationaryPolicy:
    """Expected-utility benchmark policy for a known success probability.

    Search exhaustively (until a success) when ``p`` exceeds the indifference
    belief, never search below it.  At exact indifference any behavior is
    optimal; the default resolves the tie toward searching.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p!r}")
    phat = weitzman_threshold(spec)
    if p > phat or (p == phat and search_at_indifference):
        return StationaryPolicy(np.ones(spec.n))
    return StationaryPolicy(np.zeros(spec.n))
