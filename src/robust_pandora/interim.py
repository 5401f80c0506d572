"""Search rules when regret is measured against a distribution-aware oracle.

The ex-post benchmark punishes the DM both for searching the wrong amount
and for searching in the wrong order.  Scoring instead against an oracle
who knows only the success probability (not the realizations) removes the
order component: only search intensity matters.  The optimal plan then
takes a threshold form, searching ``m`` boxes for sure and randomizing on
one more, and ``m`` grows with the menu: with selection error gone, bigger
menus raise the fear of missing out and push toward more search, the
opposite of the ex-post prediction.  :func:`solve_interim` finds the
coin-flip weight, and the worst belief behind it, by Newton's method.

Searching up to ``k`` boxes at success rate ``p`` pays the geometric sum
``U(p, k) = (p ubar - c) sum_{j<k} (1 - p)^j``, evaluated in closed form as
``(p ubar - c) (-expm1(k log1p(-p)) / p)``, with the sum ``k`` at ``p = 0``.
The same sum prices every plan on the solver's belief grid, at O(1) per
belief.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _MAX_COUNT_BOXES,
    _MAX_SPEC_BOXES,
    _NEWTON_STEPS,
    ConvergenceError,
    DomainError,
    HomogeneousSpec,
    SizeError,
    _poly_max,
    _probability_array,
    _require_count,
    _shown,
    as_probability,
)
from .indep import weitzman_threshold

__all__ = [
    "InterimPolicy",
    "InterimReport",
    "exhaustive_utility",
    "interim_regret",
    "solve_interim",
    "interim_two_box_intrapersonal",
]

@dataclass(frozen=True)
class InterimPolicy:
    """Threshold plan: open ``m`` of the ``n`` boxes for sure, one more with probability ``alpha``."""

    m: int
    alpha: float
    n: int

    def __post_init__(self):
        n = _require_count(self.n, "n", 1)
        if _require_count(self.m, "m", 0) >= n:
            raise DomainError(f"m must be a whole number in 0..{_shown(n - 1)}, got {_shown(self.m)}")
        object.__setattr__(self, "alpha", as_probability(self.alpha, "alpha"))


@dataclass(frozen=True)
class InterimReport:
    """Solved interim plan with its equalization diagnostics."""

    policy: InterimPolicy
    regret: float
    worst_p_high: float
    residual: float
    degenerate_tie: bool = False


def _geometric(p: np.ndarray, k: int) -> np.ndarray:
    """``sum_{j<k} (1 - p)^j`` in the closed form of the module docstring, entrywise over the array ``p``."""
    if k == 0:  # not 0 * log1p(-1), which is NaN at p = 1
        return np.zeros_like(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, -np.expm1(k * np.log1p(-p)) / p, float(k))


def _utility(p: np.ndarray, k: int, spec: HomogeneousSpec) -> np.ndarray:
    """``U(p, k)`` in the closed form of the module docstring, entrywise over the array ``p``."""
    return (p * spec.ubar - spec.c) * _geometric(p, k)


def exhaustive_utility(p, n: int, spec: HomogeneousSpec):
    """Expected payoff ``U(p, n)`` of searching up to ``n`` boxes, stopping on success; ``p`` may be an array.

    More boxes than a homogeneous spec allows (10 000 000) raise :class:`SizeError`.
    """
    n = _require_count(n, "n", 1)
    if n > _MAX_SPEC_BOXES:
        raise SizeError(f"search lengths limited to {_MAX_SPEC_BOXES} boxes, got {_shown(n)}")
    out = _utility(_probability_array(p, "p"), n, spec)
    return float(out) if out.ndim == 0 else out


def interim_regret(policy: InterimPolicy, p, spec: HomogeneousSpec):
    """Exact interim regret of a threshold plan at success probability ``p``.

    The oracle earns ``max(U(p, n), 0)``; the DM searches ``m`` boxes, or
    ``m + 1`` with probability ``alpha``, and earns
    ``(1 - alpha) U(p, m) + alpha U(p, m + 1)``, with ``U(p, 0) = 0``.
    ``p`` may be scalar or an array.
    """
    n, m, alpha = spec.n, policy.m, policy.alpha
    if policy.n != n:
        raise DomainError(f"policy has {_shown(policy.n)} stages but spec has n={n}")
    p = _probability_array(p, "p")
    dm = (1.0 - alpha) * _utility(p, m, spec) + alpha * _utility(p, m + 1, spec)
    out = np.maximum(_utility(p, n, spec), 0.0) - dm
    return float(out) if out.ndim == 0 else out


class _HighBranch:
    """The worst high-belief regret of any plan ``(m, alpha)`` on one spec, for one solve.

    The branch is the polynomial ((1 - alpha) x^m + sum_{i=m+1..n-1} x^i)
    ((ubar - c) - ubar x), the regret at p = 1 - x, over x in [0, 1 - p_hat].
    On a 2001-point grid its tail sum is ``x^(m+1)`` times
    :func:`_geometric`, the sum inside :func:`_utility`, exactly 0 when the
    tail is empty; the grid's best point starts the polish of
    :func:`core._poly_max` on the coefficients.
    """

    def __init__(self, spec: HomogeneousSpec):
        self.spec = spec
        self.xs = np.linspace(0.0, 1.0 - weitzman_threshold(spec), 2001)
        self.memo = {}

    def _coef(self, m: int, alpha: float) -> np.ndarray:
        n, ubar, c = self.spec.n, self.spec.ubar, self.spec.c
        weights = np.zeros(n)  # x^(n-1), ..., x^0
        weights[: n - m - 1] = 1.0
        weights[n - m - 1] = 1.0 - alpha
        return np.convolve(weights, (-ubar, ubar - c))

    def maximize(self, m: int, alpha: float):
        """Worst high-belief regret of the plan with its argmax in ``x = 1 - p``: ``(x_star, value)``."""
        if (m, alpha) not in self.memo:
            n, ubar, c, xs = self.spec.n, self.spec.ubar, self.spec.c, self.xs
            powers = (1.0 - alpha) * xs**m + xs ** (m + 1) * _geometric(1.0 - xs, n - m - 1)
            self.memo[m, alpha] = _poly_max(self._coef(m, alpha), xs, powers * ((ubar - c) - ubar * xs))
        return self.memo[m, alpha]


def solve_interim(spec: HomogeneousSpec) -> InterimReport:
    """Commitment plan minimizing worst-case interim regret.

    Picks the largest ``m`` whose sure-search cost still falls short of the
    worst high-belief regret left after those ``m`` boxes (the shortfall
    shrinks as ``m`` grows, so a bisection finds it in O(log n)
    maximizations; ``degenerate_tie`` flags a shortfall within 1e-12 of zero
    on either side of the crossing), then solves for
    the randomization weight at which the no-reward branch (regret
    ``(m + alpha) c``) equals the maximized high-belief branch.  That
    maximum is convex in ``alpha`` (a maximum of affine functions), so the
    residual is concave and increasing, and Newton's method from
    ``alpha = 0`` rises monotonically to the root.  Its slope comes from the
    envelope theorem: ``c + (1 - p*)^m (p* ubar - c)`` at the branch's
    argmax ``p*``.  The bisection and Newton's method share one grid, on
    which each plan's branch costs O(1) per belief, and a memo of finished
    maximizations, both dropped when the solve returns.  More than 5 000
    boxes raise :class:`SizeError`.
    """
    n, ubar, c = spec.n, spec.ubar, spec.c
    if n > _MAX_COUNT_BOXES:
        raise SizeError(f"interim solver limited to {_MAX_COUNT_BOXES} boxes, got {_shown(n)}")

    # g(cand) = cand c - tail(cand) rises with cand: the high-belief factor
    # (ubar - c) - ubar x is >= 0 on the branch, so tail sums fewer
    # nonnegative powers as cand grows; bisect for the largest g < 0
    branch = _HighBranch(spec)
    g = {}
    lo, hi = -1, n  # g(lo) < 0 <= g(hi), the ends standing for -inf and +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g[mid] = mid * c - branch.maximize(mid, 1.0)[1]
        if g[mid] < 0:
            lo = mid
        else:
            hi = mid
    m = max(lo, 0)
    # a tie next to the crossing: the run of |g| < 1e-12 reaches lo or hi
    degenerate = any(abs(g[cand]) < 1e-12 for cand in (lo, hi) if cand in g)

    def residual_at(m: int, alpha: float):
        x_star, worst = branch.maximize(m, alpha)
        return (m + alpha) * c - worst, x_star

    # the largest-m rule can land one segment short: if even alpha = 1 leaves
    # the high-belief branch dominant, the branches cross while the next box
    # is the randomized one
    hi_res, _ = residual_at(m, 1.0)
    if m < n - 1 and hi_res < 0.0:
        m += 1
        hi_res, _ = residual_at(m, 1.0)
    alpha = 0.0
    res, x_star = residual_at(m, alpha)
    if res > 0.0 or hi_res < 0.0:
        raise ConvergenceError(f"no equalizing randomization in [0, 1] at m={m} (endpoints {res:.3e}, {hi_res:.3e})")
    for _ in range(_NEWTON_STEPS):
        slope = c + x_star**m * ((ubar - c) - ubar * x_star)
        nxt = min(alpha - res / slope, 1.0)
        if not nxt > alpha:
            break
        alpha = nxt
        res, x_star = residual_at(m, alpha)
    if abs(res) > 1e-9:
        raise ConvergenceError(f"equalization residual {res:.3e} after Newton's method")
    policy = InterimPolicy(m, alpha, n)
    return InterimReport(
        policy=policy,
        regret=(m + alpha) * c,
        worst_p_high=1.0 - x_star,
        residual=abs(res),
        degenerate_tie=degenerate,
    )


def interim_two_box_intrapersonal(spec: HomogeneousSpec):
    """Stage search probabilities of a sophisticated DM under interim regret.

    Two boxes, no commitment: the single-box stage equalizes the no-reward
    and sure-reward scenarios exactly as in the ex-post problem, and the
    first stage then solves alpha_2 = (ubar - c) / (ubar + alpha_1 c).  The
    first move is strictly less likely than the second, the overload pattern
    again.
    """
    ubar, c = spec.ubar, spec.c
    alpha_1 = (ubar - c) / ubar
    alpha_2 = (ubar - c) / (ubar + alpha_1 * c)
    return alpha_1, alpha_2
