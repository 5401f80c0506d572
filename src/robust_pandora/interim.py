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
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import _NEWTON_STEPS, ConvergenceError, DomainError, HomogeneousSpec, _poly_max, _probability_array
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
    """Threshold plan: open ``m`` of the ``n`` boxes for sure, one more with probability ``alpha``.

    ``phi[j - 1]`` is the probability that at least ``n - j + 1`` boxes get
    opened (absent an early success), so the vector is a monotone staircase:
    zeros, then ``alpha``, then ones.
    """

    m: int
    alpha: float
    n: int
    phi: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        whole = isinstance(self.m, numbers.Integral) and isinstance(self.n, numbers.Integral)
        if not whole or not 0 <= self.m <= self.n - 1:
            raise DomainError(f"m must be a whole number in 0..{self.n - 1}, got {self.m!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        phi = np.zeros(self.n)
        phi[self.n - self.m - 1] = self.alpha
        phi[self.n - self.m :] = 1.0
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_m_alpha(cls, m: int, alpha: float, n: int) -> "InterimPolicy":
        return cls(m, alpha, n)


@dataclass(frozen=True)
class InterimReport:
    """Solved interim plan with its equalization diagnostics."""

    policy: InterimPolicy
    regret: float
    worst_p_high: float
    residual: float
    degenerate_tie: bool = False


def exhaustive_utility(p: float, n: int, spec: HomogeneousSpec) -> float:
    """Expected payoff of searching up to ``n`` boxes, stopping on success."""
    if n < 1:
        raise DomainError("n must be at least 1")
    p = _probability_array(p, "p")
    ubar, c = spec.ubar, spec.c
    i = np.arange(1, n + 1)
    return float(np.sum(p * (1 - p) ** (i - 1) * (ubar - i * c)) - (1 - p) ** n * n * c)


def _utilities_upto(p, n: int, spec: HomogeneousSpec):
    """U(p, k) for k = 1..n, vectorized over p; U(p, k+1) - U(p, k) telescopes."""
    p = np.asarray(p, dtype=float)
    ubar, c = spec.ubar, spec.c
    increments = np.empty((n, *p.shape))
    increments[0] = p * ubar - c
    for j in range(1, n):
        increments[j] = (1 - p) ** j * (p * ubar - c)
    return np.cumsum(increments, axis=0)


def interim_regret(policy: InterimPolicy, p, spec: HomogeneousSpec):
    """Exact interim regret of a threshold plan at success probability ``p``.

    The oracle earns ``max(U(p, n), 0)``; the DM earns the mixture of
    ``U(p, k)`` over her realized search depth.  ``p`` may be scalar or an
    array.
    """
    n = spec.n
    if policy.n != n:
        raise DomainError(f"policy has {policy.n} stages but spec has n={n}")
    p = _probability_array(p, "p")
    U = _utilities_upto(p, n, spec)
    phi = policy.phi
    oracle = np.maximum(U[n - 1], 0.0)
    dm = phi[0] * U[n - 1]
    for k in range(1, n):
        dm = dm + (phi[n - k] - phi[n - k - 1]) * U[k - 1]
    out = oracle - dm
    return float(out) if out.ndim == 0 else out


def _high_branch(m: int, alpha: float, spec: HomogeneousSpec):
    """Worst high-belief regret of the plan (m, alpha), with its argmax in ``x = 1 - p``.

    Maximizes the polynomial ((1 - alpha) x^m + sum_{i=m+1..n-1} x^i)
    ((ubar - c) - ubar x), the regret at p = 1 - x, over p >= p_hat, that
    is x in [0, 1 - p_hat]; returns ``(x_star, value)``.
    """
    n, ubar, c = spec.n, spec.ubar, spec.c
    weights = np.zeros(n)  # x^(n-1), ..., x^0
    weights[: n - m - 1] = 1.0
    weights[n - m - 1] = 1.0 - alpha
    return _poly_max(np.convolve(weights, (-ubar, ubar - c)), 0.0, 1.0 - weitzman_threshold(spec), 2001)


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
    argmax ``p*``.
    """
    n, ubar, c = spec.n, spec.ubar, spec.c

    # g(cand) = cand c - tail(cand) rises with cand: the high-belief factor
    # (ubar - c) - ubar x is >= 0 on the branch, so tail sums fewer
    # nonnegative powers as cand grows; bisect for the largest g < 0
    g = {}
    lo, hi = -1, n  # g(lo) < 0 <= g(hi), the ends standing for -inf and +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g[mid] = mid * c - _high_branch(mid, 1.0, spec)[1]
        if g[mid] < 0:
            lo = mid
        else:
            hi = mid
    m = max(lo, 0)
    # a tie next to the crossing: the run of |g| < 1e-12 reaches lo or hi
    degenerate = any(abs(g[cand]) < 1e-12 for cand in (lo, hi) if cand in g)

    def residual_at(m: int, alpha: float):
        x_star, worst = _high_branch(m, alpha, spec)
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
    policy = InterimPolicy.from_m_alpha(m, alpha, n)
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
