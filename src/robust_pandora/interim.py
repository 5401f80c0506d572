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
The same sum prices every plan on the solver's belief grid, and its
derivatives polish each grid maximum in O(1) steps at any menu size.
"""

from __future__ import annotations

import math
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


def _geometric(p: np.ndarray, lp: np.ndarray, k: int) -> np.ndarray:
    """``sum_{j<k} (1 - p)^j`` in the closed form of the module docstring, entrywise, given ``lp = log1p(-p)``."""
    if k == 0:  # not 0 * log1p(-1), which is NaN at p = 1
        return np.zeros_like(p)
    return np.divide(np.expm1(k * lp), -p, out=np.full_like(p, float(k)), where=p > 0.0)


def _utility(p: np.ndarray, k: int, spec: HomogeneousSpec) -> np.ndarray:
    """``U(p, k)`` in the closed form of the module docstring, entrywise over the array ``p``."""
    with np.errstate(divide="ignore"):
        lp = np.log1p(-p)
    return (p * spec.ubar - spec.c) * _geometric(p, lp, k)


def _geometric_slopes(x: float, k: int):
    """``G = sum_{j<k} x^j``, ``G'`` and ``G''`` at a Python float ``x`` in [0, 1], with ``p = 1 - x``.

    ``G = (1 - x^k) / p``, ``G' = (G - k x^(k-1)) / p`` and ``G'' = (2 G' - k
    (k-1) x^(k-2)) / p``, except below ``k p = 0.05``, where these quotients
    cancel: there the ``d``-th derivative is its series ``d! sum_i C(k,
    i+d+1) C(i+d, d) (-p)^i``, whose terms fall at least 25-fold each.
    """
    p = 1.0 - x
    if k * p < 0.05:
        out = []
        for d in range(3):
            term, total, i = float(math.comb(k, d + 1) * math.factorial(d)), 0.0, 0
            while abs(term) > 1e-17 * abs(total):
                total += term
                term *= -p * (k - i - d - 1) * (i + d + 1) / ((i + d + 2) * (i + 1))
                i += 1
            out.append(total)
        return tuple(out)
    g = -math.expm1(k * math.log(x)) / p if x > 0.0 else 1.0
    g1 = (g - k * x ** (k - 1)) / p
    return g, g1, (2.0 * g1 - (k * (k - 1) * x ** (k - 2) if k > 1 else 0.0)) / p


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

    At ``x = 1 - p`` in [0, 1 - p_hat] the branch is ``B = A L``, with ``A =
    (1 - alpha) x^m + x^(m+1) G``, ``G = sum_{j<n-m-1} x^j`` and ``L = (ubar -
    c) - ubar x``.  On a 2001-point grid each ``m``'s factors ``x^m L`` and
    ``x^(m+1) G L`` (by :func:`_geometric`) are built once, so a plan's grid
    is two array operations.  Its best point starts Newton's method on
    ``B'`` in the two grid cells around it, O(1) per step: a step that
    leaves the cells, or a point where ``B''`` is not negative, halves them
    on the sign of ``B'`` instead, and the steps end once they stop
    shrinking.  Factors and maximizations are kept for the branch's life.
    """

    def __init__(self, spec: HomogeneousSpec):
        self.spec = spec
        self.xs = np.linspace(0.0, 1.0 - weitzman_threshold(spec), 2001)
        self.p = 1.0 - self.xs
        with np.errstate(divide="ignore"):
            self.lp = np.log1p(-self.p)
        self.loss = (spec.ubar - spec.c) - spec.ubar * self.xs
        self.factors = {}
        self.memo = {}

    def _at(self, m: int, alpha: float, x: float):
        """``(B, B', B'')`` at the Python float ``x``, from ``A = x^m h`` with ``h = (1 - alpha) + x G``."""
        ubar, c = self.spec.ubar, self.spec.c
        g, g1, g2 = _geometric_slopes(x, self.spec.n - m - 1)
        h, h1, h2 = 1.0 - alpha + x * g, g + x * g1, 2.0 * g1 + x * g2
        s, s1 = x**m, m * x ** (m - 1) if m else 0.0
        s2 = m * (m - 1) * x ** (m - 2) if m > 1 else 0.0
        a, a1 = s * h, s1 * h + s * h1
        loss = (ubar - c) - ubar * x
        return a * loss, a1 * loss - ubar * a, (s2 * h + 2.0 * s1 * h1 + s * h2) * loss - 2.0 * ubar * a1

    def maximize(self, m: int, alpha: float):
        """Worst high-belief regret of the plan with its argmax in ``x = 1 - p``: ``(x_star, value)``."""
        if (m, alpha) not in self.memo:
            xs = self.xs
            if m not in self.factors:
                head = np.exp(m * self.lp) * self.loss if m else self.loss
                self.factors[m] = head, head * xs * _geometric(self.p, self.lp, self.spec.n - m - 1)
            head, tail = self.factors[m]
            values = tail if alpha == 1.0 else (1.0 - alpha) * head + tail
            best = int(values.argmax())
            lo, hi = float(xs[max(best - 1, 0)]), float(xs[min(best + 1, xs.size - 1)])
            x, last = float(xs[best]), math.inf
            value, slope, bend = self._at(m, alpha, x)
            for _ in range(_NEWTON_STEPS):
                if slope == 0.0:
                    break
                lo, hi = (x, hi) if slope > 0.0 else (lo, x)
                delta = slope / bend if bend < 0.0 else math.nan
                if lo < x - delta < hi and abs(delta) < last:
                    x, last = x - delta, abs(delta)
                elif bend < 0.0 and last < math.inf:
                    break  # the steps stopped shrinking or rounded past the cells: rounding drives them now
                else:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:
                        break
                    x, last = mid, math.inf
                value, slope, bend = self._at(m, alpha, x)
            grid = float(values[best])
            self.memo[m, alpha] = (x, value) if value >= grid else (float(xs[best]), grid)
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
    argmax ``p*``.  The bisection and Newton's method share one grid, each
    ``m``'s grid factors and a memo of finished maximizations, all dropped
    when the solve returns.  More than 5 000 boxes raise
    :class:`SizeError`.
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
