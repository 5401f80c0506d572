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
The same sum and its derivatives price the high-belief branch of every
plan; that branch has one peak, which a bracketed Newton search finds at
O(1) cost per step at any menu size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _MAX_SPEC_BOXES,
    _NEWTON_STEPS,
    ConvergenceError,
    DomainError,
    HomogeneousSpec,
    SizeError,
    _peak_search,
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


def _utility(p: np.ndarray, k: int, spec: HomogeneousSpec) -> np.ndarray:
    """``U(p, k)`` in the closed form of the module docstring, entrywise over the array ``p``."""
    with np.errstate(divide="ignore"):
        lp = np.log1p(-p)
    # zeros at k = 0, not 0 * log1p(-1), which is NaN at p = 1
    total = np.zeros_like(p) if k == 0 else np.divide(np.expm1(k * lp), -p, out=np.full_like(p, float(k)), where=p > 0.0)
    return (p * spec.ubar - spec.c) * total


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

    At ``x = 1 - p`` in [0, x_end], ``x_end = 1 - p_hat``, the branch is ``B =
    A L``, with ``A = (1 - alpha) x^m + x^(m+1) G``, ``G = sum_{j<n-m-1} x^j``
    and ``L = (ubar - c) - ubar x = ubar (x_end - x)``.  It is unimodal, the
    condition :meth:`maximize` relies on.  ``B'`` has the sign of ``phi =
    (x_end - x) mu - x``, where ``mu = x A' / A`` is the mean exponent of
    ``A``'s terms, each weighted by its value; as ``x mu' = Var``, the
    variance of that law, ``phi' = Var / mu - (1 + mu)`` at a zero of
    ``phi``.  The weights ``(1 - alpha) x^m, x^(m+1), ..., x^(n-1)`` are
    log-concave in the exponent, and a log-concave law on the nonnegative
    integers has variance at most ``mu (1 + mu)``, which is the
    geometric's.  So every zero of ``phi`` is a downward crossing, and
    there is at most one.  Maximizations are kept for the branch's life.
    """

    def __init__(self, spec: HomogeneousSpec):
        self.spec = spec
        self.end = 1.0 - weitzman_threshold(spec)
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
        """Worst high-belief regret of the plan with its argmax in ``x = 1 - p``: ``(x_star, value)``.

        :func:`core._peak_search` on ``[0, x_end]`` from the peak of ``x^m
        L``, ``x0 = x_end m / (m + 1)``, at or left of ``B``'s (``mu >= m``);
        at ``m = 0`` that is ``x = 0``, kept when ``B' <= 0`` there.  A start
        where ``B`` rounds to 0 is kept, at ``m = 0`` only if ``B'`` does
        too, and at ``m >= 1`` so is one where ``B`` is subnormal.  This is
        safe: ``x^m L`` peaks at ``x0`` and ``h = (1 - alpha) + x G <= n``,
        so ``B <= M = (n + 1) x0^m L(x0)``.  At ``m = 0`` a zero ``B(0)``
        and slope need ``h`` to be 0 throughout.  At ``m >= 1``, ``h`` is 0
        throughout or ``h(x0) >= 2^-54``, so a ``B(x0)`` below the least
        normal float leaves ``M`` below 1e-284; ``B'(x0)`` can then be a
        nonzero subnormal, the rounding left of its two cancelling terms
        ``m x0^(m-1) h L`` and ``ubar x0^m h``, equal at ``x0``.
        """
        if (m, alpha) not in self.memo:
            at = functools.partial(self._at, m, alpha)
            self.memo[m, alpha] = _peak_search(at, 0.0, self.end, self.end * m / (m + 1), math.inf if m else 0.0)
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
    argmax ``p*``.  The bisection and Newton's method share a memo of
    finished maximizations, dropped when the solve returns.
    """
    n, ubar, c = spec.n, spec.ubar, spec.c

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
    again.  A spec of any other size raises :class:`DomainError`.
    """
    if spec.n != 2:
        raise DomainError(f"interim two-box solver handles exactly 2 boxes, got n={spec.n}")
    ubar, c = spec.ubar, spec.c
    alpha_1 = (ubar - c) / ubar
    alpha_2 = (ubar - c) / (ubar + alpha_1 * c)
    return alpha_1, alpha_2
