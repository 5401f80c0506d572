"""Two boxes with rewards anywhere in [0, ubar]: randomized acceptance thresholds.

With a rich reward space Nature can punish any fixed acceptance cutoff: put
a reward just below it paired with nothing (search runs too long) or just
above it paired with the maximum (search stops too soon).  When the reward
range is wide relative to the cost (ubar > 4c) the DM therefore randomizes
her cutoff.  Nature's matching worst case mixes three reward pairs: both
boxes empty, one middling reward ``v_hat`` alone, and ``v_hat`` alongside
the maximum; seeing ``v_hat`` first leaves the DM torn about the other box,
which is exactly what sustains the randomization.

When the range is narrow (ubar <= 4c) none of this bites: the binary-reward
commitment solution, extended by the threshold rule "stop at or above
ubar - c", stays optimal and Nature stays on the support extremes, and at
or below ubar = 1.5c, the binary opt-out size of two boxes, the DM quits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple

import numpy as np

from .core import DomainError, HomogeneousSpec, SaddleReport, SizeError
from .core import _finite_real, _probability_vector, _require_count, _require_tolerance, _shown
from .corr import optout_menu_size

__all__ = [
    "TwoBoxContinuousPolicy",
    "TwoBoxNature",
    "solve_two_box",
    "acceptance_probability",
    "verify_two_box",
]

# The pair grid costs O(grid) work per row plus one pair regret per row and
# mixed column (0 < accept < 1) of the band v_low < v < v_acc.  Wall time and
# peak RSS (ru_maxrss, interpreter included) of verify_two_box at ubar/c = 15
# in a fresh process on a 2-vCPU x86-64 VM: grid 2001 0.005 s, 5000 0.02 s,
# 10000 0.06 s, each < 32 MB.
MAX_PAIR_GRID = 10_000
_PAIR_BLOCK = 1 << 16  # band pairs (row, mixed column) scored at once, 0.5 MB per float temporary


@dataclass(frozen=True)
class TwoBoxContinuousPolicy:
    """First-opening probability plus a randomized continuation cutoff.

    ``acceptance_probability`` turns this into the continuation chance after
    seeing a first reward ``u``: certain below ``v_low``, zero at or above
    ``v_acc = ubar - c``, and in between the cutoff distribution implied by
    Nature's indifference (large regime) or simply 1 (small regime, where
    the cutoff is deterministic at ``v_acc``).
    """

    regime: str  # "small" (ubar <= 4c) or "large" (ubar > 4c)
    ubar: float
    c: float
    alpha2_0: float
    v_low: float
    v_acc: float


@dataclass(frozen=True)
class TwoBoxNature:
    """Worst-case mixture over the pairs {0,0}, {0,v_hat}, {v_hat,ubar}.

    The proportionality ``r = s (ubar - c - v_hat) / c`` holds in the large
    regime, where it makes the DM indifferent about opening the second box.
    In the small regime the worst case needs only the extremes, encoded here
    as ``v_hat = ubar`` with ``s = 0`` (so the second pair is {0, ubar}).
    Construction raises :class:`DomainError` unless every field is a finite
    number and the weights ``q, r, s`` are nonnegative and sum to 1.
    """

    v_hat: float
    q: float
    r: float
    s: float

    def __post_init__(self):
        # a reward v_hat outside [0, ubar] is refused where the DM side prices the atoms
        if not _finite_real(self.v_hat):
            raise DomainError(f"two-box reward v_hat must be a finite number, got {_shown(self.v_hat)}")
        _probability_vector((self.q, self.r, self.s), "two-box weights q, r, s", 3, 1e-9)


def _require_two_boxes(spec: HomogeneousSpec) -> HomogeneousSpec:
    if spec.n != 2:
        raise DomainError(f"continuous-support solver handles exactly 2 boxes, got n={spec.n}")
    return spec


def solve_two_box(spec: HomogeneousSpec):
    """Saddle point of the two-box problem with rewards in [0, ubar].

    Returns ``(policy, nature, regret)``.  In the large regime the closed
    forms are

        alpha2_0 = ubar^2 / (ubar^2 + ubar c + c^2 + c sqrt((2 ubar + c) c)),
        v_hat    = ubar (1 - c / (c + sqrt((2 ubar + c) c))),
        v_low    = ubar (1 - ubar / (2 (ubar + c + sqrt((2 ubar + c) c)))),
        regret   = 2 c alpha2_0,

    with Nature's weights pinned by her two indifference conditions and
    q = 1 - r - s.  The boundary ubar = 4c belongs to the small regime.
    When two boxes reach the binary opt-out size (``optout_menu_size(spec)
    <= 2``, that is ubar <= 1.5c) the DM quits: alpha2_0 = 0 and regret
    ubar - c, against Nature's certain pair {ubar, 0}.  The large regime is
    computed in units of ubar; below c/ubar of about 6e-33 ``v_hat`` rounds
    to ``ubar - c`` or above, Nature's weight ``r`` to a negative number, and
    :class:`DomainError` is raised.
    """
    _require_two_boxes(spec)
    ubar, c = spec.ubar, spec.c
    if ubar <= 4.0 * c:
        quits = optout_menu_size(spec) <= 2
        alpha2_0 = 0.0 if quits else (ubar - c) / (ubar + c / 2.0)
        regret = ubar - c if quits else 2.0 * c * alpha2_0
        policy = TwoBoxContinuousPolicy(
            regime="small", ubar=ubar, c=c, alpha2_0=alpha2_0, v_low=ubar - c, v_acc=ubar - c
        )
        P = 1.0 if quits else 2.0 * c / (ubar + c / 2.0)  # treasure probability of the binary worst case
        nature = TwoBoxNature(v_hat=ubar, q=1.0 - P, r=P, s=0.0)
        return policy, nature, regret

    # in units of ubar, where every term is at most about 4, and scaled back:
    # the closed forms are homogeneous of degree 1 in (ubar, c)
    u = c / ubar
    root = sqrt((2.0 + u) * u)
    denom = 1.0 + u + u**2 + u * root
    v_hat = 1.0 - u / (u + root) if u else 1.0  # u is 0 where c/ubar underflows
    if not v_hat < 1.0 - u:  # u below about 6e-33, 2^-107: 1 - u / (u + root) rounds to 1
        raise DomainError(f"two-box closed form degenerates at c/ubar = {u:.3g}: v_hat rounds to ubar - c or above")
    s = 4.0 * u**2 / (2.0 * (1.0 - v_hat) * (v_hat + u) + u**2)
    r = s * (1.0 - u - v_hat) / u
    v_low = ubar * (1.0 - 1.0 / (2.0 * (1.0 + u + root)))
    policy = TwoBoxContinuousPolicy(
        regime="large", ubar=ubar, c=c, alpha2_0=1.0 / denom, v_low=v_low, v_acc=ubar - c
    )
    return policy, TwoBoxNature(v_hat=ubar * v_hat, q=1.0 - r - s, r=r, s=s), ubar * (2.0 * u / denom)


def _rewards(u, policy: TwoBoxContinuousPolicy) -> np.ndarray:
    """``u`` as a float array of rewards in [0, ubar]; strings and bools are rejected."""
    x = np.asarray(u)
    if x.dtype.kind not in "iuf":
        raise DomainError(f"reward must be a number, got {_shown(u)}")
    x = x.astype(float)
    slack = 1e-12 * policy.ubar
    outside = ~((-slack <= x) & (x <= policy.ubar + slack))
    if outside.any():
        raise DomainError(f"reward must lie in [0, {policy.ubar}], got {_shown(float(x[outside][0]))}")
    return x


def acceptance_probability(u, policy: TwoBoxContinuousPolicy):
    """Probability of opening the second box after a first reward of ``u``.

    ``u`` is a scalar (a float comes back) or an array.  The cutoff
    realization exceeds ``u`` with this probability; stopping wins ties, so
    the value is 0 at ``u = ubar - c`` exactly.
    """
    ubar, c = policy.ubar, policy.c
    x = _rewards(u, policy)
    a = policy.alpha2_0
    with np.errstate(divide="ignore", invalid="ignore"):
        mixed = (2.0 * (ubar - x) - a * (ubar - x + c)) / (a * (ubar - x))
    sure = (policy.regime == "small") | (x <= policy.v_low)
    p = np.where(x >= policy.v_acc, 0.0, np.where(sure, 1.0, mixed))
    return float(p) if p.ndim == 0 else p


class _RewardTerms(NamedTuple):
    """The parts of the pair regret that depend on one reward ``x`` alone."""

    accept: np.ndarray  # a(x), the continuation chance after a first box x
    oracle: np.ndarray  # max(0, x - c), the oracle's pay when x is the higher reward
    stop: np.ndarray  # (1 - a)(x - c), the pay of stopping at a first box x
    first_high: np.ndarray  # stop + a (x - 2c), the search pay when x is the higher reward and opened first
    less_2c: np.ndarray  # x - 2c, the pay of finding x in the second box


def _reward_terms(x, policy: TwoBoxContinuousPolicy) -> _RewardTerms:
    a = acceptance_probability(x, policy)
    c = policy.c
    stop = (1.0 - a) * (x - c)
    less_2c = x - 2.0 * c
    return _RewardTerms(a, np.maximum(0.0, x - c), stop, stop + a * less_2c, less_2c)


def _pair_regret(policy: TwoBoxContinuousPolicy, high: _RewardTerms, low: _RewardTerms):
    """Regret against the pair {u, v}, u >= v, from the terms of u (``high``) and of v (``low``)."""
    # first box v: stop at v - c or continue to find u; first box u: stop at
    # u - c or waste c more
    pay_first_v = low.stop + low.accept * high.less_2c
    search_pay = 0.5 * (pay_first_v + high.first_high)
    return (1.0 - policy.alpha2_0) * high.oracle + policy.alpha2_0 * (high.oracle - search_pay)


def _least_first_pay(accept, stop, less_2c) -> np.ndarray:
    """Least ``stop[v] + accept[v] * less_2c[u]`` of each row ``u`` over the columns ``v <= u``.

    A column with ``accept`` exactly 1 has ``stop = 0 * (v - c)``, a signed
    zero, and pays ``less_2c[u]``; one with ``accept`` exactly 0 pays
    ``stop[v]`` plus a signed zero, which is ``stop[v]``.
    So those columns need a running flag and a running minimum, and only the
    mixed columns are scored in 2-D, ``_PAIR_BLOCK`` pairs at a time.  Equal to
    the least over the dense lower triangle, up to the sign of a zero.
    """
    ones, zeros = accept == 1.0, accept == 0.0
    least = np.where(np.logical_or.accumulate(ones), less_2c, np.inf)
    least = np.minimum(least, np.minimum.accumulate(np.where(zeros, stop, np.inf)))
    mixed = np.flatnonzero(~(ones | zeros))
    if mixed.size:
        step = max(1, _PAIR_BLOCK // mixed.size)
        for start in range(mixed[0], least.size, step):
            end = min(start + step, least.size)
            cols = mixed[mixed < end]
            pay = stop[cols] + accept[cols] * less_2c[start:end, None]
            pay[cols > np.arange(start, end)[:, None]] = np.inf
            least[start:end] = np.minimum(least[start:end], pay.min(axis=1))
    return least


def regret_against_pair(policy: TwoBoxContinuousPolicy, u, v):
    """Exact regret of the policy when the two rewards are ``{u, v}``.

    Scalars give a float and arrays broadcast; each pair is taken in either
    order.  The oracle opens the better box only, earning ``max(0, u - c)``;
    the DM opens a uniformly random box first and follows her cutoff rule.
    """
    u, v = _rewards(u, policy), _rewards(v, policy)
    high, low = np.maximum(u, v), np.minimum(u, v)
    regret = _pair_regret(policy, _reward_terms(high, policy), _reward_terms(low, policy))
    return float(regret) if np.ndim(regret) == 0 else regret


def verify_two_box(
    policy: TwoBoxContinuousPolicy,
    nature: TwoBoxNature,
    spec: HomogeneousSpec,
    grid_size: int = 200,
    tolerance: float = 1e-9,
) -> SaddleReport:
    """Check both saddle inequalities for the two-box solution.

    Nature side: no reward pair on a ``grid_size``-squared grid over
    [0, ubar]^2 (lower triangle, v <= u) may beat the claimed regret; the
    first worst pair in row-major order is reported.  The low reward v enters
    the pair regret only through the pay of opening it first, and every later
    step is a rounded operation monotone in that pay, so each row u is scored
    exactly, bit for bit, at its least pay over v <= u; only the columns with
    a mixed acceptance chance need a 2-D scan.  DM side, exact:
    against Nature's mixture, a plan that opens a box and continues up to a
    threshold t only depends on which atoms {0, v_hat, ubar} exceed t, so
    quitting and t at each atom are all the plans (stopping even on an
    empty first box lies outside this family and is not priced).
    In the large regime (ubar > 4c) the report also quantifies how far the
    standalone closed form for the no-reward weight q drifts from the
    normalization 1 - r - s actually used (they disagree there; the
    indifference conditions pin r and s, and q must absorb the rest).  That
    closed form does not describe the small regime's binary worst case, so
    no such note is made there.  The report's ``worst_belief`` is ``nature``.
    ``tolerance`` is in units of ubar: both gaps are held to
    ``tolerance * ubar``, the report's ``tolerance``.
    """
    _require_two_boxes(spec)
    if (policy.ubar, policy.c) != (spec.ubar, spec.c):
        raise DomainError(
            f"policy solved for ubar={_shown(policy.ubar)}, c={_shown(policy.c)}, but spec has ubar={spec.ubar!r}, c={spec.c!r}"
        )
    # the row scoring below is exact only for a first-opening chance >= 0
    if not (_finite_real(policy.alpha2_0) and 0.0 <= policy.alpha2_0 <= 1.0):
        raise DomainError(f"policy alpha2_0 must lie in [0, 1], got {_shown(policy.alpha2_0)}")
    grid_size = _require_count(grid_size, "grid_size", 2)
    tolerance = _require_tolerance(tolerance, "tolerance")
    if grid_size > MAX_PAIR_GRID:
        raise SizeError(f"pair grid limited to {MAX_PAIR_GRID} points per axis, got {_shown(grid_size)}")
    ubar, c = spec.ubar, spec.c
    _, _, claimed = solve_two_box(spec)

    # each row u scored at its least first-box pay, which a column with
    # accept 0 and stop equal to that least pays exactly; the first row with
    # the largest gap is scored again against v <= u for its first worst column
    grid = np.linspace(0.0, ubar, grid_size)
    terms = _reward_terms(grid, policy)
    least = _least_first_pay(terms.accept, terms.stop, terms.less_2c)
    row_gaps = _pair_regret(policy, terms, terms._replace(accept=np.zeros(grid.size), stop=least)) - claimed
    i = int(np.argmax(row_gaps))
    high = _RewardTerms(*(t[i : i + 1] for t in terms))
    gaps = _pair_regret(policy, high, _RewardTerms(*(t[: i + 1] for t in terms))) - claimed
    j = int(np.argmax(gaps))
    nature_gap, worst_pair = gaps[j], (float(grid[i]), float(grid[j]))

    # quitting, and continuing up to t for t = 0, v_hat, ubar, which on the
    # atoms is continuing below a cutoff at v_hat, at ubar and past ubar: one
    # plan per row of (4, 1) columns, priced against the three atoms at once
    pairs = np.array([0.0, nature.v_hat, ubar]), np.array([0.0, 0.0, nature.v_hat])
    weights = np.array([nature.q, nature.r, nature.s])
    cuts = np.array([[ubar], [nature.v_hat], [ubar], [np.inf]])
    plans = TwoBoxContinuousPolicy("small", ubar, c, np.array([[0.0], [1.0], [1.0], [1.0]]), cuts, cuts)
    # sum over the atom axis adds q, r and s terms in that order, row by row
    dm_gap = claimed - min(sum((weights * regret_against_pair(plans, *pairs)).T))

    notes = (
        f"worst grid pair {worst_pair}",
        "dm candidates are continue-up-to-threshold plans; the plan that "
        "stops even on an empty first box is not priced by this mixture",
    )
    if ubar > 4.0 * c:
        q_closed_form = (2.0 * (ubar - nature.v_hat) * (nature.v_hat - 2.0 * c) + c**2) / (
            2.0 * (ubar - nature.v_hat) * (nature.v_hat + c) + c**2
        )
        notes = (
            "no-reward weight uses q = 1 - r - s; the standalone closed form "
            f"for q differs from it by {nature.q - q_closed_form:.6e} here",
        ) + notes
    return SaddleReport(nature_gap, dm_gap, nature, tolerance * ubar, notes)
