"""Domain types and exact regret evaluators for robust sequential search.

A decision maker (DM) faces ``n`` closed boxes.  Opening one costs ``c`` and
reveals its reward, which in the baseline model is either a high value
``ubar`` or zero.  The DM may stop at any time and keep the best reward
found so far, or take an outside option worth zero.  Performance is measured
by expected ex-post regret: the payoff of an oracle who sees every realized
reward in advance, minus the DM's own expected payoff.

The DM does not know the joint reward distribution; an adversarial Nature
picks it.  By symmetry both sides can be reduced to exchangeable objects:
the DM opens uniformly random boxes and is described by one search
probability per remaining-box count, while Nature is described by a small
parametric family of exchangeable beliefs (:class:`IidBinary`,
:class:`NeedleP`, :class:`CountProfile`, and the heterogeneous
:class:`HeteroPVector`; the two-box continuous-support belief is
``two_box.TwoBoxNature``).

Everything in this module is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "SizeError",
    "ConvergenceError",
    "SeedError",
    "HomogeneousSpec",
    "StationaryPolicy",
    "StoppingMixture",
    "IidBinary",
    "NeedleP",
    "CountProfile",
    "HeteroPVector",
    "SaddleReport",
    "as_probability",
    "regret_indep",
    "regret_needle",
    "regret_count_profile",
]

# Float drift tolerated when interpreting a number as a probability.  Larger
# violations are treated as caller errors, not noise.
PROB_SLACK = 1e-15

# Safety cap on Newton iterations; the 1-D solvers converge in a few steps.
_NEWTON_STEPS = 50


class DomainError(ValueError):
    """Parameters violate the model's standing assumptions."""


class SizeError(ValueError):
    """Instance or grid is too large to solve or check in reasonable time and memory."""


class ConvergenceError(RuntimeError):
    """An iterative search failed to reach its tolerance within budget."""


class SeedError(ValueError):
    """Simulation request exceeds the reproducible substream space."""


def _finite_real(x) -> bool:
    """A finite real number; a bool is not one, nor an integer beyond float range."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _shown(value) -> str:
    """``repr(value)`` for an error message; an integer too long to print shows its digit count.

    Python refuses to print an integer of more than ``sys.get_int_max_str_digits()``
    digits, so a message that formats a caller's value must not raise in its place.
    """
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, numbers.Integral):
            return f"<{type(value).__name__} holding an integer too long to print>"
        magnitude = abs(int(value))
        digits = int(magnitude.bit_length() * math.log10(2)) + 1  # the count or one more
        digits -= magnitude < 10 ** (digits - 1)
        return f"{'-' if value < 0 else ''}<integer of {digits} digits>"


def as_probability(x: float, what: str = "probability") -> float:
    """Clamp the number ``x`` (not a bool) to [0, 1], tolerating drift up to ``PROB_SLACK``."""
    if not _finite_real(x) or x < -PROB_SLACK or x > 1.0 + PROB_SLACK:
        raise DomainError(f"{what} must lie in [0, 1], got {_shown(x)}")
    return min(max(float(x), 0.0), 1.0)


def _require_count(value, what: str, least: int) -> int:
    """``value`` as an ``int`` if it is an integer (not a bool) of at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise DomainError(f"{what} must be an integer of at least {least}, got {_shown(value)}")
    return int(value)


def _require_tolerance(value, what: str) -> float:
    """``value`` as a ``float`` if it is a finite number (not a bool) of at least 0."""
    if not _finite_real(value) or value < 0.0:
        raise DomainError(f"{what} must be a finite non-negative number, got {_shown(value)}")
    return float(value)


def _probability_array(values, what: str) -> np.ndarray:
    """:func:`as_probability` entrywise, as a float array.

    Strings and bools are rejected, also among the items of nested lists or
    tuples, and so are ragged nested lists.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nested list has no array shape
        raise DomainError(f"{what} must be a rectangular array of probabilities") from None
    # an object array holds the caller's own items, also those of nested lists
    items = np.asarray(values, dtype=object).flat if isinstance(values, (list, tuple)) else ()
    # a NaN makes min() and max() NaN, which fails both comparisons
    if any(isinstance(x, (bool, np.bool_)) for x in items) or arr.dtype.kind not in "iuf" or (
        arr.size and not (arr.min() >= -PROB_SLACK and arr.max() <= 1.0 + PROB_SLACK)
    ):
        raise DomainError(f"every entry of {what} must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0, dtype=float)


def _probability_vector(values, what: str, least: int, sum_tol: float = math.inf) -> np.ndarray:
    """Read-only 1-D :func:`_probability_array` of at least ``least`` entries, summing to 1 within ``sum_tol``."""
    arr = _probability_array(values, what)
    if arr.ndim != 1 or arr.size < least:
        raise DomainError(f"{what} must be a 1-D vector of length at least {least}, got shape {arr.shape}")
    if abs(arr.sum() - 1.0) > sum_tol:
        raise DomainError(f"{what} must sum to 1")
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


# The homogeneous solvers hold a few float arrays of n entries, about 40
# bytes per box.  Wall time and peak RSS (ru_maxrss, interpreter included)
# in a fresh process on a 2-vCPU x86-64 VM, solve_indep /
# solve_corr_commitment / solve_corr_intrapersonal / search_count_profile:
# n = 1e6 0.13 s / 60 MB, 0.06 s / 69 MB, 0.01 s / 52 MB, 0.83 s / 60 MB;
# n = 1e7 1.1 s / 335 MB, 0.45 s / 421 MB, 0.17 s / 258 MB, 7.9 s / 335 MB,
# under 1 GiB.
_MAX_SPEC_BOXES = 10_000_000


@dataclass(frozen=True)
class HomogeneousSpec:
    """Symmetric search problem: ``n`` boxes, high reward ``ubar``, cost ``c``.

    Construction raises :class:`DomainError` when ``ubar`` is not a number
    in [2**-300, 2**300], about [4.9e-91, 2.0e90], the cost is not a number
    in the open interval ``(0, ubar)``, or
    ``n`` is not a positive integer (a bool is not a number), and
    :class:`SizeError` above 10 000 000 boxes.  The cost bounds are strict:
    a free search or a search that can never pay for itself both degenerate
    the problem.  ``ubar`` and ``c`` are stored as ``float``, ``n`` as ``int``.
    """

    ubar: float
    c: float
    n: int

    def __post_init__(self):
        _check_box(self.ubar, self.c)
        n = self.n
        whole = isinstance(n, numbers.Integral) or _finite_real(n) and int(n) == n
        if isinstance(n, bool) or not whole or n < 1:
            raise DomainError(f"box count must be a positive integer, got {_shown(n)}")
        if n > _MAX_SPEC_BOXES:
            raise SizeError(f"homogeneous specs limited to {_MAX_SPEC_BOXES} boxes, got {_shown(int(n))}")
        object.__setattr__(self, "ubar", float(self.ubar))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "n", int(n))


def _check_box(ubar, c, where: str = "") -> None:
    """Raise :class:`DomainError`, prefixed by ``where``, unless ``2**-300 <= ubar <= 2**300`` and ``0 < c < ubar``.

    Within that range the simulator's sums of squared regrets, 2^40 episodes
    of regrets up to 10^7 ubar, stay finite with room to spare.
    """
    if not _finite_real(ubar) or not 2.0**-300 <= float(ubar) <= 2.0**300:
        raise DomainError(
            f"{where}high reward must lie in [2**-300, 2**300], about [4.9e-91, 2.0e90], got {_shown(ubar)}"
        )
    if not _finite_real(c) or c <= 0.0 or c >= ubar:
        raise DomainError(f"{where}search cost must lie in (0, {ubar}), got {_shown(c)}")


# ---------------------------------------------------------------------------
# DM strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryPolicy:
    """Search probabilities indexed by the number of unopened boxes.

    ``alphas[k - 1]`` is the probability of opening a uniformly random box
    when ``k`` boxes remain unopened and no high reward has been found.
    Recursions consume the vector from ``k = n`` down to ``k = 1``.
    """

    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", _probability_vector(self.alphas, "alphas", 1))

    @property
    def n(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class StoppingMixture:
    """Distribution over plans that stop after exactly ``m`` failed openings.

    ``w[m]`` is the probability that the DM quits after ``m`` fruitless
    openings; ``w[n]`` is the probability of an exhaustive search.
    """

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _probability_vector(self.w, "stopping weights", 2, 1e-9))

    @property
    def n(self) -> int:
        return self.w.size - 1

    @classmethod
    def from_policy(cls, policy: StationaryPolicy) -> "StoppingMixture":
        """Marginal stopping-time distribution induced by a stationary policy.

        The plan stops after ``m < n`` failures when the first ``m`` search
        draws continue and the draw with ``n - m`` boxes left stops:
        ``w_m = (1 - alpha_{n-m}) * prod_{j=n-m+1..n} alpha_j``.
        """
        return cls(_stopping_weights(policy.alphas))


# ---------------------------------------------------------------------------
# Nature strategies (exchangeable beliefs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IidBinary:
    """Each box independently holds the high reward with probability ``p``."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", as_probability(self.p, "p"))


@dataclass(frozen=True)
class NeedleP:
    """At most one box, uniformly placed, holds the high reward (prob. ``P``)."""

    P: float

    def __post_init__(self):
        object.__setattr__(self, "P", as_probability(self.P, "P"))


@dataclass(frozen=True)
class CountProfile:
    """Exchangeable belief given by the distribution of the high-reward count.

    ``Q[j]`` is the probability that exactly ``j`` of the ``n`` boxes hold
    the high reward, the treasure positions being a uniformly random subset.
    """

    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _probability_vector(self.Q, "count profile Q", 2, 1e-12))

    @property
    def n(self) -> int:
        return self.Q.size - 1


@dataclass(frozen=True)
class HeteroPVector:
    """Independent per-box success probabilities for heterogeneous boxes."""

    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(_probability_vector(self.p, "p_i", 0).tolist()))


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of a numerical saddle-point check.

    ``worst_belief`` is the checked regime's own belief: :class:`IidBinary`,
    :class:`NeedleP`, or the two-box solver's ``TwoBoxNature``.  Both gaps
    are stored as ``float``.  ``passed`` is derived, the one pass rule of
    every check: both gaps at most ``tolerance`` (a NaN gap fails).
    """

    nature_gap: float
    dm_gap: float
    worst_belief: object
    tolerance: float
    notes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nature_gap", float(self.nature_gap))
        object.__setattr__(self, "dm_gap", float(self.dm_gap))

    @property
    def passed(self) -> bool:
        return bool(self.nature_gap <= self.tolerance and self.dm_gap <= self.tolerance)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"SaddleReport({status}: nature_gap={self.nature_gap:.3e}, "
            f"dm_gap={self.dm_gap:.3e}, tol={self.tolerance:.1e})"
        )


# ---------------------------------------------------------------------------
# Exact regret evaluators (binary rewards)
# ---------------------------------------------------------------------------


def _alphas_for(policy: StationaryPolicy, spec: HomogeneousSpec) -> np.ndarray:
    if policy.n != spec.n:
        raise DomainError(f"policy has {policy.n} stages but spec has n={spec.n}")
    return policy.alphas


def regret_indep(policy: StationaryPolicy, p, spec: HomogeneousSpec):
    """Expected ex-post regret under i.i.d. binary rewards with success rate ``p``.

    Horner's rule on the regret's polynomial in ``1 - p``
    (:func:`_regret_indep_poly`); ``p`` may be a scalar or an array.
    """
    coef = _regret_indep_poly(policy, spec)
    out = np.polyval(coef, 1.0 - _probability_array(p, "p"))
    return float(out) if out.ndim == 0 else out


def _regret_indep_poly(policy: StationaryPolicy, spec: HomogeneousSpec) -> np.ndarray:
    """:func:`regret_indep` as a polynomial in ``x = 1 - p``, highest degree first, in O(n).

    I.i.d. tails are ``T_i = x^i - x^n``, so :func:`_regret_terms` gives
    ``x^i`` the coefficient ``v_i`` for ``i < n`` and ``x^n`` the coefficient
    ``K - sum_{i<n} v_i = c w_n - (ubar - c) sum_{m<n} w_m``; the second form
    is computed, as the first loses bits to cancellation.
    """
    w = _stopping_weights(_alphas_for(policy, spec))
    coef = _regret_terms(w, spec)[1][::-1]
    coef[0] = spec.c * w[-1] - (spec.ubar - spec.c) * np.cumsum(w[:-1])[-1]
    return coef


def _peak_search(at, lo: float, hi: float, x: float, flat: float = 0.0):
    """Peak of a unimodal function on ``[lo, hi]``, searched from ``x``: ``(x_star, value)``.

    ``at(x)`` gives the value, slope and curvature at a Python float.
    Newton's method on the slope, the bracket narrowed on its sign; a step
    that leaves the bracket, or one where the curvature is not negative,
    halves it instead.  A value and slope both 0 count as left of the peak,
    except at the start: a start whose value is 0 is kept when its slope is
    at most ``flat`` in size, and with ``flat`` infinite so is a start whose
    value is below the least normal float (``interim._HighBranch.maximize``
    says why; the i.i.d. regret is positive inside (0, 1)).  The
    search ends once a step rounds to ``x`` itself or the bracket closes to
    adjacent floats; past its bound it raises :class:`ConvergenceError`.
    """
    # halving alone closes the bracket in about 54 steps
    for i in range(2 * _NEWTON_STEPS):
        value, slope, bend = at(x)
        if not i and abs(slope) <= flat and (value == 0.0 or flat == math.inf and value < np.finfo(float).tiny):
            break
        if slope > 0.0 or slope == value == 0.0:
            lo = x
        elif slope < 0.0:
            hi = x
        elif slope == 0.0:
            break  # a NaN slope narrows nothing and runs into the bound
        step = x - slope / bend if bend < 0.0 else math.nan
        if not lo < step < hi:
            if step == x:
                break
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        x = step
    else:
        raise ConvergenceError("peak search unresolved after bracketing")
    return x, value


def regret_needle(policy: StationaryPolicy, P, spec: HomogeneousSpec):
    """Expected regret when at most one box holds the high reward.

    ``P`` (a scalar or an array) is the probability that the treasure exists.
    The regret is linear in the belief, ``(1 - P) K + P R_1`` with the ends
    ``(K, R_1)`` of :func:`_needle_ends`, which it returns exactly at 0 and 1.
    """
    w = _stopping_weights(_alphas_for(policy, spec))
    P = _probability_array(P, "P")
    empty, treasure, _ = _needle_ends(w, spec)
    r = (1.0 - P) * empty + P * treasure
    return float(r) if r.ndim == 0 else r


def _stopping_weights(alphas: np.ndarray) -> np.ndarray:
    """:meth:`StoppingMixture.from_policy`'s weights for the stage probabilities ``alphas``, unvalidated."""
    by_stage = alphas[::-1]
    # tails[m] = alpha_n ... alpha_{n-m}, a running product like the scalar
    # loop's, so w_0 = (1 - alpha_n) * 1.0 and every w_m has its bits
    tails = np.cumprod(by_stage)
    w = np.concatenate((1.0 - by_stage, tails[-1:]))
    w[1:-1] *= tails[:-1]
    return w


def _regret_terms(w: np.ndarray, spec: HomogeneousSpec):
    """The regret of stopping weights ``w`` as one linear functional of a belief's tails: ``(K, v)``.

    Every exchangeable binary belief with tails ``T_i``
    (:func:`first_success_probabilities`) has the regret

        R = K (1 - T_0) + sum_i v_i T_i,    K = c sum_m m w_m,
        v_0 = (ubar - c) w_0,    v_i = ubar w_i + c sum_{m > i} w_m  (i >= 1),

    :func:`_plan_regrets` summed by parts; no ``v_i`` is negative, which is
    why no count profile beats the needle.  Each sum is one ``np.cumsum``.
    """
    ubar, c = spec.ubar, spec.c
    K = c * np.cumsum(np.arange(w.size) * w)[-1]
    v = ubar * w
    v[:-1] += c * np.cumsum(w[:0:-1])[::-1]
    v[0] = (ubar - c) * w[0]
    return K, v


def _needle_ends(w: np.ndarray, spec: HomogeneousSpec):
    """Regrets ``(K, R_1)`` of stopping weights ``w`` at count-profile vertices 0 and 1, :func:`regret_count_profile`'s
    bits, and vertex 1's tail row ``T[i] = (n - i) / n``, which a needle of mass ``P`` scales to ``P T``."""
    K, v = _regret_terms(w, spec)
    row = _tail_table(spec.n, [1])[0]
    return K, np.cumsum(v * row)[-1], row


# The count-profile path holds a tail table of n + 1 floats per count that
# holds mass, at most as many as 5 000 boxes with mass on every count need.
# Wall time and peak RSS (ru_maxrss, interpreter included) in a fresh
# process on a 2-vCPU x86-64 VM, regret_count_profile against a Dirichlet
# profile / its flattening: n = 1000 0.013-0.018 / 0.0002 s, 42 / 35 MB;
# 5000 0.29-0.37 / 0.0003 s, 226 / 35 MB; a flattening is one row, so at
# 1e7 boxes 0.50-0.66 s / 487 MB.  interim_grid_oracle (2n rows of 2001
# beliefs) shares the cap: 0.02 s at n = 100, 1.8 s at 5000.
_MAX_COUNT_BOXES = 5000


def first_success_probabilities(Q) -> np.ndarray:
    """First-success probabilities under a uniformly random opening order.

    Given the count profile ``Q`` (``Q[j]`` = probability that exactly ``j``
    boxes are full), returns ``q`` with ``q[k-1]`` the probability that a
    DM opening boxes in uniformly random order finds the first high reward
    on her ``k``-th opening, ``q_k = T_{k-1}(Q) - T_k(Q)``, where the tail

        T_i(Q) = sum_{j >= 1} Q_j C(n - j, i) / C(n, i)

    is the chance that some box is full and the first ``i`` openings miss
    them all, of which every regret is a linear functional
    (:func:`_regret_terms`).  ``Q`` must be one vector of at least 2
    probabilities summing to 1 within 1e-12, as a :class:`CountProfile`
    holds, or :class:`DomainError` is raised; more table cells, ``n + 1``
    per count that holds mass, than 5 000 x 5 001 raise :class:`SizeError`.
    """
    tails = _tails(_probability_vector(Q, "count profile Q", 2, 1e-12))
    return tails[:-1] - tails[1:]


def _tails(Q: np.ndarray) -> np.ndarray:
    """The tails ``T_i(Q)``, ``i = 0..n``, of the profile ``Q``, a vector of ``n + 1`` floats.

    The sum runs over ``j`` in increasing order, one table row per count
    ``j >= 1`` that holds mass: a term ``T * 0.0`` adds exactly nothing, so
    a profile of ``s`` such counts costs O(s n).
    """
    n = Q.size - 1
    held = np.flatnonzero(Q[1:]) + 1
    cells = _MAX_COUNT_BOXES * (_MAX_COUNT_BOXES + 1)
    if held.size * (n + 1) > cells:
        raise SizeError(f"count-profile tables limited to {cells} cells, got {held.size} x {n + 1}")
    table = _tail_table(n, held)
    table *= Q[held, None]  # in place: a second table would double the peak
    # the rows of a C-contiguous array, added in order, vectorized across columns
    return np.add.reduce(table, axis=0, initial=0.0)


def _tail_table(n: int, counts) -> np.ndarray:
    """``T[j, i] = C(n - j, i) / C(n, i)``, row ``j`` for each count in ``counts``, column ``i = 0..n``.

    The chance that the first ``i`` openings miss all ``j`` full boxes, by
    one running product along each row from ``T[j, 0] = 1``: the factor
    ``(n - i + 1 - j) / (n - i + 1)``, clipped at 0 so that past ``i = n - j``
    a row holds +0.0.
    """
    # small whole numbers, exact in float; the running product is taken in place
    left = np.arange(n, 0.0, -1.0)  # boxes unopened before opening i
    table = np.ones((len(counts), n + 1))
    factors = np.subtract(left, np.asarray(counts, dtype=float)[:, None], out=table[:, 1:])
    np.maximum(factors, 0.0, out=factors)
    factors /= left
    return np.multiply.accumulate(table, axis=-1, out=table)


def _plan_regrets(tails: np.ndarray, spec: HomogeneousSpec) -> np.ndarray:
    """Conditional regret of each plan "stop after ``m`` failures", ``m = 0..n``; overwrites ``tails``.

    ``tails`` holds the tails ``T_i``, ``i = 0..n``, of one count profile.
    The plan opens box ``i + 1`` with a full box unfound with chance
    ``T_i``; summing its waste by parts gives
    ``c sum_{1 <= i < m} T_i + ubar T_m + (1 - T_0) m c`` for ``m >= 1``
    (``1 - T_0`` is the mass on no full box) and ``(ubar - c) T_0`` for
    ``m = 0``.  Every sum runs left to right.
    """
    out = np.zeros_like(tails)
    np.cumsum(tails[1:-1], out=out[2:])
    out *= spec.c
    # the m c term; where 1 - T_0 == 0 it adds +0.0 to non-negative entries
    out += (1.0 - tails[0]) * (np.arange(out.size) * spec.c)
    out[0] = (spec.ubar - spec.c) * tails[0]
    out[1:] += np.multiply(tails[1:], spec.ubar, out=tails[1:])
    return out


def regret_count_profile(mixture: StoppingMixture, Q: CountProfile, spec: HomogeneousSpec) -> float:
    """Exact regret of a stopping mixture against a count-profile belief.

    ``K (1 - T_0) + sum_i v_i T_i`` (:func:`_regret_terms`) at the profile's
    tails, the sum left to right.
    """
    if mixture.n != spec.n or Q.n != spec.n:
        raise DomainError("mixture, count profile, and spec must share the same n")
    tails = _tails(Q.Q)
    K, v = _regret_terms(mixture.w, spec)
    return float(K * (1.0 - tails[0]) + np.cumsum(v * tails)[-1])
