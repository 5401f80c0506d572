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
from numpy.lib.stride_tricks import as_strided

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

    Strings and bools are rejected, also among the items of a list or tuple.
    """
    arr = np.asarray(values)
    has_bool = isinstance(values, (list, tuple)) and any(isinstance(x, (bool, np.bool_)) for x in values)
    if has_bool or arr.dtype.kind not in "iuf" or (
        arr.size and (not np.all(np.isfinite(arr)) or arr.min() < -PROB_SLACK or arr.max() > 1.0 + PROB_SLACK)
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

    Construction raises :class:`DomainError` when ``ubar`` is not a positive
    number, the cost is not a number in the open interval ``(0, ubar)``, or
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
    """Raise :class:`DomainError`, prefixed by ``where``, unless ``0 < c < ubar`` are finite numbers."""
    if not _finite_real(ubar) or ubar <= 0.0:
        raise DomainError(f"{where}high reward must be positive, got {_shown(ubar)}")
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
        w = []
        tail = 1.0
        for a in reversed(policy.alphas.tolist()):
            w.append((1.0 - a) * tail)
            tail *= a
        w.append(tail)
        return cls(np.array(w))


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
    every check: both gaps at most ``tolerance`` (a NaN gap fails) and the
    check's own ``side_condition`` holding.
    """

    nature_gap: float
    dm_gap: float
    worst_belief: object
    tolerance: float
    notes: tuple = ()
    side_condition: bool = True

    def __post_init__(self):
        object.__setattr__(self, "nature_gap", float(self.nature_gap))
        object.__setattr__(self, "dm_gap", float(self.dm_gap))

    @property
    def passed(self) -> bool:
        return bool(self.nature_gap <= self.tolerance and self.dm_gap <= self.tolerance and self.side_condition)

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


def _regret_indep_alphas(alphas: np.ndarray, p, spec: HomogeneousSpec):
    """Recursion behind :func:`regret_indep`, broadcasting over policies or p.

    ``alphas`` may have shape ``(..., n)``; ``p`` broadcasts against the
    leading axes.
    """
    ubar, c = spec.ubar, spec.c
    n = alphas.shape[-1]
    p = _probability_array(p, "p")
    fail = 1.0 - p
    r = np.zeros(np.broadcast_shapes(alphas.shape[:-1], p.shape))
    for k in range(1, n + 1):
        a = alphas[..., k - 1]
        r = (1.0 - a) * (1.0 - fail**k) * (ubar - c) + a * fail * (c + r)
    return r


def regret_indep(policy: StationaryPolicy, p, spec: HomogeneousSpec):
    """Expected ex-post regret under i.i.d. binary rewards with success rate ``p``.

    Evaluates the backward recursion with ``k`` boxes remaining

        R_k = (1 - a_k) (1 - (1-p)^k) (ubar - c) + a_k (1-p) (c + R_{k-1}),

    with ``R_0 = 0``: not searching forgoes the oracle's net reward whenever
    at least one box is full, while a fruitless opening wastes ``c`` and
    passes to the smaller problem.  ``p`` may be a scalar or an array.
    """
    alphas = _alphas_for(policy, spec)
    out = _regret_indep_alphas(alphas, p, spec)
    return float(out) if out.ndim == 0 else out


def _regret_indep_poly(policy: StationaryPolicy, spec: HomogeneousSpec) -> np.ndarray:
    """:func:`regret_indep` as a polynomial in ``x = 1 - p``, highest degree first.

    The same backward recursion, ``R_k = (1 - a_k) (ubar - c) (1 - x^k) +
    a_k x (c + R_{k-1})``, carried out on coefficient vectors.
    """
    alphas = _alphas_for(policy, spec)
    ubar, c = spec.ubar, spec.c
    r = np.zeros(alphas.size + 1)
    for k, a in enumerate(alphas.tolist(), start=1):
        gain = (1.0 - a) * (ubar - c)
        r[1 : k + 1] = a * r[:k]
        r[0] = gain
        r[1] += a * c
        r[k] -= gain
    return r[::-1]


def _peak_search(at, lo: float, hi: float, x: float, flat: float = 0.0):
    """Peak of a unimodal function on ``[lo, hi]``, searched from ``x``: ``(x_star, value)``.

    ``at(x)`` gives the value, slope and curvature at a Python float.
    Newton's method on the slope, the bracket narrowed on its sign; a step
    that leaves the bracket, or one where the curvature is not negative,
    halves it instead.  A value and slope both 0 count as left of the peak,
    except at the start: a start whose value is 0 is kept when its slope is
    at most ``flat`` in size (``interim._HighBranch.maximize`` says why; the
    i.i.d. regret is positive at its best grid point).  The search ends
    once a step rounds to ``x`` itself or the bracket closes to adjacent
    floats; past its bound it raises :class:`ConvergenceError`.
    """
    # halving alone closes the bracket in about 54 steps
    for i in range(2 * _NEWTON_STEPS):
        value, slope, bend = at(x)
        if not i and value == 0.0 and abs(slope) <= flat:
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


def _polyval(coef, x):
    """Horner's rule, as ``np.polyval`` but without its 0-d array cost for a scalar ``x``."""
    out = 0.0
    for a in coef:
        out = out * x + a
    return out


def regret_needle(policy: StationaryPolicy, P, spec: HomogeneousSpec):
    """Expected regret when at most one box holds the high reward.

    ``P`` (a scalar or an array) is the probability that the treasure
    exists given ``n`` remaining boxes.  A failed opening updates it to
    ``P (k-1) / (k - P)`` on the ``k-1`` remaining boxes, which keeps 0 and 1
    fixed, and the regret is linear in the belief, so it is
    ``(1 - P) R_empty + P R_treasure`` with ``R_0 = 0`` and

        R_empty_k = a_k (c + R_empty_{k-1}),
        R_treasure_k = (1 - a_k) (ubar - c) + a_k (1 - 1/k) (c + R_treasure_{k-1}).
    """
    alphas = _alphas_for(policy, spec)
    ubar, c = spec.ubar, spec.c
    P = _probability_array(P, "P")
    empty = treasure = 0.0
    for k, a in enumerate(alphas.tolist(), start=1):
        empty = a * (c + empty)
        treasure = (1.0 - a) * (ubar - c) + a * (1.0 - 1.0 / k) * (c + treasure)
    r = (1.0 - P) * empty + P * treasure
    return float(r) if r.ndim == 0 else r


# The count-profile path (first_success_probabilities, and _plan_regrets on
# top of it) holds a table with a row of n floats per count that holds mass,
# then the (n, n + 1) windows of reached: about 8 n^2 bytes at its peak for
# one profile.  Wall time and peak RSS (ru_maxrss, interpreter included) of one
# regret_count_profile in a fresh process on a 2-vCPU x86-64 VM, against a
# Dirichlet profile / its single-treasure flattening: n = 1000 0.012 / 0.003
# s, 43 MB; 2000 0.056 / 0.010 s, 65 MB; 3000 0.10 / 0.022 s, 104 MB; 4000
# 0.20 / 0.040 s, 157 MB; 5000 0.41 / 0.077 s, 226 MB, under 1 GiB.  The
# same cap bounds the other homogeneous paths that take seconds at a few
# thousand boxes.  Wall time on the same VM at n = 1000 / 5000 / 20 000:
# saddle_check_indep (c/ubar = 0.3, an O(n^2) polynomial) 0.01 / 0.06-0.10
# / 0.4-0.6 s, about two days at the spec cap of 10 000 000 boxes
# (extrapolated, not run); interim_grid_oracle (2n rows of 2001 beliefs)
# 0.02 s at n = 100 and 1.8 s at 5000.
_MAX_COUNT_BOXES = 5000


def first_success_probabilities(Q) -> np.ndarray:
    """First-success probabilities under a uniformly random opening order.

    Given the count profile ``Q`` (``Q[j]`` = probability that exactly ``j``
    boxes are full), returns ``q`` with ``q[k-1]`` the probability that a
    DM opening boxes in uniformly random order finds the first high reward
    on her ``k``-th opening:

        q_k = sum_j C_k^j Q_j,
        C_k^j = j / (n - k + 1) * prod_{i=0..k-2} (n - i - j) / (n - i).

    The sum runs over ``j`` in increasing order, one table row per count
    ``j >= 1`` that holds mass in some profile: ``C_k^0 = 0``, and a term
    ``C * 0.0`` adds exactly nothing, so a profile of ``s`` such counts
    costs O(s n).  ``Q`` may stack profiles along leading axes,
    ``(..., n + 1) -> (..., n)``; each row is computed exactly as it would
    be on its own.  More than 5 000 boxes raise :class:`SizeError`.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[-1] - 1
    if n > _MAX_COUNT_BOXES:
        raise SizeError(f"count-profile tables limited to {_MAX_COUNT_BOXES} boxes, got {_shown(n)}")
    held = np.flatnonzero(np.any(Q[..., 1:] != 0.0, axis=tuple(range(Q.ndim - 1)))) + 1
    table = _first_success_table(n, held)
    if Q.ndim == 1:  # in place: a second table would double the peak
        table *= Q[held, None]
    else:
        table = table * Q[..., held, None]
    # the rows of a C-contiguous array, added strictly in order to 0.0 (past
    # its last nonzero entry a row holds zeros of either sign) and
    # vectorized across the columns
    return np.add.reduce(table, axis=-2, initial=0.0)


def _first_success_table(n: int, counts=slice(None)) -> np.ndarray:
    """The table of ``C_k^j``, row ``j`` for each count in ``counts`` (all ``n + 1`` by default), column ``k - 1``.

    One running product along each row from ``C_1^j = j / n``, since
    ``C_{k+1}^j = C_k^j (n - k + 1 - j) / (n - k)``: O(n) work per row.
    """
    j = np.arange(n + 1.0)[counts, None]
    k = np.arange(1.0, n)
    # small whole numbers, exact in float: the rows are those of integer
    # arithmetic, and the running product is taken in place
    table = np.empty((j.shape[0], n))
    np.divide(j, n, out=table[:, :1])
    np.subtract(n - k + 1.0, j, out=table[:, 1:])
    table[:, 1:] /= n - k
    return np.multiply.accumulate(table, axis=-1, out=table)


def _plan_regrets(Q: np.ndarray, spec: HomogeneousSpec) -> np.ndarray:
    """Conditional regret of each plan "stop after ``m`` failures", ``m = 0..n``.

    ``Q`` holds count profiles along leading axes, ``(..., n + 1) -> (..., n + 1)``.
    Every sum runs left to right, so a row's values do not depend on the
    rows stacked with it.
    """
    ubar, c, n = spec.ubar, spec.c, spec.n
    q = first_success_probabilities(Q)
    m = np.arange(n + 1)
    # early[..., m] = sum_{k <= m} q_k (k - 1) c, starting from 0.0 at m = 0
    early = np.cumsum(np.concatenate([np.zeros(q.shape[:-1] + (1,)), q * (m[:-1] * c)], axis=-1), axis=-1)
    # reached[..., m] = sum_{k > m} q_k, the mass beyond the plan's m openings:
    # row i of the windows of the zero-padded q holds q_{m+1+i} in column m
    # (0 past q_n), and a C-order copy of them is summed over its rows (built
    # by as_strided: sliding_window_view's checks cost more than the whole
    # sum at a few boxes)
    padded = np.concatenate([q, np.zeros(q.shape[:-1] + (n,))], axis=-1)
    step = padded.strides[-1]
    windows = as_strided(padded, q.shape[:-1] + (n, n + 1), padded.strides[:-1] + (step, step), writeable=False)
    reached = np.add.reduce(np.ascontiguousarray(windows), axis=-2)
    total = reached[..., :1]
    return early + reached * (ubar - c + m * c) + (1.0 - total) * m * c


def regret_count_profile(mixture: StoppingMixture, Q: CountProfile, spec: HomogeneousSpec) -> float:
    """Exact regret of a stopping mixture against a count-profile belief.

    Conditional regret of the plan that stops after ``m`` failures:
    a first success on opening ``k <= m`` wastes ``(k-1) c`` relative to the
    oracle; a success the plan never reaches costs ``ubar - c + m c``; and
    when no box is full the ``m`` openings are pure waste ``m c``.
    """
    if mixture.n != spec.n or Q.n != spec.n:
        raise DomainError("mixture, count profile, and spec must share the same n")
    return float(_mixture_regrets(mixture.w, Q.Q, spec))


def _mixture_regrets(w: np.ndarray, Q: np.ndarray, spec: HomogeneousSpec) -> np.ndarray:
    """:func:`regret_count_profile` for stopping weights ``w`` and profiles ``Q`` of shape ``(..., n + 1)``."""
    # the mixture's plans weighted and added strictly left to right
    return np.cumsum(w * _plan_regrets(Q, spec), axis=-1)[..., -1]
