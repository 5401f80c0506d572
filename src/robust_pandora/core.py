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
:class:`NeedleP`, :class:`CountProfile`, and the heterogeneous /
continuous-support variants).

Everything in this module is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

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
    "TwoPointMixture",
    "NatureBelief",
    "SaddleReport",
    "validate_spec",
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


def as_probability(x: float, what: str = "probability") -> float:
    """Clamp ``x`` to [0, 1], tolerating drift up to ``PROB_SLACK``."""
    x = float(x)
    if not np.isfinite(x) or x < -PROB_SLACK or x > 1.0 + PROB_SLACK:
        raise DomainError(f"{what} must lie in [0, 1], got {x!r}")
    return min(max(x, 0.0), 1.0)


def _probability_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < -PROB_SLACK or arr.max() > 1.0 + PROB_SLACK):
        raise DomainError(f"every entry of {what} must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousSpec:
    """Symmetric search problem: ``n`` boxes, high reward ``ubar``, cost ``c``.

    Checked by :func:`validate_spec` on construction, so every instance
    satisfies the standing assumptions; ``n`` is stored as an ``int``.
    """

    ubar: float
    c: float
    n: int

    def __post_init__(self):
        validate_spec(self)
        object.__setattr__(self, "n", int(self.n))


def _finite_real(x) -> bool:
    """A finite real number; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def validate_spec(spec: HomogeneousSpec) -> HomogeneousSpec:
    """Return ``spec`` unchanged if it satisfies the standing assumptions.

    Raises :class:`DomainError` when ``ubar`` is not a positive number, the
    cost is not a number in the open interval ``(0, ubar)``, or ``n`` is not
    a positive integer (a bool is not a number).  The cost bounds are strict:
    a free search or a search that can never pay for itself both degenerate
    the problem.
    """
    if not _finite_real(spec.ubar) or spec.ubar <= 0.0:
        raise DomainError(f"high reward must be positive, got {spec.ubar!r}")
    if not _finite_real(spec.c) or spec.c <= 0.0 or spec.c >= spec.ubar:
        raise DomainError(f"search cost must lie in (0, {spec.ubar}), got {spec.c!r}")
    n = spec.n
    if not _finite_real(n) or int(n) != n or n < 1:
        raise DomainError(f"box count must be a positive integer, got {spec.n!r}")
    return spec


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
        arr = _probability_array(self.alphas, "alphas")
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("alphas must be a non-empty 1-D vector")
        arr.flags.writeable = False
        object.__setattr__(self, "alphas", arr)

    @property
    def n(self) -> int:
        return self.alphas.size

    def alpha(self, k: int) -> float:
        """Opening probability with ``k`` boxes remaining (1-based)."""
        return float(self.alphas[k - 1])


@dataclass(frozen=True)
class StoppingMixture:
    """Distribution over plans that stop after exactly ``m`` failed openings.

    ``w[m]`` is the probability that the DM quits after ``m`` fruitless
    openings; ``w[n]`` is the probability of an exhaustive search.
    """

    w: np.ndarray

    def __post_init__(self):
        arr = _probability_array(self.w, "stopping weights")
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("stopping mixture needs weights for m = 0..n")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise DomainError("stopping weights must sum to 1")
        arr.flags.writeable = False
        object.__setattr__(self, "w", arr)

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
        alphas = policy.alphas
        n = alphas.size
        w = np.empty(n + 1)
        tail = 1.0
        for m in range(n):
            a = alphas[n - m - 1]
            w[m] = (1.0 - a) * tail
            tail *= a
        w[n] = tail
        return cls(w)


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
        arr = _count_profiles(self.Q)
        if arr.ndim != 1:
            raise DomainError("count profile needs entries for j = 0..n")
        arr.flags.writeable = False
        object.__setattr__(self, "Q", arr)

    @property
    def n(self) -> int:
        return self.Q.size - 1


def _count_profiles(values) -> np.ndarray:
    """Count profiles stacked along leading axes, ``(..., n + 1)``, validated and clamped.

    Every entry must lie in [0, 1] (up to ``PROB_SLACK``) and every row must
    sum to 1 within 1e-12.
    """
    arr = _probability_array(values, "Q")
    if arr.ndim < 1 or arr.shape[-1] < 2:
        raise DomainError("count profile needs entries for j = 0..n")
    if np.any(np.abs(arr.sum(axis=-1) - 1.0) > 1e-12):
        raise DomainError("count profile must sum to 1")
    return arr


@dataclass(frozen=True)
class HeteroPVector:
    """Independent per-box success probabilities for heterogeneous boxes."""

    p: tuple

    def __post_init__(self):
        probs = tuple(as_probability(x, "p_i") for x in self.p)
        object.__setattr__(self, "p", probs)


@dataclass(frozen=True)
class TwoPointMixture:
    """Mixture over reward pairs ``(u, v)`` with ``0 <= v <= u <= ubar``.

    Nature's pure strategies in the two-box continuous-support problem; the
    ``weight`` entries must sum to one.
    """

    atoms: tuple  # ((u, v), weight), ...

    def __post_init__(self):
        atoms = tuple(((float(u), float(v)), float(w)) for (u, v), w in self.atoms)
        if not atoms:
            raise DomainError("mixture needs at least one atom")
        for (u, v), w in atoms:
            if v < -PROB_SLACK or v > u + PROB_SLACK:
                raise DomainError(f"reward pair must satisfy 0 <= v <= u, got {(u, v)}")
            if w < -PROB_SLACK:
                raise DomainError("mixture weights must be nonnegative")
        if abs(sum(w for _, w in atoms) - 1.0) > 1e-9:
            raise DomainError("mixture weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)


NatureBelief = Union[IidBinary, NeedleP, CountProfile, HeteroPVector, TwoPointMixture]


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of a numerical saddle-point check."""

    nature_gap: float
    dm_gap: float
    worst_belief: NatureBelief
    tolerance: float
    passed: bool
    notes: tuple = ()

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


def _poly_max(coef: np.ndarray, lo: float, hi: float, grid_points: int):
    """Maximum on ``[lo, hi]`` of the polynomial ``coef``, highest degree first: ``(x, value)``.

    The best point of an even grid is polished by Newton's method on the
    derivative while the curvature is negative, the steps shrink (after
    that, rounding drives them) and the iterates stay in the two grid cells
    around that point; an end point of the interval stays where it is.  The
    grid is one array pass; the polish runs Horner's rule on Python floats.
    """
    xs = np.linspace(lo, hi, grid_points)
    best = int(np.argmax(_polyval(coef, xs)))
    left, right = float(xs[max(best - 1, 0)]), float(xs[min(best + 1, xs.size - 1)])
    slope = np.polyder(coef).tolist()
    curvature = np.polyder(coef, 2).tolist()
    x = float(xs[best])
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        bend = _polyval(curvature, x)
        if not bend < 0.0:
            break
        delta = _polyval(slope, x) / bend
        if not abs(delta) < last or not left <= x - delta <= right:
            break
        x, last = x - delta, abs(delta)
    return x, _polyval(coef.tolist(), x)


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


def first_success_probabilities(Q) -> np.ndarray:
    """First-success probabilities under a uniformly random opening order.

    Given the count profile ``Q`` (``Q[j]`` = probability that exactly ``j``
    boxes are full), returns ``q`` with ``q[k-1]`` the probability that a
    DM opening boxes in uniformly random order finds the first high reward
    on her ``k``-th opening:

        q_k = sum_j C_k^j Q_j,
        C_k^j = j / (n - k + 1) * prod_{i=0..k-2} (n - i - j) / (n - i).

    ``Q`` may stack profiles along leading axes, ``(..., n + 1) -> (..., n)``;
    each row is computed exactly as it would be on its own.
    """
    Q = np.asarray(Q, dtype=float)
    coeff = _first_success_table(Q.shape[-1] - 1)
    # rows added strictly left to right (the j = 0 column is zero, so each
    # sum starts from 0.0); a copy, so that the result does not keep the
    # whole (..., n, n + 1) table of partial sums alive
    return np.cumsum(coeff * Q[..., None, :], axis=-1)[..., -1].copy()


def _first_success_table(n: int) -> np.ndarray:
    """The ``(n, n + 1)`` table of ``C_k^j`` (row ``k - 1``), in O(n^2) work.

    One running product down the rows from ``C_1^j = j / n``, since
    ``C_{k+1}^j = C_k^j (n - k + 1 - j) / (n - k)``.
    """
    j = np.arange(n + 1)
    k = np.arange(1, n)[:, None]
    return np.cumprod(np.concatenate([j[None] / n, (n - k + 1 - j) / (n - k)]), axis=0)


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
    # reached[..., m] = sum_{k > m} q_k, the mass beyond the plan's m openings
    reached = np.cumsum(np.where(m[1:] > m[:, None], q[..., None, :], 0.0), axis=-1)[..., -1]
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
