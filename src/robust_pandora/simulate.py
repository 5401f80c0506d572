"""Monte-Carlo simulation of the search process under a known truth.

The closed forms price policies against worst cases; this module instead
runs the process forward under an explicit data-generating belief and
estimates the expected number of opened boxes and the realized ex-post
regret, with standard errors.

Reproducibility contract: all randomness comes from one Philox-4x64 counter
stream keyed by ``seed``.  With ``d`` the smallest multiple of 4 at or above
``2 (n + 1)`` (counter blocks hold four 64-bit words), episode ``e`` owns
the ``d`` float64 draws starting at word offset ``e * d``; each float64 is
one word, ``word >> 11`` scaled by ``2**-53``.  ``_chunks`` is the one
source of draws: it reads the stream from start to end from a single
generator, in ``(rows, d)`` blocks of at most ``_BLOCK_WORDS`` words (1 MiB;
a single row when ``d`` is more), and hands each block to the ``play`` that
``_homogeneous_play`` or ``_heterogeneous_play`` builds for the regime.  The
blocks are grouped into chunks of ``_CHUNK`` episodes, and the sums behind the
means are taken per chunk, then added exactly.  Within a row, draws are spent in
a fixed order: one state column for the existence or count draw, one per
box, then one decision column per stage (heterogeneous stage draws select
by cumulative weight over boxes in ascending input order, with the outside
option last); the tail padding is never read.  Results are therefore
bit-identical for a given ``(policy, truth, spec, episodes, seed)`` no
matter how the draws are blocked or the work is threaded.

A homogeneous ``play`` finds each row's first full box and first refusal as
the first False of a ``(rows, n)`` bool table: one ``argmin`` along the row
and one flat gather per table, in place of ``any``/``argmax``/``all``
reductions.  The i.i.d. and count truths build two such tables per block;
the needle truth's first full box comes from its two state columns, so it
builds only the stage table.

A heterogeneous ``play`` builds two ``2**n`` tables once per call: the
policy's cumulative weights ``cum``, ``(n, 2**n)``, and ``best[mask]``, the
largest net reward among the full boxes of ``mask``.  Per block it turns
each row's box draws into one integer bitmask of full boxes, one box
column at a time, and reads the oracle's reward as ``best[mask]``.  Stage
0, where every episode faces the full menu, is whole-array work against
the one column ``cum[:, full]``; later stages run on the episodes still
searching only, gathering each stage draw by one flat ``take`` and each
hit as ``(mask >> box) & 1``.  No table is ``(rows, 2**n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CountProfile,
    DomainError,
    HeteroPVector,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    SeedError,
    StationaryPolicy,
    _require_count,
    _shown,
)
from .het import HeterogeneousSpec, SelectionPolicy

__all__ = ["SimulationResult", "simulate", "MAX_EPISODES"]

MAX_EPISODES = 1 << 40

# constant so that summation grouping, and hence output bytes, never depend
# on caller-visible knobs
_CHUNK = 1 << 16
# float64 draws held at once, 1 MiB
_BLOCK_WORDS = 1 << 17


@dataclass(frozen=True)
class SimulationResult:
    episodes: int
    mean_opened: float
    se_opened: float
    mean_regret: float
    se_regret: float
    seed: int


def _chunks(play, seed: int, episodes: int, n: int):
    """Yield (opened, regret) arrays per chunk of ``_CHUNK`` episodes, filled from ``play(U)``.

    ``U`` runs over the stream from start to end, read from one generator in
    ``(rows, d)`` blocks of at most ``_BLOCK_WORDS`` words (one row when ``d``
    is more), one row per episode.
    """
    draws = -(-2 * (n + 1) // 4) * 4
    step = max(1, _BLOCK_WORDS // draws)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, episodes, _CHUNK):
        rows = min(_CHUNK, episodes - start)
        opened, regret = np.empty(rows), np.empty(rows)
        for first in range(0, rows, step):
            end = min(first + step, rows)
            # each block is let go as play returns, before the next is drawn
            opened[first:end], regret[first:end] = play(rng.random((end - first, draws)))
        yield opened, regret


def _first_false(table):
    """Each row's first False column of a ``(rows, k)`` bool table, from 1, or ``k + 1`` if none."""
    rows, k = table.shape
    at = table.argmin(axis=1)
    # argmin is 0 both at a False in column 0 and in a row with no False
    none = table.take(np.arange(0, rows * k, k) + at)
    return np.where(none, k + 1, at + 1)


def _homogeneous_play(policy: StationaryPolicy, truth, spec: HomogeneousSpec):
    """``play(U)``, the (opened, regret) arrays of a homogeneous simulation on a block of draws."""
    n, ubar, c = spec.n, spec.ubar, spec.c
    if not isinstance(policy, StationaryPolicy) or policy.n != n:
        raise DomainError("homogeneous simulation needs a StationaryPolicy of matching length")
    alphas_by_stage = policy.alphas[::-1].copy()  # stage j opens box j+1, k = n - j remain

    # first_full(state) is each row's first box that holds a high reward,
    # counted from 1, or n + 1 when no box does
    if isinstance(truth, IidBinary):
        def first_full(state):
            return _first_false(state[:, 1:] >= truth.p)
    elif isinstance(truth, NeedleP):
        def first_full(state):
            pos = np.minimum((state[:, 1] * n).astype(np.int64), n - 1)
            return np.where(state[:, 0] < truth.P, pos + 1, n + 1)
    elif isinstance(truth, CountProfile):
        if truth.n != n:
            raise DomainError("count profile length must match the spec")
        cum = np.cumsum(truth.Q)
        left = np.arange(n, 0, -1, dtype=np.float64)  # boxes left to open, this one included

        def first_full(state):
            # box i + 1 succeeds first when its draw times the boxes left falls
            # below the count, which no failure before it has changed
            count = np.minimum(np.searchsorted(cum, state[:, 0], side="right"), n)
            return _first_false(state[:, 1:] * left >= count[:, None])
    else:
        raise DomainError(f"homogeneous simulation cannot use truth {type(truth).__name__}")

    def play(U):
        first = first_full(U[:, : n + 1])
        willing = _first_false(U[:, n + 1 : 2 * n + 1] < alphas_by_stage) - 1  # stages gone on
        found = first <= willing
        payoff = np.where(found, ubar - first * c, -willing * c)
        return np.minimum(first, willing), np.where(first <= n, ubar - c, 0.0) - payoff

    return play


def _heterogeneous_play(policy: SelectionPolicy, truth: HeteroPVector, spec: HeterogeneousSpec):
    """``play(U)``, the (opened, regret) arrays of a heterogeneous simulation on a block of draws."""
    n = spec.n
    if not isinstance(policy, SelectionPolicy):
        raise DomainError("heterogeneous simulation needs a SelectionPolicy")
    if not isinstance(truth, HeteroPVector):
        raise DomainError("heterogeneous simulation needs a HeteroPVector truth")
    if len(truth.p) != n:
        raise DomainError("truth needs one probability per box")
    if policy.n != n:
        raise DomainError(f"policy covers {policy.n} boxes, the spec has {n}")
    probs = np.asarray(truth.p)
    full = (1 << n) - 1
    # box n is opting out, which costs and pays 0.0 and is never full
    ubars, costs = np.append(np.array(spec.boxes).T, [[0.0], [0.0]], axis=1)
    # best[mask] is the largest net reward among the full boxes of mask, 0.0
    # for none; a maximum is exact, so any grouping gives the same bits
    best = np.zeros(1 << n)
    for i, delta in enumerate(spec.deltas):
        np.maximum(best[: 1 << i], delta, out=best[1 << i : 2 << i])
    # at menu m the stage draw opens the first box i with draw < cum[i, m]
    # and opts out when there is none; cum never falls along i, so that box
    # is the number of entries at or below the draw, and n means opt out
    cum = np.cumsum(policy.weights.T, axis=0, out=np.empty((n, 1 << n)))
    no_rule = np.isnan(policy.optout)

    def play(U):
        rows, d = U.shape
        full_boxes = np.zeros(rows, dtype=np.int64)  # one bitmask per row
        for i, p in enumerate(probs.tolist()):
            # int64 by dtype: numpy 1.x would shift a bool array in int8
            full_boxes |= np.left_shift(U[:, 1 + i] < p, i, dtype=np.int64)
        # stage 0: every episode is at the full menu, so its count runs over
        # the one column cum[:, full], a whole-array pass per box, and its
        # bookkeeping fills whole arrays; the later stages' scatter through
        # live = arange(rows) instead made a full block's play 0.42 -> 0.55 ms
        # at n = 7 and 0.58 -> 0.83 ms at n = 6
        if no_rule[full]:
            raise DomainError("policy has no rule for a menu it can reach")
        draw = U[:, n + 1].copy()  # contiguous, as each of the n passes reads it
        box = np.zeros(rows, dtype=np.intp)
        for edge in cum[:, full]:
            box += edge <= draw
        cost = costs.take(box)
        opened = (box < n).astype(np.float64)
        hit = ((full_boxes >> box) & 1) == 1
        won = np.where(hit, ubars.take(box), 0.0)  # high reward of the box that ended the search
        live = np.flatnonzero((box < n) & ~hit)  # episodes still searching
        menu = full ^ (1 << box.take(live))
        # later stages run on the live episodes only; opting out adds 0.0 to
        # their cost and count, which leaves both unchanged
        for t in range(1, n):
            if no_rule.take(menu).any():
                raise DomainError("policy has no rule for a menu it can reach")
            box = (cum.take(menu, axis=1) <= U.take(live * d + (n + 1 + t))).sum(axis=0)
            cost[live] += costs.take(box)
            opened[live] += box < n
            hit = ((full_boxes.take(live) >> box) & 1) == 1
            won[live[hit]] = ubars.take(box[hit])
            go_on = (box < n) & ~hit
            live, menu = live[go_on], menu[go_on] ^ (1 << box[go_on])
        return opened, best.take(full_boxes) - (won - cost)

    return play


def simulate(policy, truth, spec, episodes: int, seed: int) -> SimulationResult:
    """Estimate opened-box count and realized regret under a known truth.

    Homogeneous specs take a :class:`StationaryPolicy` and an
    :class:`IidBinary`, :class:`NeedleP`, or :class:`CountProfile` truth;
    heterogeneous specs take a :class:`SelectionPolicy` and a
    :class:`HeteroPVector`.  Episodes are independent; the DM stops on the
    first high reward.
    """
    episodes = _require_count(episodes, "episodes", 1)
    if episodes > MAX_EPISODES:
        raise SeedError(f"episode count {_shown(episodes)} exceeds the substream space ({MAX_EPISODES})")
    seed = _require_count(seed, "seed", 0)
    if seed >= 2**64:
        raise SeedError("seed must fit in 64 bits")

    if isinstance(spec, HomogeneousSpec):
        play = _homogeneous_play(policy, truth, spec)
    elif isinstance(spec, HeterogeneousSpec):
        play = _heterogeneous_play(policy, truth, spec)
    else:
        raise DomainError(f"unsupported spec type {type(spec).__name__}")

    chunks = _chunks(play, seed, episodes, spec.n)
    # one row of sums per chunk, added exactly across chunks
    sums = np.array([(np.sum(o), np.sum(o * o), np.sum(r), np.sum(r * r)) for o, r in chunks])
    total_o, total_o2, total_r, total_r2 = map(math.fsum, sums.T)
    mean_o = total_o / episodes
    mean_r = total_r / episodes

    def se(total_sq, mean):
        if episodes < 2:
            return 0.0
        var = max(total_sq - episodes * mean * mean, 0.0) / (episodes - 1)
        return math.sqrt(var / episodes)

    return SimulationResult(
        episodes=episodes,
        mean_opened=mean_o,
        se_opened=se(total_o2, mean_o),
        mean_regret=mean_r,
        se_regret=se(total_r2, mean_r),
        seed=seed,
    )
