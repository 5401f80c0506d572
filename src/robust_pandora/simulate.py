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


def _homogeneous_play(policy: StationaryPolicy, truth, spec: HomogeneousSpec):
    """``play(U)``, the (opened, regret) arrays of a homogeneous simulation on a block of draws."""
    n, ubar, c = spec.n, spec.ubar, spec.c
    if not isinstance(policy, StationaryPolicy) or policy.n != n:
        raise DomainError("homogeneous simulation needs a StationaryPolicy of matching length")
    alphas_by_stage = policy.alphas[::-1].copy()  # stage j opens box j+1, k = n - j remain

    # hits(state) is a (rows, n) table whose first True in each row is the
    # first box that holds a high reward; a row without one has none
    if isinstance(truth, IidBinary):
        def hits(state):
            return state[:, 1:] < truth.p
    elif isinstance(truth, NeedleP):
        boxes = np.arange(n)

        def hits(state):
            pos = np.minimum((state[:, 1] * n).astype(np.int64), n - 1)
            return (state[:, :1] < truth.P) & (pos[:, None] == boxes)
    elif isinstance(truth, CountProfile):
        if truth.n != n:
            raise DomainError("count profile length must match the spec")
        cum = np.cumsum(truth.Q)
        left = np.arange(n, 0, -1, dtype=np.float64)  # boxes left to open, this one included

        def hits(state):
            # box i + 1 succeeds first when its draw times the boxes left falls
            # below the count, which no failure before it has changed
            count = np.minimum(np.searchsorted(cum, state[:, 0], side="right"), n)
            return state[:, 1:] * left < count[:, None]
    else:
        raise DomainError(f"homogeneous simulation cannot use truth {type(truth).__name__}")

    def play(U):
        hit = hits(U[:, : n + 1])
        any_treasure = hit.any(axis=1)
        first = np.where(any_treasure, hit.argmax(axis=1) + 1, n + 1)

        cont = U[:, n + 1 : 2 * n + 1] < alphas_by_stage
        willing = np.where(cont.all(axis=1), n, cont.argmin(axis=1))

        found = first <= willing
        opened = np.where(found, first, willing)
        payoff = np.where(found, ubar - first * c, -willing * c)
        return opened, np.where(any_treasure, ubar - c, 0.0) - payoff

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
    deltas = np.asarray(spec.deltas)
    ubars, costs = np.array(spec.boxes).T
    # at menu m the stage draw opens the first box i with draw < cum[i, m]
    # and opts out when there is none; cum never falls along i, so that box
    # is the number of entries at or below the draw, and n means opt out
    cum = np.cumsum(policy.weights.T, axis=0, out=np.empty((n, 1 << n)))
    no_rule = np.isnan(policy.optout)

    def play(U):
        hits, stages = U[:, 1 : n + 1] < probs, U[:, n + 1 : 2 * n + 1]
        rows = len(U)
        # one pass per box: np.where(hits, deltas, 0.0).max(axis=1) gives the
        # same bits but reduces along the short axis, and made three 20 000-
        # episode simulates at n = 6..8 slower, 14.7 -> 18.0 ms (min of 30)
        oracle = np.zeros(rows)
        for i in range(n):
            oracle = np.maximum(oracle, np.where(hits[:, i], deltas[i], 0.0))
        opened = np.zeros(rows)
        cost = np.zeros(rows)
        won = np.zeros(rows)  # high reward of the box that ended the search
        menu = np.full(rows, (1 << n) - 1)
        live = np.arange(rows)  # episodes still searching
        for t in range(n):
            at = menu[live]
            if no_rule.take(at).any():
                raise DomainError("policy has no rule for a menu it can reach")
            box = (cum.take(at, axis=1) <= stages[live, t]).sum(axis=0)
            opens = box < n
            live, box = live[opens], box[opens]
            cost[live] += costs[box]
            opened[live] += 1.0
            hit = hits[live, box]
            won[live[hit]] = ubars[box[hit]]
            live, box = live[~hit], box[~hit]
            menu[live] &= ~(1 << box)
        return opened, oracle - (won - cost)

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
