"""Monte-Carlo simulation of the search process under a known truth.

The closed forms price policies against worst cases; this module instead
runs the process forward under an explicit data-generating belief and
estimates the expected number of opened boxes and the realized ex-post
regret, with standard errors.

Reproducibility contract: all randomness comes from a Philox-4x64 counter
stream keyed by ``seed``.  With ``d`` the smallest multiple of 4 at or above
``2 (n + 1)`` (counter blocks hold four 64-bit words), episode ``e`` owns
the ``d`` float64 draws starting at word offset ``e * d``; each float64 is
one word, ``word >> 11`` scaled by ``2**-53``.  ``_blocks`` is the one
source of draws: both simulators read each chunk's episodes as the rows of
one ``(rows, d)`` array, in episode order.  Within a row, draws are spent in
a fixed order: one state column for the existence or count draw, one per
box, then one decision column per stage (heterogeneous stage draws select
by cumulative weight over boxes in ascending input order, with the outside
option last); the tail padding is never read.  Results are therefore
bit-identical for a given ``(policy, truth, spec, episodes, seed)`` no
matter how the work is chunked or threaded.
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


@dataclass(frozen=True)
class SimulationResult:
    episodes: int
    mean_opened: float
    se_opened: float
    mean_regret: float
    se_regret: float
    seed: int


def _blocks(seed: int, episodes: int, n: int):
    """Yield the draws of each chunk of ``episodes`` in episode order, one ``(rows, d)`` array per chunk."""
    draws = -(-2 * (n + 1) // 4) * 4
    for start in range(0, episodes, _CHUNK):
        # Philox.advance counts 256-bit counter blocks, i.e. four 64-bit draws
        bg = np.random.Philox(key=seed)
        bg.advance(start * draws // 4)
        yield np.random.Generator(bg).random((min(_CHUNK, episodes - start), draws))


def _homogeneous_chunks(policy: StationaryPolicy, truth, spec: HomogeneousSpec, episodes: int, seed: int):
    """Yield (opened, regret) arrays per chunk for a homogeneous simulation."""
    n, ubar, c = spec.n, spec.ubar, spec.c
    alphas_by_stage = policy.alphas[::-1].copy()  # stage j opens box j+1, k = n - j remain

    if isinstance(truth, CountProfile):
        if truth.n != n:
            raise DomainError("count profile length must match the spec")
        cum = np.cumsum(truth.Q)

    for U in _blocks(seed, episodes, n):
        state = U[:, : n + 1]
        dec = U[:, n + 1 : 2 * n + 1]

        if isinstance(truth, IidBinary):
            hits = state[:, 1:] < truth.p
            any_treasure = hits.any(axis=1)
            first = np.where(any_treasure, hits.argmax(axis=1) + 1, n + 1)
        elif isinstance(truth, NeedleP):
            any_treasure = state[:, 0] < truth.P
            pos = np.minimum((state[:, 1] * n).astype(np.int64), n - 1)
            first = np.where(any_treasure, pos + 1, n + 1)
        elif isinstance(truth, CountProfile):
            count = np.searchsorted(cum, state[:, 0], side="right")
            count = np.minimum(count, n)
            any_treasure = count > 0
            remaining = count.astype(np.float64)
            first = np.full(len(U), n + 1, dtype=np.int64)
            undecided = np.full(len(U), True)
            for i in range(n):
                take = undecided & (state[:, 1 + i] * (n - i) < remaining)
                first[take] = i + 1
                undecided &= ~take
                remaining = remaining - take
            first = np.where(any_treasure, first, n + 1)
        else:
            raise DomainError(f"homogeneous simulation cannot use truth {type(truth).__name__}")

        cont = dec < alphas_by_stage
        all_cont = cont.all(axis=1)
        willing = np.where(all_cont, n, cont.argmin(axis=1))

        found = first <= willing
        opened = np.where(found, first, willing)
        payoff = np.where(found, ubar - first * c, -willing * c)
        oracle = np.where(any_treasure, ubar - c, 0.0)
        del U, state, dec  # this chunk's draws go before _blocks draws the next
        yield opened.astype(np.float64), oracle - payoff


def _heterogeneous_chunks(policy: SelectionPolicy, truth: HeteroPVector, spec: HeterogeneousSpec, episodes: int, seed: int):
    """Yield (opened, regret) arrays per chunk for a heterogeneous simulation."""
    n = spec.n
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

    for U in _blocks(seed, episodes, n):
        rows = U.shape[0]
        hits = U[:, 1 : n + 1] < probs
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
            draw = U[live, n + 1 + t]
            box = np.zeros(live.size, dtype=np.intp)
            for i in range(n):
                box += cum[i].take(at) <= draw
            opens = box < n
            live, box = live[opens], box[opens]
            cost[live] += costs[box]
            opened[live] += 1.0
            hit = hits[live, box]
            won[live[hit]] = ubars[box[hit]]
            live, box = live[~hit], box[~hit]
            menu[live] &= ~(1 << box)
        del U  # this chunk's draws go before _blocks draws the next
        yield opened, oracle - (won - cost)


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
        if not isinstance(policy, StationaryPolicy) or policy.n != spec.n:
            raise DomainError("homogeneous simulation needs a StationaryPolicy of matching length")
        chunks = _homogeneous_chunks(policy, truth, spec, episodes, seed)
    elif isinstance(spec, HeterogeneousSpec):
        if not isinstance(policy, SelectionPolicy):
            raise DomainError("heterogeneous simulation needs a SelectionPolicy")
        if not isinstance(truth, HeteroPVector):
            raise DomainError("heterogeneous simulation needs a HeteroPVector truth")
        chunks = _heterogeneous_chunks(policy, truth, spec, episodes, seed)
    else:
        raise DomainError(f"unsupported spec type {type(spec).__name__}")

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
