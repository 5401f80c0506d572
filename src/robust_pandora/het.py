"""Robust search with box-specific rewards and inspection costs.

Heterogeneity breaks the symmetry that let the homogeneous solvers work
with a single search probability.  The DM now randomizes over which box to
open (or quitting) at every remaining subset, and the weights follow a
system of pseudo-indices: menu-dependent coefficients, one per box, whose
normalization gives the opening probabilities.  Unlike classic reservation
values these indices depend on the whole remaining menu, because opening a
box risks forgoing the others.

The candidate worst case puts each box at its indifference probability
``p_hat_i = c_i / ubar_i``, where the DM is indifferent across all plans;
the solution value for a menu ``N`` is

    R_N = sum_{i in N} p_hat_i Delta_i prod_{j above i} (1 - p_hat_j),

with ``Delta_i = ubar_i - c_i`` and "above" meaning later in the ascending
net-reward order.  The selection weights kill the adversary's first-order
gain from moving any one belief, and the regret is multilinear in the
beliefs, so every single-belief direction through that point is exactly
flat.

Array layout: a menu is a bitmask over input indices (bit ``i`` set while
box ``i`` is unopened), and every per-menu result is an array indexed by
it, ``(2**n,)`` for scalars and ``(2**n, n)`` for per-box values, with 0.0
for boxes outside the menu.  The solver and the exact evaluator both run
one popcount layer at a time, smallest menus first; a menu reads only the
layer below it.  Within a layer the working tables are position-major,
``(s, C)`` for the ``C`` menus of size ``s``: row ``t`` holds member ``t``
of every menu in ascending net-reward order, so each step of the recursion
is an operation on whole contiguous rows.  ``_walk`` is the one place that
maps layer tables to bitmask cells.  In the exact evaluator, each member's
own terms (the reward missed by stopping on it, the cost and value of
going on without it, and their product with its weight) are whole
``(s, C)`` tables, a few numpy operations per layer, taken in slabs of at
most ``_SLAB`` menus so that a wide layer's tables stay in cache (menus
are independent, so slabs change no bit); what carries a running value
stays per member: the top-down tail products and suffix
sums, and the weighted total, which adds one member row at a time under
its ``w != 0`` guard, so a menu no nonzero weight reaches (NaN) stays
out.  A sum over members adds whole rows one at a time, left to right in
ascending net-reward order as the scalar recursion does, so every entry
is bit-identical to it.  ``np.sum`` or ``np.add.reduce`` along the member
axis would not be: on a layer of one menu that axis is contiguous, and
numpy adds it pairwise, which rounds differently.

The solver's one table over two member axes is its record of each layer's
running sums, s (s + 1) / 2 rows of ``C`` floats, which the layer above
reads at each sub-menu's row instead of adding those sums again: a layer
costs O(s**2 C) time and memory, and the lattice O(n**2 2**n) time in all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import FrozenSet, Optional

import numpy as np

from .core import DomainError, HeteroPVector, SizeError, _check_box, _finite_real, _require_count, _shown, as_probability

__all__ = [
    "MAX_BOXES",
    "HeterogeneousSpec",
    "SubsetRule",
    "SelectionPolicy",
    "HetSolution",
    "psi",
    "solve_het",
    "regret_het",
    "cost_asymmetry_sweep",
]

# Subset tables are exponential; refuse instances past this size.  Wall
# time and peak RSS (ru_maxrss, interpreter included) of solve_het plus one
# regret_het in a fresh process, on a 2-vCPU x86-64 VM (three runs each):
# n = 16 0.11-0.14 s / 67 MB, n = 18 0.55-0.63 s / 202 MB, n = 20
# 3.4-3.5 s / 776 MB, under 1 GiB; the solver's running-sum records
# account for about 105 MB of that peak.
MAX_BOXES = 20

# menus per slab in regret_het: a slab's working tables stay in cache, where
# a whole middle layer's would not (up to 15 MB each at n = 20); columns are
# independent, so the slab size never changes a bit
_SLAB = 1 << 13


@dataclass(frozen=True)
class HeterogeneousSpec:
    """Boxes with individual high rewards and search costs.

    Boxes keep their input indices (0-based) everywhere in the public API;
    the ascending net-reward order used internally is exposed as ``order``.
    The outside option plays the role of a free, always-successful box with
    net reward zero.  Construction raises :class:`DomainError` unless every
    box's high reward is a number in [2**-300, 2**300], about
    [4.9e-91, 2.0e90], and its cost a number in ``(0, ubar_i)``.
    """

    boxes: tuple  # ((ubar_i, c_i), ...)

    def __post_init__(self):
        try:
            pairs = tuple((u, c) for u, c in self.boxes)
        except (TypeError, ValueError):
            raise DomainError(f"boxes must be (high reward, cost) pairs of numbers, got {_shown(self.boxes)}") from None
        if not pairs:
            raise DomainError("need at least one box")
        for i, (u, c) in enumerate(pairs):
            _check_box(u, c, f"box {i}: ")
        object.__setattr__(self, "boxes", tuple((float(u), float(c)) for u, c in pairs))

    @property
    def n(self) -> int:
        return len(self.boxes)

    @functools.cached_property
    def deltas(self) -> tuple:
        return tuple(u - c for u, c in self.boxes)

    @property
    def p_hats(self) -> tuple:
        return tuple(c / u for u, c in self.boxes)

    @functools.cached_property
    def order(self) -> tuple:
        """Original indices sorted by ascending net reward (stable on ties)."""
        return tuple(int(i) for i in np.argsort(np.asarray(self.deltas), kind="stable"))

    def full_set(self) -> frozenset:
        return frozenset(range(self.n))


@dataclass(frozen=True)
class SubsetRule:
    """Opening probabilities for one remaining menu, plus the quit weight."""

    open_probs: dict  # original box index -> probability
    optout: float

    def __post_init__(self):
        if not isinstance(self.open_probs, Mapping):
            raise DomainError(f"open weights must map box indices to probabilities, got {_shown(self.open_probs)}")
        probs = {
            _require_count(i, "box", 0): as_probability(w, f"open weight of box {_shown(i)}")
            for i, w in self.open_probs.items()
        }
        out = as_probability(self.optout, "opt-out weight")
        if abs(sum(probs.values()) + out - 1.0) > 1e-9:
            raise DomainError("subset rule weights must sum to 1")
        object.__setattr__(self, "open_probs", probs)
        object.__setattr__(self, "optout", out)

    @property
    def total_search(self) -> float:
        return 1.0 - self.optout


def _check_size(n: int):
    if n > MAX_BOXES:
        raise SizeError(f"subset recursion limited to {MAX_BOXES} boxes, got {_shown(n)}")


def _mask_of(subset: Iterable[int], n: int) -> int:
    if not isinstance(subset, Iterable):
        raise DomainError(f"a menu must be a collection of box indices, got {_shown(subset)}")
    mask = 0
    for i in subset:
        i = _require_count(i, "box", 0)
        if i >= n:
            raise DomainError(f"box {_shown(i)} is not among the {n} boxes")
        mask |= 1 << i
    return mask


def _members(mask: int, n: int) -> list:
    return [i for i in range(n) if mask >> i & 1]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class SelectionPolicy:
    """A subset rule for every menu the search process can reach.

    Stored as ``weights[mask, i]``, the chance of opening box ``i`` at menu
    ``mask`` (0.0 outside the menu), and ``optout[mask]``, the quit weight,
    NaN where the policy has no rule.  Both arrays are read-only.  The
    constructor takes a rule per menu; entries for boxes outside their menu
    are dropped.
    """

    def __init__(self, n: int, rules: Mapping[FrozenSet[int], SubsetRule]):
        n = _require_count(n, "box count", 0)
        _check_size(n)
        if not isinstance(rules, Mapping) or not all(isinstance(rule, SubsetRule) for rule in rules.values()):
            raise DomainError(f"rules must map menus to SubsetRule objects, got {_shown(rules)}")
        weights = np.zeros((1 << n, n))
        optout = np.full(1 << n, np.nan)
        for subset, rule in rules.items():
            mask = _mask_of(subset, n)
            for i in _members(mask, n):
                weights[mask, i] = rule.open_probs.get(i, 0.0)
            optout[mask] = rule.optout
        self._set(n, weights, optout)

    def _set(self, n: int, weights: np.ndarray, optout: np.ndarray):
        self.n = n
        self.weights = _read_only(weights)
        self.optout = _read_only(optout)

    @classmethod
    def _from_arrays(cls, n: int, weights: np.ndarray, optout: np.ndarray) -> "SelectionPolicy":
        policy = cls.__new__(cls)
        policy._set(n, weights, optout)
        return policy

    def rule_for(self, subset: Iterable[int]) -> SubsetRule:
        mask = _mask_of(subset, self.n)
        out = self.optout[mask]
        members = _members(mask, self.n)
        if np.isnan(out):
            raise DomainError(f"policy has no rule for subset {members}")
        return SubsetRule({i: float(self.weights[mask, i]) for i in members}, float(out))

    def subsets(self) -> list:
        """Every menu with a rule, as a frozenset of input indices."""
        return [frozenset(_members(int(m), self.n)) for m in np.flatnonzero(~np.isnan(self.optout))]

    @classmethod
    def always_opt_out(cls, n: int) -> "SelectionPolicy":
        n = _require_count(n, "box count", 0)
        _check_size(n)
        optout = np.ones(1 << n)
        optout[0] = np.nan
        return cls._from_arrays(n, np.zeros((1 << n, n)), optout)


@functools.lru_cache(maxsize=MAX_BOXES)
def _layers(n: int) -> tuple:
    """The menus of each popcount layer, position-major.

    Entry ``s`` is ``(members, sub_rows)`` for the ``C`` menus of size
    ``s``, with bit ``b`` of a menu meaning the box at position ``b`` of the
    ascending net-reward order.  Both tables are ``(s, C)``, one contiguous
    row per member rank: ``members[t, r]`` is the position of the ``t``-th
    member of menu ``r`` (ranks ascend with position), and
    ``sub_rows[t, r]`` is the row in layer ``s - 1`` of menu ``r`` without
    that member.  Removing member ``t`` keeps the ranks of the members below
    it, so row ``k < t`` of a layer ``s - 1`` table, read at ``sub_rows[t]``,
    is the same member.  One cached entry per ``n``, read-only; int8
    positions and int32 rows hold the n = 20 entry to about 50 MB.
    """
    masks = np.arange(1 << n)
    size = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        size += masks >> b & 1
    rank = np.empty(1 << n, dtype=np.int64)
    layers = []
    for s in range(n + 1):
        layer = masks[size == s]
        rank[layer] = np.arange(layer.size)
        members = np.empty((s, layer.size), dtype=np.int8)
        filled = np.zeros(layer.size, dtype=np.intp)
        for b in range(n):
            has = np.flatnonzero(layer >> b & 1)
            members[filled[has], has] = b
            filled[has] += 1
        sub_rows = rank[layer ^ (1 << members.astype(np.int64))].astype(np.int32)
        layers.append((_read_only(members), _read_only(sub_rows)))
    return tuple(layers)


def _add_rows(rows):
    """Elementwise sum of ``rows``, added left to right as Python's ``sum`` does; 0.0 for none."""
    total = 0.0
    for k, row in enumerate(rows):
        total = row if k == 0 else total + row
    return total


def _walk(spec: HeterogeneousSpec, probs):
    """Check the size on the call, then give the layers of menus of size ``s >= 1`` lazily, smallest first.

    A layer of ``C`` menus gives ``(menu, cells, sub_rows, p, d, c)``: their
    ``(C,)`` bitmasks, each member's flat index in a ``(2**n, n)`` table,
    ``sub_rows`` as in :func:`_layers`, and the members' ``(s, C)`` tables
    of ``probs``, net rewards and costs.
    """
    _check_size(spec.n)
    n, perm = spec.n, np.asarray(spec.order)
    per_box = np.array([probs, spec.deltas, [c for _, c in spec.boxes]], dtype=float)[:, perm]

    def layer(members, sub_rows):
        members = members.astype(np.intp)
        cells = perm.take(members)
        # distinct powers of two: an integer sum in any order is exact
        menu = (1 << cells).sum(axis=0)
        cells += menu * n
        return (menu, cells, sub_rows, *per_box.take(members, axis=1))

    return (layer(*entry) for entry in _layers(n)[1:])


def psi(k: int, subset: Iterable[int], spec: HeterogeneousSpec) -> float:
    """Probability that every box ranked above ``k`` in the menu comes up empty.

    Evaluated at the indifference beliefs: the product of ``1 - p_hat_j``
    over menu members strictly later than ``k`` in the net-reward order.
    The top-ranked member gets the empty product, 1.
    """
    k, mask = _require_count(k, "box", 0), _mask_of(subset, spec.n)
    if not mask >> k & 1:
        raise DomainError(f"box {_shown(k)} is not in the subset")
    p_hats = spec.p_hats
    ordered = [i for i in spec.order if mask >> i & 1]
    pos = ordered.index(k)
    out = 1.0
    for j in ordered[pos + 1 :]:
        out *= 1.0 - p_hats[j]
    return out


@dataclass(frozen=True, eq=False)
class HetSolution:
    """Selection weights, guaranteed regrets and pseudo-indices per menu.

    ``regrets[mask]`` and ``gammas[mask, i]`` follow the policy's bitmask
    layout; the methods read them by menu.
    """

    spec: HeterogeneousSpec
    policy: SelectionPolicy
    regrets: np.ndarray
    gammas: np.ndarray

    def _mask(self, subset: Optional[Iterable[int]]) -> int:
        if subset is None:
            return (1 << self.spec.n) - 1
        return _mask_of(subset, self.spec.n)

    def regret(self, subset: Optional[Iterable[int]] = None) -> float:
        return float(self.regrets[self._mask(subset)])

    def rule_for(self, subset: Optional[Iterable[int]] = None) -> SubsetRule:
        return self.policy.rule_for(range(self.spec.n) if subset is None else subset)

    def gamma(self, i: int, subset: Optional[Iterable[int]] = None) -> float:
        i, mask = _require_count(i, "box", 0), self._mask(subset)
        if not (i < self.spec.n and mask >> i & 1):
            raise DomainError(f"box {_shown(i)} is not in the subset")
        return float(self.gammas[mask, i])


def solve_het(spec: HeterogeneousSpec) -> HetSolution:
    """Minimax-regret selection weights for every menu of a heterogeneous spec.

    Builds the subset lattice bottom-up.  For each menu the pseudo-indices
    solve the linear system that kills Nature's incentive to move any single
    ``p_i`` away from its indifference value; their closed form is the
    recursion

        gamma_i = (B_0i + sum_{l below i} gamma_l B_li) / C_i,

    after which the weights are ``a(i) = gamma_i / (1 + sum gamma)`` and the
    quit weight is the same normalization applied to 1.  Every weight is
    strictly interior.  A pseudo-index grows like ``ubar_i / c_i``; where one
    overflows float range (a cost below about 1e-308 of a reward)
    :class:`DomainError` is raised.
    """
    layers = _walk(spec, spec.p_hats)
    n = spec.n
    weights = np.zeros((1 << n, n))
    gammas = np.zeros((1 << n, n))
    optout = np.full(1 << n, np.nan)
    regrets = np.zeros(1 << n)
    flat_weights, flat_gammas = weights.reshape(-1), gammas.reshape(-1)
    r_below = np.zeros(1)

    # row ``t`` of each table is member ``t`` in ascending net-reward order,
    # one column per menu; ``psi[t]`` is the chance that every member above
    # ``t`` is empty at p_hat, and ``w = p psi``.  B_0t and B_lt sum over the
    # members below ``t`` of the menu without ``t``; they keep their ranks
    # there, so these are that sub-menu's running sums stopped at member
    # ``t - 1``.  Each layer records its running sums for the layer above in
    # blocks, block ``k`` from row k (k + 1) / 2 on: its row 0 sums ``w d``
    # over members 0..k, and its row l + 1 sums ``w (d - d[l])`` over
    # members l+1..k; s (s + 1) / 2 rows in all
    for menu, cells, sub_rows, p, d, c in layers:
        s, width = p.shape
        psi = np.empty_like(p)
        psi[s - 1] = 1.0
        for t in range(s - 2, -1, -1):
            psi[t] = psi[t + 1] * (1.0 - p[t + 1])
        r = _add_rows(p * d * psi)
        w = p * psi
        # block k is block k - 1 plus member k's terms, and row k starts at
        # member k's own term (every term is >= +0.0, so starting at it
        # instead of at 0.0 changes no bit)
        rec = np.empty((s * (s + 1) // 2, width))
        head = 0
        for k in range(s):
            block = rec[head : head + k + 1]
            block[0] = d[k]
            np.subtract(d[k], d[:k], out=block[1:])
            block *= w[k]
            if k:
                block[:k] += rec[head - k : head]
            head += k + 1
        # C_t, whose sum over the members above t is the last block's row
        # t + 1; the top member's sum is empty
        c_gam = c + r_below.take(sub_rows)
        c_gam[: s - 1] -= rec[head - s + 1 :]

        # gam starts as the numerators B_0t: member t >= 1 finds block t - 1
        # of its sub-menu's records at flat index at[t - 1] of the layer
        # below, and row j of that block j rows further on
        gam = psi * d
        if s > 1:
            at = sub_rows[1:] + np.array([k * (k + 1) // 2 * width_below for k in range(s - 1)])[:, None]
            gam[1:] -= rec_below.take(at)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            for l in range(s - 1):
                gam[l] /= c_gam[l]
                # B_lt for every t > l, and gamma_l B_lt added to each later
                # numerator, in ascending l as the recursion adds them
                b = psi[l + 1 :] * (d[l + 1 :] - d[l])
                if l + 2 < s:
                    b[1:] -= rec_below[(l + 1) * width_below :].take(at[l + 1 :])
                b *= p[l]
                b *= gam[l]
                gam[l + 1 :] += b
            gam[s - 1] /= c_gam[s - 1]
            total = 1.0 + _add_rows(gam)
        if not np.isfinite(total).all():
            raise DomainError("pseudo-indices overflow float range: a cost is too small against the rewards")
        flat_gammas[cells] = gam
        flat_weights[cells] = gam / total
        optout[menu] = 1.0 / total
        regrets[menu] = r
        r_below, rec_below, width_below = r, rec.reshape(-1), width

    return HetSolution(
        spec=spec,
        policy=SelectionPolicy._from_arrays(n, weights, optout),
        regrets=_read_only(regrets),
        gammas=_read_only(gammas),
    )


def regret_het(policy: SelectionPolicy, p, spec: HeterogeneousSpec) -> float:
    """Exact expected ex-post regret of a selection policy.

    ``p`` gives each box's success probability (a ``HeteroPVector`` or a
    vector).  Opening a box hurts in two ways: stopping on a success
    forgoes any higher net reward that was also available, and a failure
    sinks the cost and passes to the shrunken menu.  Menus the policy never
    reaches, through nonzero opening weights, need no rule.
    """
    if not isinstance(policy, SelectionPolicy):
        raise DomainError(f"policy must be a SelectionPolicy, got {type(policy).__name__}")
    probs = (p if isinstance(p, HeteroPVector) else HeteroPVector(p)).p
    if len(probs) != spec.n:
        raise DomainError(f"need one probability per box, got {len(probs)} for n={spec.n}")
    layers = _walk(spec, probs)
    if policy.n != spec.n:
        raise DomainError(f"policy covers {policy.n} boxes, the spec has {spec.n}")

    # a menu without a rule is worth NaN, which reaches the full menu
    # exactly when some path of nonzero weights leads to it
    value_below = np.zeros(1)
    for layer in layers:
        # one slab takes the layer whole: slicing and joining measured about
        # 7 % of a call at n = 6
        if len(layer[0]) <= _SLAB:
            value_below = _menu_regrets(policy, value_below, *layer)
        else:
            slabs = range(0, len(layer[0]), _SLAB)
            value_below = np.concatenate(
                [_menu_regrets(policy, value_below, *(a[..., lo : lo + _SLAB] for a in layer)) for lo in slabs]
            )

    value = float(value_below[0])
    if np.isnan(value):
        raise DomainError("policy has no rule for a menu it can reach")
    return value


def _menu_regrets(policy, value_below, menu, cells, sub_rows, pr, d, c):
    """Regret of each menu of a layer's slab, from the values of the layer below."""
    s = pr.shape[0]
    w = policy.weights.take(cells)
    q = 1.0 - pr
    # best[t]: member t succeeds and every member above it fails, from the
    # running product of q down the members
    best = np.empty_like(pr)
    best[s - 1] = 1.0
    for t in range(s - 2, -1, -1):
        np.multiply(best[t + 1], q[t + 1], out=best[t])
    best *= pr
    # suffix_bd[t] and suffix_b[t] sum best d and best over members >= t
    best_d = best * d
    suffix_bd = np.zeros((s + 1, pr.shape[1]))
    suffix_b = np.zeros_like(suffix_bd)
    for t in range(s - 1, -1, -1):
        np.add(suffix_bd[t + 1], best_d[t], out=suffix_bd[t])
        np.add(suffix_b[t + 1], best[t], out=suffix_b[t])
    # step[t] = w[t] (missed[t] + cont[t]) for every member at once, in
    # place over suffix_b[1:]: missed is pr (suffix_bd[t+1] - d suffix_b[t+1]),
    # and cont is q (c + value of the menu without member t)
    step = suffix_b[1:]
    step *= d
    np.subtract(suffix_bd[1:], step, out=step)
    step *= pr
    cont = value_below.take(sub_rows)
    cont += c
    cont *= q
    step += cont
    step *= w
    # a member never gone on adds +0.0, which changes no bit of a total that
    # starts at optout * suffix_bd[0] >= +0.0 and so is never -0.0, and a NaN
    # behind a zero weight never reaches the total
    np.copyto(step, 0.0, where=w == 0.0)
    total = policy.optout.take(menu) * suffix_bd[0]
    for t in range(s):
        total += step[t]
    return total


def cost_asymmetry_sweep(ubar: float, c_total: float, delta_grid) -> list:
    """Two equal-reward boxes: how cost asymmetry steers and stimulates search.

    Holds ``c_i + c_j = c_total`` fixed and varies ``delta = c_i - c_j``.
    Each row reports the opening probabilities of the costlier box ``i`` and
    the cheaper box ``j`` plus the total search probability ``1 - a(0)``.
    """
    if not _finite_real(ubar):
        raise DomainError(f"high reward must be a finite number, got {_shown(ubar)}")
    if not _finite_real(c_total) or not 0.0 < c_total < 2.0 * ubar:
        raise DomainError(f"total cost must lie in (0, {2 * ubar}), got {_shown(c_total)}")
    deltas = np.asarray(delta_grid)
    if deltas.dtype.kind not in "iuf" or deltas.ndim != 1:
        raise DomainError(f"cost splits must be a vector of numbers, got {_shown(delta_grid)}")
    rows = []
    for d in deltas.astype(float):
        ci = (c_total + d) / 2.0
        cj = (c_total - d) / 2.0
        if not (0.0 < ci < ubar and 0.0 < cj < ubar):
            raise DomainError(f"cost split {float(d)!r} leaves a cost outside (0, {ubar})")
        sol = solve_het(HeterogeneousSpec(((ubar, ci), (ubar, cj))))
        rule = sol.rule_for()
        rows.append(
            {
                "delta": float(d),
                "open_costlier": rule.open_probs[0],
                "open_cheaper": rule.open_probs[1],
                "total_search": rule.total_search,
            }
        )
    return rows
