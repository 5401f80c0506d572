"""Brute-force oracles used to pin expected values in the test suite.

Everything here recomputes regret by direct enumeration of reward states and
decision paths, deliberately avoiding the library's value recursions so the
two routes stay independent.
"""

from itertools import combinations, permutations, product

import numpy as np


def iid_states(n, p):
    """All 2^n binary reward states with their i.i.d. probabilities."""
    out = []
    for succ in product((False, True), repeat=n):
        k = sum(succ)
        out.append((p**k * (1 - p) ** (n - k), succ))
    return out


def needle_states(n, P):
    """No-treasure state plus one state per treasure position."""
    out = [(1.0 - P, (False,) * n)]
    for i in range(n):
        succ = tuple(j == i for j in range(n))
        out.append((P / n, succ))
    return out


def count_profile_states(Q):
    """Uniformly random treasure subsets for each count j with weight Q[j]."""
    n = len(Q) - 1
    out = []
    for j in range(n + 1):
        if Q[j] == 0.0:
            continue
        subsets = list(combinations(range(n), j))
        for sub in subsets:
            succ = tuple(i in sub for i in range(n))
            out.append((Q[j] / len(subsets), succ))
    return out


def walk_regret(alphas, states, ubar, c):
    """Expected regret of a stationary policy by direct decision-tree walk.

    The DM opens boxes in fixed order 0..n-1 (exchangeable states make the
    order irrelevant), continuing from ``k`` remaining boxes with probability
    ``alphas[k-1]`` and stopping forever on the first success.
    """
    n = len(alphas)
    total = 0.0
    for prob, succ in states:
        oracle = (ubar - c) if any(succ) else 0.0
        pay = 0.0
        reach = 1.0
        done = False
        for t in range(n):
            a = alphas[n - t - 1]
            pay += reach * (1.0 - a) * (-t * c)
            reach *= a
            if succ[t]:
                pay += reach * (ubar - (t + 1) * c)
                done = True
                break
        if not done:
            pay += reach * (-n * c)
        total += prob * (oracle - pay)
    return total


def mixture_regret(w, states, ubar, c):
    """Expected regret of an explicit stop-after-m mixture over plans."""
    n = len(w) - 1
    total = 0.0
    for prob, succ in states:
        oracle = (ubar - c) if any(succ) else 0.0
        first = next((t + 1 for t in range(n) if succ[t]), None)
        for m, wm in enumerate(w):
            if wm == 0.0:
                continue
            if first is not None and first <= m:
                payoff = ubar - first * c
            else:
                payoff = -m * c
            total += prob * wm * (oracle - payoff)
    return total


def het_enum_regret(rule_for, probs, boxes):
    """Heterogeneous expected regret by full state enumeration.

    ``rule_for(subset)`` must return an object with ``open_probs`` (dict by
    original box index) and ``optout``.  The DM stops on the first success;
    the oracle takes the best net reward among successful boxes, if positive.
    Uses the payoff decomposition (expected payoff per state) rather than the
    library's incremental-regret recursion.
    """
    n = len(boxes)
    deltas = [u - c for u, c in boxes]
    total = 0.0
    for succ in product((False, True), repeat=n):
        prob = 1.0
        for i in range(n):
            prob *= probs[i] if succ[i] else 1.0 - probs[i]
        if prob == 0.0:
            continue
        oracle = max([0.0] + [deltas[i] for i in range(n) if succ[i]])

        def payoff(subset):
            if not subset:
                return 0.0
            rule = rule_for(subset)
            val = 0.0
            for i, w in rule.open_probs.items():
                if w == 0.0:
                    continue
                if succ[i]:
                    val += w * (boxes[i][0] - boxes[i][1])
                else:
                    val += w * (-boxes[i][1] + payoff(subset - {i}))
            return val

        total += prob * (oracle - payoff(frozenset(range(n))))
    return total


def first_success_by_orders(Q):
    """First-success probabilities by enumerating all opening orders.

    Averages over every permutation of the opening order and every treasure
    subset drawn from the count profile; only feasible for small n.  The
    orders are tallied in integers, so each state adds one rounded term per
    opening.
    """
    n = len(Q) - 1
    q = np.zeros(n)
    orders = list(permutations(range(n)))
    for prob, succ in count_profile_states(Q):
        tally = [0] * n
        for order in orders:
            for pos, box in enumerate(order):
                if succ[box]:
                    tally[pos] += 1
                    break
        q += [prob * t / len(orders) for t in tally]
    return q


def exhaustive_utility_sum(p, n, spec):
    """Expected payoff of searching up to ``n`` boxes at success rate ``p``, term by term.

    First success on opening ``i`` pays ``ubar - i c``; no success in ``n``
    openings costs ``n c``.  The direct sum that the closed form of
    ``interim._utility`` replaced.
    """
    ubar, c = spec.ubar, spec.c
    i = np.arange(1, n + 1)
    return float(np.sum(p * (1 - p) ** (i - 1) * (ubar - i * c)) - (1 - p) ** n * n * c)


def interim_regret_high_belief(policy, p, spec):
    """Algebraic twin of ``interim_regret``, valid for p at or above c/ubar.

    Uses the telescoped form sum_j (1 - phi_{n-j}) (1-p)^j (p ubar - c),
    where ``phi[j - 1]`` is the probability that at least ``n - j + 1``
    boxes get opened: the staircase of zeros, then ``alpha``, then ones.
    The two routes agreeing is a correctness check on both.
    """
    n = spec.n
    phi = np.zeros(n)
    phi[n - policy.m - 1] = policy.alpha
    phi[n - policy.m :] = 1.0
    p = np.asarray(p, dtype=float)
    base = p * spec.ubar - spec.c
    out = np.zeros_like(base)
    for j in range(n):
        out = out + (1.0 - phi[n - j - 1]) * (1 - p) ** j * base
    return float(out) if out.ndim == 0 else out


def het_lattice_dicts(spec):
    """Per-menu weights, opt-outs, regrets and pseudo-indices, one dict each.

    The frozenset-keyed loop the array solver replaced, kept as its
    reference: each menu's sums run in the order the array solver must
    reproduce exactly.  Returns ``(open_probs, optout, regret, gammas)``,
    each keyed by the menu as a frozenset of input indices.
    """
    n = spec.n
    deltas = spec.deltas
    p_hats = spec.p_hats
    costs = tuple(c for _, c in spec.boxes)
    order = spec.order

    regret_star = {0: 0.0}
    psi_by_mask = {0: {}}
    out_probs, out_optout, out_regret, out_gammas = {}, {}, {}, {}

    # masks index positions in the sorted order; bit b set means box order[b]
    # is still unopened
    masks_by_size = {s: [] for s in range(n + 1)}
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            members = [b for b in range(n) if mask >> b & 1]
            boxes_sorted = [order[b] for b in members]

            psis = {}
            tail = 1.0
            for b in reversed(members):
                psis[order[b]] = tail
                tail *= 1.0 - p_hats[order[b]]
            psi_by_mask[mask] = psis

            regret_star[mask] = sum(p_hats[i] * deltas[i] * psis[i] for i in boxes_sorted)

            gammas = {}
            for t, b in enumerate(members):
                i = order[b]
                sub_mask = mask & ~(1 << b)
                psis_sub = psi_by_mask[sub_mask]
                above = [order[bb] for bb in members[t + 1 :]]
                c_i = (
                    costs[i]
                    + regret_star[sub_mask]
                    - sum(p_hats[k] * psis[k] * (deltas[k] - deltas[i]) for k in above)
                )
                below = [order[bb] for bb in members[:t]]
                b0 = psis[i] * deltas[i] - sum(p_hats[k] * psis_sub[k] * deltas[k] for k in below)
                numer = b0
                for s, l in enumerate(below):
                    between = below[s + 1 :]
                    b_li = p_hats[l] * (
                        psis[i] * (deltas[i] - deltas[l])
                        - sum(p_hats[k] * psis_sub[k] * (deltas[k] - deltas[l]) for k in between)
                    )
                    numer += gammas[l] * b_li
                gammas[i] = numer / c_i

            total = 1.0 + sum(gammas.values())
            key = frozenset(boxes_sorted)
            out_probs[key] = {i: gammas[i] / total for i in boxes_sorted}
            out_optout[key] = 1.0 / total
            out_regret[key] = regret_star[mask]
            out_gammas[key] = gammas
    return out_probs, out_optout, out_regret, out_gammas


def het_regret_memo(rule_for, probs, spec):
    """Expected regret by the memoized recursion over reached menus.

    The recursion the array evaluator replaced: only menus reached through
    nonzero opening weights are visited, so ``rule_for`` is asked for
    exactly those.
    """
    order = spec.order
    deltas = spec.deltas
    costs = tuple(c for _, c in spec.boxes)
    memo = {frozenset(): 0.0}

    def value(subset):
        got = memo.get(subset)
        if got is not None:
            return got
        rule = rule_for(subset)
        ordered = [i for i in order if i in subset]
        m = len(ordered)
        tail = np.empty(m + 1)
        tail[m] = 1.0
        for t in range(m - 1, -1, -1):
            tail[t] = tail[t + 1] * (1.0 - probs[ordered[t]])
        best = [probs[ordered[t]] * tail[t + 1] for t in range(m)]
        suffix_bd = np.zeros(m + 1)
        suffix_b = np.zeros(m + 1)
        for t in range(m - 1, -1, -1):
            suffix_bd[t] = suffix_bd[t + 1] + best[t] * deltas[ordered[t]]
            suffix_b[t] = suffix_b[t + 1] + best[t]
        total = rule.optout * suffix_bd[0]
        for t, i in enumerate(ordered):
            w = rule.open_probs.get(i, 0.0)
            if w == 0.0:
                continue
            missed = probs[i] * (suffix_bd[t + 1] - deltas[i] * suffix_b[t + 1])
            cont = (1.0 - probs[i]) * (costs[i] + value(subset - {i}))
            total += w * (missed + cont)
        memo[subset] = total
        return total

    return value(spec.full_set())


def sparse_het_policy(rng, n):
    """A hand-built ``SelectionPolicy`` with zero weights and rules only where they reach.

    Each member of each menu weighs 0 with chance 0.3 and a uniform draw
    otherwise; the full menu never opts out, and any other menu opts out with
    a uniform weight (with all of it where no member weighs).  A menu gets a
    rule only when a path of nonzero weights from the full menu leads to it,
    so every menu left unreached has none.
    """
    from robust_pandora.het import SelectionPolicy, SubsetRule

    full = (1 << n) - 1
    reached = {full}
    rules = {}
    # a menu's supersets have larger masks, so every path into it is known
    for mask in range(full, 0, -1):
        if mask not in reached:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        raw = {i: 0.0 if rng.random() < 0.3 else float(rng.random()) for i in members}
        out = 0.0 if mask == full else float(rng.random())
        if not any(raw.values()):
            out = 1.0
        total = sum(raw.values()) + out
        rules[frozenset(members)] = SubsetRule({i: w / total for i, w in raw.items()}, out / total)
        reached.update(mask & ~(1 << i) for i, w in raw.items() if w)
    return SelectionPolicy(n, rules)


def homog_episode_loop(policy, truth, spec, U):
    """Opened boxes and regret per episode of a homogeneous simulation, one row of draws ``U`` each.

    The per-episode loop the vectorized simulator replaced; ``U`` is any
    iterable of rows.  Row layout: column 0 the existence draw (needle) or
    count draw (count profile), column ``1 + i`` the draw of box ``i``, and
    column ``n + 1 + j`` the draw of stage ``j``, which opens box ``j + 1``
    when it falls below the chance of going on with ``n - j`` boxes left.
    A count profile's boxes succeed one after another with chance (treasures
    left) / (boxes left); a needle sits in box ``floor(n * draw)``.
    """
    from robust_pandora.core import CountProfile, IidBinary, NeedleP

    n, ubar, c = spec.n, spec.ubar, spec.c
    if isinstance(truth, CountProfile):
        cum = np.cumsum(truth.Q)
    opened, regret = [], []
    for row in U:
        first = None
        if isinstance(truth, IidBinary):
            first = next((i + 1 for i in range(n) if row[1 + i] < truth.p), None)
        elif isinstance(truth, NeedleP):
            if row[0] < truth.P:
                first = min(int(row[1] * n), n - 1) + 1
        else:
            remaining = min(int(np.searchsorted(cum, row[0], side="right")), n)
            for i in range(n):
                if row[1 + i] * (n - i) < remaining:
                    first = i + 1
                    break
        steps, payoff = 0, None
        for j in range(n):
            if not row[n + 1 + j] < policy.alphas[n - 1 - j]:
                break
            steps += 1
            if steps == first:
                payoff = ubar - steps * c
                break
        if payoff is None:
            payoff = -steps * c
        opened.append(float(steps))
        regret.append((ubar - c if first else 0.0) - payoff)
    return np.array(opened), np.array(regret)


def het_episode_loop(rule_for, probs, spec, U):
    """Opened boxes and regret per episode, one row of draws ``U`` each.

    The per-episode loop the vectorized simulator replaced; ``U`` is any
    iterable of rows.  Row layout: column 0 unused, columns ``1..n`` the box
    states, column ``n + 1 + t`` the decision draw of stage ``t``, which
    opens the first member (in ascending input order) whose cumulative
    weight exceeds it.
    """
    n = spec.n
    deltas = spec.deltas
    opened, regret = [], []
    for row in U:
        hits = row[1 : n + 1] < probs
        oracle = max([0.0] + [deltas[i] for i in range(n) if hits[i]])
        subset = spec.full_set()
        cost = 0.0
        payoff = 0.0
        steps = 0
        for t in range(n):
            rule = rule_for(subset)
            draw = row[n + 1 + t]
            acc = 0.0
            chosen = None
            for i in sorted(subset):
                acc += rule.open_probs[i]
                if draw < acc:
                    chosen = i
                    break
            if chosen is None:
                payoff = -cost
                break
            cost += spec.boxes[chosen][1]
            steps += 1
            if hits[chosen]:
                payoff = spec.boxes[chosen][0] - cost
                break
            subset = subset - {chosen}
            payoff = -cost
        opened.append(float(steps))
        regret.append(oracle - payoff)
    return np.array(opened), np.array(regret)


def _two_box_acceptance_scalar(u, policy):
    """Scalar continuation chance after a first reward ``u`` (tie stops)."""
    ubar, c = policy.ubar, policy.c
    if u >= policy.v_acc:
        return 0.0
    if policy.regime == "small" or u <= policy.v_low:
        return 1.0
    a = policy.alpha2_0
    return (2.0 * (ubar - u) - a * (ubar - u + c)) / (a * (ubar - u))


def _two_box_pair_regret_scalar(policy, u, v):
    """Regret against the reward pair {u, v}, u >= v, one pair at a time."""
    c = policy.c
    oracle = max(0.0, u - c)
    a1_u = _two_box_acceptance_scalar(u, policy)
    a1_v = _two_box_acceptance_scalar(v, policy)
    pay_first_v = (1.0 - a1_v) * (v - c) + a1_v * (u - 2.0 * c)
    pay_first_u = (1.0 - a1_u) * (u - c) + a1_u * (u - 2.0 * c)
    search_pay = 0.5 * (pay_first_v + pay_first_u)
    return (1.0 - policy.alpha2_0) * oracle + policy.alpha2_0 * (oracle - search_pay)


def _two_box_plan_regret(policy, nature, open_first, threshold):
    """Regret of quitting, or of open-then-continue-up-to-threshold, against the mixture."""
    ubar, c = policy.ubar, policy.c
    pairs = [((0.0, 0.0), nature.q), ((nature.v_hat, 0.0), nature.r), ((ubar, nature.v_hat), nature.s)]
    total = 0.0
    for (u, v), w in pairs:
        if w == 0.0:
            continue
        oracle = max(0.0, u - c)
        if not open_first:
            total += w * oracle
            continue
        pay = 0.0
        for first, other in ((u, v), (v, u)):
            if first > threshold:
                pay += 0.5 * (first - c)
            else:
                pay += 0.5 * (max(first, other) - 2.0 * c)
        total += w * (oracle - pay)
    return total


def two_box_grid_loop(policy, nature, spec, claimed, grid_size):
    """Scalar double loop over the pair grid and a plan per grid threshold.

    Returns ``(nature_gap, worst_pair, dm_gap)``: the first worst pair in
    row-major order, and the DM's best plan among quitting and a
    continue-up-to-t plan for every grid point t.
    """
    grid = np.linspace(0.0, spec.ubar, int(grid_size))
    nature_gap = -np.inf
    worst_pair = (0.0, 0.0)
    for i, u in enumerate(grid):
        for v in grid[: i + 1]:
            gap = _two_box_pair_regret_scalar(policy, float(u), float(v)) - claimed
            if gap > nature_gap:
                nature_gap = gap
                worst_pair = (float(u), float(v))
    candidates = [_two_box_plan_regret(policy, nature, False, 0.0)]
    candidates += [_two_box_plan_regret(policy, nature, True, float(t)) for t in grid]
    return float(nature_gap), worst_pair, float(claimed - min(candidates))


def two_box_block_scan(policy, spec, claimed, grid_size):
    """The pair grid scored by row blocks of ``_PAIR_BLOCK`` pairs, every lower-triangle pair in 2-D.

    Each block of rows u is scored against every grid point v up to its last
    row, and the pairs with v > u are masked.  Returns ``(nature_gap,
    worst_pair)``, the first worst pair in row-major order.
    """
    from robust_pandora.two_box import _PAIR_BLOCK, _pair_regret, _reward_terms, _RewardTerms

    grid = np.linspace(0.0, spec.ubar, grid_size)
    terms = _reward_terms(grid, policy)
    nature_gap, worst_pair = -np.inf, (0.0, 0.0)
    step = max(1, _PAIR_BLOCK // grid.size)
    for start in range(0, grid.size, step):
        end = min(start + step, grid.size)
        high = _RewardTerms(*(t[start:end, None] for t in terms))
        low = _RewardTerms(*(t[:end] for t in terms))
        gaps = _pair_regret(policy, high, low) - claimed
        gaps[np.arange(end) > np.arange(start, end)[:, None]] = -np.inf
        i, j = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
        if gaps[i, j] > nature_gap:
            nature_gap = gaps[i, j]
            worst_pair = (float(grid[start + i]), float(grid[j]))
    return float(nature_gap), worst_pair


def corr_vertex_scan(w, spec):
    """Regret of stopping weights ``w`` at each of the ``n + 1`` degenerate count profiles.

    The full scan that the hidden-treasure lemma reduces to vertices 0 and 1
    in ``saddle_check_corr``: vertex ``j >= 1`` has row ``j`` of one
    ``(n + 1, n + 1)`` tail table as its tails, vertex 0 none, and all rows
    are scored at once by the functional ``K (1 - T_0) + sum_i v_i T_i`` of
    ``core._regret_terms``, each sum left to right.
    """
    from robust_pandora.core import _regret_terms, _tail_table

    tails = _tail_table(spec.n, np.arange(spec.n + 1))
    tails[0] = 0.0
    K, v = _regret_terms(np.asarray(w, dtype=float), spec)
    return K * (1.0 - tails[:, 0]) + np.cumsum(v * tails, axis=1)[:, -1]


def corr_commitment_hull(spec):
    """The corr commitment game solved on the lower hull of its pure plans, without the solver.

    By the hidden-treasure lemma Nature mixes "every box empty" with "one
    treasure, uniformly placed", and the regret is linear in that mixture, so
    the game is ``min_w max(K(w), R_1(w))`` over mixtures ``w`` of the plans
    ``e_m``, "stop after m failures", m = 0..n.  Plan ``e_m`` has ``K = c m``
    and, against a certain single treasure that it misses with probability
    ``(n - m)/n`` or finds at opening ``j <= m`` for a loss of ``c (j - 1)``,

        R_1(e_m) = (n - m)/n (ubar - c + c m) + c m (m - 1) / (2 n).

    The value is the least ``max(x, y)`` over the lower convex hull of the
    points ``(c m, R_1(e_m))``, built by Andrew's monotone chain in one pass
    over m (the points come sorted by x): at a hull vertex, or where a hull
    edge crosses ``x = y``.  Returns ``(value, optout_weight, hull)``, the
    weight of ``e_0`` at that point and the m's of the hull's vertices.  As
    the solver's boundary menu opts out, the weight is 1 when opting out is
    within ``4 eps ubar`` of the value.
    """
    ubar, c, n = spec.ubar, spec.c, spec.n
    m = np.arange(n + 1, dtype=float)
    xs = (c * m).tolist()
    ys = ((n - m) / n * (ubar - c + c * m) + c * m * (m - 1.0) / (2.0 * n)).tolist()
    hull = []
    for k in range(n + 1):
        # pop the last vertex while it is not strictly below the chord to k
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (xs[j] - xs[i]) * (ys[k] - ys[i]) - (ys[j] - ys[i]) * (xs[k] - xs[i]) > 0.0:
                break
            hull.pop()
        hull.append(k)
    value, weight = max(xs[0], ys[0]), 1.0
    for i, j in zip(hull, hull[1:]):
        above_i, above_j = ys[i] - xs[i], ys[j] - xs[j]
        if above_i > 0.0 >= above_j:
            t = above_i / (above_i - above_j)
            if xs[i] + t * (xs[j] - xs[i]) < value:
                value, weight = xs[i] + t * (xs[j] - xs[i]), (1.0 - t if i == 0 else 0.0)
        if max(xs[j], ys[j]) < value:
            value, weight = max(xs[j], ys[j]), 0.0
    if ys[0] <= value + 4.0 * np.finfo(float).eps * ubar:
        weight = 1.0
    return value, weight, hull


def corr_profile_loop(spec, tol=1e-9, q_draws=1000, mode="commitment", seed=0):
    """``saddle_check_corr`` scoring ``q_draws`` Dirichlet profiles and every vertex one at a time.

    Each Dirichlet draw (one draw per call) and each of the ``n + 1``
    vertices becomes a ``CountProfile`` scored by ``regret_count_profile``.
    With ``q_draws=0`` it is ``saddle_check_corr`` without the lemma that
    only vertices 0 and 1 can be worst; returns the same kind of
    ``SaddleReport``.  A profile that beats its ``single_treasure_equivalent``
    adds a note, which the check, relying on the lemma, never does.
    """
    from robust_pandora.core import CountProfile, NeedleP, SaddleReport, StoppingMixture, _plan_regrets, _tails
    from robust_pandora.core import regret_count_profile
    from robust_pandora.corr import single_treasure_equivalent, solve_corr_commitment, solve_corr_intrapersonal
    from robust_pandora.verify import nature_best_response_needle

    sol = solve_corr_commitment(spec) if mode == "commitment" else solve_corr_intrapersonal(spec)
    n = spec.n
    worst_P, worst = nature_best_response_needle(sol.policy, spec)
    nature_gap = worst - sol.regret

    rng = np.random.default_rng(seed)
    w = StoppingMixture.from_policy(sol.policy)
    profiles = [rng.dirichlet(np.ones(n + 1)) for _ in range(q_draws)]
    for j in range(n + 1):
        vertex = np.zeros(n + 1)
        vertex[j] = 1.0
        profiles.append(vertex)
    flattening_ok = True
    for Q_raw in profiles:
        Q = CountProfile(Q_raw)
        value = regret_count_profile(w, Q, spec)
        flattened = regret_count_profile(w, single_treasure_equivalent(Q), spec)
        if value > flattened + 1e-12:
            flattening_ok = False
        nature_gap = max(nature_gap, value - sol.regret)

    if mode == "commitment":
        needle = np.zeros(n + 1)
        needle[:2] = 1.0 - sol.worst_case_P[-1], sol.worst_case_P[-1]
        dm_gap = sol.regret - _plan_regrets(_tails(needle), spec).min()
    else:
        dm_gap = -np.inf
        prev = 0.0
        for k in range(1, n + 1):
            P_k = float(sol.worst_case_P[k - 1])
            stay_out = P_k * (spec.ubar - spec.c)
            open_once = (1.0 - P_k / k) * (spec.c + prev)
            dm_gap = max(dm_gap, float(sol.regret_per_k[k - 1]) - min(stay_out, open_once))
            prev = float(sol.regret_per_k[k - 1])

    notes = () if flattening_ok else ("a correlated profile beat its single-treasure flattening",)
    return SaddleReport(
        nature_gap=nature_gap, dm_gap=dm_gap, worst_belief=NeedleP(worst_P), tolerance=tol * spec.ubar, notes=notes
    )


def stopping_weights_loop(alphas):
    """``StoppingMixture.from_policy`` weights by the scalar loop it replaced.

    ``w_m = (1 - alpha_{n-m}) * prod_{j > n-m} alpha_j`` with the product
    carried stage by stage from ``k = n`` down, as Python floats.
    """
    w = []
    tail = 1.0
    for a in reversed(list(map(float, alphas))):
        w.append((1.0 - a) * tail)
        tail *= a
    w.append(tail)
    return w


def needle_recursion(alphas, P, spec):
    """``regret_needle`` by its stage loop, one Python step per box.

    A failed opening updates the treasure probability to ``P (k-1) / (k - P)``
    on the ``k-1`` remaining boxes, which keeps 0 and 1 fixed, and the regret
    is linear in the belief, so it is ``(1 - P) R_empty + P R_treasure``
    with ``R_0 = 0`` and

        R_empty_k = a_k (c + R_empty_{k-1}),
        R_treasure_k = (1 - a_k) (ubar - c) + a_k (1 - 1/k) (c + R_treasure_{k-1}).
    """
    ubar, c = spec.ubar, spec.c
    empty = treasure = 0.0
    for k, a in enumerate(np.asarray(alphas, dtype=float).tolist(), start=1):
        empty = a * (c + empty)
        treasure = (1.0 - a) * (ubar - c) + a * (1.0 - 1.0 / k) * (c + treasure)
    P = np.asarray(P, dtype=float)
    return (1.0 - P) * empty + P * treasure


def indep_recursion(alphas, p, spec):
    """``regret_indep`` by its backward recursion, broadcasting over policies or p.

    ``R_k = (1 - a_k) (1 - (1-p)^k) (ubar - c) + a_k (1-p) (c + R_{k-1})``
    stage by stage, without the library's coefficient polynomial.
    ``alphas`` may have shape ``(..., n)``; ``p`` broadcasts against the
    leading axes.
    """
    ubar, c = spec.ubar, spec.c
    alphas = np.asarray(alphas, dtype=float)
    fail = 1.0 - np.asarray(p, dtype=float)
    r = np.zeros(np.broadcast_shapes(alphas.shape[:-1], fail.shape))
    for k in range(1, alphas.shape[-1] + 1):
        a = alphas[..., k - 1]
        r = (1.0 - a) * (1.0 - fail**k) * (ubar - c) + a * fail * (c + r)
    return r


def indep_poly_loop(alphas, spec):
    """The recursion of :func:`indep_recursion` carried out on coefficient vectors in ``x = 1 - p``.

    ``R_k = (1 - a_k) (ubar - c) (1 - x^k) + a_k x (c + R_{k-1})`` one stage
    at a time, O(n^2); highest degree first, as ``np.polyval`` reads it.
    """
    ubar, c = spec.ubar, spec.c
    r = np.zeros(len(alphas) + 1)
    for k, a in enumerate(np.asarray(alphas, dtype=float).tolist(), start=1):
        gain = (1.0 - a) * (ubar - c)
        r[1 : k + 1] = a * r[:k]
        r[0] = gain
        r[1] += a * c
        r[k] -= gain
    return r[::-1]


def polyval(coef, x):
    """Horner's rule, as ``np.polyval`` but without its 0-d array cost for a scalar ``x``."""
    out = 0.0
    for a in coef:
        out = out * x + a
    return out


def indep_grid_search(policy, spec):
    """``nature_best_response_indep`` by the grid-started search that the proof replaced.

    The regret polynomial's best point in ``x = 1 - p`` among 2001 fixed
    beliefs (``np.polyval``) starts the shared peak search on the two grid
    cells around it, with the value, slope and curvature from one Horner
    pass.  It assumes one peak there and certifies none; a policy that
    almost surely opts out puts the peak near ``x = 0``, where it may raise
    ``ConvergenceError``.  Returns ``(p_star, regret)``.
    """
    from robust_pandora.core import _peak_search, _regret_indep_poly

    coef = _regret_indep_poly(policy, spec)
    terms = coef.tolist()

    def at(x):
        value = slope = half_bend = 0.0
        for a in terms:
            half_bend = half_bend * x + slope
            slope = slope * x + value
            value = value * x + a
        return value, slope, 2.0 * half_bend

    grid = np.linspace(0.0, 1.0, 2001)
    best = int(np.argmax(np.polyval(coef, grid)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    x, worst = _peak_search(at, float(lo), float(hi), float(grid[best]))
    return 1.0 - x, worst


def indep_descent_loop(spec, tol=1e-6, dm_probes=10_000, seed=0):
    """``saddle_check_indep`` with a sampled DM side: random probes, then coordinate descent.

    The search the exact backward induction replaced: all probes drawn at
    once, then 6n calls of :func:`indep_recursion` per pass on a fresh copy
    of the policy.  Returns the same kind of ``SaddleReport``.
    """
    from robust_pandora.core import IidBinary, SaddleReport
    from robust_pandora.indep import solve_indep, weitzman_threshold
    from robust_pandora.verify import nature_best_response_indep

    sol = solve_indep(spec)
    p_star, worst = nature_best_response_indep(sol.policy, spec)
    nature_gap = worst - sol.regret

    rng = np.random.default_rng(seed)
    phat = weitzman_threshold(spec)
    probes = rng.random((dm_probes, spec.n))
    values = indep_recursion(probes, phat, spec)
    best = float(values.min())
    alphas = probes[int(np.argmin(values))].copy()
    for _ in range(3):
        for k in range(spec.n):
            for endpoint in (0.0, 1.0):
                trial = alphas.copy()
                trial[k] = endpoint
                val = float(indep_recursion(trial, phat, spec))
                if val < best:
                    best = val
                    alphas = trial
    dm_gap = sol.regret - best

    return SaddleReport(
        nature_gap=nature_gap,
        dm_gap=dm_gap,
        worst_belief=IidBinary(p_star),
        tolerance=tol * spec.ubar,
    )


def interim_high_branch(m, alpha, spec):
    """Worst high-belief regret of the interim plan ``(m, alpha)``, with its argmax in ``x = 1 - p``.

    The solver's own bracketed Newton search on a fresh ``_HighBranch`` per
    call, so that no memo is shared between calls; the search itself is
    checked against a dense scan of the whole branch and against the same
    search run on the coefficient polynomial from its best grid point, in
    ``tests/test_interim.py``.
    Returns ``(x_star, value)``.
    """
    from robust_pandora.interim import _HighBranch

    return _HighBranch(spec).maximize(m, alpha)


def interim_linear_scan(spec):
    """``solve_interim`` scanning the sure-search count ``m`` from ``n - 1`` down.

    The scan the bisection replaced: one high-branch maximization per
    candidate, each by :func:`interim_high_branch` on a fresh branch, so no
    memo is shared between calls, flagging ``degenerate_tie`` at every
    candidate it passes with ``|cand c - tail| < 1e-12``.  The Newton step
    for the randomization weight is the solver's own.  Returns the same
    ``InterimReport``.
    """
    from robust_pandora.core import _NEWTON_STEPS, ConvergenceError
    from robust_pandora.interim import InterimPolicy, InterimReport

    n, ubar, c = spec.n, spec.ubar, spec.c
    m = 0
    degenerate = False
    for cand in range(n - 1, -1, -1):
        _, tail = interim_high_branch(cand, 1.0, spec)
        if abs(cand * c - tail) < 1e-12:
            degenerate = True
        if cand * c < tail:
            m = cand
            break

    def residual_at(m, alpha):
        x_star, worst = interim_high_branch(m, alpha, spec)
        return (m + alpha) * c - worst, x_star

    hi_res, _ = residual_at(m, 1.0)
    if m < n - 1 and hi_res < 0.0:
        m += 1
        hi_res, _ = residual_at(m, 1.0)
    alpha = 0.0
    res, x_star = residual_at(m, alpha)
    if res > 0.0 or hi_res < 0.0:
        raise ConvergenceError(f"no equalizing randomization in [0, 1] at m={m}")
    for _ in range(_NEWTON_STEPS):
        slope = c + x_star**m * ((ubar - c) - ubar * x_star)
        nxt = min(alpha - res / slope, 1.0)
        if not nxt > alpha:
            break
        alpha = nxt
        res, x_star = residual_at(m, alpha)
    if abs(res) > 1e-9:
        raise ConvergenceError(f"equalization residual {res:.3e} after Newton's method")
    return InterimReport(
        policy=InterimPolicy(m, alpha, n),
        regret=(m + alpha) * c,
        worst_p_high=1.0 - x_star,
        residual=abs(res),
        degenerate_tie=degenerate,
    )


def first_success_table_loop(n):
    """The ``(n, n + 1)`` table ``C_k^j`` of ``first_success_probabilities``, one slice product per factor.

    Row ``k - 1`` starts from ``j / (n - k + 1)`` and is multiplied by the
    factor rows ``(n - i - j) / (n - i)``, ``i = 0..k-2``, one at a time:
    O(n^3) work.
    """
    j = np.arange(n + 1)
    coeff = j / (n - np.arange(n)[:, None])
    for i in range(n - 1):
        coeff[i + 1 :] *= (n - i - j) / (n - i)
    return coeff


def first_success_table_cumprod(n):
    """The ``C_k^j`` table as the count path first built it.

    Rows in integer arithmetic, divided into floats, stacked into a new
    table and multiplied down by ``np.cumprod``.
    """
    j = np.arange(n + 1)
    k = np.arange(1, n)[:, None]
    return np.cumprod(np.concatenate([j[None] / n, (n - k + 1 - j) / (n - k)]), axis=0)


def first_success_cumsum(Q):
    """``core.first_success_probabilities`` as first written: the full table times ``Q``, summed by ``np.cumsum``.

    ``Q`` may stack profiles along leading axes, ``(..., n + 1) -> (..., n)``;
    each sum over ``j`` runs left to right from ``j = 0``.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[-1] - 1
    return np.cumsum(first_success_table_cumprod(n) * Q[..., None, :], axis=-1)[..., -1]


def plan_regrets_masked(Q, spec):
    """``core._plan_regrets`` as first written: ``reached`` sums a masked ``(..., n + 1, n)`` copy of ``q``.

    ``q`` comes from :func:`first_success_cumsum`.
    """
    ubar, c, n = spec.ubar, spec.c, spec.n
    q = first_success_cumsum(Q)
    m = np.arange(n + 1)
    early = np.cumsum(np.concatenate([np.zeros(q.shape[:-1] + (1,)), q * (m[:-1] * c)], axis=-1), axis=-1)
    reached = np.cumsum(np.where(m[1:] > m[:, None], q[..., None, :], 0.0), axis=-1)[..., -1]
    total = reached[..., :1]
    return early + reached * (ubar - c + m * c) + (1.0 - total) * m * c


def indep_pure_plan_min(spec):
    """Least regret of any 0/1 stage plan against the threshold belief, by enumeration.

    Walks every one of the 2^n pure plans through every reward state at
    ``p_hat = c / ubar``; only feasible for small n.
    """
    states = iid_states(spec.n, spec.c / spec.ubar)
    return min(walk_regret(plan, states, spec.ubar, spec.c) for plan in product((0.0, 1.0), repeat=spec.n))


def interim_alpha_grid_oracle(spec):
    """Brute-force min-max over interim plans on an alpha grid and a p grid.

    The scan the bisected envelope of ``interim_grid_oracle`` replaced:
    every plan ``(m, alpha)`` with ``alpha`` on a 1001-point grid is priced
    at every ``p`` of a 2001-point grid, 64 alpha rows at a time.  Returns
    the minimizing ``(m, alpha, worst_regret)``, the first of equal minima.
    """
    from robust_pandora.interim import InterimPolicy, interim_regret

    n = spec.n
    alpha_grid = np.linspace(0.0, 1.0, 1001)
    p_grid = np.linspace(0.0, 1.0, 2001)
    best = None
    for m in range(n):
        # regret is linear in alpha at every p, so the two endpoint policies
        # span the whole alpha axis
        at_zero = interim_regret(InterimPolicy(m, 0.0, n), p_grid, spec)
        at_one = interim_regret(InterimPolicy(m, 1.0, n), p_grid, spec)
        blocks = np.split(alpha_grid, range(64, alpha_grid.size, 64))
        worst = np.concatenate([(np.outer(1.0 - a, at_zero) + np.outer(a, at_one)).max(axis=1) for a in blocks])
        idx = int(np.argmin(worst))
        if best is None or worst[idx] < best[2]:
            best = (m, float(alpha_grid[idx]), float(worst[idx]))
    return best
