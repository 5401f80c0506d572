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
    subset drawn from the count profile; only feasible for small n.
    """
    n = len(Q) - 1
    q = np.zeros(n)
    orders = list(permutations(range(n)))
    for prob, succ in count_profile_states(Q):
        for order in orders:
            for pos, box in enumerate(order):
                if succ[box]:
                    q[pos] += prob / len(orders)
                    break
    return q


def interim_regret_high_belief(policy, p, spec):
    """Algebraic twin of ``interim_regret``, valid for p at or above c/ubar.

    Uses the telescoped form sum_j (1 - phi_{n-j}) (1-p)^j (p ubar - c);
    the two routes agreeing is a correctness check on both.
    """
    n = spec.n
    p = np.asarray(p, dtype=float)
    base = p * spec.ubar - spec.c
    out = np.zeros_like(base)
    for j in range(n):
        out = out + (1.0 - policy.phi[n - j - 1]) * (1 - p) ** j * base
    return float(out) if out.ndim == 0 else out
