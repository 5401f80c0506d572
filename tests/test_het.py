import numpy as np
import pytest

from robust_pandora import het
from robust_pandora.core import DomainError, HeteroPVector, HomogeneousSpec, SizeError
from robust_pandora.het import (
    HeterogeneousSpec,
    SelectionPolicy,
    SubsetRule,
    cost_asymmetry_sweep,
    psi,
    regret_het,
    solve_het,
)
from robust_pandora.indep import solve_indep
from robust_pandora.simulate import simulate

from oracles import het_enum_regret, het_lattice_dicts, het_regret_memo, sparse_het_policy


def random_het_spec(rng, n):
    boxes = []
    for _ in range(n):
        u = rng.uniform(0.5, 2.0)
        boxes.append((u, u * rng.uniform(0.1, 0.9)))
    return HeterogeneousSpec(tuple(boxes))


def tied_het_spec(rng, n):
    # two rewards and two cost ratios, so net rewards tie within the menu
    u = rng.choice([1.0, 1.5], n)
    return HeterogeneousSpec(tuple(zip(u.tolist(), (u * rng.choice([0.2, 0.4], n)).tolist())))


class TestSpec:
    def test_rejects_bad_boxes(self):
        with pytest.raises(DomainError):
            HeterogeneousSpec(((1.0, 1.0),))
        with pytest.raises(DomainError):
            HeterogeneousSpec(((0.0, 0.1),))
        with pytest.raises(DomainError):
            HeterogeneousSpec(())
        with pytest.raises(DomainError):
            HeterogeneousSpec(((None, 0.1),))
        for box in (("1", "0.1"), (1.0, "0.1"), (True, 0.1), (2.0, True), (1.0, 0.1, 0.2), 1.0):
            with pytest.raises(DomainError):
                HeterogeneousSpec((box,))

    def test_order_ascending_net_reward(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.6), (2.0, 0.5)))
        # deltas: 0.8, 0.4, 1.5 -> order (1, 0, 2)
        assert spec.order == (1, 0, 2)

    def test_tie_order_stable(self):
        spec = HeterogeneousSpec(((1.0, 0.3), (1.0, 0.3)))
        assert spec.order == (0, 1)


class TestPsi:
    def test_top_box_empty_product(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.6)))
        assert psi(0, {0, 1}, spec) == 1.0  # delta 0.8 is the top

    def test_two_box_single_factor(self):
        spec = HeterogeneousSpec(((1.0, 0.6), (1.0, 0.2)))
        # box 0 (delta 0.4) sits below box 1 (delta 0.8, p_hat 0.2)
        assert psi(0, {0, 1}, spec) == pytest.approx(0.8, abs=1e-15)

    def test_symmetric_boxes_powers(self):
        spec = HeterogeneousSpec(tuple((1.0, 0.3) for _ in range(5)))
        full = spec.full_set()
        for rank, i in enumerate(spec.order, start=1):
            assert psi(i, full, spec) == pytest.approx(0.7 ** (5 - rank), abs=1e-14)

    def test_requires_membership(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.6)))
        with pytest.raises(DomainError):
            psi(0, {1}, spec)


class TestSolveHet:
    def test_single_box_closed_form(self):
        sol = solve_het(HeterogeneousSpec(((1.0, 0.3),)))
        assert sol.gamma(0) == pytest.approx(0.7 / 0.3, abs=1e-12)
        rule = sol.rule_for()
        assert rule.open_probs[0] == pytest.approx(0.7, abs=1e-12)
        assert sol.regret() == pytest.approx(0.21, abs=1e-14)

    def test_two_symmetric_boxes(self):
        sol = solve_het(HeterogeneousSpec(((1.0, 0.3), (1.0, 0.3))))
        rule = sol.rule_for()
        assert rule.open_probs[0] == pytest.approx(49 / 149, abs=1e-12)
        assert rule.open_probs[1] == pytest.approx(49 / 149, abs=1e-12)
        assert rule.optout == pytest.approx(51 / 149, abs=1e-12)
        assert sol.regret() == pytest.approx(0.357, abs=1e-12)

    def test_symmetric_reduction_matches_homogeneous(self):
        for n in range(2, 7):
            het = solve_het(HeterogeneousSpec(tuple((1.0, 0.3) for _ in range(n))))
            hom = solve_indep(HomogeneousSpec(1.0, 0.3, n))
            rule = het.rule_for()
            for i in range(n):
                assert abs(rule.open_probs[i] - hom.alphas[-1] / n) <= 1e-10
            assert abs(het.regret() - hom.regret) <= 1e-10

    def test_weights_interior_and_normalized(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            spec = random_het_spec(rng, int(rng.integers(1, 6)))
            sol = solve_het(spec)
            for subset in sol.policy.subsets():
                rule = sol.policy.rule_for(subset)
                assert rule.optout > 0.0
                assert all(w > 0.0 for w in rule.open_probs.values())
                assert abs(sum(rule.open_probs.values()) + rule.optout - 1.0) <= 1e-12

    def test_gammas_positive(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            spec = random_het_spec(rng, 4)
            sol = solve_het(spec)
            for subset in sol.policy.subsets():
                gam = [sol.gamma(i, subset) for i in subset]
                assert all(g > 0.0 for g in gam)

    def test_equal_deltas_makes_cross_terms_vanish(self):
        # same net reward, different costs: the solution must not depend on
        # the tie order, exercised by permuting the input
        spec_a = HeterogeneousSpec(((1.0, 0.4), (1.2, 0.6)))
        spec_b = HeterogeneousSpec(((1.2, 0.6), (1.0, 0.4)))
        rule_a = solve_het(spec_a).rule_for()
        rule_b = solve_het(spec_b).rule_for()
        assert rule_a.open_probs[0] == pytest.approx(rule_b.open_probs[1], abs=1e-12)
        assert rule_a.open_probs[1] == pytest.approx(rule_b.open_probs[0], abs=1e-12)
        assert rule_a.optout == pytest.approx(rule_b.optout, abs=1e-12)

    def test_nature_first_order_conditions(self):
        rng = np.random.default_rng(79)
        step = 1e-5
        for _ in range(12):
            n = int(rng.integers(2, 6))
            spec = random_het_spec(rng, n)
            sol = solve_het(spec)
            p_hat = list(spec.p_hats)
            for i in range(n):
                hi = p_hat.copy()
                lo = p_hat.copy()
                hi[i] += step
                lo[i] -= step
                grad = (
                    regret_het(sol.policy, hi, spec) - regret_het(sol.policy, lo, spec)
                ) / (2 * step)
                assert abs(grad) <= 1e-6

    def test_worst_case_is_local_max(self):
        rng = np.random.default_rng(83)
        step = 1e-4
        for _ in range(8):
            n = int(rng.integers(2, 5))
            spec = random_het_spec(rng, n)
            sol = solve_het(spec)
            p_hat = list(spec.p_hats)
            mid = regret_het(sol.policy, p_hat, spec)
            for i in range(n):
                hi = p_hat.copy()
                lo = p_hat.copy()
                hi[i] += step
                lo[i] -= step
                second = (
                    regret_het(sol.policy, hi, spec)
                    - 2 * mid
                    + regret_het(sol.policy, lo, spec)
                ) / step**2
                assert second <= 1e-6

    def test_regret_flat_along_single_belief_coordinates(self):
        # the regret is multilinear in the beliefs, so a vanishing partial at
        # the indifference point makes the whole one-coordinate line flat
        rng = np.random.default_rng(85)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            spec = random_het_spec(rng, n)
            sol = solve_het(spec)
            base = regret_het(sol.policy, spec.p_hats, spec)
            for i in range(n):
                for value in (0.0, 0.31, 1.0):
                    moved = list(spec.p_hats)
                    moved[i] = value
                    assert regret_het(sol.policy, moved, spec) == pytest.approx(base, abs=1e-10)

    def test_regret_at_p_hat_n16(self):
        spec = random_het_spec(np.random.default_rng(16), 16)
        sol = solve_het(spec)
        assert regret_het(sol.policy, spec.p_hats, spec) == pytest.approx(sol.regret(), abs=1e-9)

    def test_size_cap(self):
        spec = HeterogeneousSpec(tuple((1.0, 0.3) for _ in range(21)))
        with pytest.raises(SizeError):
            solve_het(spec)


class TestBitIdentity:
    """The array lattice against the scalar recursions it replaced, exactly."""

    SPECS = [(seed, n) for n in range(1, 9) for seed in (0, 1)]

    @pytest.mark.parametrize("seed,n", SPECS)
    def test_every_menu_matches_dict_lattice(self, seed, n):
        rng = np.random.default_rng([107, seed, n])
        spec = (tied_het_spec if seed else random_het_spec)(rng, n)
        sol = solve_het(spec)
        probs, optout, regret, gammas = het_lattice_dicts(spec)
        assert sorted(map(sorted, sol.policy.subsets())) == sorted(map(sorted, probs))
        for menu in probs:
            rule = sol.rule_for(menu)
            assert rule.open_probs == probs[menu]
            assert rule.optout == optout[menu]
            assert sol.regret(menu) == regret[menu]
            assert {i: sol.gamma(i, menu) for i in menu} == gammas[menu]

    @pytest.mark.parametrize("seed,n", SPECS)
    def test_regret_matches_memo_recursion(self, seed, n):
        rng = np.random.default_rng([109, seed, n])
        spec = (tied_het_spec if seed else random_het_spec)(rng, n)
        sol = solve_het(spec)
        for _ in range(3):
            p = tuple(rng.random(n).tolist())
            assert regret_het(sol.policy, p, spec) == het_regret_memo(sol.policy.rule_for, p, spec)

    @pytest.mark.parametrize("seed,n", SPECS)
    def test_edge_beliefs_and_unreached_menus_match_memo_recursion(self, seed, n):
        # beliefs with entries of exactly 0 and 1, under the solver's policy and
        # under one whose zero weights leave menus without a rule: a zero
        # weight keeps those menus' NaN out of the total
        rng = np.random.default_rng([113, seed, n])
        spec = (tied_het_spec if seed else random_het_spec)(rng, n)
        for policy in (solve_het(spec).policy, sparse_het_policy(rng, n)):
            for _ in range(3):
                p = rng.random(n)
                p[rng.random(n) < 0.3] = 0.0
                p[rng.random(n) < 0.3] = 1.0
                p = tuple(p.tolist())
                got = regret_het(policy, p, spec)
                assert got.hex() == het_regret_memo(policy.rule_for, p, spec).hex()

    # one random and one tied spec whose middle layers hold hundreds of menus
    LARGE = [(0, 11), (1, 11)]

    @pytest.mark.parametrize("seed,n", LARGE)
    def test_large_layers_match_dict_lattice(self, seed, n):
        self.test_every_menu_matches_dict_lattice(seed, n)

    @pytest.mark.parametrize("seed,n", LARGE)
    def test_large_layers_match_memo_recursion(self, seed, n):
        self.test_regret_matches_memo_recursion(seed, n)

    @pytest.mark.parametrize("seed,n", LARGE)
    def test_large_layers_edge_beliefs_and_unreached_menus(self, seed, n):
        self.test_edge_beliefs_and_unreached_menus_match_memo_recursion(seed, n)

    @pytest.mark.parametrize("slab", [1, 7, 100])
    def test_slabs_match_memo_recursion(self, slab, monkeypatch):
        # regret_het splits a layer of more than _SLAB menus into slabs; the
        # middle layers at n = 9 hold 84 and 126 menus
        monkeypatch.setattr(het, "_SLAB", slab)
        self.test_edge_beliefs_and_unreached_menus_match_memo_recursion(0, 9)


class TestPolicyEdgeCases:
    SPEC = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.3), (2.0, 1.0)))

    def full_rules(self):
        sol = solve_het(self.SPEC)
        return {menu: sol.policy.rule_for(menu) for menu in sol.policy.subsets()}

    def test_missing_reachable_rule_raises(self):
        rules = self.full_rules()
        del rules[frozenset({0, 2})]  # reached by opening box 1 first
        policy = SelectionPolicy(3, rules)
        with pytest.raises(DomainError):
            regret_het(policy, (0.3, 0.4, 0.5), self.SPEC)
        with pytest.raises(DomainError):
            simulate(policy, HeteroPVector((0.3, 0.4, 0.5)), self.SPEC, 1000, 0)

    def test_missing_unreachable_rule_is_fine(self):
        # box 1 is never opened, so no menu without it is reached
        rules = {}
        for menu, rule in self.full_rules().items():
            if 1 in menu:
                probs = {**rule.open_probs, 1: 0.0}
                rules[menu] = SubsetRule(probs, rule.optout + rule.open_probs[1])
        policy = SelectionPolicy(3, rules)
        p = (0.3, 0.4, 0.5)
        assert regret_het(policy, p, self.SPEC) == pytest.approx(
            het_enum_regret(policy.rule_for, p, self.SPEC.boxes), abs=1e-12
        )
        simulate(policy, HeteroPVector(p), self.SPEC, 1000, 0)

    def test_always_opt_out_reaches_no_smaller_menu(self):
        policy = SelectionPolicy(3, {frozenset({0, 1, 2}): SubsetRule({0: 0.0, 1: 0.0, 2: 0.0}, 1.0)})
        p = (0.3, 0.4, 0.5)
        assert regret_het(policy, p, self.SPEC) == regret_het(SelectionPolicy.always_opt_out(3), p, self.SPEC)
        res = simulate(policy, HeteroPVector(p), self.SPEC, 1000, 0)
        assert res.mean_opened == 0.0

    def test_rule_lookup_errors(self):
        policy = SelectionPolicy.always_opt_out(3)
        assert len(policy.subsets()) == 7
        with pytest.raises(DomainError):
            policy.rule_for(frozenset())
        with pytest.raises(DomainError):
            policy.rule_for({3})
        with pytest.raises(DomainError):
            solve_het(self.SPEC).gamma(1, {0, 2})

    def test_numpy_integer_box_indices(self):
        # box indices must be integers, and numpy integers are integers
        sol = solve_het(self.SPEC)
        menu = np.array([0, 2])
        assert sol.rule_for(menu) == sol.rule_for([0, 2])
        assert sol.gamma(np.int64(2), menu) == sol.gamma(2, [0, 2])
        assert psi(np.int32(0), menu, self.SPEC) == psi(0, [0, 2], self.SPEC)
        assert SubsetRule({np.int64(1): 1.0}, 0.0).open_probs == {1: 1.0}


class TestRegretHet:
    def test_always_opt_out_formula(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.3), (2.0, 1.0)))
        policy = SelectionPolicy.always_opt_out(3)
        rng = np.random.default_rng(89)
        for _ in range(10):
            p = rng.random(3)
            ordered = [i for i in spec.order]
            want = 0.0
            for t, i in enumerate(ordered):
                fail_above = np.prod([1 - p[j] for j in ordered[t + 1 :]]) if t + 1 < 3 else 1.0
                want += p[i] * fail_above * spec.deltas[i]
            got = regret_het(policy, p, spec)
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_no_treasure_sunk_costs_only(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.3)))
        sol = solve_het(spec)
        got = regret_het(sol.policy, (0.0, 0.0), spec)
        want = het_enum_regret(sol.policy.rule_for, (0.0, 0.0), spec.boxes)
        assert got == pytest.approx(want, abs=1e-12)
        assert got > 0.0

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            spec = random_het_spec(rng, n)
            sol = solve_het(spec)
            p = rng.random(n)
            got = regret_het(sol.policy, p, spec)
            want = het_enum_regret(sol.policy.rule_for, tuple(p), spec.boxes)
            assert got == pytest.approx(want, abs=1e-12)

    def test_indifference_at_p_hat_for_any_policy(self):
        rng = np.random.default_rng(101)
        for n in (2, 3, 4):
            spec = random_het_spec(rng, n)
            star = solve_het(spec).regret()
            for _ in range(10):
                raw = rng.dirichlet(np.ones(n + 1))
                rules = {}
                for mask in range(1, 1 << n):
                    members = frozenset(i for i in range(n) if mask >> i & 1)
                    w = rng.dirichlet(np.ones(len(members) + 1))
                    rules[members] = SubsetRule(
                        {i: w[t] for t, i in enumerate(sorted(members))}, float(w[-1])
                    )
                policy = SelectionPolicy(n, rules)
                got = regret_het(policy, spec.p_hats, spec)
                assert got == pytest.approx(star, abs=1e-10)

    def test_accepts_hetero_p_vector(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.3)))
        sol = solve_het(spec)
        a = regret_het(sol.policy, HeteroPVector((0.3, 0.4)), spec)
        b = regret_het(sol.policy, (0.3, 0.4), spec)
        assert a == b

    def test_rejects_bool_beliefs(self):
        # a bool among numbers is not read as a probability
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.3)))
        policy = solve_het(spec).policy
        for bad in ((True, 0.4), [0.3, np.True_]):
            with pytest.raises(DomainError):
                HeteroPVector(bad)
            with pytest.raises(DomainError):
                regret_het(policy, bad, spec)


class TestCostAsymmetrySweep:
    def test_symmetric_point_matches_homogeneous(self):
        rows = cost_asymmetry_sweep(1.0, 0.6, [0.0])
        hom = solve_indep(HomogeneousSpec(1.0, 0.3, 2))
        assert rows[0]["open_costlier"] == pytest.approx(rows[0]["open_cheaper"], abs=1e-12)
        assert rows[0]["total_search"] == pytest.approx(hom.alphas[-1], abs=1e-10)

    def test_cheaper_box_favored(self):
        rows = cost_asymmetry_sweep(1.0, 0.6, np.linspace(0.0, 0.5, 11))
        for row in rows[1:]:
            assert row["open_cheaper"] > row["open_costlier"]

    def test_total_search_rises_with_asymmetry(self):
        rows = cost_asymmetry_sweep(1.0, 0.6, np.linspace(0.0, 0.55, 30))
        totals = [row["total_search"] for row in rows]
        assert np.all(np.diff(totals) >= -1e-12)
        opens_costly = [row["open_costlier"] for row in rows]
        opens_cheap = [row["open_cheaper"] for row in rows]
        assert np.all(np.diff(opens_costly) <= 1e-12)
        assert np.all(np.diff(opens_cheap) >= -1e-12)

    def test_rejects_degenerate_split(self):
        with pytest.raises(DomainError):
            cost_asymmetry_sweep(1.0, 0.6, [0.61])
        with pytest.raises(DomainError):
            cost_asymmetry_sweep(1.0, 2.5, [0.0])
