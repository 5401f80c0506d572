import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_pandora.core import (
    CountProfile,
    DomainError,
    HomogeneousSpec,
    SizeError,
    StationaryPolicy,
    StoppingMixture,
    regret_count_profile,
    regret_indep,
    regret_needle,
)
from robust_pandora.corr import (
    naive_trajectory,
    optout_menu_size,
    single_treasure_equivalent,
    solve_corr_commitment,
    solve_corr_intrapersonal,
    success_profile,
)
from robust_pandora.indep import solve_indep
from robust_pandora.interim import solve_interim

from oracles import corr_commitment_hull, needle_recursion

SPEC = HomogeneousSpec(1.0, 0.25, 3)
EPS = np.finfo(float).eps


def random_spec(rng, n_low=1, n_high=12):
    ubar = rng.uniform(0.5, 3.0)
    c = ubar * rng.uniform(0.05, 0.9)
    n = int(rng.integers(n_low, n_high + 1))
    return HomogeneousSpec(ubar, c, n)


class TestSuccessProfile:
    def test_single_treasure_equalizes(self):
        Q = CountProfile(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(success_profile(Q), 0.25, atol=1e-15)

    def test_all_boxes_full(self):
        Q = CountProfile(np.array([0.0, 0.0, 0.0, 1.0]))
        assert np.allclose(success_profile(Q), [1.0, 0.0, 0.0], atol=1e-15)

    def test_weakly_decreasing_random(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            Q = CountProfile(rng.dirichlet(np.ones(n + 1)))
            q = success_profile(Q)
            assert np.all(np.diff(q) <= 1e-12)


class TestFlattening:
    def test_dominance_random_draws(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            spec = HomogeneousSpec(1.0, 0.25, n)
            Q = CountProfile(rng.dirichlet(np.ones(n + 1)))
            w = StoppingMixture(rng.dirichlet(np.ones(n + 1)))
            flat = single_treasure_equivalent(Q)
            assert regret_count_profile(w, Q, spec) <= regret_count_profile(w, flat, spec) + 1e-12


class TestCommitment:
    def test_optout_size_past_float_range_is_exact(self):
        # 2 ubar / c past float range: the size is the exact ceiling, and the
        # commitment plan below it searches, as it does at c = 1e-300
        for ubar, c in ((1.0, 1e-310), (1e90, 1e-250), (3.0, 5e-324)):
            spec = HomogeneousSpec(ubar, c, 5)
            assert optout_menu_size(spec) == math.ceil(Fraction(2.0 * ubar - c) / Fraction(c))
            sol = solve_corr_commitment(spec)
            assert not sol.opts_out and np.all(np.isfinite(sol.regret_per_k)) and sol.policy.alphas[-1] > 0.0

    def test_three_box_values(self):
        sol = solve_corr_commitment(SPEC)
        assert sol.policy.alphas[-1] == pytest.approx(0.6, abs=1e-12)
        assert np.all(sol.policy.alphas[:-1] == 1.0)
        assert sol.regret == pytest.approx(0.45, abs=1e-12)
        assert sol.worst_case_P[-1] == pytest.approx(0.6, abs=1e-12)
        assert not sol.opts_out

    def test_boundary_menu_opts_out(self):
        # (2 ubar - c) / c = 7 for ubar=1, c=0.25; the boundary refuses to search
        sol = solve_corr_commitment(HomogeneousSpec(1.0, 0.25, 7))
        assert sol.optout_threshold == 7
        assert sol.opts_out
        assert np.all(sol.policy.alphas == 0.0)
        assert sol.regret == pytest.approx(0.75, abs=1e-15)
        assert sol.worst_case_P[-1] == 1.0

    def test_single_box_matches_indep(self):
        sol = solve_corr_commitment(HomogeneousSpec(1.0, 0.25, 1))
        indep = solve_indep(HomogeneousSpec(1.0, 0.25, 1))
        assert sol.policy.alphas[0] == pytest.approx(indep.alphas[0], abs=1e-15)
        assert sol.regret == pytest.approx(indep.regret, abs=1e-15)

    def test_nature_indifferent_over_treasure_probability(self):
        for n in (2, 3, 5, 6):
            sol = solve_corr_commitment(HomogeneousSpec(1.0, 0.25, n))
            grid = np.linspace(0.0, 1.0, 1001)
            vals = regret_needle(sol.policy, grid, HomogeneousSpec(1.0, 0.25, n))
            assert np.max(np.abs(vals - sol.regret)) <= 1e-12

    def test_lower_hull_of_pure_plans_matches_solver(self):
        # the game min_w max(K, R_1) on the lower hull of the points
        # (c m, R_1(e_m)): value within 4 eps ubar (1.1 measured) and opt-out
        # weight within 4 eps (0.5 measured) of the solver's, and plans 0 and
        # n the only vertices, so "randomize on the first opening, then
        # search everything" is derived rather than assumed; n up to 10^5 on
        # a log grid of c/ubar, at and past the opt-out size, and at exact
        # boundaries (c/ubar 0.25, 0.1, 2/3)
        ratios = [*np.geomspace(1e-3, 0.9, 13), 0.25, 0.1, 2.0 / 3.0]
        for ratio, ubar in [(float(r), u) for r in ratios for u in (1.0, 3.7)]:
            nbar = optout_menu_size(HomogeneousSpec(ubar, ratio * ubar, 1))
            for n in sorted({1, 2, 7, 50, 399, max(nbar - 1, 1), nbar, nbar + 1, 3 * nbar, 10**5}):
                spec = HomogeneousSpec(ubar, ratio * ubar, n)
                sol = solve_corr_commitment(spec)
                value, weight, hull = corr_commitment_hull(spec)
                assert abs(value - sol.regret) <= 4 * EPS * ubar, (ratio, ubar, n)
                assert abs(weight - (1.0 - sol.policy.alphas[-1])) <= 4 * EPS, (ratio, ubar, n)
                assert set(hull) <= {0, n}, (ratio, ubar, n)

    def test_exact_integer_boundary_snapped(self):
        # 2/0.25 - 1 computed in floats must still count as integral
        assert optout_menu_size(HomogeneousSpec(1.0, 0.25, 3)) == 7
        assert optout_menu_size(HomogeneousSpec(1.0, 0.3, 3)) == 6  # ceil(5.666)


class TestIntrapersonal:
    def test_recursion_values(self):
        sol = solve_corr_intrapersonal(HomogeneousSpec(1.0, 0.25, 2))
        assert sol.regret_per_k[0] == pytest.approx(0.1875, abs=1e-15)
        assert sol.policy.alphas[1] == pytest.approx(1.5 / 1.9375, abs=1e-12)
        assert sol.regret_per_k[1] == pytest.approx(0.65625 / 1.9375, abs=1e-12)

    def test_refusal_point_recomputed(self):
        sol = solve_corr_intrapersonal(HomogeneousSpec(1.0, 0.25, 10))
        assert sol.searches_up_to == 5
        assert sol.optout_threshold == 6
        assert np.all(sol.policy.alphas[5:] == 0.0)
        assert np.all(sol.regret_per_k[5:] == 0.75)
        # the refusal point is found even when the menu is smaller
        small = solve_corr_intrapersonal(HomogeneousSpec(1.0, 0.25, 2))
        assert small.searches_up_to == 5

    def test_size_cap_on_optout_menu(self):
        # c/ubar = 1e-5 runs the recursion for about 1.7e5 stages and stores
        # three; 1e-7 (an opt-out menu of about 2e7) is refused
        sol = solve_corr_intrapersonal(HomogeneousSpec(1.0, 1e-5, 3))
        assert sol.regret_per_k.size == 3 and sol.optout_threshold > 100_000
        with pytest.raises(SizeError):
            solve_corr_intrapersonal(HomogeneousSpec(1.0, 1e-7, 3))

    def test_refusal_point_follows_law_one(self):
        # the refusal point is z*^2/8 = 0.8348902 of the opt-out menu size,
        # z* = 2.5843996 the root of z I_1(z) = 2 I_0(z) (I_0 and I_1 by their
        # power series): within one box on a log grid of c/ubar over
        # 1e-5..0.3 (at most 0.80 box measured)
        k = np.arange(30.0)
        factorial = np.cumprod(np.maximum(k, 1.0))

        def excess(z):
            h = (z / 2.0) ** (2.0 * k)
            return z * (h * (z / 2.0) / (factorial * factorial * (k + 1.0))).sum() - 2.0 * (h / factorial**2).sum()

        lo, hi = 2.0, 3.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
        assert (round(lo, 7), round(lo * lo / 8.0, 7)) == (2.5843996, 0.8348902)
        for ratio in np.append(np.logspace(-5.0, np.log10(0.3), 25), [0.1, 0.03, 0.01, 1e-3, 1e-4]):
            spec = HomogeneousSpec(1.0, float(ratio), 5)
            threshold = solve_corr_intrapersonal(spec).optout_threshold
            assert abs(threshold - lo * lo / 8.0 * optout_menu_size(spec)) <= 1.0, ratio

    def test_refusal_below_commitment_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            spec = random_spec(rng)
            intra = solve_corr_intrapersonal(spec)
            assert intra.searches_up_to <= optout_menu_size(spec)

    def test_regret_increasing_up_to_refusal(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            spec = random_spec(rng, n_low=3)
            sol = solve_corr_intrapersonal(spec)
            upto = min(sol.searches_up_to, spec.n)
            assert np.all(np.diff(sol.regret_per_k[:upto]) > 0)

    def test_searches_harder_than_commitment(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            spec = random_spec(rng)
            intra = solve_corr_intrapersonal(spec)
            upto = min(intra.searches_up_to, spec.n)
            for k in range(1, upto + 1):
                com = solve_corr_commitment(HomogeneousSpec(spec.ubar, spec.c, k))
                assert intra.policy.alphas[k - 1] >= com.policy.alphas[k - 1] - 1e-12

    def test_stage_value_flat_in_treasure_probability(self):
        # the equilibrium continuation makes the stage regret belief-free
        sol = solve_corr_intrapersonal(HomogeneousSpec(1.0, 0.25, 4))
        grid = np.linspace(0.0, 1.0, 501)
        vals = regret_needle(sol.policy, grid, HomogeneousSpec(1.0, 0.25, 4))
        assert np.max(np.abs(vals - sol.regret)) <= 1e-12


class TestNaiveTrajectory:
    def test_three_box_path(self):
        path = naive_trajectory(SPEC)
        assert path[0] == pytest.approx(0.6, abs=1e-12)
        assert path[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert path[2] == pytest.approx(0.75, abs=1e-12)

    def test_single_box_is_commitment(self):
        path = naive_trajectory(HomogeneousSpec(1.0, 0.25, 1))
        assert path == pytest.approx([0.75])

    def test_entries_increase_as_menu_shrinks(self):
        rng = np.random.default_rng(67)
        drawn = 0
        while drawn < 50:
            spec = random_spec(rng, n_low=2)
            if spec.n >= optout_menu_size(spec):
                continue
            drawn += 1
            path = naive_trajectory(spec)
            assert np.all(np.diff(path) > 0)

    def test_rejects_optout_menu(self):
        with pytest.raises(DomainError):
            naive_trajectory(HomogeneousSpec(1.0, 0.25, 7))

    def test_realized_regret_via_needle_evaluator(self):
        # feeding the naive path to the needle evaluator prices the plan
        path = naive_trajectory(SPEC)
        policy = StationaryPolicy(path[::-1].copy())
        committed = solve_corr_commitment(SPEC)
        worst = max(
            regret_needle(policy, P, SPEC) for P in np.linspace(0.0, 1.0, 401)
        )
        assert worst >= committed.regret - 1e-12


@given(st.integers(2, 7), st.data())
@settings(max_examples=50, deadline=None)
def test_flattening_dominates_any_profile_and_mixture(n, data):
    raw_q = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1))
    raw_w = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1))
    spec = HomogeneousSpec(1.0, 0.25, n)
    Q = CountProfile(np.array(raw_q) / sum(raw_q))
    w = StoppingMixture(np.array(raw_w) / sum(raw_w))
    assert regret_count_profile(w, Q, spec) <= regret_count_profile(
        w, single_treasure_equivalent(Q), spec
    ) + 1e-12


@given(st.floats(0.05, 0.95), st.integers(1, 10), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_commitment_value_bounded_by_walkaway(c, n, P):
    # no belief can push the solved plan's regret past the never-search loss
    spec = HomogeneousSpec(1.0, c, n)
    sol = solve_corr_commitment(spec)
    assert regret_needle(sol.policy, P, spec) <= (1.0 - c) + 1e-12


def test_commitment_regret_interpolates_iid_lower_bound():
    # correlation can only hurt: the correlated saddle value is at least the
    # independent one at every menu size
    for n in range(1, 7):
        spec = HomogeneousSpec(1.0, 0.25, n)
        assert solve_corr_commitment(spec).regret >= solve_indep(spec).regret - 1e-12


@given(st.integers(1, 39), st.floats(0.003, 0.98), st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_values_ordered_by_nested_classes(n, ratio, ubar):
    # a larger class of beliefs, or a DM who cannot commit, can only raise the
    # guaranteed regret; an oracle that knows only p can only lower it
    spec = HomogeneousSpec(ubar, ubar * ratio, n)
    indep = solve_indep(spec).regret
    commitment = solve_corr_commitment(spec).regret
    assert indep <= commitment + 1e-12
    assert commitment <= solve_corr_intrapersonal(spec).regret + 1e-12
    assert solve_interim(spec).regret <= indep + 1e-12


@given(st.floats(-5.0, np.log10(0.9)), st.sampled_from([-1, 0, 1]), st.floats(0.5, 2.0))
@example(-5.0, 1, 1.0)  # 200 000 boxes
@example(np.log10(0.9), -1, 1.0)  # one box
@settings(max_examples=30, deadline=None)
def test_needle_ends_at_the_optout_size(exponent, step, ubar):
    # the commitment policy one box below, at and above the opt-out size: the
    # needle's ends are count-profile vertices 0 and 1 bit for bit (past
    # 5 000 boxes too), and regret_indep at p = 0 and regret_needle agree
    # with the stage loop within n eps max(|R|, ubar)
    c = ubar * 10.0**exponent
    n = optout_menu_size(HomogeneousSpec(ubar, c, 1)) + step
    spec = HomogeneousSpec(ubar, c, n)
    policy = solve_corr_commitment(spec).policy
    w = StoppingMixture.from_policy(policy)
    ends = regret_needle(policy, np.array([0.0, 1.0]), spec)
    vertices = []
    for j in (0, 1):
        Q = np.zeros(n + 1)
        Q[j] = 1.0
        vertices.append(regret_count_profile(w, CountProfile(Q), spec))
    assert [x.hex() for x in ends.tolist()] == [x.hex() for x in vertices]
    want = needle_recursion(policy.alphas, np.array([0.0, 1.0]), spec)
    bound = n * EPS * np.maximum(np.abs(want), ubar)
    assert np.all(np.abs(ends - want) <= bound)
    assert abs(regret_indep(policy, 0.0, spec) - want[0]) <= bound[0]
