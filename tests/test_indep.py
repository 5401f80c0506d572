import numpy as np
import pytest

from robust_pandora.core import DomainError, HomogeneousSpec, regret_indep
from robust_pandora.indep import (
    eu_benchmark,
    expected_search_count,
    search_count_profile,
    solve_indep,
    weitzman_threshold,
)

SPEC = HomogeneousSpec(1.0, 0.3, 3)


def expected_opened(alphas, q):
    """Expected opened-box count for any stationary policy against i.i.d. q."""
    n = len(alphas)
    total = 0.0
    reach = 1.0
    for k in range(1, n + 1):
        reach *= alphas[n - k]
        total += (1.0 - q) ** (k - 1) * reach
    return total


class TestThreshold:
    def test_reference_value(self):
        assert weitzman_threshold(HomogeneousSpec(1.0, 0.3, 1)) == pytest.approx(0.3)

    def test_small_cost_limit(self):
        assert weitzman_threshold(HomogeneousSpec(1.0, 1e-12, 1)) == pytest.approx(0.0, abs=1e-11)

    def test_scaling(self):
        assert weitzman_threshold(HomogeneousSpec(2.0, 0.5, 4)) == pytest.approx(0.25)


class TestSolveIndep:
    def test_one_box(self):
        sol = solve_indep(HomogeneousSpec(1.0, 0.3, 1))
        assert sol.alphas[0] == pytest.approx(0.7, abs=1e-15)
        assert sol.regret == pytest.approx(0.21, abs=1e-15)
        assert sol.worst_case_p == pytest.approx(0.3)

    def test_three_boxes(self):
        sol = solve_indep(SPEC)
        assert sol.alphas[-1] == pytest.approx(1.029 / 1.686, abs=1e-12)
        assert sol.regret == pytest.approx(0.4599, abs=1e-12)

    def test_large_n_limits(self):
        sol = solve_indep(HomogeneousSpec(1.0, 0.3, 5000))
        assert sol.alphas[-1] < 1e-3
        assert sol.regret == pytest.approx(0.7, abs=1e-9)

    def test_policy_reads_stagewise(self):
        # entry k - 1 is the k-remaining solution, so prefixes agree across n
        big = solve_indep(HomogeneousSpec(1.0, 0.3, 8))
        small = solve_indep(HomogeneousSpec(1.0, 0.3, 3))
        assert np.allclose(big.alphas[:3], small.alphas, atol=1e-15)

    def test_last_stage_solves_natures_first_order_condition(self):
        # the dynamically consistent selection, stage by stage: the stages at
        # n - 1 are the first n - 1 stages at n, and the regret is affine in
        # the last one, R = (1 - a) (ubar - c)(1 - x^n) + a x (c + R_{n-1}),
        # x = 1 - p, so Nature's first-order condition at p_hat = c/ubar fixes
        # it; within 8 eps (6 measured, at c/ubar 2.1e-4 and n = 30, where
        # the same condition in exact rationals from the float stages gives
        # the same gap) for n <= 30 on a log grid of c/ubar over 1e-4..0.9
        for ratio in np.geomspace(1e-4, 0.9, 25):
            ubar, c = 1.0, float(ratio)
            x = 1.0 - c / ubar
            for n in range(2, 31):
                head = solve_indep(HomogeneousSpec(ubar, c, n - 1)).alphas
                alphas = solve_indep(HomogeneousSpec(ubar, c, n)).alphas
                assert np.array_equal(head, alphas[:-1]), (ratio, n)
                R = dR = 0.0  # R_k at p_hat and its slope in p
                for k, a in enumerate(head, start=1):
                    R, dR = (
                        (1.0 - a) * (ubar - c) * (1.0 - x**k) + a * x * (c + R),
                        (1.0 - a) * (ubar - c) * k * x ** (k - 1) + a * (x * dR - (c + R)),
                    )
                opt_out, search = (ubar - c) * n * x ** (n - 1), x * dR - (c + R)
                assert abs(opt_out / (opt_out - search) - alphas[-1]) <= 8 * np.finfo(float).eps, (ratio, n)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ubar = rng.uniform(0.5, 3.0)
            c = rng.uniform(0.05, 0.95) * ubar
            sol = solve_indep(HomogeneousSpec(ubar, c, 200))
            assert np.all(np.diff(sol.alphas) < 0)
            # regret = (ubar-c) - gap with gap = (ubar-c) ((ubar-c)/ubar)^n, so
            # strict growth of regret is strict decay of the gap; the gap keeps
            # full float resolution where 1 - gap would round to 1
            gaps = (ubar - c) * ((ubar - c) / ubar) ** np.arange(1, 201)
            assert np.all(np.diff(gaps) < 0)
            regrets = (ubar - c) - gaps
            assert np.all(np.diff(regrets) >= 0)

    def test_comparative_statics_signs(self):
        # search probability rises with the prize and falls with the cost
        h = 1e-6
        for n in (1, 3, 10):
            base = solve_indep(HomogeneousSpec(1.0, 0.3, n)).alphas[-1]
            up_reward = solve_indep(HomogeneousSpec(1.0 + h, 0.3, n)).alphas[-1]
            up_cost = solve_indep(HomogeneousSpec(1.0, 0.3 + h, n)).alphas[-1]
            assert up_reward > base
            assert up_cost < base


class TestExpectedSearchCount:
    def test_base_case(self):
        got = expected_search_count(0.4, HomogeneousSpec(1.0, 0.3, 1))
        assert got == pytest.approx(0.7, abs=1e-15)

    def test_certain_success(self):
        for n in (1, 2, 5):
            got = expected_search_count(1.0, HomogeneousSpec(1.0, 0.3, n))
            assert got == pytest.approx(solve_indep(HomogeneousSpec(1.0, 0.3, n)).alphas[-1], abs=1e-14)

    def test_two_box_hand_recursion(self):
        a1 = 0.7
        a2 = 2 * 0.7**2 / (0.7**2 + 1.0)
        got = expected_search_count(0.05, HomogeneousSpec(1.0, 0.3, 2))
        assert got == pytest.approx(a2 * (1 + 0.95 * a1), abs=1e-14)

    def test_agrees_with_direct_formula(self):
        for q in (0.0, 0.05, 0.5, 1.0):
            for n in (1, 3, 7):
                spec = HomogeneousSpec(1.0, 0.3, n)
                sol = solve_indep(spec)
                assert expected_search_count(q, spec) == pytest.approx(
                    expected_opened(sol.alphas, q), abs=1e-12
                )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            expected_search_count(1.5, SPEC)


class TestSearchCountProfile:
    @pytest.mark.parametrize("q", [1.5, float("nan")])
    def test_rejects_bad_q(self, q):
        with pytest.raises(DomainError):
            search_count_profile(q, SPEC)

    def test_interior_hump_for_rare_rewards(self):
        prof = search_count_profile(0.05, HomogeneousSpec(1.0, 0.3, 100))
        assert 1 < prof.argmax_n < prof.values.size

    def test_certain_success_peaks_immediately(self):
        spec = HomogeneousSpec(1.0, 0.3, 50)
        prof = search_count_profile(1.0, spec)
        assert prof.argmax_n == 1
        sol = solve_indep(spec)
        assert np.allclose(prof.values, sol.alphas, atol=1e-12)

    def test_single_peak(self):
        for q in np.linspace(0.01, 0.9, 10):
            prof = search_count_profile(float(q), HomogeneousSpec(1.0, 0.3, 100))
            signs = np.sign(np.diff(prof.values))
            changes = np.count_nonzero(np.diff(signs[signs != 0]))
            assert changes <= 1


class TestEuBenchmark:
    def test_search_above_threshold(self):
        assert np.all(eu_benchmark(0.5, SPEC).alphas == 1.0)

    def test_quit_below_threshold(self):
        assert np.all(eu_benchmark(0.1, SPEC).alphas == 0.0)

    def test_tie_defaults_to_search(self):
        assert np.all(eu_benchmark(0.3, SPEC).alphas == 1.0)

    def test_expected_count_weakly_increasing_in_n(self):
        for q in np.linspace(0.1, 0.9, 9):
            counts = []
            for n in range(1, 51):
                spec = HomogeneousSpec(1.0, 0.3, n)
                pol = eu_benchmark(float(q), spec)
                counts.append(expected_opened(pol.alphas, float(q)))
            assert np.all(np.diff(counts) >= -1e-12)


def test_saddle_value_is_flat_at_worst_case():
    # the solved policy's regret at p_hat equals the claimed value, and no
    # single p on a grid beats it
    sol = solve_indep(SPEC)
    grid = np.linspace(0.0, 1.0, 2001)
    values = regret_indep(sol.policy, grid, SPEC)
    assert values.max() <= sol.regret + 1e-12
    assert regret_indep(sol.policy, sol.worst_case_p, SPEC) == pytest.approx(sol.regret, abs=1e-12)
