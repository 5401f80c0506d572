import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_pandora.core import ConvergenceError, DomainError, HomogeneousSpec, _peak_search, _polyval
from robust_pandora.interim import (
    InterimPolicy,
    _HighBranch,
    _utility,
    exhaustive_utility,
    interim_regret,
    interim_two_box_intrapersonal,
    solve_interim,
)

from oracles import exhaustive_utility_sum, interim_linear_scan, interim_regret_high_belief

SPEC2 = HomogeneousSpec(1.0, 0.3, 2)

# (ubar, c, n) whose high-belief peak, about 1/m wide (m 2 100 to 2 700), lies
# within 1/2000 of the branch's end 1 - c/ubar, between the last two points
# of a 2001-point belief grid
LAST_CELL_PEAKS = [
    (1.0, 4.5666393052911e-05, 3942),
    (1.0, 9.416190866653508e-05, 4833),
    (1.0, 0.00010208399481560822, 4934),
    (1.0787473300228814, 5.5936415573164166e-05, 4074),
    (1.8791766295305958, 0.00016927024355468752, 4651),
]

# (c/ubar, n) above the 5 000 boxes a belief grid once capped: at n = 10**7,
# m is 2 665 291 at c/ubar = 1e-7 and 9 736 249 at 1e-9, and the peak is
# about 1/m wide
LARGE_MENUS = [(1e-7, 10**7), (1e-9, 10**7), (0.3, 10**7), (1e-5, 2 * 10**4), (1e-6, 10**5)]


def branch_closed_form(x, m, alpha, spec):
    """``((1 - alpha) x^m + x^(m+1) sum_{j<n-m-1} x^j) ((ubar - c) - ubar x)`` on an array ``x`` in [0, 1]."""
    k = spec.n - m - 1
    p = 1.0 - x
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(p > 0.0, -np.expm1(k * np.log1p(-p)) / p, float(k)) if k else np.zeros_like(x)
    return ((1.0 - alpha) * x**m + x ** (m + 1) * tail) * ((spec.ubar - spec.c) - spec.ubar * x)


def branch_coefficients(m, alpha, spec):
    """The same branch as a polynomial in ``x``, highest degree first."""
    weights = np.zeros(spec.n)  # x^(n-1), ..., x^0
    weights[: spec.n - m - 1] = 1.0
    weights[spec.n - m - 1] = 1.0 - alpha
    return np.convolve(weights, (-spec.ubar, spec.ubar - spec.c))


def coefficient_slopes(m, alpha, spec):
    """The branch's coefficients and those of its first two derivatives."""
    coef = branch_coefficients(m, alpha, spec)
    return coef, np.polyder(coef), np.polyder(coef, 2)


def staircase_regret(m, alpha, p, spec):
    """Independent route: willingness is m boxes w.p. 1-alpha, m+1 w.p. alpha, each priced term by term."""
    u_n = exhaustive_utility_sum(p, spec.n, spec)
    u_m = exhaustive_utility_sum(p, m, spec) if m >= 1 else 0.0
    u_m1 = exhaustive_utility_sum(p, m + 1, spec)
    return max(u_n, 0.0) - (1 - alpha) * u_m - alpha * u_m1


class TestExhaustiveUtility:
    def test_certain_reward(self):
        for n in (1, 3, 6):
            assert exhaustive_utility(1.0, n, SPEC2) == pytest.approx(0.7, abs=1e-14)

    def test_no_reward(self):
        for n in (1, 4):
            assert exhaustive_utility(0.0, n, SPEC2) == pytest.approx(-n * 0.3, abs=1e-14)

    def test_zero_at_threshold_single_box(self):
        assert exhaustive_utility(0.3, 1, SPEC2) == pytest.approx(0.0, abs=1e-15)

    def test_increasing_in_p(self):
        ps = np.linspace(0.0, 1.0, 50)
        vals = [exhaustive_utility(float(p), 4, SPEC2) for p in ps]
        assert np.all(np.diff(vals) > 0)

    def test_array_matches_scalar_calls(self):
        ps = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-300, 1e-12, 1 - 1e-12]])
        for n in (1, 2, 7, 60):
            vec = exhaustive_utility(ps, n, SPEC2)
            assert vec.shape == ps.shape
            assert vec.tolist() == [exhaustive_utility(float(p), n, SPEC2) for p in ps]

    def test_closed_form_matches_exact_sums(self):
        # U(p, k) = (p ubar - c) sum_{j<k} (1 - p)^j in exact rationals of the
        # float inputs; p = c/ubar = 0.3 is exactly 0
        spec = HomogeneousSpec(1.0, 0.3, 400)
        for p in (0.0, 1e-300, 1e-12, 1e-6, 0.3, 0.5, 1 - 1e-12, 1.0):
            fail = 1 - Fraction(p)
            for k in (0, 1, 2, 7, 60, 400):
                total = Fraction(0)
                for _ in range(k):
                    total = total * fail + 1
                exact = (Fraction(p) * Fraction(spec.ubar) - Fraction(spec.c)) * total
                got = Fraction(float(_utility(np.array(p), k, spec)))
                assert abs(got - exact) <= Fraction(1e-15) * abs(exact), (p, k)


class TestInterimRegret:
    def test_never_search_below_threshold(self):
        policy = InterimPolicy(0, 0.0, 3)
        spec = HomogeneousSpec(1.0, 0.3, 3)
        for p in (0.0, 0.1, 0.3):
            assert interim_regret(policy, p, spec) == pytest.approx(0.0, abs=1e-14)

    def test_exhaustive_plan_no_reward(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        policy = InterimPolicy(3, 1.0, 4)
        assert interim_regret(policy, 0.0, spec) == pytest.approx(4 * 0.3, abs=1e-14)

    def test_exhaustive_plan_matches_oracle_above_threshold(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        policy = InterimPolicy(3, 1.0, 4)
        for p in (0.31, 0.6, 1.0):
            assert interim_regret(policy, p, spec) == pytest.approx(0.0, abs=1e-14)

    def test_matches_willingness_mixture_route(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            spec = HomogeneousSpec(1.0, 0.3, n)
            m = int(rng.integers(0, n))
            alpha = float(rng.random())
            policy = InterimPolicy(m, alpha, n)
            p = float(rng.random())
            got = interim_regret(policy, p, spec)
            assert got == pytest.approx(staircase_regret(m, alpha, p, spec), abs=1e-12)

    def test_two_forms_agree_above_threshold(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            spec = HomogeneousSpec(1.0, 0.3, n)
            policy = InterimPolicy(int(rng.integers(0, n)), float(rng.random()), n)
            p = 0.3 + 0.7 * float(rng.random())
            a = interim_regret(policy, p, spec)
            b = interim_regret_high_belief(policy, p, spec)
            assert abs(a - b) <= 1e-12

    def test_probability_outside_unit_interval_rejected(self):
        policy = InterimPolicy(1, 0.4, 3)
        spec = HomogeneousSpec(1.0, 0.3, 3)
        for p in (1.5, -0.2, float("nan"), [0.5, 1.5]):
            with pytest.raises(DomainError):
                interim_regret(policy, p, spec)
        for p in (1.5, -0.2, float("nan")):
            with pytest.raises(DomainError):
                exhaustive_utility(p, 3, spec)

    def test_vectorized_over_p(self):
        policy = InterimPolicy(1, 0.4, 3)
        spec = HomogeneousSpec(1.0, 0.3, 3)
        grid = np.linspace(0, 1, 11)
        vec = interim_regret(policy, grid, spec)
        for p, v in zip(grid, vec):
            assert v == pytest.approx(interim_regret(policy, float(p), spec), abs=1e-14)

    def test_large_menu_holds_no_table(self):
        # O(len(p)) memory at any n: no (n, len(p)) table
        spec = HomogeneousSpec(1.0, 0.05, 5000)
        policy = InterimPolicy(37, 0.4, 5000)
        grid = np.linspace(0.0, 1.0, 2001)
        tracemalloc.start()
        try:
            interim_regret(policy, grid, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestSolveInterim:
    def test_two_boxes_reference(self):
        rep = solve_interim(SPEC2)
        assert rep.policy.m == 0
        assert 0.0 < rep.policy.alpha < 1.0
        assert rep.policy.alpha == pytest.approx(0.750806661517, abs=1e-9)
        assert rep.residual <= 1e-10
        assert 0.3 < rep.worst_p_high <= 1.0

    def test_two_boxes_argmax_closed_form(self):
        # m = 0: the high branch ((1 - alpha) + x)((ubar - c) - ubar x) peaks
        # at p* = ((2 - alpha) ubar + c) / (2 ubar)
        for ubar, c in [(1.0, 0.3), (2.0, 0.7)]:
            rep = solve_interim(HomogeneousSpec(ubar, c, 2))
            assert rep.policy.m == 0
            want = ((2 - rep.policy.alpha) * ubar + c) / (2 * ubar)
            assert rep.worst_p_high == pytest.approx(want, abs=1e-12)

    def test_cost_next_to_reward(self):
        # (ubar - c) / ubar = 1.0000000827e-10: the high branch peaks at p = 1,
        # so alpha c = (1 - alpha)(ubar - c) and alpha = (ubar - c) / ubar
        spec = HomogeneousSpec(1.0, 1.0 - 1e-10, 2)
        rep = solve_interim(spec)
        assert rep.policy.m == 0
        assert rep.policy.alpha == pytest.approx((spec.ubar - spec.c) / spec.ubar, rel=1e-9)
        assert rep.worst_p_high == 1.0
        assert rep.residual <= 1e-14

    def test_bisection_matches_linear_scan(self):
        # the whole report, degenerate_tie included, against the scan from
        # m = n - 1 down, whose maximizations each build their own branch:
        # n = 1..120, 200 and 400, the cost next to the reward, and small
        # costs, down to a grid end 1 - c/ubar that rounds to 1.0 and a last
        # plan whose geometric tail is empty
        rng = np.random.default_rng(2027)
        specs = [HomogeneousSpec(1.0, 1.0 - 1e-10, n) for n in (1, 2, 5)]
        for n in range(1, 121):
            ubar = float(rng.uniform(0.5, 2.0))
            specs.append(HomogeneousSpec(ubar, ubar * float(rng.uniform(0.005, 0.9)), n))
        specs += [HomogeneousSpec(1.0, c, n) for n in (200, 400) for c in (1e-4, 1e-3, 0.01, 0.3, 0.9)]
        specs += [HomogeneousSpec(1.0, c, n) for n in (2, 5, 50) for c in (1e-15, 1e-17)]
        for spec in specs:
            assert solve_interim(spec) == interim_linear_scan(spec), spec

    def test_near_tie_flagged_like_linear_scan(self):
        # n = 3, m = 1: the shortfall c - max_x x^2 ((1 - c) - x) vanishes
        # at c = 4 (1 - c)^3 / 27; the costs around that root put the
        # shortfall within 1e-12 of zero on either side of the crossing
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mid < 4 * (1 - mid) ** 3 / 27 else (lo, mid)
        for c in (lo, hi, lo * (1 - 1e-13), hi * (1 + 1e-13)):
            spec = HomogeneousSpec(1.0, c, 3)
            rep = solve_interim(spec)
            assert rep.degenerate_tie, c
            assert rep == interim_linear_scan(spec), c

    @pytest.mark.parametrize("ubar,c,n", LAST_CELL_PEAKS)
    def test_peak_in_last_grid_cell(self, ubar, c, n):
        spec = HomogeneousSpec(ubar, c, n)
        rep = solve_interim(spec)
        assert rep.residual <= 1e-9
        for p in (0.0, rep.worst_p_high):
            assert abs(interim_regret(rep.policy, p, spec) - rep.regret) <= 1e-9, p

    @pytest.mark.parametrize("ratio,n", LARGE_MENUS)
    def test_large_menus(self, ratio, n):
        spec = HomogeneousSpec(1.0, ratio, n)
        rep = solve_interim(spec)
        assert rep.residual <= 1e-9
        for p in (0.0, rep.worst_p_high):
            assert abs(interim_regret(rep.policy, p, spec) - rep.regret) <= 1e-9, p
        assert 0 <= rep.policy.m < n

    def test_branch_slopes_match_coefficient_polynomial(self):
        # (B, B', B'') of the closed form against Horner's rule on the
        # branch's coefficients and their derivatives, each within 1e-11 of
        # the Horner sum of |terms|: at x = 0, the branch's end, random beliefs
        # and, past that end but still a polynomial identity, x = 1 and
        # points near it, where the series in p replaces the quotients
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 20, 60, 200, 400):
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(10 ** rng.uniform(-4.0, -0.05)), n)
            branch = _HighBranch(spec)
            end = 1.0 - spec.c / spec.ubar
            beliefs = [0.0, end, *rng.uniform(0.0, end, 20), *(end - rng.uniform(0.0, 1e-4, 10))]
            beliefs += [1.0, 1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6, 1.0 - 1e-4, 1.0 - 1e-3]
            for m in sorted({0, n - 1, int(rng.integers(0, n))}):
                for alpha in (0.0, 1.0, float(rng.random())):
                    polys = coefficient_slopes(m, alpha, spec)
                    for x in beliefs:
                        for got, poly in zip(branch._at(m, alpha, x), polys):
                            want = _polyval(poly.tolist(), x)
                            assert abs(got - want) <= 1e-11 * _polyval(np.abs(poly).tolist(), x), (spec, m, alpha, x)

    def test_polish_matches_dense_scan_and_coefficient_polish(self):
        # m = 0, n - 1 and one between, alpha = 0, 1 and one between: neither
        # a 200 001-point scan of the closed form over the whole branch [0,
        # 1 - c/ubar] nor the shared peak search on the branch's coefficient
        # polynomial (started at the best of 2001 points, on the two cells
        # around it) beats the maximized value by more than the rounding
        # slack 4 n eps ubar
        rng = np.random.default_rng(2203)
        checked = 0
        for n in (1, 2, 3, 7, 40, *rng.integers(100, 3001, 10).tolist()):
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(10 ** rng.uniform(-4.0, np.log10(0.9))), n)
            slack = 4 * n * np.finfo(float).eps * ubar
            xs = np.linspace(0.0, 1.0 - spec.c / spec.ubar, 2001)
            dense = np.linspace(0.0, xs[-1], 200_001)
            for m in sorted({0, n - 1, int(rng.integers(0, n))}):
                for alpha in (0.0, 1.0, float(rng.random())):
                    _, value = _HighBranch(spec).maximize(m, alpha)
                    assert branch_closed_form(dense, m, alpha, spec).max() <= value + slack, (spec, m, alpha)
                    polys = [p.tolist() for p in coefficient_slopes(m, alpha, spec)]
                    best = int(np.argmax(_polyval(polys[0], xs)))
                    lo, hi = float(xs[max(best - 1, 0)]), float(xs[min(best + 1, xs.size - 1)])
                    at = lambda x: tuple(_polyval(poly, x) for poly in polys)
                    assert _peak_search(at, lo, hi, float(xs[best]))[1] <= value + slack, (spec, m, alpha)
                    checked += 1
        assert checked >= 100

    def test_unresolved_branch_raises(self):
        # a slope that is never a number narrows no bracket: the search ends
        # at its bound with an error, not with a value
        branch = _HighBranch(HomogeneousSpec(1.0, 0.3, 5))
        branch._at = lambda m, alpha, x: (np.nan, np.nan, np.nan)
        with pytest.raises(ConvergenceError):
            branch.maximize(2, 0.5)

    def test_zero_branch_stops_at_start(self):
        # the plan m = n - 1 at alpha = 1 leaves a branch that is 0
        # throughout: one evaluation, at the start x_end m / (m + 1)
        branch = _HighBranch(HomogeneousSpec(1.0, 0.3, 5))
        at, calls = branch._at, []
        branch._at = lambda m, alpha, x: calls.append(x) or at(m, alpha, x)
        assert branch.maximize(4, 1.0) == (branch.end * 4 / 5, 0.0)
        assert len(calls) == 1

    def test_zero_start_with_subnormal_slope_stops_at_start(self):
        # B(x0) rounds to 0 but B'(x0), -4e-323 here, is what rounding leaves
        # of the slope's two cancelling terms: the branch is below 1e-290 and
        # the start is kept, not halved towards the branch's end
        branch = _HighBranch(HomogeneousSpec(1.0, 0.0416501, 557706))
        at, calls = branch._at, []
        branch._at = lambda m, alpha, x: calls.append(x) or at(m, alpha, x)
        x0 = branch.end * 17427 / 17428
        value, slope, _ = at(17427, 1.0, x0)
        assert value == 0.0 and 0.0 < abs(slope) < 1e-300
        assert branch.maximize(17427, 1.0) == (x0, 0.0)
        assert len(calls) == 1

    def test_zero_start_at_no_sure_box_is_searched(self):
        # m = 0, alpha = 1: B(0) = 0 but B'(0) = ubar - c, and the branch peaks inside
        spec = HomogeneousSpec(1.0, 0.3, 5)
        x_star, value = _HighBranch(spec).maximize(0, 1.0)
        assert x_star > 0.0 and value > 0.0
        assert value == pytest.approx(branch_closed_form(np.array([x_star]), 0, 1.0, spec)[0], rel=1e-12)

    def test_single_box_matches_ex_post_case(self):
        rep = solve_interim(HomogeneousSpec(1.0, 0.3, 1))
        assert rep.policy.m == 0
        assert rep.policy.alpha == pytest.approx(0.7, abs=1e-10)
        assert rep.worst_p_high == pytest.approx(1.0, abs=1e-6)

    def test_menu_growth_never_cuts_sure_search(self):
        ms = []
        for n in range(2, 21):
            rep = solve_interim(HomogeneousSpec(1.0, 0.1, n))
            ms.append(rep.policy.m)
            assert rep.residual <= 1e-10
        assert np.all(np.diff(ms) >= 0)

    def test_branches_equalized(self):
        # regret at p = 0 equals the maximized high-belief branch
        for ubar, c, n in [(1.0, 0.3, 2), (1.0, 0.1, 5), (2.0, 0.7, 4), (1.7237803, 0.0902015, 3)]:
            spec = HomogeneousSpec(ubar, c, n)
            rep = solve_interim(spec)
            at_zero = interim_regret(rep.policy, 0.0, spec)
            at_worst = interim_regret(rep.policy, rep.worst_p_high, spec)
            assert at_zero == pytest.approx(rep.regret, abs=1e-10)
            assert at_worst == pytest.approx(rep.regret, abs=1e-9)

    def test_solution_is_worst_case_optimal_on_grid(self):
        # no staircase plan on a fine grid beats the solver's worst case
        spec = HomogeneousSpec(1.0, 0.25, 4)
        rep = solve_interim(spec)
        ps = np.linspace(0.0, 1.0, 801)
        solved_worst = float(np.max(interim_regret(rep.policy, ps, spec)))
        for m in range(4):
            for a in np.linspace(0.0, 1.0, 161):
                worst = float(np.max(interim_regret(InterimPolicy(m, float(a), 4), ps, spec)))
                assert worst >= solved_worst - 1e-6


@given(st.integers(1, 2000), st.floats(1e-4, 0.99), st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_solution_holds_across_costs_and_menus(n, ratio, ubar):
    # equalized to within 1e-9, priced alike by interim_regret at both branches
    spec = HomogeneousSpec(ubar, ubar * ratio, n)
    rep = solve_interim(spec)
    assert rep.residual <= 1e-9
    for p in (rep.worst_p_high, 0.0):
        assert abs(interim_regret(rep.policy, p, spec) - rep.regret) <= 1e-9, p
    assert 0 <= rep.policy.m < n
    assert 0.0 <= rep.policy.alpha <= 1.0


@given(st.floats(0.0, 7.0), st.floats(-9.0, np.log10(0.98)), st.floats(0.0, 1.0), st.data())
@settings(max_examples=40, deadline=None)
def test_branch_slope_changes_sign_once(log_n, log_ratio, alpha, data):
    # the unimodality maximize relies on: on a dense grid of [0, 1 - c/ubar],
    # uniform and clustered toward the end, the sign of B' runs from + to -
    # at most once; zeros, where x^m underflows, are left out
    n = round(10**log_n)
    m = data.draw(st.integers(0, n - 1))
    branch = _HighBranch(HomogeneousSpec(1.0, 10**log_ratio, n))
    end = branch.end
    xs = np.sort(np.concatenate([np.linspace(0.0, end, 1001), end - end * np.geomspace(1e-12, 1.0, 1001)]))
    signs = [sign for sign in (np.sign(branch._at(m, alpha, float(x))[1]) for x in xs) if sign]
    assert signs == sorted(signs, reverse=True), (n, m, alpha)


class TestTwoBoxIntrapersonal:
    def test_reference_values(self):
        a1, a2 = interim_two_box_intrapersonal(SPEC2)
        assert a1 == pytest.approx(0.7, abs=1e-15)
        assert a2 == pytest.approx(0.7 / 1.21, abs=1e-12)

    def test_vanishing_cost_limit(self):
        a1, a2 = interim_two_box_intrapersonal(HomogeneousSpec(1.0, 1e-9, 2))
        assert a1 == pytest.approx(1.0, abs=1e-8)
        assert a2 == pytest.approx(1.0, abs=1e-8)

    def test_first_stage_less_likely(self):
        rng = np.random.default_rng(109)
        for _ in range(25):
            ubar = rng.uniform(0.5, 2.0)
            c = ubar * rng.uniform(0.05, 0.95)
            a1, a2 = interim_two_box_intrapersonal(HomogeneousSpec(ubar, c, 2))
            assert a2 < a1

    def test_stage_regrets_equalized_at_extremes(self):
        # the stage-two choice balances p = 0 against p = 1
        ubar, c = 1.0, 0.3
        a1, a2 = interim_two_box_intrapersonal(HomogeneousSpec(ubar, c, 2))
        regret_p0 = a2 * (1 + a1) * c
        regret_p1 = (1 - a2) * (ubar - c)
        assert regret_p0 == pytest.approx(regret_p1, abs=1e-12)


class TestPolicyConstruction:
    def test_bad_m_rejected(self):
        with pytest.raises(DomainError):
            InterimPolicy(3, 0.5, 3)
        with pytest.raises(DomainError):
            InterimPolicy(1.5, 0.5, 3)

    def test_bad_alpha_rejected(self):
        with pytest.raises(DomainError):
            InterimPolicy(0, 1.5, 3)
