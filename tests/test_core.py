import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_pandora.corr import single_treasure_equivalent, solve_corr_commitment, solve_corr_intrapersonal
from robust_pandora.indep import solve_indep
from robust_pandora.interim import solve_interim

from robust_pandora.core import (
    CountProfile,
    DomainError,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    SaddleReport,
    SizeError,
    StationaryPolicy,
    StoppingMixture,
    _MAX_COUNT_BOXES,
    _MAX_SPEC_BOXES,
    _plan_regrets,
    _regret_indep_poly,
    _tail_table,
    _tails,
    first_success_probabilities,
    regret_count_profile,
    regret_indep,
    regret_needle,
)

from oracles import (
    corr_vertex_scan,
    count_profile_states,
    first_success_by_orders,
    first_success_cumsum,
    first_success_table_cumprod,
    first_success_table_loop,
    iid_states,
    indep_poly_loop,
    indep_recursion,
    mixture_regret,
    needle_recursion,
    needle_states,
    plan_regrets_masked,
    stopping_weights_loop,
    walk_regret,
)

SPEC = HomogeneousSpec(ubar=1.0, c=0.3, n=3)
EPS = np.finfo(float).eps


class TestValidateSpec:
    def test_reference_parameters_ok(self):
        assert (SPEC.ubar, SPEC.c, SPEC.n) == (1.0, 0.3, 3)

    def test_cost_equal_to_reward_rejected(self):
        with pytest.raises(DomainError):
            HomogeneousSpec(ubar=1.0, c=1.0, n=2)

    def test_single_box_interior_ok(self):
        assert HomogeneousSpec(ubar=2.0, c=0.5, n=1).n == 1

    @pytest.mark.parametrize(
        "ubar,c,n",
        [
            (0.0, 0.1, 1),
            (1.0, -0.1, 1),
            (1.0, 0.5, 0),
            (1.0, 0.5, 2.5),
            (1.0, 0.5, True),
            (1.0, 0.3, float("nan")),
            (1.0, 0.3, float("inf")),
            (None, 0.3, 3),
            ("1", 0.3, 3),
            (1.0, None, 3),
            (1.0, "0.3", 3),
            (True, 0.3, 3),
            (2.0, True, 3),
        ],
    )
    def test_bad_parameters_rejected(self, ubar, c, n):
        with pytest.raises(DomainError):
            HomogeneousSpec(ubar=ubar, c=c, n=n)

    def test_validated_on_construction(self):
        spec = HomogeneousSpec(1.0, 0.3, 2.0)
        assert spec.n == 2 and type(spec.n) is int
        with pytest.raises(DomainError):
            HomogeneousSpec(1.0, 1.5, 2)

    def test_reward_and_cost_stored_as_float(self):
        # a float32 reward and cost used to run the solvers in single precision
        for ubar, c in [(np.float32(1.0), np.float32(0.3)), (np.float64(2.0), np.float64(0.7)), (3, 1)]:
            spec, ref = HomogeneousSpec(ubar, c, 4), HomogeneousSpec(float(ubar), float(c), 4)
            assert type(spec.ubar) is float and type(spec.c) is float
            for solve in (solve_indep, solve_corr_commitment, solve_corr_intrapersonal, solve_interim):
                # bit for bit, arrays and scalar types included
                assert pickle.dumps(solve(spec)) == pickle.dumps(solve(ref)), (ubar, c, solve)

    def test_size_cap(self):
        assert HomogeneousSpec(1.0, 0.3, _MAX_SPEC_BOXES).n == _MAX_SPEC_BOXES
        for n in (_MAX_SPEC_BOXES + 1, 10**9, 1e9):
            with pytest.raises(SizeError):
                HomogeneousSpec(1.0, 0.3, n)


class TestRegretIndep:
    def test_one_box_hand_value(self):
        # enumeration oracle: R_1 = p (1-a)(ubar-c) + (1-p) a c = 0.21
        spec = HomogeneousSpec(1.0, 0.3, 1)
        policy = StationaryPolicy(np.array([0.7]))
        oracle = walk_regret([0.7], iid_states(1, 0.3), 1.0, 0.3)
        assert oracle == pytest.approx(0.21, abs=1e-15)
        assert regret_indep(policy, 0.3, spec) == pytest.approx(oracle, abs=1e-12)

    def test_never_search_regret(self):
        for p in (0.0, 0.2, 0.9, 1.0):
            policy = StationaryPolicy(np.zeros(3))
            expected = (1 - (1 - p) ** 3) * 0.7
            assert regret_indep(policy, p, SPEC) == pytest.approx(expected, abs=1e-14)

    def test_matches_enumeration_on_random_policies(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            spec = HomogeneousSpec(1.0, 0.3, n)
            for _ in range(20):
                alphas = rng.random(n)
                p = rng.random()
                got = regret_indep(StationaryPolicy(alphas), p, spec)
                want = walk_regret(alphas, iid_states(n, p), 1.0, 0.3)
                assert got == pytest.approx(want, abs=1e-12)

    def test_indifference_at_phat_random_policies(self):
        # regret is constant in the policy at p = c / ubar
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            spec = HomogeneousSpec(1.0, 0.3, n)
            phat = 0.3
            flat = (1 - (1 - phat) ** n) * 0.7
            for _ in range(100):
                policy = StationaryPolicy(rng.random(n))
                assert abs(regret_indep(policy, phat, spec) - flat) <= 1e-10

    def test_multilinear_in_each_alpha(self):
        # slope in one coordinate is constant across three probe points
        rng = np.random.default_rng(3)
        spec = HomogeneousSpec(1.0, 0.3, 4)
        base = rng.random(4)
        p = 0.55
        for k in range(4):
            vals = []
            for a in (0.1, 0.5, 0.9):
                alphas = base.copy()
                alphas[k] = a
                vals.append(regret_indep(StationaryPolicy(alphas), p, spec))
            slope1 = (vals[1] - vals[0]) / 0.4
            slope2 = (vals[2] - vals[1]) / 0.4
            assert slope1 == pytest.approx(slope2, abs=1e-9)

    def test_vectorized_over_p(self):
        # bit for bit the scalar result at each belief
        policy = StationaryPolicy(np.array([0.5, 0.6, 0.7]))
        grid = np.linspace(0.0, 1.0, 11)
        assert regret_indep(policy, grid, SPEC).tolist() == [regret_indep(policy, float(p), SPEC) for p in grid]
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 40, 700):
            spec = HomogeneousSpec(1.3, 0.2, n)
            policy = StationaryPolicy(rng.random(n))
            grid = np.append(rng.random(30), [0.0, 1.0, 0.2 / 1.3])
            assert regret_indep(policy, grid, spec).tolist() == [regret_indep(policy, float(p), spec) for p in grid], n

    @staticmethod
    def _sweep(rng, specs):
        # n log-uniform in 1..5000, c/ubar log-uniform in 1e-5..0.95, and the
        # solver's, a random, the all-ones and a scaled solver's policy
        for _ in range(specs):
            n = int(np.exp(rng.uniform(0.0, np.log(5000))))
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(10 ** rng.uniform(-5.0, np.log10(0.95))), n)
            solved = solve_indep(spec).policy.alphas
            yield spec, np.array([solved, rng.random(n), np.ones(n), solved * rng.uniform(0.5, 1.0)])

    def test_coefficients_match_the_stage_loop(self):
        # the O(n) suffix-product coefficients against the O(n^2) recursion on
        # coefficient vectors, entry by entry within 2 n ulps
        for spec, policies in self._sweep(np.random.default_rng(28), 120):
            for alphas in policies:
                got, want = _regret_indep_poly(StationaryPolicy(alphas), spec), indep_poly_loop(alphas, spec)
                ulps = np.spacing(np.maximum(np.abs(got), np.abs(want)))
                assert np.all(np.abs(got - want) <= 2 * spec.n * ulps), spec

    def test_polynomial_matches_the_recursion(self):
        # within 2 n eps ubar of the backward recursion at 47 beliefs: 40
        # random, both ends, the threshold c/ubar and points beside it
        rng = np.random.default_rng(2028)
        for spec, policies in self._sweep(rng, 200):
            phat = spec.c / spec.ubar
            ps = np.append(rng.random(40), [0.0, 1.0, phat, phat * (1 - 1e-3), phat * (1 + 1e-3), 1e-9, 1 - 1e-9])
            want = indep_recursion(policies[:, None, :], ps, spec)
            got = np.array([regret_indep(StationaryPolicy(alphas), ps, spec) for alphas in policies])
            assert np.abs(got - want).max() <= 2 * spec.n * EPS * spec.ubar, spec

    def test_output_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(1, 6)
            spec = HomogeneousSpec(1.0, 0.3, int(n))
            r = regret_indep(StationaryPolicy(rng.random(n)), rng.random(), spec)
            assert -1e-12 <= r <= 1.0 + 1e-12


class TestRegretNeedle:
    def test_exhaustive_tail_closed_form(self):
        # with all-ones continuation the regret is linear in P:
        # (1-a_n) P (ubar-c) + a_n [P (n-1)/2 + (1-P) n] c
        for n in (2, 3, 5, 8):
            spec = HomogeneousSpec(1.0, 0.25, n)
            for a_n in (0.0, 0.3, 0.7, 1.0):
                alphas = np.ones(n)
                alphas[-1] = a_n
                policy = StationaryPolicy(alphas)
                for P in np.linspace(0.0, 1.0, 21):
                    want = (1 - a_n) * P * 0.75 + a_n * (P * (n - 1) / 2 + (1 - P) * n) * 0.25
                    assert regret_needle(policy, P, spec) == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_on_random_policies(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 5):
            spec = HomogeneousSpec(1.0, 0.3, n)
            for _ in range(20):
                alphas = rng.random(n)
                P = rng.random()
                got = regret_needle(StationaryPolicy(alphas), P, spec)
                want = walk_regret(alphas, needle_states(n, P), 1.0, 0.3)
                assert got == pytest.approx(want, abs=1e-12)

    def test_no_treasure_matches_indep_at_zero(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 4):
            spec = HomogeneousSpec(1.0, 0.3, n)
            alphas = rng.random(n)
            policy = StationaryPolicy(alphas)
            assert regret_needle(policy, 0.0, spec) == pytest.approx(
                regret_indep(policy, 0.0, spec), abs=1e-14
            )

    def test_single_box_equals_indep(self):
        spec = HomogeneousSpec(1.0, 0.3, 1)
        for a in (0.0, 0.4, 1.0):
            policy = StationaryPolicy(np.array([a]))
            for P in (0.0, 0.3, 1.0):
                assert regret_needle(policy, P, spec) == pytest.approx(
                    regret_indep(policy, P, spec), abs=1e-14
                )

    def test_linear_in_p_with_exhaustive_continuation(self):
        spec = HomogeneousSpec(1.0, 0.25, 4)
        alphas = np.ones(4)
        alphas[-1] = 0.6
        policy = StationaryPolicy(alphas)
        r = regret_needle(policy, np.array([0.1, 0.45, 0.8]), spec)
        assert r[1] - r[0] == pytest.approx(r[2] - r[1], abs=1e-12)

    def test_matches_the_stage_loop(self):
        # the (K, v) functional against the per-box stage loop, within
        # n eps max(|R|, ubar) (0.50 of it measured): 600 specs with n
        # log-uniform in 1..5000 and c/ubar log-uniform in 1e-3..0.9; the
        # commitment solver's, a random, the all-ones and a [0.9, 1] policy;
        # P at both ends and at 8 random points
        rng = np.random.default_rng(34)
        for _ in range(600):
            n = int(np.exp(rng.uniform(0.0, np.log(5000))))
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(10 ** rng.uniform(-3.0, np.log10(0.9))), n)
            P = np.append(rng.random(8), [0.0, 1.0])
            solved = solve_corr_commitment(spec).policy.alphas
            for alphas in (solved, rng.random(n), np.ones(n), rng.uniform(0.9, 1.0, n)):
                got, want = regret_needle(StationaryPolicy(alphas), P, spec), needle_recursion(alphas, P, spec)
                assert np.all(np.abs(got - want) <= n * EPS * np.maximum(np.abs(want), ubar)), spec

    def test_long_menu_has_no_depth_limit(self):
        # c below 2 ubar / (n + 1), so the commitment plan still searches
        spec = HomogeneousSpec(1.0, 5e-4, 3000)
        sol = solve_corr_commitment(spec)
        assert not sol.opts_out
        r = regret_needle(sol.policy, np.linspace(0.0, 1.0, 1001), spec)
        assert np.all(np.isfinite(r))
        assert r.max() <= sol.regret + 1e-9

    def test_long_menu_memory_is_sublinear(self):
        # a few arrays of n + 1 floats for the weights, the terms and one row
        # of tails; all n beliefs of 8 kB at once would take 24 MB
        spec = HomogeneousSpec(1.0, 5e-4, 3000)
        policy = solve_corr_commitment(spec).policy
        tracemalloc.start()
        try:
            regret_needle(policy, np.linspace(0.0, 1.0, 1001), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestCountProfile:
    def test_no_treasure_pure_cost(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        Q = CountProfile(np.array([1.0, 0, 0, 0, 0]))
        for m in range(5):
            w = np.zeros(5)
            w[m] = 1.0
            got = regret_count_profile(StoppingMixture(w), Q, spec)
            assert got == pytest.approx(m * 0.3, abs=1e-14)

    def test_single_treasure_exhaustive(self):
        # one treasure, exhaustive search: mean waste (n-1) c / 2
        for n in (2, 3, 5):
            spec = HomogeneousSpec(1.0, 0.3, n)
            Q = np.zeros(n + 1)
            Q[1] = 1.0
            w = np.zeros(n + 1)
            w[n] = 1.0
            got = regret_count_profile(StoppingMixture(w), CountProfile(Q), spec)
            want = mixture_regret(w, count_profile_states(Q), 1.0, 0.3)
            assert want == pytest.approx((n - 1) * 0.3 / 2, abs=1e-12)
            assert got == pytest.approx(want, abs=1e-12)

    def test_binomial_profile_equals_iid(self):
        from math import comb

        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            spec = HomogeneousSpec(1.0, 0.3, n)
            for p in np.linspace(0.0, 1.0, 11):
                Q = np.array([comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)])
                alphas = rng.random(n)
                policy = StationaryPolicy(alphas)
                mix = StoppingMixture.from_policy(policy)
                got = regret_count_profile(mix, CountProfile(Q), spec)
                assert got == pytest.approx(regret_indep(policy, float(p), spec), abs=1e-12)

    def test_matches_state_enumeration(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4, 5):
            spec = HomogeneousSpec(1.0, 0.3, n)
            for _ in range(10):
                Q = rng.dirichlet(np.ones(n + 1))
                w = rng.dirichlet(np.ones(n + 1))
                got = regret_count_profile(StoppingMixture(w), CountProfile(Q), spec)
                want = mixture_regret(w, count_profile_states(Q), 1.0, 0.3)
                assert got == pytest.approx(want, abs=1e-12)
            # the vertices, Q_0 = 1 among them
            w = rng.dirichlet(np.ones(n + 1))
            for Q in np.eye(n + 1):
                got = regret_count_profile(StoppingMixture(w), CountProfile(Q), spec)
                assert abs(got - mixture_regret(w, count_profile_states(Q), 1.0, 0.3)) <= 4 * n * EPS


class TestStoppingMixture:
    def test_weights_from_policy(self):
        policy = StationaryPolicy(np.array([0.5, 0.6, 0.8]))
        w = StoppingMixture.from_policy(policy).w
        # m failures consume alphas from k = n downward
        assert w[0] == pytest.approx(0.2)
        assert w[1] == pytest.approx(0.8 * 0.4)
        assert w[2] == pytest.approx(0.8 * 0.6 * 0.5)
        assert w[3] == pytest.approx(0.8 * 0.6 * 0.5)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_match_the_scalar_loop(self):
        # one running product gives the loop's bits, alphas at exactly 0 and 1 included
        rng = np.random.default_rng(37)
        for k in range(300):
            n = int(rng.integers(1, 3001)) if k % 10 == 0 else int(rng.integers(1, 40))
            alphas = rng.random(n)
            alphas[rng.random(n) < 0.1] = 0.0
            alphas[rng.random(n) < 0.1] = 1.0
            got = StoppingMixture.from_policy(StationaryPolicy(alphas)).w
            assert [float(x).hex() for x in got] == [x.hex() for x in stopping_weights_loop(alphas)]

    def test_policy_walk_agrees_with_mixture_view(self):
        rng = np.random.default_rng(31)
        for n in (1, 3, 5):
            alphas = rng.random(n)
            w = StoppingMixture.from_policy(StationaryPolicy(alphas)).w
            states = iid_states(n, 0.35)
            assert walk_regret(alphas, states, 1.0, 0.3) == pytest.approx(
                mixture_regret(w, states, 1.0, 0.3), abs=1e-12
            )


class TestFirstSuccessProbabilities:
    def test_size_cap(self):
        # refused before the table is built: one row of n + 1 tails per count
        # that holds mass, at most 5 000 x 5 001 cells; mass on every count
        # at 5 001 boxes is past it, and so is mass on 30 counts at 10^6
        for n, held in ((_MAX_COUNT_BOXES + 1, np.arange(_MAX_COUNT_BOXES + 2)), (10**6, np.arange(1, 31))):
            Q = np.zeros(n + 1)
            Q[held] = 1.0 / held.size
            with pytest.raises(SizeError):
                first_success_probabilities(Q)
            w = np.zeros(n + 1)
            w[n] = 1.0
            with pytest.raises(SizeError):
                regret_count_profile(StoppingMixture(w), CountProfile(Q), HomogeneousSpec(1.0, 1e-5, n))

    def test_single_treasure_runs_at_a_million_boxes(self):
        # a single-treasure profile is one table row, so no box cap applies:
        # at 10^6 boxes q is uniform and the regret is the needle's
        n, P = 10**6, 0.6
        spec = HomogeneousSpec(1.0, 1e-6, n)
        Q = np.zeros(n + 1)
        Q[:3] = 0.4, 0.5, 0.1
        flat = single_treasure_equivalent(CountProfile(Q))
        q = first_success_probabilities(flat.Q)
        assert q.shape == (n,) and np.all(np.abs(q - P / n) <= 1e-6 * P / n)
        policy = solve_corr_commitment(spec).policy
        got = regret_count_profile(StoppingMixture.from_policy(policy), flat, spec)
        assert abs(got - regret_needle(policy, P, spec)) <= n * EPS

    def test_single_treasure_uniform(self):
        q = first_success_probabilities(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(q, 0.25)

    def test_all_full_first_try(self):
        q = first_success_probabilities(np.array([0.0, 0.0, 0.0, 1.0]))
        assert np.allclose(q, [1.0, 0.0, 0.0])

    def test_binomial_gives_geometric(self):
        from math import comb

        n, p = 3, 0.4
        Q = np.array([comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)])
        q = first_success_probabilities(Q)
        assert np.allclose(q, [0.4 * 0.6 ** (k - 1) for k in (1, 2, 3)], atol=1e-14)

    def test_matches_hypergeometric_sum(self):
        # q_k = sum_j Q_j C(n-k, j-1) / C(n, j): the first k-1 boxes empty, box k full
        from math import comb

        n = 60
        Q = np.random.default_rng(5).dirichlet(np.ones(n + 1))
        want = [sum(Q[j] * (comb(n - k, j - 1) / comb(n, j)) for j in range(1, n + 1)) for k in range(1, n + 1)]
        np.testing.assert_allclose(first_success_probabilities(Q), want, rtol=1e-12, atol=0.0)

    def test_matches_permutation_enumeration(self):
        from oracles import first_success_by_orders

        rng = np.random.default_rng(37)
        for n in (2, 3, 4):
            Q = rng.dirichlet(np.ones(n + 1))
            assert np.allclose(first_success_probabilities(Q), first_success_by_orders(Q), atol=1e-12)

    def test_table_matches_slice_products(self):
        # C_k^j as the difference of two tails, T[j, k - 1] - T[j, k], against
        # one slice product per factor (O(n^3)): within n eps / 4 (0.167 n eps
        # measured, n = 1..300)
        for n in range(1, 301):
            want = first_success_table_loop(n)
            table = _tail_table(n, np.arange(n + 1))
            got = (table[:, :-1] - table[:, 1:]).T
            assert np.array_equal(got == 0.0, want == 0.0), n
            assert np.all(np.abs(got - want) <= n * EPS / 4), n

    def test_table_matches_integer_rows(self):
        # the same against the integer-row table: within n eps / 4 (0.167 n
        # eps measured); a tail is a probability, in [0, 1], and the last one
        # of each full row is +0.0
        for n in [*range(1, 400), 1000]:
            table = _tail_table(n, np.arange(n + 1))
            assert np.all((0.0 <= table) & (table <= 1.0)), n
            assert np.array_equal(table[1:, -1].view(np.int64), np.zeros(n, np.int64)), n
            got = (table[:, :-1] - table[:, 1:]).T
            assert np.all(np.abs(got - first_success_table_cumprod(n)) <= n * EPS / 4), n

    def test_table_rows_for_some_counts_equal_full_table_rows(self):
        # a subset of counts builds exactly those rows of the full table
        rng = np.random.default_rng(53)
        for n in [*range(1, 120), 300, 1000]:
            full = _tail_table(n, np.arange(n + 1))
            for size in (1, 2, n // 2 + 1):
                counts = np.sort(rng.choice(n + 1, size=min(size, n + 1), replace=False))
                got = _tail_table(n, counts)
                assert np.array_equal(got.view(np.int64), full[counts].view(np.int64)), (n, counts)

    def test_matches_full_table_cumsum(self):
        # tail differences, from table rows only for the counts that hold
        # mass, against every row of the full C_k^j table summed by np.cumsum:
        # within n eps / 4 (0.167 n eps measured)
        rng = np.random.default_rng(59)
        for n in [*range(1, 301), 1000]:
            profiles = [rng.dirichlet(np.ones(n + 1)), np.eye(n + 1)[0]]
            for size in range(1, min(5, n + 1) + 1):
                end = (0, n)[size % 2]  # both ends of the count range
                others = np.delete(np.arange(n + 1), end)
                support = np.append(rng.choice(others, size=size - 1, replace=False), end)
                Q = np.zeros(n + 1)
                Q[support] = rng.dirichlet(np.ones(support.size))
                profiles.append(Q)
            for Q in profiles:
                got, want = first_success_probabilities(Q), first_success_cumsum(Q)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= n * EPS / 4), n

    def test_plan_regrets_match_masked_sums(self):
        # plan regrets summed from the tails against the masked (n + 1, n)
        # copy of q: within n eps ubar / 4 (0.167 n eps measured)
        rng = np.random.default_rng(47)
        for n in [*range(1, 200), 300, 1000]:
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, 0.3 * ubar / n, n)
            profiles = [rng.dirichlet(np.ones(n + 1)), np.eye(n + 1)[0], np.eye(n + 1)[-1]]
            for Q in profiles:
                got, want = _plan_regrets(_tails(Q), spec), plan_regrets_masked(Q, spec)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= n * EPS * ubar / 4), n

    def test_stacked_rows_raise_domain_error(self):
        # one profile per call: a stack of profiles is refused, not scored row by row
        for stack in (np.full((3, 4, 3), 1.0 / 3.0), np.eye(3), np.array([[0.5, 0.5]])):
            with pytest.raises(DomainError, match="1-D vector"):
                first_success_probabilities(stack)

    def test_memory_peak(self):
        # one table of n^2 floats at a time: 8 MB at n = 1000
        n = 1000
        spec = HomogeneousSpec(1.0, 0.3 / n, n)
        rng = np.random.default_rng(61)
        w, Q = StoppingMixture(rng.dirichlet(np.ones(n + 1))), CountProfile(rng.dirichlet(np.ones(n + 1)))
        tracemalloc.start()
        try:
            regret_count_profile(w, Q, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_stacked_plan_regrets_equal_public_evaluator(self):
        # each row of the stacked vertex scan, the (K, v) functional on one
        # (n + 1, n + 1) tail table, is one regret_count_profile call at that
        # vertex, bit for bit
        rng = np.random.default_rng(43)
        for n in (1, 5, 9, 32, 300):
            spec = HomogeneousSpec(1.0, 0.3 / n, n)
            solved = StoppingMixture.from_policy(StationaryPolicy(rng.random(n)))
            for w in (solved, StoppingMixture(rng.dirichlet(np.ones(n + 1)))):
                got = [x.hex() for x in corr_vertex_scan(w.w, spec).tolist()]
                assert got == [regret_count_profile(w, CountProfile(Q), spec).hex() for Q in np.eye(n + 1)], n


def _draw_weights(data, n):
    """``n + 1`` probabilities on a random nonempty support, half the time a single entry of 1.0."""
    one = st.lists(st.integers(0, n), min_size=1, max_size=1)
    support = data.draw(st.one_of(one, st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True)))
    weights = np.zeros(n + 1)
    weights[support] = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    return weights / weights.sum()


@given(st.integers(1, 6), st.floats(0.5, 2.0), st.floats(0.01, 0.95), st.data())
@settings(max_examples=80, deadline=None)
def test_count_path_matches_state_enumeration(n, ubar, ratio, data):
    # random stopping weights and profiles on random supports, a single held
    # count and Q_0 = 1 among them: within 4 n eps ubar of the state walk and
    # 4 n eps of the enumeration of opening orders
    spec = HomogeneousSpec(ubar, ratio * ubar, n)
    w, Q = _draw_weights(data, n), _draw_weights(data, n)
    states = count_profile_states(Q)
    got = regret_count_profile(StoppingMixture(w), CountProfile(Q), spec)
    assert abs(got - mixture_regret(w, states, spec.ubar, spec.c)) <= 4 * n * EPS * ubar
    assert np.all(np.abs(first_success_probabilities(Q) - first_success_by_orders(Q)) <= 4 * n * EPS)


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_first_success_weakly_decreasing(n, data):
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1))
    total = sum(weights)
    if total == 0.0:
        weights[0] = 1.0
        total = 1.0
    Q = np.array(weights) / total
    q = first_success_probabilities(Q)
    assert np.all(np.diff(q) <= 1e-12)


class TestBeliefValidation:
    def test_count_profile_must_sum_to_one(self):
        with pytest.raises(DomainError):
            CountProfile(np.array([0.5, 0.4]))

    def test_probability_bounds_enforced(self):
        with pytest.raises(DomainError):
            IidBinary(1.2)
        with pytest.raises(DomainError):
            NeedleP(-0.1)

    def test_tiny_drift_clamped(self):
        assert IidBinary(1.0 + 5e-16).p == 1.0
        assert NeedleP(-5e-16).P == 0.0


@pytest.mark.parametrize(
    "nature_gap, dm_gap, noted, passed",
    [
        (1e-6, 1e-6, True, True),  # gaps equal to the tolerance pass
        (-1.0, -np.inf, True, True),
        (1e-6 * (1 + 1e-15), 0.0, True, False),
        (0.0, 2e-6, True, False),
        (0.0, 0.0, False, True),
        (np.nan, 0.0, True, False),
        (0.0, np.nan, True, False),
    ],
)
def test_saddle_report_pass_rule(nature_gap, dm_gap, noted, passed):
    # the gaps alone decide: a note is a diagnostic and never changes the verdict
    notes = ("a diagnostic",) if noted else ()
    report = SaddleReport(np.float64(nature_gap), dm_gap, IidBinary(0.3), 1e-6, notes)
    assert report.passed is passed
    assert type(report.nature_gap) is float and type(report.dm_gap) is float
    assert str(report).startswith("SaddleReport(pass" if passed else "SaddleReport(FAIL")
