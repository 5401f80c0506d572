import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_pandora.core import (
    _MAX_COUNT_BOXES,
    ConvergenceError,
    CountProfile,
    DomainError,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    StationaryPolicy,
    StoppingMixture,
    _needle_ends,
    _plan_regrets,
    _regret_indep_poly,
    _tail_table,
    regret_count_profile,
    regret_indep,
    regret_needle,
)
from robust_pandora.corr import single_treasure_equivalent, solve_corr_commitment, solve_corr_intrapersonal
from robust_pandora.indep import solve_indep
from robust_pandora.interim import solve_interim
from robust_pandora.two_box import solve_two_box, verify_two_box
from robust_pandora.verify import (
    interim_grid_oracle,
    nature_best_response_indep,
    nature_best_response_needle,
    saddle_check_corr,
    saddle_check_indep,
)

from oracles import (
    corr_profile_loop,
    corr_vertex_scan,
    indep_descent_loop,
    indep_grid_search,
    indep_pure_plan_min,
    indep_recursion,
    interim_alpha_grid_oracle,
)

SPEC = HomogeneousSpec(1.0, 0.3, 3)
EPS = np.finfo(float).eps


class TestNatureBestResponse:
    def test_solved_policy_faces_threshold_belief(self):
        sol = solve_indep(SPEC)
        p_star, worst = nature_best_response_indep(sol.policy, SPEC)
        assert p_star == pytest.approx(0.3, abs=1e-6)
        assert worst == pytest.approx(sol.regret, abs=1e-9)
        # p_hat 2.26e-4 lies inside the grid's first cell and the peak is
        # sharp at n = 4101: a polish that stopped at the grid point 5e-4
        # came out 0.0515 low
        spec = HomogeneousSpec(1.0, 2.256988330900035e-4, 4101)
        sol = solve_indep(spec)
        assert abs(nature_best_response_indep(sol.policy, spec)[1] - sol.regret) <= 1e-12

    def test_never_search_punished_by_certain_reward(self):
        policy = StationaryPolicy(np.zeros(3))
        p_star, worst = nature_best_response_indep(policy, SPEC)
        assert p_star == pytest.approx(1.0, abs=1e-9)
        assert worst == pytest.approx(0.7, abs=1e-12)

    def test_always_search_punished_by_no_reward(self):
        policy = StationaryPolicy(np.ones(3))
        p_star, worst = nature_best_response_indep(policy, SPEC)
        assert p_star == pytest.approx(0.0, abs=1e-9)
        assert worst == pytest.approx(3 * 0.3, abs=1e-12)

    def test_two_box_vertex_exact(self):
        # with two boxes the regret is a quadratic in x = 1 - p:
        # R = (1-a2) D (1-x^2) + a2 x (c + (1-a1) D (1-x) + a1 c x), D = ubar - c,
        # whose vertex lies inside [0, 1] for these policies
        ubar, c = 1.0, 0.3
        spec = HomogeneousSpec(ubar, c, 2)
        d = ubar - c
        for a1, a2 in [(0.9, 0.2), (0.5, 0.5), (0.3, 0.8)]:
            quad = -(1 - a2) * d + a2 * (a1 * c - (1 - a1) * d)
            lin = a2 * (c + (1 - a1) * d)
            x = -lin / (2 * quad)
            p_star, worst = nature_best_response_indep(StationaryPolicy(np.array([a1, a2])), spec)
            assert p_star == pytest.approx(1 - x, abs=1e-12)
            assert worst == pytest.approx((1 - a2) * d + lin * x + quad * x * x, abs=1e-15)

    def test_never_optout_rule_is_minimax(self):
        # at c/ubar = 0.05 and n = 2 the rule that never opts out faces the
        # same worst case as the solver's rule, which opts out with chance
        # 0.0512: minimax regret does not pin the opt-out probability
        spec = HomogeneousSpec(1.0, 0.05, 2)
        _, worst = nature_best_response_indep(StationaryPolicy([161 / 190, 1.0]), spec)
        assert worst.hex() == solve_indep(spec).regret.hex() == "0x1.7b645a1cac085p-4"

    def test_near_certain_optout(self):
        # the first box is opened with chance 1e-250: the peak lies near
        # x = 1e-63, where the value is v_0 to the last bit and a Newton
        # search shrinks x by a constant factor per step
        spec = HomogeneousSpec(1.0, 0.05, 5)
        assert nature_best_response_indep(StationaryPolicy([1.0, 1.0, 1.0, 1.0, 1e-250]), spec) == (1.0, 0.95)

    @pytest.mark.parametrize(
        "n, alphas, p_star, worst",
        [
            (200, [0.5] + [1.0] * 198 + [0.5], 0.668333273915663, 0.5),
            (5, [0.0, 1.0, 1.0, 1.0, 1e-15], 0.9999999999999992, 0.999999999999999),
        ],
    )
    def test_peak_far_left_of_the_start(self, n, alphas, p_star, worst):
        # at c = 1e-100 the search starts at x = 1 - c/ubar = 1.0.  With n =
        # 200 and mass at both ends the peak is at x near 1/3, where Newton
        # steps from the right shrink x by about 1/n each (about n ln 3 of
        # them); with n = 5 and the rare first opening it is near 7e-17
        # (about 130 steps).  Both exceeded the Newton search's bound of 100
        # steps before the bisection bracketed the peak.
        got = nature_best_response_indep(StationaryPolicy(alphas), HomogeneousSpec(1.0, 1e-100, n))
        assert got == (p_star, worst)

    @given(
        st.integers(1, 2000),
        st.floats(-300.0, math.log10(0.99)).map(lambda e: 10.0**e),
        st.sampled_from(["log", "ends", "rare-first", "edge", "padded"]),
        st.integers(0, 2**32 - 1),
    )
    @example(5, 0.05, "rare-first", 0)
    @example(1, 0.3, "ends", 0)
    @example(2000, 1e-6, "edge", 0)
    @example(200, 1e-100, "padded", 0)
    @example(5, 1e-300, "rare-first", 1)
    @settings(max_examples=80, deadline=None)
    def test_never_raises_and_beats_dense_grid(self, n, ratio, kind, seed):
        # c/ubar log-uniform down to 1e-300, so the search may start at x =
        # 1.0 far right of the peak; stage probabilities log-uniform in
        # [1e-300, 1], exact 0s and 1s, a first opening that almost never
        # happens ("edge" puts the interior terms' sum near the rounding of
        # v_0), or 1s padded by two drawn ends: no policy makes the search
        # raise, and none of 20 001 beliefs beats it by more than the
        # rounding slack 4 n eps ubar
        rng = np.random.default_rng(seed)
        ubar = float(rng.uniform(0.5, 2.0))
        spec = HomogeneousSpec(ubar, ubar * ratio, n)
        alphas = 10 ** rng.uniform(-300.0, 0.0, n)
        if kind == "ends":
            u = rng.random(n)
            alphas[u < 1 / 3] = 0.0
            alphas[u > 2 / 3] = 1.0
        elif kind == "padded":
            alphas[1:-1] = 1.0
            alphas[[0, -1]] = rng.choice([0.5, float(rng.random()), float(alphas[0])], 2)
        elif kind != "log":
            if rng.random() < 0.5:
                alphas[:] = 1.0
            alphas[-1] = 10 ** (rng.uniform(-300.0, -8.0) if kind == "rare-first" else rng.uniform(-19.0, -13.0))
        policy = StationaryPolicy(alphas)
        p_star, worst = nature_best_response_indep(policy, spec)
        assert 0.0 <= p_star <= 1.0
        dense = regret_indep(policy, np.linspace(0.0, 1.0, 20_001), spec).max()
        assert worst >= dense - 4 * n * EPS * ubar

    @given(
        st.integers(1, 5000),
        st.floats(0.5, 2.0),
        st.floats(1e-6, 0.99),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(4101, 1.0, 2.256988330900035e-4, True, 0)
    @example(1, 1.0, 0.3, True, 0)
    @example(5000, 1.0, 0.3, False, 0)
    @settings(max_examples=60, deadline=None)
    def test_matches_grid_search_oracle(self, n, ubar, ratio, solver, seed):
        # the search from the threshold belief against the grid-started
        # search it replaced, for solver and uniform random policies: within
        # 16 eps |R| (over 3 000 seeded specs, -7.7..+3.0 eps); at the
        # ubar 1, n = 4101 spec the peak is sharp and inside the grid's
        # first cell
        spec = HomogeneousSpec(ubar, ubar * ratio, n)
        policy = solve_indep(spec).policy if solver else StationaryPolicy(np.random.default_rng(seed).random(n))
        got, want = nature_best_response_indep(policy, spec)[1], indep_grid_search(policy, spec)[1]
        assert abs(got - want) <= 16 * EPS * abs(want), (spec, got, want)

    @given(
        st.integers(1, 3000),
        st.floats(1e-6, 0.99),
        st.sampled_from(["random", "point", "subnormal"]),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 0.3, "point", 0)
    @example(3, 0.5, "subnormal", 0)
    @settings(max_examples=100, deadline=None)
    def test_coefficients_change_sign_at_most_once(self, n, ratio, kind, seed):
        # the premise of the unimodal search: below the top every coefficient
        # of the regret polynomial is a sum of products of non-negative floats,
        # so none is negative and the sequence changes sign at most once
        rng = np.random.default_rng(seed)
        if kind == "random":
            alphas = rng.random(n)
        elif kind == "point":
            alphas = (rng.random(n) < 0.7).astype(float)
        else:
            alphas = np.where(rng.random(n) < 0.5, 1.0, rng.random(n) * np.finfo(float).tiny)
        coef = _regret_indep_poly(StationaryPolicy(alphas), HomogeneousSpec(1.0, ratio, n))
        assert np.all(coef[1:] >= 0.0)
        signs = np.sign(coef[coef != 0.0])
        assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1


class TestSaddleCheckIndep:
    def test_reference_spec_passes(self):
        report = saddle_check_indep(SPEC, tol=1e-6)
        assert report.passed
        assert abs(report.nature_gap) <= 1e-6
        assert abs(report.dm_gap) <= 1e-6
        assert isinstance(report.worst_belief, IidBinary)

    def test_passes_across_menu_sizes(self):
        for n in range(1, 9):
            report = saddle_check_indep(HomogeneousSpec(1.0, 0.3, n), tol=1e-6)
            assert report.passed, f"saddle check failed at n={n}: {report}"

    def test_perturbed_policy_detected(self):
        sol = solve_indep(SPEC)
        alphas = sol.policy.alphas.copy()
        alphas[-1] = min(1.0, alphas[-1] + 0.05)
        policy = StationaryPolicy(alphas)
        _, worst = nature_best_response_indep(policy, SPEC)
        assert worst - sol.regret > 1e-6

    def test_single_box_envelope(self):
        # with one box the solved mix makes the regret flat in p (the upper
        # envelope's kink value), so only the worst value is pinned down
        spec = HomogeneousSpec(1.0, 0.3, 1)
        report = saddle_check_indep(spec, tol=1e-6)
        assert report.passed
        sol = solve_indep(spec)
        _, worst = nature_best_response_indep(sol.policy, spec)
        assert worst == pytest.approx(0.21, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -1}, {"seed": None}, {"seed": 2.0}, {"seed": True}, {"seed": "3"}, {"seed": np.float64(1.0)}],
    )
    def test_rejects_bad_sampling_arguments(self, kwargs):
        # nothing is sampled, but the ignored seed is still validated
        with pytest.raises(DomainError):
            saddle_check_indep(SPEC, **kwargs)

    def test_exact_dm_side_matches_descent_loop(self):
        # the sampled probes plus descent found the same best response up to
        # rounding, n = 1..60
        rng = np.random.default_rng(2026)
        for n in range(1, 61):
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(rng.uniform(0.01, 0.9)), n)
            got, want = saddle_check_indep(spec), indep_descent_loop(spec, dm_probes=(1, 7, 300, 2000)[n % 4])
            assert abs(got.dm_gap - want.dm_gap) <= 2e-15, spec
            assert (got.nature_gap, got.worst_belief, got.passed) == (want.nature_gap, want.worst_belief, want.passed)

    @pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.05, 0.3, 0.7, 0.99])
    def test_dm_side_is_the_pure_plan_minimum(self, ratio):
        # the backward induction against the enumeration of all 2^n plans
        # walked through all 2^n reward states
        for n in range(1, 9):
            spec = HomogeneousSpec(1.5, 1.5 * ratio, n)
            best = solve_indep(spec).regret - saddle_check_indep(spec).dm_gap
            assert abs(best - indep_pure_plan_min(spec)) <= 1e-12, n

    @pytest.mark.parametrize("ratio", [1e-6, 0.01, 0.3, 0.99])
    def test_dm_side_equals_plan_matrix_minimum(self, ratio):
        # bit for bit the least of the 2^n pure plans through the library's
        # recursion, so the check's dm_gap is the exact one
        for n in range(1, 13):
            spec = HomogeneousSpec(1.0, ratio, n)
            plans = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
            least = float(indep_recursion(plans, spec.c / spec.ubar, spec).min())
            assert saddle_check_indep(spec).dm_gap == solve_indep(spec).regret - least, n


class TestSaddleCheckCorr:
    def test_commitment_reference_passes(self):
        report = saddle_check_corr(HomogeneousSpec(1.0, 0.25, 3), tol=1e-9, mode="commitment")
        assert report.passed
        assert isinstance(report.worst_belief, NeedleP)

    def test_optout_boundary(self):
        # at the refusal menu size an exhaustive search against a certain
        # treasure wastes exactly the claimed value
        spec = HomogeneousSpec(1.0, 0.25, 7)
        report = saddle_check_corr(spec, tol=1e-9, mode="commitment")
        assert report.passed
        n, c = 7, 0.25
        assert (n - 1) / 2 * c == pytest.approx(0.75, abs=1e-12)

    def test_intrapersonal_passes(self):
        for n in (2, 4, 6, 8):
            report = saddle_check_corr(HomogeneousSpec(1.0, 0.25, n), tol=1e-9, mode="intrapersonal")
            assert report.passed, f"n={n}: {report}"

    def test_flattening_brute_force(self):
        # 1000 seeded Dirichlet profiles, one at a time: none beats its
        # flattening or the vertices' worst case that the check reports
        spec = HomogeneousSpec(1.0, 0.25, 6)
        report = saddle_check_corr(spec, tol=1e-9)
        assert report.passed
        assert not report.notes
        sol = solve_corr_commitment(spec)
        w = StoppingMixture.from_policy(sol.policy)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            Q = CountProfile(rng.dirichlet(np.ones(7)))
            value = regret_count_profile(w, Q, spec)
            assert value <= regret_count_profile(w, single_treasure_equivalent(Q), spec) + 1e-12
            assert value - sol.regret <= report.nature_gap + 1e-15

    @pytest.mark.parametrize("mode", ["commitment", "intrapersonal"])
    def test_sixteen_boxes_pass(self, mode):
        report = saddle_check_corr(HomogeneousSpec(1.0, 0.05, 16), tol=1e-9, mode=mode)
        assert report.passed, str(report)
        assert not report.notes

    def test_size_cap(self):
        # no cap of its own: past the count-profile cap of 5 000 boxes and at
        # 100 000 the check passes in both modes, as a 33-box menu does
        for n in (33, _MAX_COUNT_BOXES + 1, 100_000):
            for mode in ("commitment", "intrapersonal"):
                report = saddle_check_corr(HomogeneousSpec(1.0, 0.01, n), tol=1e-9, mode=mode)
                assert report.passed and not report.notes, (n, mode, str(report))

    @pytest.mark.parametrize("n", [1000, 1998, 5000])
    def test_passes_below_the_optout_size(self, n):
        # c/ubar = 0.001 opts out at 1 999 boxes, about 2 ubar/c, where the
        # overload shows: both modes pass, and the check holds O(n) floats,
        # a peak of 89-101 n bytes; one (n + 1, n + 1) table would break the bound
        spec = HomogeneousSpec(1.0, 0.001, n)
        for mode in ("commitment", "intrapersonal"):
            tracemalloc.start()
            try:
                report = saddle_check_corr(spec, mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.passed and not report.notes, (mode, str(report))
            assert peak <= 200 * n, (mode, peak)

    def test_needle_two_endpoints(self):
        # the regret is affine in P, so P = 0 or P = 1 is a worst case; the
        # saddle line is flat and reports P = 0
        sol = solve_corr_commitment(SPEC)
        assert nature_best_response_needle(sol.policy, SPEC) == (0.0, pytest.approx(sol.regret, abs=1e-12))
        never = StationaryPolicy(np.zeros(3))
        assert nature_best_response_needle(never, SPEC) == (1.0, pytest.approx(0.7, abs=1e-15))
        always = StationaryPolicy(np.ones(3))
        assert nature_best_response_needle(always, SPEC) == (0.0, pytest.approx(0.9, abs=1e-15))

    @pytest.mark.parametrize("n", [1, 2, 8, 1000])
    @pytest.mark.parametrize("mode", ["commitment", "intrapersonal"])
    def test_one_needle_pass_has_regret_needle_bits(self, n, mode):
        # the check reads the needle's ends and tail row from one pass; its
        # gaps, its worst belief and nature_best_response_needle equal, by
        # float.hex, what regret_needle at P = 0 and P = 1 and a freshly built
        # needle row give
        solver = solve_corr_commitment if mode == "commitment" else solve_corr_intrapersonal
        for ubar, ratio in ((1.0, 0.1), (1.0, 0.3), (2.5, 0.01), (0.75, 0.0005)):
            spec = HomogeneousSpec(ubar, ratio * ubar, n)
            sol = solver(spec)
            ends = regret_needle(sol.policy, np.array([0.0, 1.0]), spec)
            P = int(ends[1] > ends[0] + 1e-12 * ubar)
            got = nature_best_response_needle(sol.policy, spec)
            assert [x.hex() for x in got] == [float(P).hex(), ends[P].hex()], (spec, mode)
            report = saddle_check_corr(spec, mode=mode)
            assert report.nature_gap.hex() == (ends.max() - sol.regret).hex(), (spec, mode)
            assert report.worst_belief == NeedleP(P)
            if mode == "commitment":
                row = _tail_table(n, [1])[0]
                want = sol.regret - _plan_regrets(sol.worst_case_P[-1] * row, spec).min()
                assert report.dm_gap.hex() == want.hex(), (spec, mode)

    def test_rejects_unknown_mode(self):
        with pytest.raises(Exception):
            saddle_check_corr(SPEC, mode="bogus")

    def test_batched_scan_matches_profile_loop(self):
        # every field bit for bit against the loop that scores the n + 1
        # vertices one profile at a time, n = 1..32, both modes
        rng = np.random.default_rng(2024)
        for n in range(1, 33):
            for mode in ("commitment", "intrapersonal"):
                ubar = float(rng.uniform(0.5, 2.0))
                spec = HomogeneousSpec(ubar, ubar * float(rng.uniform(0.02, 0.6)), n)
                assert saddle_check_corr(spec, mode=mode) == corr_profile_loop(spec, q_draws=0, mode=mode), (spec, mode)

    @given(
        st.integers(1, 300),
        st.floats(1e-3, 0.9),
        st.sampled_from(["flat", "sparse", "point", "first", "last"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["commitment", "intrapersonal"]),
    )
    @example(1, 0.3, "first", 0, "commitment")
    @example(7, 0.05, "last", 0, "intrapersonal")
    @example(300, 1e-3, "first", 0, "commitment")
    @example(300, 1e-3, "last", 0, "commitment")
    @settings(max_examples=60, deadline=None)
    def test_two_vertices_are_the_whole_scan(self, n, ratio, kind, seed, mode):
        # the lemma bit for bit: for any stopping weights no vertex j >= 2
        # beats vertex 1, so the needle's two ends, vertices 0 and 1 scored
        # alone, give the maximum of all n + 1; and the check equals the
        # one-profile loop
        spec = HomogeneousSpec(1.0, ratio, n)
        rng = np.random.default_rng(seed)
        if kind == "flat":
            w = rng.dirichlet(np.ones(n + 1))
        elif kind == "sparse":
            w = rng.dirichlet(np.full(n + 1, 0.05))
        else:
            w = np.zeros(n + 1)
            w[{"first": 0, "last": n, "point": int(rng.integers(n + 1))}[kind]] = 1.0
        values, two = corr_vertex_scan(w, spec), _needle_ends(w, spec)[:2]
        assert max(two).hex() == values.max().hex()
        assert [float(v).hex() for v in two] == [v.hex() for v in values[:2].tolist()]
        assert np.all(values[2:] <= values[1])
        got, want = saddle_check_corr(spec, mode=mode), corr_profile_loop(spec, q_draws=0, mode=mode)
        assert (got.nature_gap.hex(), got.dm_gap.hex()) == (want.nature_gap.hex(), want.dm_gap.hex())
        assert got == want

    @pytest.mark.parametrize("mode", ["commitment", "intrapersonal"])
    def test_vertices_dominate_dirichlet_draws(self, mode):
        # the regret is linear in the profile, so 1000 Dirichlet draws on top
        # of the vertices find nothing worse (up to the rounding of the sums)
        rng = np.random.default_rng(7)
        for n in (1, 3, 8, 32):
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(rng.uniform(0.02, 0.6)), n)
            got, want = saddle_check_corr(spec, mode=mode), corr_profile_loop(spec, q_draws=1000, mode=mode, seed=n)
            assert (got.passed, got.notes) == (want.passed, want.notes), spec
            assert got.nature_gap >= want.nature_gap - 4.5e-16, spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 2.5},
            {"seed": -3},
            {"seed": True},
            {"seed": "10"},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": False},
        ],
    )
    def test_rejects_bad_sampling_arguments(self, kwargs):
        # nothing is sampled, but the ignored seed is still validated
        with pytest.raises(DomainError):
            saddle_check_corr(SPEC, **kwargs)

    def test_accepts_numpy_integers(self):
        assert saddle_check_corr(SPEC, seed=np.uint32(4)) == saddle_check_corr(SPEC, seed=4)
        assert saddle_check_indep(SPEC, seed=np.int64(4)) == saddle_check_indep(SPEC, seed=4)


class TestInterimGridOracle:
    def test_matches_solver_two_boxes(self):
        spec = HomogeneousSpec(1.0, 0.3, 2)
        rep = solve_interim(spec)
        m, alpha, worst = interim_grid_oracle(spec)
        assert m == rep.policy.m
        assert abs(alpha - rep.policy.alpha) <= 1e-3
        assert worst == pytest.approx(rep.regret, abs=1e-3)

    def test_table_is_built_in_row_blocks(self):
        # no alpha x p table at all: each bisection step prices one alpha on
        # the p grid (the whole 1001 x 2001 table took 16 MB per array)
        tracemalloc.start()
        try:
            interim_grid_oracle(HomogeneousSpec(1.0, 0.3, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_single_box(self):
        spec = HomogeneousSpec(1.0, 0.3, 1)
        m, alpha, _ = interim_grid_oracle(spec)
        assert m == 0
        assert alpha == pytest.approx(0.7, abs=1e-3)

    def test_matches_solver_across_sizes(self):
        for n in range(2, 7):
            spec = HomogeneousSpec(1.0, 0.25, n)
            rep = solve_interim(spec)
            m, alpha, _ = interim_grid_oracle(spec)
            assert m == rep.policy.m, f"n={n}"
            assert abs(alpha - rep.policy.alpha) <= 1e-3, f"n={n}"

    def test_matches_alpha_grid_scan(self):
        # the bisected envelope against the scan of the 1001-point alpha grid
        rng = np.random.default_rng(11)
        for n in (1, 1, 2, 2, 3, 3, 4, 4, 5, 6):
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(rng.uniform(0.05, 0.6)), n)
            m, alpha, _ = interim_grid_oracle(spec)
            grid_m, grid_alpha, _ = interim_alpha_grid_oracle(spec)
            assert m == grid_m, spec
            assert abs(alpha - grid_alpha) <= 1e-3, spec

    def test_alpha_close_to_solver(self):
        # exact in alpha, the oracle differs from the solver only through its
        # p grid
        rng = np.random.default_rng(12)
        for n in (1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 10, 20, 50, 100, 200, 200):
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar * float(rng.uniform(0.05, 0.6)), n)
            rep = solve_interim(spec)
            m, alpha, worst = interim_grid_oracle(spec)
            assert m == rep.policy.m, spec
            assert abs(alpha - rep.policy.alpha) <= 1e-5, spec
            assert worst == pytest.approx(rep.regret, abs=1e-5), spec

    def test_widest_alpha_gap_measured(self):
        # the widest gap over 11 200 specs (ubar 1, c/ubar 0.05..0.6, n 1..200):
        # 1.61e-5, more than the 1e-5 that holds for the specs above
        spec = HomogeneousSpec(1.0, 0.05, 47)
        rep = solve_interim(spec)
        m, alpha, _ = interim_grid_oracle(spec)
        assert m == rep.policy.m
        assert abs(alpha - rep.policy.alpha) <= 2e-5


@given(st.integers(1, 6), st.floats(0.01, 0.3), st.data())
@settings(max_examples=100, deadline=None)
def test_needle_endpoints_dominate_grid(n, c, data):
    # every regret here stays below 2, so 1e-15 allows a few ulp of rounding
    # in (1 - P) R(0) + P R(1) at the interior grid points
    alphas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    spec = HomogeneousSpec(1.0, c, n)
    policy = StationaryPolicy(np.array(alphas))
    _, worst = nature_best_response_needle(policy, spec)
    assert worst >= regret_needle(policy, np.linspace(0.0, 1.0, 1001), spec).max() - 1e-15


@given(st.integers(1, 12), st.floats(1e-6, 0.99), st.data())
@settings(max_examples=100, deadline=None)
def test_dm_side_unbeaten_by_stage_vectors(n, ratio, data):
    # the least regret stays below ubar - c < 1, so 1e-15 allows a few ulp of
    # rounding near it
    spec = HomogeneousSpec(1.0, ratio, n)
    report = saddle_check_indep(spec)
    assert report.passed
    # the gap is a few ulp, so this subtraction recovers the DP's value exactly
    best = solve_indep(spec).regret - report.dm_gap
    alphas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    value = float(indep_recursion(np.array(alphas), spec.c / spec.ubar, spec))
    assert value >= best - 1e-15


def _verdicts_and_regrets(spec):
    """The saddle checks' verdicts, whether ``solve_interim`` succeeds, and each solver's regret at ``spec``."""
    two = HomogeneousSpec(spec.ubar, spec.c, 2)
    policy, nature, two_box_regret = solve_two_box(two)
    verdicts = [
        saddle_check_indep(spec).passed,
        saddle_check_corr(spec).passed,
        saddle_check_corr(spec, mode="intrapersonal").passed,
        verify_two_box(policy, nature, two).passed,
    ]
    regrets = [solve_indep(spec).regret, solve_corr_commitment(spec).regret, solve_corr_intrapersonal(spec).regret]
    try:
        regrets.append(solve_interim(spec).regret)
    except ConvergenceError:
        regrets.append(None)
    return verdicts, regrets + [two_box_regret]


@given(st.integers(1, 12), st.floats(1e-3, 0.9), st.floats(math.log(1e-6), math.log(1e12)))
@example(8, 0.05, math.log(1e8))  # interim's residual rule was absolute
@example(8, 0.2, math.log(1e8))  # and so were the two-box and corr-intra gaps
@example(8, 0.05, math.log(1e10))
@example(8, 0.2, math.log(1e12))
@settings(max_examples=60, deadline=None)
def test_rescaled_spec_gets_the_same_verdicts(n, ratio, log_scale):
    # the regret is homogeneous of degree 1 in (ubar, c) and every rule is
    # held in units of ubar: (lam, lam c) gets the verdicts and the
    # solve_interim outcome of (1, c), and regrets lam times as large within
    # a few ulps; indep's 1 - (1 - c/ubar)^n loses about ubar/c ulps to
    # cancellation
    lam = math.exp(log_scale)
    base, base_regrets = _verdicts_and_regrets(HomogeneousSpec(1.0, ratio, n))
    scaled, scaled_regrets = _verdicts_and_regrets(HomogeneousSpec(lam, lam * ratio, n))
    assert scaled == base
    assert [r is None for r in scaled_regrets] == [r is None for r in base_regrets]
    for i, (got, want) in enumerate(zip(scaled_regrets, base_regrets)):
        if want is not None:
            slack = (4.0 / ratio if i == 0 else 8.0) * EPS * lam * want
            assert abs(got - lam * want) <= slack, (i, got, lam * want)
