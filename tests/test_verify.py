import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_pandora.core import (
    _MAX_COUNT_BOXES,
    CountProfile,
    DomainError,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    StationaryPolicy,
    StoppingMixture,
    _needle_ends,
    regret_count_profile,
    regret_needle,
)
from robust_pandora.corr import single_treasure_equivalent, solve_corr_commitment
from robust_pandora.indep import solve_indep
from robust_pandora.interim import solve_interim
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
    indep_pure_plan_min,
    indep_recursion,
    interim_alpha_grid_oracle,
)

SPEC = HomogeneousSpec(1.0, 0.3, 3)


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
        values, two = corr_vertex_scan(w, spec), _needle_ends(w, spec)
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
