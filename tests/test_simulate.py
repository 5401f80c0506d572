import tracemalloc

import numpy as np
import pytest

from robust_pandora.core import (
    CountProfile,
    DomainError,
    HeteroPVector,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    SeedError,
    StationaryPolicy,
    StoppingMixture,
    regret_count_profile,
    regret_indep,
    regret_needle,
)
from robust_pandora.corr import solve_corr_commitment, solve_corr_intrapersonal
from robust_pandora.het import HeterogeneousSpec, SelectionPolicy, SubsetRule, regret_het, solve_het
from robust_pandora.indep import expected_search_count, solve_indep
from robust_pandora.simulate import _CHUNK, _heterogeneous_chunks, _homogeneous_chunks, simulate

from oracles import het_episode_loop


def philox_draws(seed, episodes, n):
    """The documented stream in one draw: d float64 per episode, d the multiple of 4 at or above 2 (n + 1)."""
    return np.random.Generator(np.random.Philox(key=seed)).random((episodes, -(-2 * (n + 1) // 4) * 4))


class TestTwoOutcomeProcess:
    def test_certain_treasure_single_box(self):
        spec = HomogeneousSpec(1.0, 0.3, 1)
        policy = StationaryPolicy(np.array([0.7]))
        res = simulate(policy, IidBinary(1.0), spec, 200_000, 7)
        assert abs(res.mean_opened - 0.7) <= 4 * res.se_opened
        assert abs(res.mean_regret - 0.21) <= 4 * res.se_regret


class TestAgainstClosedForms:
    def test_regret_at_worst_case_belief(self):
        spec = HomogeneousSpec(1.0, 0.3, 5)
        sol = solve_indep(spec)
        res = simulate(sol.policy, IidBinary(0.3), spec, 400_000, 42)
        assert abs(res.mean_regret - sol.regret) <= 4 * res.se_regret

    def test_opened_count_matches_recursion(self):
        spec = HomogeneousSpec(1.0, 0.3, 5)
        sol = solve_indep(spec)
        for q in (0.05, 0.3, 0.8):
            res = simulate(sol.policy, IidBinary(q), spec, 200_000, 11)
            assert abs(res.mean_opened - expected_search_count(q, spec)) <= 4 * res.se_opened

    def test_iid_regret_any_policy(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        rng = np.random.default_rng(5)
        policy = StationaryPolicy(rng.random(4))
        res = simulate(policy, IidBinary(0.45), spec, 200_000, 19)
        want = regret_indep(policy, 0.45, spec)
        assert abs(res.mean_regret - want) <= 4 * res.se_regret

    def test_needle_truth_matches_evaluator(self):
        spec = HomogeneousSpec(1.0, 0.25, 4)
        sol = solve_corr_commitment(spec)
        res = simulate(sol.policy, NeedleP(0.6), spec, 200_000, 23)
        want = regret_needle(sol.policy, 0.6, spec)
        assert abs(res.mean_regret - want) <= 4 * res.se_regret

    def test_needle_truth_intrapersonal_policy(self):
        spec = HomogeneousSpec(1.0, 0.25, 5)
        sol = solve_corr_intrapersonal(spec)
        res = simulate(sol.policy, NeedleP(0.5), spec, 200_000, 51)
        want = regret_needle(sol.policy, 0.5, spec)
        assert abs(res.mean_regret - want) <= 4 * res.se_regret

    def test_count_profile_truth_matches_evaluator(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        rng = np.random.default_rng(29)
        policy = StationaryPolicy(rng.random(4))
        Q = CountProfile(rng.dirichlet(np.ones(5)))
        res = simulate(policy, Q, spec, 200_000, 31)
        want = regret_count_profile(StoppingMixture.from_policy(policy), Q, spec)
        assert abs(res.mean_regret - want) <= 4 * res.se_regret

    def test_heterogeneous_matches_evaluator(self):
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.6), (0.9, 0.3)))
        sol = solve_het(spec)
        truth = HeteroPVector((0.3, 0.5, 0.2))
        res = simulate(sol.policy, truth, spec, 40_000, 37)
        want = regret_het(sol.policy, truth, spec)
        assert abs(res.mean_regret - want) <= 4 * res.se_regret
        assert 0.0 <= res.mean_opened <= 3.0


    def test_heterogeneous_chunks_match_episode_loop(self):
        # 70 000 episodes cross the 65 536-row chunk boundary
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.6), (0.9, 0.3), (1.2, 0.3)))
        sol = solve_het(spec)
        truth = HeteroPVector((0.3, 0.5, 0.2, 0.4))
        chunks = list(_heterogeneous_chunks(sol.policy, truth, spec, 70_000, 41))
        assert len(chunks) == 2
        opened, regret = (np.concatenate(parts) for parts in zip(*chunks))
        rules = {menu: sol.policy.rule_for(menu) for menu in sol.policy.subsets()}
        U = philox_draws(41, 70_000, spec.n)
        want_opened, want_regret = het_episode_loop(rules.__getitem__, np.asarray(truth.p), spec, U)
        assert np.array_equal(opened, want_opened)
        assert np.array_equal(regret, want_regret)

    def test_hand_built_policy_chunks_match_episode_loop(self):
        # the full menu gives box 2 no weight and never opts out; every other
        # menu weighs member i by 1 + i, or 0 where (i + size) % 3 == 0, and
        # opts out with weight 0.2 at odd sizes (1 where no member weighs)
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.6), (0.9, 0.3), (1.2, 0.3)))
        rules = {}
        for mask in range(1, 16):
            menu = frozenset(i for i in range(4) if mask >> i & 1)
            raw = {i: 0.0 if (i + len(menu)) % 3 == 0 else 1.0 + i for i in menu}
            total = sum(raw.values())
            optout = 1.0 if total == 0.0 else 0.2 * (len(menu) % 2)
            rules[menu] = SubsetRule({i: w * (1.0 - optout) / (total or 1.0) for i, w in raw.items()}, optout)
        assert rules[frozenset(range(4))].optout == 0.0 and rules[frozenset(range(4))].open_probs[2] == 0.0
        policy = SelectionPolicy(4, rules)
        truth = HeteroPVector((0.3, 0.5, 0.2, 0.4))
        chunks = list(_heterogeneous_chunks(policy, truth, spec, 70_000, 43))
        assert len(chunks) == 2
        opened, regret = (np.concatenate(parts) for parts in zip(*chunks))
        U = philox_draws(43, 70_000, spec.n)
        want_opened, want_regret = het_episode_loop(rules.__getitem__, np.asarray(truth.p), spec, U)
        assert np.array_equal(opened, want_opened)
        assert np.array_equal(regret, want_regret)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        a = simulate(sol.policy, IidBinary(0.3), spec, 150_000, 99)
        b = simulate(sol.policy, IidBinary(0.3), spec, 150_000, 99)
        assert a == b

    def test_seed_changes_stream(self):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        a = simulate(sol.policy, IidBinary(0.3), spec, 50_000, 1)
        b = simulate(sol.policy, IidBinary(0.3), spec, 50_000, 2)
        assert a.mean_regret != b.mean_regret

    def test_episode_prefix_stable(self):
        # shared prefix of the episode space gives identical draws, so the
        # short run's totals can be recovered from the long run's chunks
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        short = simulate(sol.policy, IidBinary(0.4), spec, 70_000, 5)
        opened, regret = [], []
        for o, r in _homogeneous_chunks(sol.policy, IidBinary(0.4), spec, 140_000, 5):
            opened.append(o)
            regret.append(r)
        opened = np.concatenate(opened)[:70_000]
        assert np.mean(opened) == pytest.approx(short.mean_opened, abs=1e-12)


class TestEstimatorQuality:
    def test_se_scaling(self):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        small = simulate(sol.policy, IidBinary(0.3), spec, 50_000, 3)
        big = simulate(sol.policy, IidBinary(0.3), spec, 200_000, 3)
        ratio = small.se_regret / big.se_regret
        assert 1.6 <= ratio <= 2.5

    def test_realized_regret_never_negative(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        rng = np.random.default_rng(43)
        policy = StationaryPolicy(rng.random(4))
        for truth in (IidBinary(0.4), NeedleP(0.7)):
            for _, regret in _homogeneous_chunks(policy, truth, spec, 80_000, 13):
                assert np.all(regret >= -1e-12)

    def test_bounds(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        sol = solve_indep(spec)
        res = simulate(sol.policy, IidBinary(0.5), spec, 50_000, 17)
        assert 0.0 <= res.mean_opened <= 4.0
        assert 0.0 <= res.mean_regret <= 1.0
        assert res.se_opened >= 0.0 and res.se_regret >= 0.0


@pytest.mark.parametrize("heterogeneous", [False, True])
def test_each_chunk_releases_its_draws(heterogeneous):
    # three chunks of (_CHUNK, 12) draws (n = 5, or 4 heterogeneous boxes), 6.3 MB
    # each: the peak is about 2.0 (homogeneous) and 2.2 (heterogeneous) times one
    # chunk's draws, and 2.7 times when the previous chunk's draws live on while
    # the next is drawn
    if heterogeneous:
        spec = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.4), (2.0, 0.5), (1.5, 0.9)))
        truth = HeteroPVector((0.1, 0.2, 0.3, 0.4))
        chunks = _heterogeneous_chunks(solve_het(spec).policy, truth, spec, 3 * _CHUNK, 0)
    else:
        spec = HomogeneousSpec(1.0, 0.3, 5)
        chunks = _homogeneous_chunks(solve_indep(spec).policy, IidBinary(0.3), spec, 3 * _CHUNK, 0)
    tracemalloc.start()
    try:
        for _ in chunks:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * _CHUNK * 12 * 8


class TestValidation:
    def test_episode_cap(self):
        spec = HomogeneousSpec(1.0, 0.3, 2)
        sol = solve_indep(spec)
        with pytest.raises(SeedError):
            simulate(sol.policy, IidBinary(0.3), spec, 2**40 + 1, 0)

    def test_policy_length_checked(self):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        with pytest.raises(DomainError):
            simulate(StationaryPolicy(np.array([0.5])), IidBinary(0.3), spec, 10, 0)

    def test_truth_type_checked(self):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        with pytest.raises(DomainError):
            simulate(sol.policy, HeteroPVector((0.1, 0.2, 0.3)), spec, 10, 0)
