import collections
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
from robust_pandora.simulate import _BLOCK_WORDS, _CHUNK, _chunks, _heterogeneous_play, _homogeneous_play, simulate

from oracles import het_episode_loop, homog_episode_loop


def philox_draws(seed, episodes, n):
    """The documented stream, one row of d float64 per episode (d the multiple of 4 at or above 2 (n + 1)).

    The rows come from one Philox stream read front to back, 1000 at a time.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, episodes, 1000):
        yield from rng.random((min(1000, episodes - start), -(-2 * (n + 1) // 4) * 4))


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

    @pytest.mark.parametrize("truth", ["iid", "needle", "count"])
    def test_homogeneous_chunks_match_episode_loop(self, truth):
        # n = 300 fills a block with 217 episodes, which divides neither chunk,
        # and 70 000 episodes cross the 65 536-row chunk boundary
        spec = HomogeneousSpec(1.0, 0.01, 300)
        rng = np.random.default_rng(47)
        policy = StationaryPolicy(rng.uniform(0.8, 1.0, 300))
        truth = {
            "iid": IidBinary(0.05),
            "needle": NeedleP(0.6),
            "count": CountProfile(rng.dirichlet(np.full(301, 0.05))),
        }[truth]
        chunks = list(_chunks(_homogeneous_play(policy, truth, spec), 53, 70_000, spec.n))
        assert len(chunks) == 2
        opened, regret = (np.concatenate(parts) for parts in zip(*chunks))
        want_opened, want_regret = homog_episode_loop(policy, truth, spec, philox_draws(53, 70_000, spec.n))
        assert np.array_equal(opened, want_opened)
        assert np.array_equal(regret, want_regret)

    def test_heterogeneous_chunks_match_episode_loop(self):
        # 70 000 episodes cross the 65 536-row chunk boundary
        spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.6), (0.9, 0.3), (1.2, 0.3)))
        sol = solve_het(spec)
        truth = HeteroPVector((0.3, 0.5, 0.2, 0.4))
        chunks = list(_chunks(_heterogeneous_play(sol.policy, truth, spec), 41, 70_000, spec.n))
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
        chunks = list(_chunks(_heterogeneous_play(policy, truth, spec), 43, 70_000, spec.n))
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
        for o, r in _chunks(_homogeneous_play(sol.policy, IidBinary(0.4), spec), 5, 140_000, spec.n):
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
            for _, regret in _chunks(_homogeneous_play(policy, truth, spec), 13, 80_000, spec.n):
                assert np.all(regret >= -1e-12)

    def test_bounds(self):
        spec = HomogeneousSpec(1.0, 0.3, 4)
        sol = solve_indep(spec)
        res = simulate(sol.policy, IidBinary(0.5), spec, 50_000, 17)
        assert 0.0 <= res.mean_opened <= 4.0
        assert 0.0 <= res.mean_regret <= 1.0
        assert res.se_opened >= 0.0 and res.se_regret >= 0.0


# what a chunk loop may hold at once: the chunk's two float arrays and a few
# blocks of draws, for the block in play and the per-episode work on it
_HELD_BYTES = 2 * _CHUNK * 8 + 3 * _BLOCK_WORDS * 8


def _peak_bytes(chunks):
    """tracemalloc peak of running ``chunks`` to the end, keeping no chunk."""
    tracemalloc.start()
    try:
        collections.deque(chunks, maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("heterogeneous", [False, True])
def test_each_chunk_releases_its_draws(heterogeneous):
    # three chunks of 12 draws per episode (n = 5, or 4 heterogeneous boxes),
    # 6.3 MB per chunk were they drawn at once; blocks of 10 922 episodes
    # keep the peak at 3.0 MB (3.4 MB heterogeneous): the chunk's two arrays,
    # one block of draws and the work on it
    if heterogeneous:
        spec = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.4), (2.0, 0.5), (1.5, 0.9)))
        truth = HeteroPVector((0.1, 0.2, 0.3, 0.4))
        chunks = _chunks(_heterogeneous_play(solve_het(spec).policy, truth, spec), 0, 3 * _CHUNK, spec.n)
    else:
        spec = HomogeneousSpec(1.0, 0.3, 5)
        chunks = _chunks(_homogeneous_play(solve_indep(spec).policy, IidBinary(0.3), spec), 0, 3 * _CHUNK, spec.n)
    assert _peak_bytes(chunks) < _HELD_BYTES


@pytest.mark.parametrize("truth", ["iid", "needle", "count", "het"])
def test_memory_does_not_grow_with_the_menu(truth):
    # one chunk of 604 draws per episode (n = 300) would be 317 MB, and one of
    # 28 (12 heterogeneous boxes) 14.7 MB; a block holds 217 or 4681 episodes
    if truth == "het":
        spec = HeterogeneousSpec(tuple((1.0 + 0.05 * i, 0.02 + 0.01 * i) for i in range(12)))
        probs = HeteroPVector(tuple(np.linspace(0.05, 0.3, 12)))
        chunks = _chunks(_heterogeneous_play(solve_het(spec).policy, probs, spec), 1, _CHUNK, spec.n)
    else:
        spec = HomogeneousSpec(1.0, 0.002, 300)
        rng = np.random.default_rng(59)
        truths = {"iid": IidBinary(0.01), "needle": NeedleP(0.5), "count": CountProfile(rng.dirichlet(np.ones(301)))}
        chunks = _chunks(_homogeneous_play(solve_indep(spec).policy, truths[truth], spec), 1, _CHUNK, spec.n)
    assert _peak_bytes(chunks) < _HELD_BYTES


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
