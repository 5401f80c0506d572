import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from oracles import het_episode_loop, homog_episode_loop, sparse_het_policy


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


# exact 0 and 1 stop every row at stage 0, or never (alphas), and make every
# box empty or full (p, P); a point mass puts the count at 0 or at n
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _homogeneous_blocks(draw):
    n = draw(st.one_of(st.integers(1, 12), st.just(300)))
    alphas = draw(st.lists(_UNIT, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["iid", "needle", "count"]))
    if kind == "iid":
        truth = IidBinary(draw(_UNIT))
    elif kind == "needle":
        truth = NeedleP(draw(_UNIT))
    elif draw(st.booleans()):
        truth = CountProfile(np.eye(n + 1)[draw(st.sampled_from([0, n]))])
    else:
        truth = CountProfile(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(n + 1)))
    return n, alphas, truth, draw(st.integers(1, 40)), draw(st.integers(0, 2**64 - 1))


def _bits(arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


@settings(max_examples=100, deadline=None)
@given(_homogeneous_blocks())
@example((1, [1.0], IidBinary(1.0), 1, 0))
@example((300, [1.0] * 300, IidBinary(0.0), 1, 3))
@example((300, [1.0] * 300, NeedleP(1.0), 7, 5))
@example((5, [0.0] * 5, NeedleP(0.0), 1, 9))
@example((6, [1.0, 0.0] * 3, CountProfile(np.eye(7)[0]), 16, 11))
@example((300, [1.0] * 300, CountProfile(np.eye(301)[300]), 2, 13))
def test_homogeneous_play_matches_episode_loop(case):
    # one whole block of the stream: the play and the per-episode loop agree
    # on every bit
    n, alphas, truth, rows, seed = case
    spec = HomogeneousSpec(1.0, 0.01, n)
    policy = StationaryPolicy(np.array(alphas))
    U = np.random.Generator(np.random.Philox(key=seed)).random((rows, -(-2 * (n + 1) // 4) * 4))
    got = _bits(_homogeneous_play(policy, truth, spec)(U))
    assert got == _bits(homog_episode_loop(policy, truth, spec, U))


@st.composite
def _heterogeneous_blocks(draw):
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ubars = rng.uniform(0.5, 2.0, n)
    spec = HeterogeneousSpec(tuple(zip(ubars.tolist(), (ubars * rng.uniform(0.1, 0.9, n)).tolist())))
    policy = solve_het(spec).policy if draw(st.booleans()) else sparse_het_policy(rng, n)
    probs = draw(st.lists(_UNIT, min_size=n, max_size=n))
    rows = draw(st.integers(1, 40))
    stream = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**64 - 1))))
    U = stream.random((rows, -(-2 * (n + 1) // 4) * 4))
    if draw(st.booleans()):
        # put stage draws exactly on cumulative weights: at stage 0 those of
        # the full menu, later those of any menu with a rule
        cum = np.cumsum(policy.weights, axis=1)
        menus = np.flatnonzero(~np.isnan(policy.optout))
        at = rng.random((rows, n)) < 0.5
        picks = cum[rng.choice(menus, (rows, n)), rng.integers(0, n, (rows, n))]
        picks[:, 0] = cum[-1, rng.integers(0, n, rows)]
        U[:, n + 1 : 2 * n + 1] = np.where(at, picks, U[:, n + 1 : 2 * n + 1])
    return spec, policy, probs, U


@settings(max_examples=100, deadline=None)
@given(_heterogeneous_blocks())
def test_heterogeneous_play_matches_episode_loop(case):
    # one whole block: the play and the per-episode loop agree on every bit
    spec, policy, probs, U = case
    got = _bits(_heterogeneous_play(policy, HeteroPVector(probs), spec)(U))
    assert got == _bits(het_episode_loop(policy.rule_for, np.asarray(probs), spec, U))


def test_rule_first_missing_after_stage_0_raises():
    # the full menu always opens box 0, which is always empty, and the menu
    # left after it has no rule: stage 0 runs, stage 1 must refuse
    spec = HeterogeneousSpec(((1.0, 0.2), (1.5, 0.3), (2.0, 1.0)))
    policy = SelectionPolicy(3, {frozenset({0, 1, 2}): SubsetRule({0: 1.0, 1: 0.0, 2: 0.0}, 0.0)})
    with pytest.raises(DomainError, match="no rule for a menu it can reach"):
        simulate(policy, HeteroPVector((0.0, 0.5, 0.5)), spec, 10, 0)


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


def test_needle_play_builds_no_box_table():
    # the needle's first full box comes from its two state columns, so the
    # play's one (rows, n) bool table is the stage table; a table of box hits
    # beside it would double the peak
    spec = HomogeneousSpec(1.0, 0.0001, 10_000)
    policy = StationaryPolicy(np.full(spec.n, 0.5))
    play = _homogeneous_play(policy, NeedleP(0.5), spec)
    U = np.random.Generator(np.random.Philox(key=3)).random((16, 2 * spec.n + 4))
    assert _peak_bytes(map(play, [U])) < 1.5 * 16 * spec.n


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
