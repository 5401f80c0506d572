import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robust_pandora.core import DomainError, HomogeneousSpec, SizeError
from robust_pandora.corr import solve_corr_commitment
from robust_pandora.two_box import (
    MAX_PAIR_GRID,
    acceptance_probability,
    regret_against_pair,
    solve_two_box,
    verify_two_box,
)

from oracles import _two_box_pair_regret_scalar, two_box_grid_loop

LARGE = HomogeneousSpec(1.0, 0.2, 2)
SMALL = HomogeneousSpec(1.0, 0.3, 2)


class TestSolveTwoBox:
    def test_boundary_reward_range(self):
        # ubar = 4c sits in the narrow regime and the wide-regime formula
        # meets it: both give alpha = 2/3 and regret 4c/3
        pol, _, regret = solve_two_box(HomogeneousSpec(0.8, 0.2, 2))
        assert pol.regime == "small"
        assert pol.alpha2_0 == pytest.approx(2.0 / 3.0, abs=1e-12)
        root = np.sqrt((2 * 0.8 + 0.2) * 0.2)
        large_formula = 2 * 0.2 * 0.8**2 / (0.8**2 + 0.8 * 0.2 + 0.2**2 + 0.2 * root)
        assert large_formula == pytest.approx(4 * 0.2 / 3, abs=1e-12)
        assert regret == pytest.approx(4 * 0.2 / 3, abs=1e-12)

    def test_large_regime_closed_forms(self):
        pol, nat, regret = solve_two_box(LARGE)
        assert pol.regime == "large"
        root = np.sqrt(0.44)
        assert pol.alpha2_0 == pytest.approx(1.0 / (1.24 + 0.2 * root), abs=1e-12)
        assert pol.alpha2_0 == pytest.approx(0.7285098739380158, abs=1e-12)
        assert nat.v_hat == pytest.approx(1 - 0.2 / (0.2 + root), abs=1e-12)
        assert pol.v_low == pytest.approx(1 - 1 / (2 * (1.2 + root)), abs=1e-12)
        assert regret == pytest.approx(2 * 0.2 * pol.alpha2_0, abs=1e-15)
        assert pol.alpha2_0 > 2.0 / 3.0
        assert pol.v_low < nat.v_hat < pol.v_acc

    def test_small_regime_matches_binary_two_box(self):
        pol, _, regret = solve_two_box(SMALL)
        assert pol.regime == "small"
        binary = solve_corr_commitment(SMALL)
        assert pol.alpha2_0 == pytest.approx(binary.policy.alphas[-1], abs=1e-12)
        assert regret == pytest.approx(binary.regret, abs=1e-12)
        assert regret == pytest.approx(4 * 0.7 * 0.3 / 2.3, abs=1e-12)

    def test_wide_range_raises_regret_above_binary(self):
        for c in (0.2, 0.15, 0.12):
            spec = HomogeneousSpec(1.0, c, 2)
            _, _, regret = solve_two_box(spec)
            assert regret > solve_corr_commitment(spec).regret + 1e-6

    def test_nature_weights_identities(self):
        _, nat, _ = solve_two_box(LARGE)
        assert nat.q + nat.r + nat.s == pytest.approx(1.0, abs=1e-12)
        assert nat.r * 0.2 + nat.s * (0.2 - 1.0 + nat.v_hat) == pytest.approx(0.0, abs=1e-12)
        # quitting vs searching margin at the first decision
        lhs = nat.q * 0.4 + nat.r * (0.4 - nat.v_hat) + nat.s * (0.1 + 0.2 - 1.0)
        assert lhs == pytest.approx(0.0, abs=1e-9)

    def test_needs_exactly_two_boxes(self):
        with pytest.raises(DomainError):
            solve_two_box(HomogeneousSpec(1.0, 0.2, 3))


class TestAcceptanceProbability:
    def test_continue_for_sure_at_low_rewards(self):
        pol, _, _ = solve_two_box(LARGE)
        assert acceptance_probability(0.0, pol) == 1.0
        assert acceptance_probability(pol.v_low, pol) == pytest.approx(1.0, abs=1e-12)

    def test_stop_at_net_reward_cutoff(self):
        pol, _, _ = solve_two_box(LARGE)
        assert acceptance_probability(pol.v_acc, pol) == 0.0
        assert acceptance_probability(1.0, pol) == 0.0

    def test_small_regime_threshold_rule(self):
        pol, _, _ = solve_two_box(SMALL)
        assert acceptance_probability(0.0, pol) == 1.0
        assert acceptance_probability(0.69, pol) == 1.0
        assert acceptance_probability(0.7, pol) == 0.0

    def test_monotone_nonincreasing(self):
        pol, _, _ = solve_two_box(LARGE)
        grid = np.linspace(0.0, 1.0, 400)
        vals = [acceptance_probability(float(u), pol) for u in grid]
        assert np.all(np.diff(vals) <= 1e-12)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_rejects_out_of_range(self):
        pol, _, _ = solve_two_box(LARGE)
        with pytest.raises(DomainError):
            acceptance_probability(1.5, pol)


class TestVerifyTwoBox:
    def test_large_regime_passes(self):
        pol, nat, _ = solve_two_box(LARGE)
        report = verify_two_box(pol, nat, LARGE, grid_size=200)
        assert report.passed
        assert report.nature_gap <= 1e-9
        assert report.dm_gap <= 1e-9

    def test_small_regime_passes(self):
        pol, nat, _ = solve_two_box(SMALL)
        report = verify_two_box(pol, nat, SMALL, grid_size=150)
        assert report.passed

    def test_flags_q_formula_discrepancy(self):
        pol, nat, _ = solve_two_box(LARGE)
        report = verify_two_box(pol, nat, LARGE, grid_size=50)
        note = next(n for n in report.notes if "q = 1 - r - s" in n)
        drift = float(note.split("by ")[1].split(" here")[0])
        assert abs(drift) > 1e-3  # the standalone q expression really is off

    def test_q_note_only_in_large_regime(self):
        # the standalone q closed form is a large-regime formula; in the small
        # regime q = 1 - P of the binary worst case, and at ubar = 1, c = 0.3
        # the formula would report a drift of -P = -0.5217...
        for spec in (SMALL, HomogeneousSpec(1.0, 0.25, 2), HomogeneousSpec(1.0, 0.7, 2)):
            pol, nat, _ = solve_two_box(spec)
            report = verify_two_box(pol, nat, spec, grid_size=50)
            assert not any("q = 1 - r - s" in note for note in report.notes)
            assert len(report.notes) == 2 and report.notes[0].startswith("worst grid pair")
        pol, nat, _ = solve_two_box(LARGE)
        report = verify_two_box(pol, nat, LARGE, grid_size=50)
        assert "q = 1 - r - s" in report.notes[0] and len(report.notes) == 3

    def test_small_regime_boundary_pair_value(self):
        # the binding no-stop pair approaches (ubar - c, ubar - c); its regret
        # limit is (5 ubar - 8 c) c / (2 ubar + c), within the claimed value
        # exactly when the reward range is narrow
        pol, _, regret = solve_two_box(SMALL)
        bound = (5 * 1.0 - 8 * 0.3) * 0.3 / (2 * 1.0 + 0.3)
        assert bound <= regret + 1e-12
        just_below = regret_against_pair(pol, 0.7 - 1e-9, 0.7 - 1e-9)
        assert just_below == pytest.approx(bound, abs=1e-6)
        assert just_below <= regret + 1e-9

    def test_detects_tampered_policy(self):
        pol, nat, _ = solve_two_box(LARGE)
        bad = type(pol)(
            regime=pol.regime,
            ubar=pol.ubar,
            c=pol.c,
            alpha2_0=min(1.0, pol.alpha2_0 + 0.08),
            v_low=pol.v_low,
            v_acc=pol.v_acc,
        )
        report = verify_two_box(bad, nat, LARGE, grid_size=100)
        assert not report.passed
        assert report.nature_gap > 1e-6

    def test_far_wide_region_breakdown_is_reported(self):
        # beyond roughly ubar > 10 c a pair with both rewards inside the
        # randomization window beats the claimed value; the verifier must
        # report that honestly
        spec = HomogeneousSpec(1.0, 0.05, 2)
        pol, nat, _ = solve_two_box(spec)
        report = verify_two_box(pol, nat, spec, grid_size=200)
        assert report.nature_gap > 1e-4
        assert not report.passed


def test_nature_support_atoms_all_attain_the_value():
    # each pair in the adversary's mixture is a best response: it earns
    # exactly the saddle value against the DM's full mixed strategy
    for ubar, c in ((1.0, 0.2), (1.5, 0.3), (2.0, 0.45)):
        spec = HomogeneousSpec(ubar, c, 2)
        pol, nat, regret = solve_two_box(spec)
        assert pol.regime == "large"
        for u, v in ((0.0, 0.0), (nat.v_hat, 0.0), (ubar, nat.v_hat)):
            assert regret_against_pair(pol, u, v) == pytest.approx(regret, abs=1e-12)


def test_regret_pair_handles_low_rewards():
    pol, _, regret = solve_two_box(LARGE)
    # both rewards below the cost: searching is pure waste, bounded by 2c
    assert regret_against_pair(pol, 0.1, 0.0) == pytest.approx(
        pol.alpha2_0 * (2 * 0.2 - 0.1), abs=1e-12
    )
    # swapped arguments are reordered
    assert regret_against_pair(pol, 0.0, 0.1) == regret_against_pair(pol, 0.1, 0.0)


def test_below_optout_boundary_quits():
    # at ubar <= 1.5c two boxes reach the binary opt-out size: quitting is
    # the saddle, against the certain pair {ubar, 0}
    spec = HomogeneousSpec(1.0, 0.7, 2)
    pol, nat, regret = solve_two_box(spec)
    assert pol.alpha2_0 == 0.0
    assert regret == 1.0 - 0.7 == solve_corr_commitment(spec).regret
    assert (nat.q, nat.r, nat.s) == (0.0, 1.0, 0.0)
    assert verify_two_box(pol, nat, spec, grid_size=50).passed
    # the boundary ubar = 1.5c opts out too, as in the binary problem; both
    # plans have the value ubar - c there
    boundary = HomogeneousSpec(1.5, 1.0, 2)
    pol, _, regret = solve_two_box(boundary)
    assert pol.alpha2_0 == solve_corr_commitment(boundary).policy.alphas[-1] == 0.0
    assert regret == 0.5


@given(st.floats(1.0, 4.0, exclude_min=True), st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_narrow_range_saddle(ratio, ubar):
    # ubar/c in (1, 4]: from the c -> ubar end to the ubar = 4c regime boundary
    c = ubar / ratio
    assume(c < ubar)
    spec = HomogeneousSpec(ubar, c, 2)
    pol, nat, regret = solve_two_box(spec)
    assert regret <= ubar - c
    assert min(nat.q, nat.r, nat.s) >= 0.0
    assert nat.q + nat.r + nat.s == pytest.approx(1.0, abs=1e-12)
    assert verify_two_box(pol, nat, spec, grid_size=50).passed


class TestPairScan:
    def test_matches_scalar_loop(self):
        # the array scan and the three atom thresholds against the scalar pair
        # loop and a plan per grid threshold: bit for bit, except that a grid
        # with no point in [v_hat, ubar) misses one plan the atoms include
        rng = np.random.default_rng(20)
        cases = [(15.0, 1000), (1.5, 8), (4.0, 200), (40.0, 8)]
        cases += [(rng.uniform(1.5, 40.0), int(np.exp(rng.uniform(np.log(8), np.log(1000))))) for _ in range(40)]
        for ratio, grid in cases:
            ubar = float(rng.uniform(0.5, 2.0))
            spec = HomogeneousSpec(ubar, ubar / ratio, 2)
            pol, nat, claimed = solve_two_box(spec)
            report = verify_two_box(pol, nat, spec, grid_size=grid)
            nature_gap, worst_pair, dm_gap = two_box_grid_loop(pol, nat, spec, claimed, grid)
            assert report.nature_gap == nature_gap
            assert report.notes[-2] == f"worst grid pair {worst_pair}"
            points = np.linspace(0.0, ubar, grid)
            if np.any((points >= nat.v_hat) & (points < ubar)):
                assert report.dm_gap == dm_gap
            else:
                assert report.dm_gap >= dm_gap

    def test_every_pair_matches_scalar_oracle(self):
        # each lower-triangle pair of the grid, given high reward first and
        # low reward first, == the scalar formula; the last case puts grid
        # points on v_acc = 0.75 exactly
        cases = [(1.0, 1.0 / ratio, 120) for ratio in (1.5, 4.0, 15.0, 40.0)] + [(1.0, 0.25, 5)]
        for ubar, c, grid in cases:
            pol, _, _ = solve_two_box(HomogeneousSpec(ubar, c, 2))
            points = np.linspace(0.0, ubar, grid)
            rows, cols = np.tril_indices(grid)
            expected = [_two_box_pair_regret_scalar(pol, float(points[i]), float(points[j])) for i, j in zip(rows, cols)]
            high_first = regret_against_pair(pol, points[:, None], points[None, :])
            low_first = regret_against_pair(pol, points[None, :], points[:, None])
            assert np.array_equal(high_first[rows, cols], expected)
            assert np.array_equal(low_first[rows, cols], expected)

    def test_memory_is_linear_in_the_grid(self):
        # row blocks of 0.5 MB per temporary; one float64 table of all pairs
        # would take 32 MB
        spec = HomogeneousSpec(1.0, 1.0 / 15.0, 2)
        pol, nat, _ = solve_two_box(spec)
        tracemalloc.start()
        try:
            verify_two_box(pol, nat, spec, grid_size=2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_grid_cap(self):
        pol, nat, _ = solve_two_box(LARGE)
        with pytest.raises(SizeError):
            verify_two_box(pol, nat, LARGE, grid_size=MAX_PAIR_GRID + 1)

    def test_array_input_matches_scalar(self):
        pol, _, _ = solve_two_box(LARGE)
        u = np.linspace(0.0, 1.0, 37)
        assert np.array_equal(acceptance_probability(u, pol), [acceptance_probability(float(x), pol) for x in u])
        pairs = regret_against_pair(pol, u[:, None], u[None, :])
        assert pairs.shape == (37, 37)
        scalar = [[regret_against_pair(pol, float(a), float(b)) for b in u] for a in u]
        assert np.array_equal(pairs, scalar)
