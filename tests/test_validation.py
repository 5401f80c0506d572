"""Bad arguments to the public API raise DomainError or SizeError, never a bare TypeError or a silent coercion."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_pandora import (
    CountProfile,
    DomainError,
    HeteroPVector,
    HeterogeneousSpec,
    HomogeneousSpec,
    IidBinary,
    InterimPolicy,
    SeedError,
    SelectionPolicy,
    SizeError,
    StationaryPolicy,
    StoppingMixture,
    SubsetRule,
    TwoBoxNature,
    acceptance_probability,
    cost_asymmetry_sweep,
    expected_search_count,
    exhaustive_utility,
    interim_grid_oracle,
    interim_regret,
    interim_two_box_intrapersonal,
    naive_trajectory,
    psi,
    regret_count_profile,
    regret_het,
    regret_indep,
    regret_needle,
    saddle_check_corr,
    saddle_check_indep,
    search_count_profile,
    simulate,
    solve_corr_commitment,
    solve_corr_intrapersonal,
    solve_het,
    solve_indep,
    solve_interim,
    solve_two_box,
    verify_two_box,
)
from robust_pandora.core import _shown, first_success_probabilities
from robust_pandora.two_box import regret_against_pair

SPEC = HomogeneousSpec(1.0, 0.3, 3)
TWO = HomogeneousSpec(1.0, 0.2, 2)
HET = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.4)))
HET3 = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.4), (1.0, 0.3)))


def _simulate(episodes=10, seed=0):
    return simulate(solve_indep(SPEC).policy, IidBinary(0.3), SPEC, episodes, seed)


def _verify_two_box(grid_size=200, tolerance=1e-9):
    policy, nature, _ = solve_two_box(TWO)
    return verify_two_box(policy, nature, TWO, grid_size=grid_size, tolerance=tolerance)


def _two_box_policy():
    return solve_two_box(TWO)[0]


def _het_policy(spec=HET):
    return solve_het(spec).policy


def _simulate_het(policy=None, truth=HeteroPVector((0.1, 0.2)), spec=HET):
    return simulate(_het_policy() if policy is None else policy, truth, spec, 10, 0)


def _two_box_nature(**weights):
    return TwoBoxNature(**{"v_hat": 0.5, "q": 0.5, "r": 0.25, "s": 0.25, **weights})


BAD_CALLS = {
    "search-count-n-float": lambda: expected_search_count(0.3, HomogeneousSpec(1.0, 0.3, 2.5)),
    "search-count-n-bool": lambda: expected_search_count(0.3, HomogeneousSpec(1.0, 0.3, True)),
    "count-profile-n-float": lambda: search_count_profile(0.3, HomogeneousSpec(1.0, 0.3, 2.5)),
    "exhaustive-n-float": lambda: exhaustive_utility(0.3, 2.5, SPEC),
    "simulate-episodes-nan": lambda: _simulate(episodes=float("nan")),
    "simulate-episodes-float": lambda: _simulate(episodes=2.5),
    "simulate-episodes-bool": lambda: _simulate(episodes=True),
    "simulate-seed-float": lambda: _simulate(seed=1.5),
    "simulate-seed-string": lambda: _simulate(seed="3"),
    "interim-m-bool": lambda: InterimPolicy(True, 0.5, 3),
    "interim-alpha-string": lambda: InterimPolicy(0, "x", 3),
    "interim-n-bool": lambda: InterimPolicy(0, 0.5, True),
    "two-box-grid-float": lambda: _verify_two_box(200.7),
    "two-box-grid-nan": lambda: _verify_two_box(float("nan")),
    "two-box-grid-string": lambda: _verify_two_box("200"),
    "iid-p-numeric-string": lambda: IidBinary("0.3"),
    "iid-p-string": lambda: IidBinary("x"),
    "iid-p-bool": lambda: IidBinary(True),
    "regret-p-string": lambda: regret_indep(solve_indep(SPEC).policy, "0.3", SPEC),
    "policy-alphas-bool": lambda: StationaryPolicy([True, False, True]),
    "two-box-nature-weight-string": lambda: _two_box_nature(q="0.5"),
    "two-box-nature-weight-negative": lambda: _two_box_nature(q=1.0, s=-0.25),
    "two-box-nature-weight-nan": lambda: _two_box_nature(r=float("nan")),
    "two-box-nature-v-hat-infinite": lambda: _two_box_nature(v_hat=float("inf")),
    "two-box-nature-weight-sum": lambda: _two_box_nature(q=0.4),
    "two-box-nature-v-hat-above-ubar": lambda: verify_two_box(_two_box_policy(), _two_box_nature(v_hat=1.5), TWO),
    "acceptance-reward-string": lambda: acceptance_probability("0.5", _two_box_policy()),
    "acceptance-reward-bool": lambda: acceptance_probability(True, _two_box_policy()),
    "pair-reward-string": lambda: regret_against_pair(_two_box_policy(), "0.5", 0.1),
    "sweep-c-total-string": lambda: cost_asymmetry_sweep(1.0, "0.6", [0.0]),
    "sweep-c-total-bool": lambda: cost_asymmetry_sweep(1.0, True, [0.0]),
    "sweep-delta-string": lambda: cost_asymmetry_sweep(1.0, 0.6, ["0.1"]),
    "het-rule-box-float": lambda: solve_het(HET).rule_for([0.7, 1]),
    "het-rule-box-string": lambda: solve_het(HET).rule_for(["0"]),
    "het-gamma-box-float": lambda: solve_het(HET).gamma(1.5),
    "het-gamma-box-bool": lambda: solve_het(HET).gamma(True),
    "subset-rule-box-float": lambda: SubsetRule({0.5: 0.5}, 0.5),
    "subset-rule-weight-sum": lambda: SubsetRule({0: 0.5}, 0.2),
    "psi-member-float": lambda: psi(0, [0.0, 1.2], HET),
    "psi-k-bool": lambda: psi(True, [0, 1], HET),
    "psi-box-outside-spec": lambda: psi(0, [0, 5], HET),
    "psi-subset-not-iterable": lambda: psi(0, 0, HET),
    "selection-policy-n-float": lambda: SelectionPolicy(2.5, {}),
    "selection-policy-n-bool": lambda: SelectionPolicy(True, {}),
    "selection-policy-n-negative": lambda: SelectionPolicy(-1, {}),
    "opt-out-policy-n-float": lambda: SelectionPolicy.always_opt_out(2.5),
    "opt-out-policy-n-bool": lambda: SelectionPolicy.always_opt_out(True),
    "opt-out-policy-n-negative": lambda: SelectionPolicy.always_opt_out(-1),
    "sweep-ubar-string": lambda: cost_asymmetry_sweep("1", 0.6, [0.0]),
    "saddle-indep-tol-string": lambda: saddle_check_indep(SPEC, tol="x"),
    "saddle-indep-tol-nan": lambda: saddle_check_indep(SPEC, tol=float("nan")),
    "saddle-indep-tol-negative": lambda: saddle_check_indep(SPEC, tol=-1e-6),
    "saddle-corr-tol-string": lambda: saddle_check_corr(SPEC, tol="x"),
    "saddle-corr-tol-nan": lambda: saddle_check_corr(SPEC, tol=float("nan")),
    "saddle-corr-tol-negative": lambda: saddle_check_corr(SPEC, tol=-1e-9),
    "two-box-tol-string": lambda: _verify_two_box(tolerance="x"),
    "two-box-tol-nan": lambda: _verify_two_box(tolerance=float("nan")),
    "two-box-tol-negative": lambda: _verify_two_box(tolerance=-1e-9),
    # a policy solved for another spec: the cost, and the reward whose grid reaches past the policy's ubar
    "two-box-policy-other-c": lambda: verify_two_box(*solve_two_box(HomogeneousSpec(1.0, 0.1, 2))[:2], TWO),
    "two-box-policy-other-ubar": lambda: verify_two_box(*solve_two_box(HomogeneousSpec(0.9, 0.2, 2))[:2], TWO),
    "two-box-policy-alpha-negative": lambda: verify_two_box(replace(_two_box_policy(), alpha2_0=-0.1), *solve_two_box(TWO)[1:2], TWO),
    "hetero-p-scalar": lambda: HeteroPVector(0.5),
    "hetero-p-ragged": lambda: HeteroPVector(((0.1, 0.2), 0.3)),
    "regret-het-p-scalar": lambda: regret_het(_het_policy(), 0.5, HET),
    "regret-het-p-dict": lambda: regret_het(_het_policy(), {0: 0.1, 1: 0.2}, HET),
    "regret-het-policy-float": lambda: regret_het(0.5, (0.1, 0.2), HET),
    "regret-het-p-length": lambda: regret_het(_het_policy(), (0.1, 0.2, 0.3), HET),
    "regret-het-policy-size": lambda: regret_het(_het_policy(HET3), (0.1, 0.2), HET),
    "simulate-het-truth-length": lambda: _simulate_het(truth=HeteroPVector((0.1, 0.2, 0.3))),
    "simulate-het-policy-size": lambda: _simulate_het(policy=_het_policy(HET3)),
    "simulate-het-policy-stationary": lambda: _simulate_het(policy=StationaryPolicy([0.5, 0.5])),
    "simulate-het-truth-iid": lambda: _simulate_het(truth=IidBinary(0.3)),
    "simulate-spec-tuple": lambda: simulate(solve_indep(SPEC).policy, IidBinary(0.3), (1.0, 0.3, 3), 10, 0),
    "simulate-count-profile-length": lambda: simulate(solve_indep(SPEC).policy, CountProfile([0.5, 0.5]), SPEC, 10, 0),
    "first-success-numeric-strings": lambda: first_success_probabilities(["0.5", "0.5"]),
    "first-success-out-of-range": lambda: first_success_probabilities([0.5, -1.0, 1.5]),
    "first-success-bools": lambda: first_success_probabilities([True, False]),
    "first-success-nested-bool": lambda: first_success_probabilities([[0.5, 0.5], [True, 0.0]]),
    "first-success-nan": lambda: first_success_probabilities([float("nan"), 1.0]),
    "first-success-ragged": lambda: first_success_probabilities([[0.5, 0.5], [1.0]]),
    "first-success-empty": lambda: first_success_probabilities([]),
    "first-success-scalar": lambda: first_success_probabilities(1.0),
    "count-profile-regret-n": lambda: regret_count_profile(StoppingMixture([0.5, 0.5]), CountProfile([1, 0, 0, 0]), SPEC),
    "regret-indep-policy-n": lambda: regret_indep(StationaryPolicy([0.5]), 0.3, SPEC),
    "regret-needle-policy-n": lambda: regret_needle(StationaryPolicy([0.5]), 0.3, SPEC),
    "interim-regret-policy-n": lambda: interim_regret(InterimPolicy(0, 0.5, 2), 0.3, SPEC),
    "interim-two-box-n": lambda: interim_two_box_intrapersonal(SPEC),
    "subset-rule-probs-list": lambda: SubsetRule([0.5], 0.5),
    "selection-policy-rules-list": lambda: SelectionPolicy(2, [1, 2]),
    "selection-policy-menu-int": lambda: SelectionPolicy(2, {0: SubsetRule({0: 0.5}, 0.5)}),
    "selection-policy-rule-number": lambda: SelectionPolicy(2, {frozenset({0}): 0.5}),
    "sweep-delta-scalar": lambda: cost_asymmetry_sweep(1.0, 0.6, 0.1),
    "policy-alphas-mixed-bool": lambda: StationaryPolicy([True, 0.5, 0.5]),
    # integers beyond float range are not finite reals (math.isfinite overflows)
    "spec-ubar-huge-int": lambda: HomogeneousSpec(10**400, 0.3, 3),
    "het-ubar-huge-int": lambda: HeterogeneousSpec(((10**400, 0.3),)),
    "iid-p-huge-int": lambda: IidBinary(10**400),
    "sweep-ubar-huge-int": lambda: cost_asymmetry_sweep(10**400, 0.6, [0.0]),
    # rewards past 2**300 or below 2**-300, and closed forms that degenerate in floating point
    "spec-ubar-above-range": lambda: HomogeneousSpec(1e200, 1e199, 2),
    "spec-ubar-below-range": lambda: HomogeneousSpec(1e-308, 1e-310, 2),
    "het-ubar-above-range": lambda: HeterogeneousSpec(((1e300, 1.0), (1.0, 0.5))),
    "two-box-v-hat-rounds-to-ubar": lambda: solve_two_box(HomogeneousSpec(1.0, 1e-40, 2)),
    "two-box-cost-near-least-float": lambda: solve_two_box(HomogeneousSpec(1.0, 1e-300, 2)),
    "het-pseudo-index-overflow": lambda: solve_het(HeterogeneousSpec(((1.0, 1e-320), (1.0, 0.5)))),
}

# one box over the 5 000-box cap of the interim grid oracle, which prices
# 2n plan rows at 2001 beliefs
OVER_CAP = HomogeneousSpec(1.0, 0.3, 5001)

OVERSIZED_CALLS = {
    "spec-n-huge-int": lambda: HomogeneousSpec(1.0, 0.3, 10**400),
    "exhaustive-n-huge-int": lambda: exhaustive_utility(0.3, 10**400, SPEC),
    "interim-grid-oracle-n": lambda: interim_grid_oracle(OVER_CAP),
}


# integers too long to print (Python refuses to print more than 4300 digits):
# each call raises its own error, whose message gives the digit count
HUGE = 10**5000

HUGE_INT_CALLS = {
    "spec-n-huge-digits": (lambda: HomogeneousSpec(1.0, 0.3, HUGE), SizeError),
    "spec-n-negative-huge-digits": (lambda: HomogeneousSpec(1.0, 0.3, -HUGE), DomainError),
    "two-box-grid-huge-digits": (lambda: _verify_two_box(HUGE), SizeError),
    "simulate-episodes-huge-digits": (lambda: _simulate(episodes=HUGE), SeedError),
    "simulate-episodes-negative-huge-digits": (lambda: _simulate(episodes=-HUGE), DomainError),
    "interim-m-huge-digits": (lambda: InterimPolicy(HUGE, 0.5, 3), DomainError),
    "selection-policy-n-huge-digits": (lambda: SelectionPolicy(HUGE, {}), SizeError),
    "spec-ubar-huge-digits": (lambda: HomogeneousSpec(HUGE, 0.3, 3), DomainError),
    "two-box-tol-huge-digits": (lambda: _verify_two_box(tolerance=HUGE), DomainError),
    "het-rule-box-huge-digits": (lambda: solve_het(HET).rule_for([HUGE]), DomainError),
}


def test_digit_count_of_an_integer_too_long_to_print():
    # the estimate from bit_length is the count or one more; 10**5000 - 1
    # has the same bit length as 10**5000 and one digit fewer
    assert [_shown(v) for v in (HUGE - 1, HUGE, -HUGE, 10**4299)] == [
        "<integer of 5000 digits>",
        "<integer of 5001 digits>",
        "-<integer of 5001 digits>",
        "1" + "0" * 4299,
    ]


@pytest.mark.parametrize("call, error", HUGE_INT_CALLS.values(), ids=HUGE_INT_CALLS.keys())
def test_integer_too_long_to_print_shows_its_digit_count(call, error):
    with pytest.raises(error, match="<integer of 5001 digits>"):
        call()


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", OVERSIZED_CALLS.values(), ids=OVERSIZED_CALLS.keys())
def test_oversized_argument_raises_size_error(call):
    with pytest.raises(SizeError):
        call()


def _corr_numbers(sol):
    return np.r_[sol.regret_per_k, sol.worst_case_P, sol.policy.alphas]


# each solver with the numbers it returns
SOLVERS = {
    "indep": (solve_indep, lambda sol: np.r_[sol.regret, sol.worst_case_p, sol.policy.alphas]),
    "corr": (solve_corr_commitment, _corr_numbers),
    "corr-intra": (solve_corr_intrapersonal, _corr_numbers),
    "naive": (naive_trajectory, np.asarray),
    "interim": (solve_interim, lambda sol: np.r_[sol.regret, sol.worst_p_high, sol.residual, sol.policy.alpha]),
    "count": (lambda spec: search_count_profile(0.5, spec), lambda prof: prof.values),
    "two-box": (
        lambda spec: solve_two_box(HomogeneousSpec(spec.ubar, spec.c, 2)),
        lambda out: np.r_[out[2], out[0].alpha2_0, out[0].v_low, out[0].v_acc, out[1].v_hat, out[1].q, out[1].r, out[1].s],
    ),
    "het": (
        lambda spec: solve_het(HeterogeneousSpec(((spec.ubar, spec.c), (spec.ubar / 2, spec.c / 4), (spec.ubar / 3, spec.c)))),
        lambda sol: np.r_[sol.regrets, sol.gammas.ravel(), sol.policy.weights.ravel(), sol.policy.optout[1:]],
    ),
}


@given(st.floats(-300.0, 300.0), st.floats(-1074.0, 0.0), st.integers(1, 8))
@example(0.0, math.log2(1e-40), 2)  # v_hat rounds to ubar
@example(0.0, math.log2(1e-300), 2)
@example(0.0, math.log2(1e-310), 5)  # opt-out menu size past float range
@example(300.0, -0.1, 5)
@example(-300.0, -1.0, 5)
@example(0.0, -1074.0, 2)  # het pseudo-indices past float range
@settings(max_examples=150, deadline=None)
def test_every_solver_returns_finite_numbers_or_refuses(log2_ubar, log2_ratio, n):
    # over the whole accepted reward range and c/ubar down to the least
    # positive float, each solver returns finite numbers or raises
    # DomainError or SizeError: no overflow, no 0/0, no traceback
    ubar = 2.0**log2_ubar
    try:
        spec = HomogeneousSpec(ubar, 2.0**log2_ratio * ubar, n)
    except DomainError:  # c rounds to 0 or to ubar
        return
    for name, (solve, numbers) in SOLVERS.items():
        try:
            out = solve(spec)
        except (DomainError, SizeError):
            continue
        assert np.all(np.isfinite(numbers(out))), (name, spec)
