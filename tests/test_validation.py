"""Bad arguments to the public API raise DomainError, never a bare TypeError or a silent coercion."""

import pytest

from robust_pandora import (
    DomainError,
    HeterogeneousSpec,
    HomogeneousSpec,
    IidBinary,
    InterimPolicy,
    SelectionPolicy,
    StationaryPolicy,
    SubsetRule,
    TwoPointMixture,
    acceptance_probability,
    cost_asymmetry_sweep,
    expected_search_count,
    exhaustive_utility,
    psi,
    regret_indep,
    search_count_profile,
    simulate,
    solve_het,
    solve_indep,
    solve_two_box,
    verify_two_box,
)
from robust_pandora.two_box import regret_against_pair

SPEC = HomogeneousSpec(1.0, 0.3, 3)
TWO = HomogeneousSpec(1.0, 0.2, 2)
HET = HeterogeneousSpec(((1.0, 0.2), (1.0, 0.4)))


def _simulate(episodes=10, seed=0):
    return simulate(solve_indep(SPEC).policy, IidBinary(0.3), SPEC, episodes, seed)


def _verify_two_box(grid_size):
    policy, nature, _ = solve_two_box(TWO)
    return verify_two_box(policy, nature, TWO, grid_size=grid_size)


def _two_box_policy():
    return solve_two_box(TWO)[0]


BAD_CALLS = {
    "search-count-n-float": lambda: expected_search_count(0.3, 2.5, SPEC),
    "search-count-n-bool": lambda: expected_search_count(0.3, True, SPEC),
    "count-profile-n-float": lambda: search_count_profile(0.3, 2.5, SPEC),
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
    "mixture-weight-string": lambda: TwoPointMixture((((0.5, 0.2), "1"),)),
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
    "psi-member-float": lambda: psi(0, [0.0, 1.2], HET),
    "psi-k-bool": lambda: psi(True, [0, 1], HET),
    "selection-policy-n-float": lambda: SelectionPolicy(2.5, {}),
    "selection-policy-n-bool": lambda: SelectionPolicy(True, {}),
    "selection-policy-n-negative": lambda: SelectionPolicy(-1, {}),
    "opt-out-policy-n-float": lambda: SelectionPolicy.always_opt_out(2.5),
    "opt-out-policy-n-bool": lambda: SelectionPolicy.always_opt_out(True),
    "opt-out-policy-n-negative": lambda: SelectionPolicy.always_opt_out(-1),
    "sweep-ubar-string": lambda: cost_asymmetry_sweep("1", 0.6, [0.0]),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()
