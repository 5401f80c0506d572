"""Bad arguments to the public API raise DomainError, never a bare TypeError or a silent coercion."""

import pytest

from robust_pandora import (
    DomainError,
    HomogeneousSpec,
    IidBinary,
    InterimPolicy,
    StationaryPolicy,
    TwoPointMixture,
    expected_search_count,
    exhaustive_utility,
    regret_indep,
    search_count_profile,
    simulate,
    solve_indep,
    solve_two_box,
    verify_two_box,
)

SPEC = HomogeneousSpec(1.0, 0.3, 3)
TWO = HomogeneousSpec(1.0, 0.2, 2)


def _simulate(episodes=10, seed=0):
    return simulate(solve_indep(SPEC).policy, IidBinary(0.3), SPEC, episodes, seed)


def _verify_two_box(grid_size):
    policy, nature, _ = solve_two_box(TWO)
    return verify_two_box(policy, nature, TWO, grid_size=grid_size)


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
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()
