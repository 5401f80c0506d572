"""Minimax-regret search rules for the Pandora's-box problem.

Solvers for every analyzed regime (independent or arbitrarily correlated
binary rewards, heterogeneous boxes, interim regret, and the two-box
continuous-support case), exact regret evaluators, numerical saddle-point
verification, and reproducible Monte-Carlo simulation.
"""

from .core import (
    ConvergenceError,
    CountProfile,
    DomainError,
    HeteroPVector,
    HomogeneousSpec,
    IidBinary,
    NatureBelief,
    NeedleP,
    SaddleReport,
    SeedError,
    SizeError,
    StationaryPolicy,
    StoppingMixture,
    TwoPointMixture,
    regret_count_profile,
    regret_indep,
    regret_needle,
    validate_spec,
)
from .corr import (
    CorrSolution,
    naive_trajectory,
    optout_menu_size,
    single_treasure_equivalent,
    solve_corr_commitment,
    solve_corr_intrapersonal,
    success_profile,
)
from .het import (
    HeterogeneousSpec,
    HetSolution,
    SelectionPolicy,
    SubsetRule,
    cost_asymmetry_sweep,
    psi,
    regret_het,
    solve_het,
)
from .indep import (
    IndepSolution,
    SearchCountProfile,
    eu_benchmark,
    expected_search_count,
    search_count_profile,
    solve_indep,
    weitzman_threshold,
)
from .interim import (
    InterimPolicy,
    InterimReport,
    exhaustive_utility,
    interim_regret,
    interim_two_box_intrapersonal,
    solve_interim,
)
from .simulate import SimulationResult, simulate
from .two_box import (
    TwoBoxContinuousPolicy,
    TwoBoxNature,
    acceptance_probability,
    solve_two_box,
    verify_two_box,
)
from .verify import (
    interim_grid_oracle,
    nature_best_response_indep,
    nature_best_response_needle,
    saddle_check_corr,
    saddle_check_indep,
)

__version__ = "0.1.0"
