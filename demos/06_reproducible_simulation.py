"""Monte-Carlo check of the closed forms, reproducible to the bit.

Runs the search process forward under explicit truths and compares the
estimates against the exact evaluators.  The generator is a keyed counter
stream, so the same seed always yields the same result no matter how the
episodes are chunked.
"""

from robust_pandora import (
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    expected_search_count,
    regret_needle,
    simulate,
    solve_corr_commitment,
    solve_indep,
)

spec = HomogeneousSpec(1.0, 0.3, 5)
sol = solve_indep(spec)
EPISODES, SEED = 500_000, 42

res = simulate(sol.policy, IidBinary(0.3), spec, EPISODES, SEED)
print(f"{EPISODES} episodes, truth = i.i.d. with q = 0.3 (the worst case):")
print(f"  mean regret  {res.mean_regret:.6f} +- {res.se_regret:.6f}")
print(f"  closed form  {sol.regret:.6f}")
print(f"  mean opened  {res.mean_opened:.6f} +- {res.se_opened:.6f}")
print(f"  closed form  {expected_search_count(0.3, spec):.6f}\n")

again = simulate(sol.policy, IidBinary(0.3), spec, EPISODES, SEED)
print(f"Same seed, same answer, field by field: {res == again}\n")

# hidden-treasure truth against the correlation-robust policy
spec4 = HomogeneousSpec(1.0, 0.25, 4)
corr = solve_corr_commitment(spec4)
needle = simulate(corr.policy, NeedleP(0.6), spec4, EPISODES, SEED)
exact = regret_needle(corr.policy, 0.6, spec4)
print("Hidden treasure with probability 0.6 among 4 boxes:")
print(f"  simulated regret {needle.mean_regret:.6f} +- {needle.se_regret:.6f}")
print(f"  exact evaluator  {exact:.6f}")
print(f"  boxes opened     {needle.mean_opened:.6f} on average")

off_truth = simulate(corr.policy, NeedleP(1.0), spec4, EPISODES, SEED)
print(f"\nIf the treasure surely exists the regret is unchanged "
      f"({off_truth.mean_regret:.6f}): the policy makes the adversary indifferent.")
