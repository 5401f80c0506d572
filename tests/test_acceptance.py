"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any assertion failure marks the criterion as failed.
"""

import time

import numpy as np
import pytest

from robust_pandora.cli import main
from robust_pandora.core import (
    CountProfile,
    HomogeneousSpec,
    StationaryPolicy,
    StoppingMixture,
    regret_count_profile,
    regret_indep,
    regret_needle,
)
from robust_pandora.corr import (
    single_treasure_equivalent,
    solve_corr_commitment,
    solve_corr_intrapersonal,
    success_profile,
)
from robust_pandora.het import HeterogeneousSpec, cost_asymmetry_sweep, regret_het, solve_het
from robust_pandora.indep import expected_search_count, search_count_profile, solve_indep
from robust_pandora.interim import interim_two_box_intrapersonal, solve_interim
from robust_pandora.simulate import simulate
from robust_pandora.two_box import solve_two_box, verify_two_box
from robust_pandora.verify import interim_grid_oracle, saddle_check_corr, saddle_check_indep

from robust_pandora.core import IidBinary


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_independent_closed_forms_and_saddle():
    t0 = time.perf_counter()
    ubar, c = 1.0, 0.3
    for n in range(1, 9):
        spec = HomogeneousSpec(ubar, c, n)
        sol = solve_indep(spec)
        for k in range(1, n + 1):
            want = k * (ubar - c) ** k / ((k - 1) * (ubar - c) ** k + ubar**k)
            assert abs(sol.alphas[k - 1] - want) <= 1e-12
        want_regret = (1 - ((ubar - c) / ubar) ** n) * (ubar - c)
        assert abs(sol.regret - want_regret) <= 1e-12
        assert sol.worst_case_p == c / ubar
        report = saddle_check_indep(spec, tol=1e-6, grid_points=2001)
        assert report.passed, f"n={n}: {report}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    t0 = time.perf_counter()
    report = saddle_check_indep(HomogeneousSpec(ubar, c, 300), tol=1e-6)
    large = time.perf_counter() - t0
    assert report.passed, str(report)
    assert large < 0.5
    _report(1, f"closed forms exact and saddle checks pass for n=1..8 in {elapsed:.2f}s, n=300 checked in {large:.2f}s")


def test_criterion_2_threshold_belief_indifference():
    rng = np.random.default_rng(2024)
    ubar, c = 1.0, 0.3
    phat = c / ubar
    worst = 0.0
    for n in range(1, 7):
        spec = HomogeneousSpec(ubar, c, n)
        flat = (1 - (1 - phat) ** n) * (ubar - c)
        for _ in range(100):
            policy = StationaryPolicy(rng.random(n))
            worst = max(worst, abs(regret_indep(policy, phat, spec) - flat))
    assert worst <= 1e-10
    _report(2, f"regret at the indifference belief is policy-free (max dev {worst:.2e})")


def test_criterion_3_menu_size_monotonicity_and_hump():
    rng = np.random.default_rng(31)
    for _ in range(20):
        ubar = rng.uniform(0.5, 3.0)
        c = ubar * rng.uniform(0.05, 0.95)
        sol = solve_indep(HomogeneousSpec(ubar, c, 200))
        assert np.all(np.diff(sol.alphas) < 0)
        gaps = (ubar - c) * ((ubar - c) / ubar) ** np.arange(1, 201)
        assert np.all(np.diff(gaps) < 0)  # exact complement of the regret
        assert np.all(np.diff((ubar - c) - gaps) >= 0)
    spec = HomogeneousSpec(1.0, 0.3, 2)
    for q in np.linspace(0.01, 0.9, 10):
        prof = search_count_profile(float(q), 100, spec)
        signs = np.sign(np.diff(prof.values))
        signs = signs[signs != 0]
        assert np.count_nonzero(np.diff(signs)) <= 1
    prof = search_count_profile(0.05, 100, spec)
    assert 1 < prof.argmax_n < 100
    _report(3, f"search falls and regret grows with the menu; opened-count humps (peak at n={prof.argmax_n} for q=0.05)")


def test_criterion_4_success_order_and_flattening():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        Q = CountProfile(rng.dirichlet(np.ones(n + 1)))
        q = success_profile(Q)
        assert np.all(np.diff(q) <= 1e-12)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        spec = HomogeneousSpec(1.0, 0.3, n)
        Q = CountProfile(rng.dirichlet(np.ones(n + 1)))
        w = StoppingMixture(rng.dirichlet(np.ones(n + 1)))
        assert regret_count_profile(w, Q, spec) <= regret_count_profile(
            w, single_treasure_equivalent(Q), spec
        ) + 1e-12
    t0 = time.perf_counter()
    for mode in ("commitment", "intrapersonal"):
        report = saddle_check_corr(HomogeneousSpec(1.0, 0.02, 32), tol=1e-9, mode=mode)
        assert report.passed and not report.notes, f"{mode}: {report}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    _report(
        4,
        "first-success probabilities decrease and single-treasure flattening dominates (1000 draws each); "
        f"both n=32 correlated saddle checks in {elapsed:.2f}s",
    )


def test_criterion_5_correlation_commitment_and_sophistication():
    ubar, c = 1.0, 0.25
    for n in range(1, 7):
        sol = solve_corr_commitment(HomogeneousSpec(ubar, c, n))
        assert not sol.opts_out
        grid = np.linspace(0.0, 1.0, 1001)
        vals = regret_needle(sol.policy, grid, HomogeneousSpec(ubar, c, n))
        assert np.max(np.abs(vals - sol.regret)) <= 1e-12
    boundary = solve_corr_commitment(HomogeneousSpec(ubar, c, 7))
    assert boundary.opts_out and boundary.optout_threshold == 7
    assert boundary.regret == pytest.approx(0.75, abs=1e-15)

    intra = solve_corr_intrapersonal(HomogeneousSpec(ubar, c, 10))
    assert intra.searches_up_to == 5
    assert intra.searches_up_to <= 7

    rng = np.random.default_rng(55)
    for _ in range(50):
        u2 = rng.uniform(0.5, 3.0)
        c2 = u2 * rng.uniform(0.05, 0.9)
        n2 = int(rng.integers(1, 13))
        spec = HomogeneousSpec(u2, c2, n2)
        intra2 = solve_corr_intrapersonal(spec)
        upto = min(intra2.searches_up_to, n2)
        for k in range(1, upto + 1):
            com = solve_corr_commitment(HomogeneousSpec(u2, c2, k))
            assert intra2.policy.alphas[k - 1] >= com.policy.alphas[k - 1] - 1e-12
    _report(5, "commitment switches to refusal exactly at n=7 (R*=0.75), refusal point 5 without commitment, sophistication searches harder")


def test_criterion_6_heterogeneous_selection():
    for n in range(2, 7):
        het = solve_het(HeterogeneousSpec(tuple((1.0, 0.3) for _ in range(n))))
        hom = solve_indep(HomogeneousSpec(1.0, 0.3, n))
        rule = het.rule_for()
        for i in range(n):
            assert abs(rule.open_probs[i] - hom.alphas[-1] / n) <= 1e-10
        assert abs(het.regret() - hom.regret) <= 1e-10

    rng = np.random.default_rng(6)
    step = 1e-5
    for _ in range(20):
        n = int(rng.integers(2, 7))
        boxes = []
        for _ in range(n):
            u = rng.uniform(0.5, 2.0)
            boxes.append((u, u * rng.uniform(0.1, 0.9)))
        spec = HeterogeneousSpec(tuple(boxes))
        sol = solve_het(spec)
        p_hat = list(spec.p_hats)
        for i in range(n):
            hi, lo = p_hat.copy(), p_hat.copy()
            hi[i] += step
            lo[i] -= step
            grad = (regret_het(sol.policy, hi, spec) - regret_het(sol.policy, lo, spec)) / (2 * step)
            assert abs(grad) <= 1e-6

    rows = cost_asymmetry_sweep(1.0, 0.6, np.linspace(0.0, 0.55, 30))
    cheap = [r["open_cheaper"] for r in rows]
    costly = [r["open_costlier"] for r in rows]
    total = [r["total_search"] for r in rows]
    assert np.all(np.diff(cheap) >= -1e-12)
    assert np.all(np.diff(costly) <= 1e-12)
    assert np.all(np.diff(total) >= -1e-12)

    boxes = [(u, u * f) for u, f in zip(rng.uniform(0.5, 2.0, 14), rng.uniform(0.1, 0.9, 14))]
    spec = HeterogeneousSpec(tuple(boxes))
    t0 = time.perf_counter()
    sol = solve_het(spec)
    at_hat = regret_het(sol.policy, spec.p_hats, spec)
    at_moved = regret_het(sol.policy, (0.5,) + spec.p_hats[1:], spec)
    elapsed = time.perf_counter() - t0
    assert abs(at_hat - sol.regret()) <= 1e-9
    assert abs(at_moved - sol.regret()) <= 1e-9
    assert elapsed < 1.0
    _report(6, f"symmetric reduction exact to 1e-10, worst-case first-order conditions hold, cost asymmetry steers and boosts search, n=14 lattice solved and evaluated twice in {elapsed:.2f}s")


def test_criterion_7_interim_solution():
    for n in range(1, 7):
        spec = HomogeneousSpec(1.0, 0.3, n)
        rep = solve_interim(spec)
        assert rep.residual <= 1e-10
        m, alpha, _ = interim_grid_oracle(spec)
        assert rep.policy.m == m, f"n={n}"
        assert abs(rep.policy.alpha - alpha) <= 1e-3, f"n={n}"

    ms = []
    for n in range(2, 21):
        rep = solve_interim(HomogeneousSpec(1.0, 0.1, n))
        assert rep.residual <= 1e-10
        ms.append(rep.policy.m)
    assert np.all(np.diff(ms) >= 0)

    t0 = time.perf_counter()
    rep = solve_interim(HomogeneousSpec(1.0, 0.05, 1000))
    elapsed = time.perf_counter() - t0
    assert rep.residual <= 1e-10
    assert elapsed < 0.5

    a1, a2 = interim_two_box_intrapersonal(HomogeneousSpec(1.0, 0.3, 2))
    assert abs(a2 - 0.7 / 1.21) <= 1e-12
    assert a2 < a1
    _report(7, f"interim solver matches the grid oracle for n<=6, sure-search count grows with the menu, n=1000 solved in {elapsed:.2f}s, two-box stage probabilities fall")


def test_criterion_8_two_box_continuous():
    t0 = time.perf_counter()
    pol4, _, _ = solve_two_box(HomogeneousSpec(0.8, 0.2, 2))
    assert abs(pol4.alpha2_0 - 2.0 / 3.0) <= 1e-12

    ubar, c = 0.8, 0.2  # boundary ubar = 4c
    root = np.sqrt((2 * ubar + c) * c)
    large_formula = 2 * c * ubar**2 / (ubar**2 + ubar * c + c**2 + c * root)
    binary_formula = 4 * (ubar - c) * c / (2 * ubar + c)
    assert abs(large_formula - 4 * c / 3) <= 1e-12
    assert abs(binary_formula - 4 * c / 3) <= 1e-12

    spec = HomogeneousSpec(1.0, 0.2, 2)
    policy, nature, _ = solve_two_box(spec)
    assert nature.q == pytest.approx(1.0 - nature.r - nature.s, abs=1e-15)
    report = verify_two_box(policy, nature, spec, grid_size=200, tolerance=1e-9)
    assert report.nature_gap <= 1e-9
    assert report.dm_gap <= 1e-9
    assert report.passed
    assert any("q = 1 - r - s" in note for note in report.notes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(8, f"wide-regime entry 2/3 at the boundary, value continuous, 200x200 saddle grid passes in {elapsed:.2f}s")


def test_criterion_9_simulation_reproduces_closed_forms():
    t0 = time.perf_counter()
    spec = HomogeneousSpec(1.0, 0.3, 5)
    sol = solve_indep(spec)
    res = simulate(sol.policy, IidBinary(0.3), spec, 10**6, 42)
    assert abs(res.mean_regret - sol.regret) <= 4 * res.se_regret
    target = expected_search_count(0.3, 5, spec)
    assert abs(res.mean_opened - target) <= 4 * res.se_opened
    rerun = simulate(sol.policy, IidBinary(0.3), spec, 10**6, 42)
    assert res == rerun
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, f"1e6 episodes reproduce R*_5 and S(p_hat,5) within 4 SE, bit-identical, in {elapsed:.2f}s")


def test_criterion_10_cli_golden_sweeps(tmp_path):
    sweeps = {
        "fig3_opened_counts": [
            "sweep", "--regime", "indep", "--sweep", "q",
            "--from", "0.05", "--to", "0.9", "--steps", "8", "--ubar", "1", "--c", "0.3", "--n", "30",
        ],
        "fig6_cost_asymmetry": [
            "sweep", "--regime", "het", "--sweep", "delta",
            "--from", "0", "--to", "0.5", "--steps", "30", "--ubar", "1", "--ctotal", "0.6",
        ],
        "menu_size": [
            "sweep", "--regime", "indep", "--sweep", "n",
            "--from", "1", "--to", "50", "--ubar", "1", "--c", "0.3",
        ],
    }
    for name, argv in sweeps.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name

    # spot-check every value of the menu sweep against the library at full
    # 12-significant-digit rendering
    lines = (tmp_path / "menu_size_a.csv").read_text().strip().split("\n")
    assert lines[0] == "n,alpha_n,regret"
    for line in lines[1:]:
        n_s, alpha_s, regret_s = line.split(",")
        sol = solve_indep(HomogeneousSpec(1.0, 0.3, int(n_s)))
        assert alpha_s == f"{sol.alphas[-1]:.12g}"
        assert regret_s == f"{sol.regret:.12g}"

    lines = (tmp_path / "fig3_opened_counts_a.csv").read_text().strip().split("\n")
    spec = HomogeneousSpec(1.0, 0.3, 30)
    qs = np.linspace(0.05, 0.9, 8)
    expected_rows = [(q, n) for q in qs for n in range(1, 31)]
    assert len(lines) - 1 == len(expected_rows)
    for line, (q, n) in zip(lines[1:], expected_rows):
        q_s, n_s, s_s = line.split(",")
        assert (q_s, n_s) == (f"{q:.12g}", str(n))
        assert s_s == f"{expected_search_count(float(q), n, spec):.12g}"

    lines = (tmp_path / "fig6_cost_asymmetry_a.csv").read_text().strip().split("\n")
    grid = np.linspace(0.0, 0.5, 30)
    rows = cost_asymmetry_sweep(1.0, 0.6, grid)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[1] == f"{row['open_costlier']:.12g}"
        assert cells[2] == f"{row['open_cheaper']:.12g}"
        assert cells[3] == f"{row['total_search']:.12g}"
    _report(10, "figure-data sweeps are byte-stable and match the library to 12 significant digits")
