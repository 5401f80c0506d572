import json

import numpy as np
import pytest

from robust_pandora import cli
from robust_pandora.cli import main
from robust_pandora.core import HomogeneousSpec
from robust_pandora.corr import optout_menu_size, solve_corr_commitment
from robust_pandora.indep import expected_search_count, solve_indep


# --format json stdout pinned byte for byte: the interim solver's bisected
# m-scan and the indep check's exact backward induction on the DM side
SOLVE_INTERIM_100 = """\
{
  "command": "solve",
  "params": {
    "c": 0.05,
    "n": 100,
    "regime": "interim",
    "ubar": 1.0
  },
  "results": {
    "alpha": 0.6675951303238125,
    "degenerate_tie": false,
    "m": 5,
    "regret": 0.28337975651619063,
    "residual": 5.551115123125783e-17,
    "worst_p_high": 0.11695247218482496
  },
  "schema_version": "1"
}
"""

VERIFY_INDEP_60 = """\
{
  "command": "verify",
  "params": {
    "c": 0.3,
    "n": 60,
    "regime": "indep",
    "tol": 1e-06,
    "ubar": 1.0
  },
  "results": {
    "dm_gap": 1.1102230246251565e-16,
    "nature_gap": 1.1102230246251565e-16,
    "notes": [],
    "passed": true,
    "tolerance": 1e-06
  },
  "schema_version": "1"
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


class TestSolve:
    def test_indep_json(self, capsys):
        code, doc = run_json(
            capsys, "solve", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "3", "--format", "json"
        )
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["command"] == "solve"
        assert doc["results"]["alpha"][-1] == pytest.approx(0.610320, abs=1e-6)
        assert doc["results"]["regret"] == pytest.approx(0.4599, abs=1e-10)

    def test_corr_optout(self, capsys):
        code, doc = run_json(capsys, "solve", "--regime", "corr", "--ubar", "1", "--c", "0.25", "--n", "7")
        assert code == 0
        assert doc["results"]["optout"] is True
        assert doc["results"]["regret"] == pytest.approx(0.75, abs=1e-12)

    def test_validation_failure_exit_2(self, capsys):
        code = main(["solve", "--regime", "indep", "--ubar", "1", "--c", "2", "--n", "3"])
        assert code == 2

    def test_usage_error_exit_1(self, capsys):
        assert main(["solve", "--regime", "nonsense"]) == 1
        assert main(["solve"]) == 1
        assert main([]) == 1

    def test_het_solve(self, capsys):
        code, doc = run_json(capsys, "solve", "--regime", "het", "--boxes", "1:0.3,1:0.3")
        assert code == 0
        probs = doc["results"]["open_probs"]
        assert probs[0] == pytest.approx(49 / 149, abs=1e-9)
        assert doc["results"]["regret"] == pytest.approx(0.357, abs=1e-9)

    def test_interim_solve(self, capsys):
        code, doc = run_json(capsys, "solve", "--regime", "interim", "--ubar", "1", "--c", "0.3", "--n", "2")
        assert code == 0
        assert doc["results"]["m"] == 0
        assert doc["results"]["residual"] <= 1e-10

    def test_interim_golden_bytes(self, capsys):
        # n = 100, m = 5: the bisected m-scan reports what the linear scan did
        code, out = run(
            capsys, "solve", "--regime", "interim", "--ubar", "1", "--c", "0.05", "--n", "100", "--format", "json"
        )
        assert code == 0
        assert out == SOLVE_INTERIM_100

    def test_two_box_solve_defaults_n(self, capsys):
        code, doc = run_json(capsys, "solve", "--regime", "two-box", "--ubar", "1", "--c", "0.2")
        assert code == 0
        assert doc["results"]["regime"] == "large"
        assert doc["results"]["regret"] == pytest.approx(0.29140395, abs=1e-7)

    def test_csv_key_value_format(self, capsys):
        code, out = run(
            capsys, "solve", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        assert any(line.startswith("alpha_2,") for line in lines)
        assert "\r" not in out


class TestSweep:
    def test_n_sweep_monotone_alpha(self, capsys):
        code, out = run(
            capsys, "sweep", "--regime", "indep", "--sweep", "n",
            "--from", "1", "--to", "50", "--ubar", "1", "--c", "0.3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,alpha_n,regret"
        assert len(lines) == 51
        alphas = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.all(np.diff(alphas) < 0)

    def test_delta_sweep_total_nondecreasing(self, capsys):
        code, out = run(
            capsys, "sweep", "--regime", "het", "--sweep", "delta",
            "--from", "0", "--to", "0.5", "--steps", "30", "--ubar", "1", "--ctotal", "0.6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "delta,open_costlier,open_cheaper,total_search"
        totals = [float(line.split(",")[3]) for line in lines[1:]]
        assert np.all(np.diff(totals) >= -1e-12)

    def test_q_sweep_matches_library(self, capsys):
        code, out = run(
            capsys, "sweep", "--regime", "indep", "--sweep", "q",
            "--from", "0.05", "--to", "0.9", "--steps", "5", "--ubar", "1", "--c", "0.3", "--n", "4",
        )
        assert code == 0
        spec = HomogeneousSpec(1.0, 0.3, 4)
        for line in out.strip().split("\n")[1:]:
            q_s, n_s, s_s = line.split(",")
            expected = expected_search_count(float(q_s), HomogeneousSpec(1.0, 0.3, int(n_s)))
            assert s_s == f"{expected:.12g}"

    def test_byte_identical_runs(self, capsys, tmp_path):
        argv = [
            "sweep", "--regime", "indep", "--sweep", "n",
            "--from", "1", "--to", "30", "--ubar", "1", "--c", "0.3",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_ctotal_rejected(self, capsys):
        code = main(["sweep", "--regime", "het", "--sweep", "delta", "--from", "0", "--to", "0.5", "--ubar", "1"])
        assert code == 2

    def test_corr_n_sweep_reports_refusal(self, capsys):
        code, out = run(
            capsys, "sweep", "--regime", "corr", "--sweep", "n",
            "--from", "1", "--to", "9", "--ubar", "1", "--c", "0.25",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,alpha_n,regret,worst_case_P,optout"
        optout_by_n = {int(l.split(",")[0]): l.split(",")[4] for l in lines[1:]}
        assert optout_by_n[6] == "false"
        assert optout_by_n[7] == "true"

    @pytest.mark.parametrize("regime, solver", [("indep", "solve_indep"), ("corr", "solve_corr_commitment")])
    def test_n_sweep_solves_once(self, capsys, monkeypatch, regime, solver):
        calls = []
        real = getattr(cli, solver)
        monkeypatch.setattr(cli, solver, lambda spec: calls.append(spec.n) or real(spec))
        code, _ = run(
            capsys, "sweep", "--regime", regime, "--sweep", "n", "--from", "3", "--to", "40", "--ubar", "1", "--c", "0.1"
        )
        assert (code, calls) == (0, [40])

    @pytest.mark.parametrize("regime", ["indep", "corr"])
    def test_n_sweep_rows_equal_their_own_solves(self, capsys, monkeypatch, regime):
        # row k of the one solve at --to against the k-box solve, by
        # float.hex: ranges of 1, 7, 50 and 3 000 rows that start at 1, start
        # mid-range and cross optout_menu_size, on a log grid of c/ubar
        printed = []
        real = cli._emit_table_csv
        monkeypatch.setattr(cli, "_emit_table_csv", lambda columns, rows: printed.extend(rows) or real(columns, rows))
        for ratio in np.geomspace(1e-4, 0.9, 5):
            c = float(ratio)
            nbar = optout_menu_size(HomogeneousSpec(1.0, c, 1))
            solved = {}
            for length in (1, 7, 50, 3000):
                for first in sorted({1, max(nbar // 2, 1), max(nbar - length // 2, 1)}):
                    last = first + length - 1
                    printed.clear()
                    code, _ = run(capsys, "sweep", "--regime", regime, "--sweep", "n", "--from", str(first),
                                  "--to", str(last), "--ubar", "1", "--c", str(c))
                    assert code == 0 and [row[0] for row in printed] == list(range(first, last + 1))
                    for k, *values in printed:
                        if k not in solved:
                            spec = HomogeneousSpec(1.0, c, k)
                            if regime == "indep":
                                sol = solve_indep(spec)
                                solved[k] = (sol.alphas[-1], sol.regret)
                            else:
                                sol = solve_corr_commitment(spec)
                                solved[k] = (sol.policy.alphas[-1], sol.regret, sol.worst_case_P[-1], sol.opts_out)
                        expected = solved[k]
                        assert [float(v).hex() for v in values] == [float(v).hex() for v in expected], (c, k)

    @pytest.mark.parametrize("regime", ["indep", "corr"])
    @pytest.mark.parametrize(
        "first, last, message",
        [
            ("0", "5", "box count must be a positive integer, got 0"),
            ("-3", "2", "box count must be a positive integer, got -3"),
            ("9999999", "10000003", "homogeneous specs limited to 10000000 boxes, got 10000001"),
            ("10000002", "10000003", "homogeneous specs limited to 10000000 boxes, got 10000002"),
        ],
    )
    def test_n_sweep_refuses_its_first_invalid_row(self, capsys, regime, first, last, message):
        # the message of the row a row-by-row sweep reaches first
        argv = ["sweep", "--regime", regime, "--sweep", "n", "--from", first, "--to", last, "--ubar", "1", "--c", "0.3"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"robust-pandora: {message}\n")

    def test_ubar_sweep_crosses_regime_boundary(self, capsys):
        code, out = run(
            capsys, "sweep", "--regime", "two-box", "--sweep", "ubar",
            "--from", "0.5", "--to", "1.5", "--steps", "9", "--c", "0.2",
        )
        assert code == 0
        regimes = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert "small" in regimes and "large" in regimes
        assert regimes == sorted(regimes, reverse=True)  # small rows first, one switch


class TestVerify:
    def test_indep_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "4", "--tol", "1e-6"
        )
        assert code == 0
        assert doc["results"]["passed"] is True
        # the DM's exact best response is the solved value itself
        assert doc["results"]["dm_gap"] == 0.0

    def test_indep_golden_bytes(self, capsys):
        # n = 60: the DM side's backward induction leaves only rounding in the gaps
        code, out = run(
            capsys, "verify", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "60", "--tol", "1e-6",
            "--format", "json",
        )
        assert code == 0
        assert out == VERIFY_INDEP_60

    def test_two_box_reports_discrepancy_note(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--regime", "two-box", "--ubar", "1", "--c", "0.2", "--grid", "120"
        )
        assert code == 0
        assert doc["results"]["passed"] is True
        assert any("q = 1 - r - s" in note for note in doc["results"]["notes"])

    def test_two_box_small_regime_has_no_q_note(self, capsys):
        # the standalone q closed form only holds for ubar > 4c
        code, doc = run_json(capsys, "verify", "--regime", "two-box", "--ubar", "1", "--c", "0.3", "--grid", "50")
        assert code == 0
        notes = doc["results"]["notes"]
        assert len(notes) == 2
        assert notes[0].startswith("worst grid pair") and notes[1].startswith("dm candidates")

    def test_two_box_below_optout_boundary(self, capsys):
        code, doc = run_json(capsys, "verify", "--regime", "two-box", "--ubar", "1", "--c", "0.7", "--grid", "50")
        assert code == 0
        assert doc["results"]["passed"] is True

    def test_tampered_policy_file_exit_3(self, capsys, tmp_path):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        tampered = {"alpha": [float(a) for a in sol.alphas], "regret": sol.regret}
        tampered["alpha"][0] = 0.2
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(tampered))
        code, doc = run_json(
            capsys, "verify", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "3",
            "--policy-file", str(path), "--tol", "1e-6",
        )
        assert code == 3
        assert doc["results"]["passed"] is False
        # the solver's own policy claimed 0.04 below its worst case, whose
        # sharp peak lies inside the belief grid's first cell: a polish that
        # stopped at the grid point 5e-4 passed this claim
        spec = HomogeneousSpec(1.0, 2.256988330900035e-4, 4101)
        sol = solve_indep(spec)
        path.write_text(json.dumps({"alpha": [float(a) for a in sol.alphas], "regret": sol.regret - 0.04}))
        argv = ("verify", "--regime", "indep", "--ubar", "1", "--c", str(spec.c), "--n", "4101")
        code, doc = run_json(capsys, *argv, "--policy-file", str(path))
        assert code == 3
        assert doc["results"]["nature_gap"] == pytest.approx(0.04, abs=1e-12)

    def test_near_certain_optout_policy_file_exit_3(self, capsys, tmp_path):
        # the first box is opened with chance 1e-250, so the worst case is a
        # certain reward, 0.45 above the claim, though the regret's peak lies
        # near x = 1e-63: one JSON report, nothing on stderr
        path = tmp_path / "policy.json"
        path.write_text('{"alpha": [1, 1, 1, 1, 1e-250], "regret": 0.5}')
        argv = ["verify", "--regime", "indep", "--ubar", "1", "--c", "0.05", "--n", "5", "--policy-file", str(path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["passed"] is False
        assert results["nature_gap"] == pytest.approx(0.45, abs=1e-15)

    def test_flat_peak_far_from_the_start_policy_file_passes(self, capsys, tmp_path):
        # at c = 1e-100 the search starts at x = 1.0, a factor 3 right of the
        # peak, with 200 boxes: Newton steps alone would need about 220
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"alpha": [0.5] + [1] * 198 + [0.5], "regret": 0.5}))
        argv = ["verify", "--regime", "indep", "--ubar", "1", "--c", "1e-100", "--n", "200", "--policy-file", str(path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["passed"] is True and results["nature_gap"] == 0.0

    def test_honest_policy_file_passes(self, capsys, tmp_path):
        spec = HomogeneousSpec(1.0, 0.3, 3)
        sol = solve_indep(spec)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"alpha": [float(a) for a in sol.alphas], "regret": sol.regret}))
        code, doc = run_json(
            capsys, "verify", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "3",
            "--policy-file", str(path), "--tol", "1e-6",
        )
        assert code == 0

    def test_corr_modes_pass(self, capsys):
        for regime in ("corr", "corr-intra"):
            code, doc = run_json(
                capsys, "verify", "--regime", regime, "--ubar", "1", "--c", "0.25", "--n", "5", "--tol", "1e-9"
            )
            assert code == 0, regime
            assert doc["results"]["passed"] is True

    def test_corr_past_the_count_profile_cap(self, capsys):
        # the corr check is O(n): one box past the 5 000-box count-profile cap passes
        for regime in ("corr", "corr-intra"):
            code, doc = run_json(capsys, "verify", "--regime", regime, "--ubar", "1", "--c", "0.001", "--n", "5001")
            assert code == 0, regime
            assert doc["results"]["passed"] is True and doc["results"]["notes"] == []

    def test_indep_past_the_count_profile_cap(self, capsys):
        # the indep check is O(n) per evaluation of its unimodal regret: one
        # box past the 5 000-box count-profile cap passes
        code, doc = run_json(capsys, "verify", "--regime", "indep", "--ubar", "1", "--c", "0.001", "--n", "5001")
        assert code == 0
        assert doc["results"]["passed"] is True and doc["results"]["notes"] == []

    def test_csv_format_quotes_notes(self, capsys):
        import csv as csv_mod
        import io

        code, out = run(
            capsys, "verify", "--regime", "two-box", "--ubar", "1", "--c", "0.2",
            "--grid", "60", "--format", "csv",
        )
        assert code == 0
        rows = list(csv_mod.reader(io.StringIO(out)))
        assert rows[0] == ["field", "value"]
        fields = {row[0]: row[1] for row in rows[1:]}
        assert fields["passed"] == "true"
        assert "worst grid pair" in fields["notes_2"]


class TestSimulate:
    def test_deterministic_output_bytes(self, capsys, tmp_path):
        argv = [
            "simulate", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "5",
            "--truth", "iid:0.3", "--episodes", "50000", "--seed", "42",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_estimates_near_closed_form(self, capsys):
        code, doc = run_json(
            capsys, "simulate", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "5",
            "--truth", "iid:0.3", "--episodes", "200000", "--seed", "42",
        )
        assert code == 0
        sol = solve_indep(HomogeneousSpec(1.0, 0.3, 5))
        res = doc["results"]
        assert abs(res["mean_regret"] - sol.regret) <= 4 * res["se_regret"]

    def test_needle_truth(self, capsys):
        code, doc = run_json(
            capsys, "simulate", "--regime", "corr", "--ubar", "1", "--c", "0.25", "--n", "4",
            "--truth", "needle:0.6", "--episodes", "100000", "--seed", "7",
        )
        assert code == 0
        from robust_pandora.core import regret_needle
        from robust_pandora.corr import solve_corr_commitment

        spec = HomogeneousSpec(1.0, 0.25, 4)
        want = regret_needle(solve_corr_commitment(spec).policy, 0.6, spec)
        res = doc["results"]
        assert abs(res["mean_regret"] - want) <= 4 * res["se_regret"]

    def test_bad_truth_string(self, capsys):
        code = main([
            "simulate", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "2",
            "--truth", "uniform:0.3",
        ])
        assert code == 2


HOMOG = ("--ubar", "1", "--c", "0.25", "--n", "4")
SPEC_KEYS = {"regime", "ubar", "c", "n"}
SIM_KEYS = SPEC_KEYS | {"truth", "episodes", "seed"}


class TestParamsKeys:
    """The key set of the echoed params, per command and regime (structure only)."""

    @pytest.mark.parametrize(
        "argv,keys",
        [
            (("solve", "--regime", "indep", *HOMOG), SPEC_KEYS),
            (("solve", "--regime", "corr", *HOMOG), SPEC_KEYS),
            (("solve", "--regime", "corr-intra", *HOMOG), SPEC_KEYS),
            (("solve", "--regime", "interim", *HOMOG), SPEC_KEYS),
            (("solve", "--regime", "two-box", "--ubar", "1", "--c", "0.2"), SPEC_KEYS),
            (("solve", "--regime", "het", "--boxes", "1:0.2,1:0.4"), {"regime", "boxes"}),
            (("verify", "--regime", "indep", *HOMOG), SPEC_KEYS | {"tol"}),
            (("verify", "--regime", "corr", *HOMOG), SPEC_KEYS | {"tol"}),
            (("verify", "--regime", "corr-intra", *HOMOG), SPEC_KEYS | {"tol"}),
            (("verify", "--regime", "two-box", "--ubar", "1", "--c", "0.2", "--grid", "40"),
             {"regime", "ubar", "c", "grid", "tol"}),
            (("verify", "--regime", "indep", *HOMOG, "--policy-file", "POLICY"), SPEC_KEYS | {"tol"}),
            (("simulate", "--regime", "indep", *HOMOG, "--truth", "iid:0.3", "--episodes", "100"), SIM_KEYS),
            (("simulate", "--regime", "corr", *HOMOG, "--truth", "needle:0.5", "--episodes", "100"), SIM_KEYS),
            (("simulate", "--regime", "corr-intra", *HOMOG, "--truth", "iid:0.3", "--episodes", "100"), SIM_KEYS),
        ],
    )
    def test_params_keys(self, capsys, tmp_path, argv, keys):
        if "POLICY" in argv:
            sol = solve_indep(HomogeneousSpec(1.0, 0.25, 4))
            path = tmp_path / "policy.json"
            path.write_text(json.dumps({"alpha": [float(a) for a in sol.alphas], "regret": sol.regret}))
            argv = tuple(str(path) if a == "POLICY" else a for a in argv)
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert set(doc["params"]) == keys


SWEEP = ("sweep", "--from", "1", "--to", "3")
N_SWEEP = ("sweep", "--regime", "indep", "--sweep", "n", "--ubar", "1", "--c", "0.3")
VERIFY_INDEP = ("verify", "--regime", "indep", *HOMOG, "--policy-file")
DELTA = ("sweep", "--regime", "het", "--sweep", "delta", "--from", "0", "--to", "0.2", "--ubar", "1", "--ctotal", "0.6")


class TestBadInputs:
    """Invalid inputs exit 2 with one ``robust-pandora:`` line and no output."""

    @pytest.mark.parametrize(
        "argv",
        [
            (*SWEEP, "--regime", "indep", "--sweep", "n"),
            (*SWEEP, "--regime", "corr", "--sweep", "n", "--ubar", "1"),
            (*SWEEP, "--regime", "indep", "--sweep", "q", "--n", "3", "--c", "0.3"),
            (*SWEEP, "--regime", "het", "--sweep", "delta", "--ctotal", "0.6"),
            (*SWEEP, "--regime", "two-box", "--sweep", "ubar", "--ubar", "1"),
            (*SWEEP, "--regime", "indep", "--sweep", "n", "--ubar", "1", "--c", "0.3", "--steps", "-1"),
            (*VERIFY_INDEP, "MISSING"),
            (*VERIFY_INDEP, "MALFORMED"),
            (*VERIFY_INDEP, "KEYLESS"),
            (*VERIFY_INDEP, "NOT_AN_OBJECT"),
            ("verify", "--regime", "two-box", "--ubar", "1", "--c", "0.2", "--policy-file", "MISSING"),
            ("verify", "--regime", "corr", *HOMOG, "--grid", "0"),
            ("verify", "--regime", "corr-intra", *HOMOG, "--grid", "-5"),
            ("verify", "--regime", "corr", *HOMOG, "--grid", "-5", "--policy-file", "VALID"),
            ("verify", "--regime", "corr-intra", *HOMOG, "--grid", "0", "--policy-file", "VALID"),
            ("verify", "--regime", "indep", *HOMOG, "--tol", "nan"),
            ("verify", "--regime", "corr", *HOMOG, "--tol", "inf"),
            ("verify", "--regime", "corr", *HOMOG, "--tol", "-1"),
            ("verify", "--regime", "two-box", "--ubar", "1", "--c", "0.2", "--tol", "nan"),
            ("verify", "--regime", "indep", *HOMOG, "--tol", "-1", "--policy-file", "VALID"),
            ("solve", "--regime", "het", "--boxes", "1:0.2", "--n", "3"),
            ("solve", "--regime", "het", "--boxes", "1:0.2", "--ubar", "1"),
            ("solve", "--regime", "het", "--boxes", "1:0.2", "--c", "0.2"),
            ("solve", "--regime", "indep", *HOMOG, "--boxes", "1:0.2"),
            ("solve", "--regime", "two-box", "--ubar", "1", "--c", "0.2", "--boxes", "1:0.2"),
            (*SWEEP, "--regime", "indep", "--sweep", "n", "--ubar", "1", "--c", "0.3", "--n", "7"),
            (*SWEEP, "--regime", "corr", "--sweep", "n", "--ubar", "1", "--c", "0.3", "--ctotal", "3"),
            ("sweep", "--from", "0", "--to", "1", "--regime", "indep", "--sweep", "q", *HOMOG, "--ctotal", "3"),
            (*DELTA, "--c", "0.3"),
            (*DELTA, "--n", "2"),
            (*SWEEP, "--regime", "two-box", "--sweep", "ubar", "--c", "0.2", "--ubar", "1"),
            (*SWEEP, "--regime", "two-box", "--sweep", "ubar", "--c", "0.2", "--n", "2"),
            (*SWEEP, "--regime", "two-box", "--sweep", "ubar", "--c", "0.2", "--ctotal", "1"),
            ("verify", "--regime", "corr", *HOMOG, "--grid", "1001"),
            ("verify", "--regime", "corr-intra", *HOMOG, "--grid", "2001"),
            ("verify", "--regime", "corr", *HOMOG, "--grid", "1001", "--policy-file", "VALID"),
            ("verify", "--regime", "indep", *HOMOG, "--grid", "1000001"),
            ("verify", "--regime", "indep", *HOMOG, "--grid", "1000001", "--policy-file", "VALID"),
            ("verify", "--regime", "two-box", "--ubar", "1", "--c", "0.2", "--grid", "10001"),
            (*VERIFY_INDEP, "REGRET_TRUE"),
            (*VERIFY_INDEP, "REGRET_STRING"),
            (*VERIFY_INDEP, "REGRET_NAN"),
            (*VERIFY_INDEP, "REGRET_NAN_STRING"),
            (*VERIFY_INDEP, "REGRET_INFINITE"),
            (*VERIFY_INDEP, "ALPHA_BOOL"),
            (*VERIFY_INDEP, "ALPHA_STRING"),
            (*VERIFY_INDEP, "ALPHA_NAN"),
            (*VERIFY_INDEP, "ALPHA_NUMBER"),
            ("verify", "--regime", "corr", *HOMOG, "--policy-file", "REGRET_NAN"),
            ("solve", "--regime", "corr-intra", "--ubar", "1", "--c", "1e-9", "--n", "5"),
            ("verify", "--regime", "corr-intra", "--ubar", "1", "--c", "1e-9", "--n", "5"),
            ("solve", "--regime", "indep", "--ubar", "1", "--c", "0.3", "--n", "1000000000"),
            (*N_SWEEP, "--from", "nan", "--to", "3"),
            (*N_SWEEP, "--from", "inf", "--to", "3"),
            (*N_SWEEP, "--from", "1.7", "--to", "3.9"),
            (*N_SWEEP, "--from", "1", "--to", "10001"),
            (*DELTA, "--steps", "1000000000"),
            # a non-finite grid bound is refused before np.linspace can warn
            ("sweep", "--regime", "two-box", "--sweep", "ubar", "--from", "1", "--to", "inf", "--steps", "3", "--c", "0.2"),
            ("sweep", "--regime", "het", "--sweep", "delta", "--from", "0", "--to", "inf", "--steps", "3", "--ubar", "1", "--ctotal", "0.6"),
            ("sweep", "--regime", "indep", "--sweep", "q", "--from", "0", "--to", "inf", "--steps", "3", *HOMOG),
            ("sweep", "--from", "0", "--to", "1", "--regime", "indep", "--sweep", "q", *HOMOG[:4], "--n", "10000000"),
            (*SWEEP, "--regime", "two-box", "--sweep", "ubar", "--c", "0.2", "--steps", "10001"),
            ("verify", "--regime", "indep", *HOMOG[:4], "--n", "10000001"),
            ("verify", "--regime", "indep", *HOMOG[:4], "--n", "10000001", "--policy-file", "VALID"),
            ("verify", "--regime", "corr", *HOMOG[:4], "--n", "10000001"),
            ("solve", "--regime", "het"),
            ("solve", "--regime", "het", "--boxes", "1:0.2,1-0.4"),
            ("solve", "--regime", "indep", *HOMOG[:4]),
            (*SWEEP, "--regime", "het", "--sweep", "n", "--ubar", "1", "--c", "0.3"),
            ("sweep", "--from", "0", "--to", "1", "--regime", "corr", "--sweep", "q", *HOMOG),
            ("sweep", "--from", "0", "--to", "0.2", "--regime", "indep", "--sweep", "delta", "--ubar", "1", "--ctotal", "0.6"),
            (*SWEEP, "--regime", "corr", "--sweep", "ubar", "--c", "0.2"),
            ("sweep", "--from", "0", "--to", "1", "--regime", "indep", "--sweep", "q", *HOMOG[:4]),
            ("simulate", "--regime", "indep", *HOMOG, "--truth", "iid=0.3"),
            ("simulate", "--regime", "indep", *HOMOG, "--truth", "iid:0.3", "--seed", str(2**64)),
            ("verify", "--regime", "indep", *HOMOG, "--grid", "2001"),
            # empty sweeps check their costs too
            ("sweep", "--regime", "indep", "--sweep", "n", "--from", "6", "--to", "5", "--ubar", "1", "--c", "2"),
            ("sweep", "--regime", "corr", "--sweep", "n", "--from", "6", "--to", "5", "--ubar", "1", "--c", "-1"),
            ("sweep", "--regime", "two-box", "--sweep", "ubar", "--from", "1", "--to", "2", "--steps", "0", "--c", "-5"),
        ],
    )
    def test_exit_2_with_one_line(self, capsys, tmp_path, argv):
        files = {
            "MISSING": None,
            "MALFORMED": '{"alpha": [0.5,',
            "KEYLESS": '{"alpha": [0.5, 0.5, 0.5, 0.5]}',
            "NOT_AN_OBJECT": "[0.5, 0.5]",
            "VALID": '{"alpha": [1.0, 1.0, 1.0, 0.6], "regret": 0.55}',
            # JSON numbers only: float() used to coerce these, and NaN printed bare
            "REGRET_TRUE": '{"alpha": [1.0, 1.0, 1.0, 0.6], "regret": true}',
            "REGRET_STRING": '{"alpha": [1.0, 1.0, 1.0, 0.6], "regret": "0.2"}',
            "REGRET_NAN": '{"alpha": [1.0, 1.0, 1.0, 0.6], "regret": NaN}',
            "REGRET_NAN_STRING": '{"alpha": [1.0, 1.0, 1.0, 0.6], "regret": "nan"}',
            "REGRET_INFINITE": '{"alpha": [1.0, 1.0, 1.0, 0.6], "regret": 1e999}',
            "ALPHA_BOOL": '{"alpha": [true, 1.0, 1.0, 0.6], "regret": 0.55}',
            "ALPHA_STRING": '{"alpha": [1.0, "1", 1.0, 0.6], "regret": 0.55}',
            "ALPHA_NAN": '{"alpha": [1.0, 1.0, NaN, 0.6], "regret": 0.55}',
            "ALPHA_NUMBER": '{"alpha": 0.5, "regret": 0.55}',
        }
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name.lower()}.json"
            if text is not None:
                paths[name].write_text(text)
        argv = [str(paths[a]) if a in paths else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("robust-pandora: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "bounds,message",
        [(("1", "inf"), "--to must be a finite number, got inf"), (("nan", "2"), "--from must be a finite number, got nan")],
    )
    def test_non_finite_grid_bound_message(self, capsys, bounds, message):
        argv = ["sweep", "--regime", "two-box", "--sweep", "ubar", "--from", bounds[0], "--to", bounds[1], "--steps", "3"]
        assert main([*argv, "--c", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"robust-pandora: {message}\n"

    def test_cost_split_message(self, capsys):
        argv = ["sweep", "--regime", "het", "--sweep", "delta", "--from", "0", "--to", "0.7", "--steps", "5"]
        assert main([*argv, "--ubar", "1", "--ctotal", "0.6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "robust-pandora: cost split 0.7 leaves a cost outside (0, 1.0)\n"


# extreme and ordinary-but-large reward scales: each run exits 0 with a
# report, or 2 with one line naming the problem; the verdicts are the
# rescaled ones of ubar = 1 (every rule is held in units of ubar)
MAGNITUDES = {
    "two-box-ubar-past-range": ("solve --regime two-box --ubar 1e200 --c 1e199", 2, "high reward must lie in"),
    "two-box-ubar-below-range": ("solve --regime two-box --ubar 1e-308 --c 1e-310", 2, "high reward must lie in"),
    "two-box-v-hat-rounds": ("solve --regime two-box --ubar 1 --c 1e-40", 2, "two-box closed form degenerates"),
    "corr-ubar-past-range": ("verify --regime corr --ubar 1e308 --c 1e307 --n 5", 2, "high reward must lie in"),
    "indep-ubar-past-range": ("verify --regime indep --ubar 1e308 --c 1e307 --n 5", 2, "high reward must lie in"),
    "simulate-ubar-past-range": (
        "simulate --regime indep --ubar 1e200 --c 1e199 --n 5 --truth iid:0.3 --episodes 1000",
        2,
        "high reward must lie in",
    ),
    "het-pseudo-index-overflow": ("solve --regime het --boxes 1:1e-320,1:0.5", 2, "pseudo-indices overflow"),
    "corr-optout-size-past-float-range": ("solve --regime corr --ubar 1 --c 1e-310 --n 5", 0, None),
    "corr-verify-optout-size-past-float-range": ("verify --regime corr --ubar 1 --c 1e-310 --n 5", 0, None),
    "interim-ubar-1e8": ("solve --regime interim --ubar 1e8 --c 2e7 --n 8", 0, None),
    "corr-intra-ubar-1e7": ("verify --regime corr-intra --ubar 1e7 --c 5e5 --n 8", 0, None),
    "two-box-ubar-1e8": ("verify --regime two-box --ubar 1e8 --c 2e7 --grid 200", 0, None),
    "indep-ubar-1e10": ("verify --regime indep --ubar 1e10 --c 5e8 --n 8", 0, None),
    "corr-ubar-1e10": ("verify --regime corr --ubar 1e10 --c 5e8 --n 8", 0, None),
    "indep-top-of-range": ("verify --regime indep --ubar 1e90 --c 1e89 --n 5", 0, None),
    "simulate-top-of-range": (
        "simulate --regime indep --ubar 1e90 --c 1e89 --n 5 --truth iid:0.3 --episodes 1000",
        0,
        None,
    ),
}


@pytest.mark.parametrize("command, status, message", MAGNITUDES.values(), ids=MAGNITUDES.keys())
def test_reward_magnitudes_pass_or_exit_2_with_one_line(capsys, command, status, message):
    assert main(command.split()) == status
    captured = capsys.readouterr()
    if status:
        assert captured.out == ""
        assert captured.err.startswith(f"robust-pandora: {message}") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["results"].get("passed", True) is True
        assert all(np.isfinite(v) for v in doc["results"].values() if isinstance(v, float))
