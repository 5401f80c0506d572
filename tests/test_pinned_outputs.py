"""Pinned by SHA-256: the stdout of the README commands, a q-sweep, one command per other CLI path
and the demos, and the raw engine outputs; and the values the README's Quick start block states."""

import hashlib
import json
import runpy
import shlex
from pathlib import Path

import numpy as np
import pytest

from robust_pandora import (
    CountProfile,
    HeteroPVector,
    HeterogeneousSpec,
    HomogeneousSpec,
    IidBinary,
    NeedleP,
    regret_het,
    solve_corr_commitment,
    solve_corr_intrapersonal,
    solve_het,
    solve_indep,
    solve_interim,
)
from robust_pandora.cli import main
from robust_pandora.simulate import _chunks, _heterogeneous_play, _homogeneous_play

ROOT = Path(__file__).resolve().parents[1]

README_STDOUT = {
    "solve --regime indep --ubar 1 --c 0.3 --n 3 --format json": "1da7c4a25be5c3d427fd60a7ff31929b32e291bffe97be3ce01154a3dc274f30",
    "solve --regime het --boxes 1:0.2,1:0.4": "1da2d79ab24a1fc707ffe9a1ab6e2e6413194d49e654304388d10044dfebf0fc",
    "sweep --regime indep --sweep n --from 1 --to 50 --ubar 1 --c 0.3": "45596402470eeea2d861a573d44e2e7f0596e675e1930a80a7b6826e062eb14c",
    "sweep --regime het --sweep delta --from 0 --to 0.5 --steps 30 --ubar 1 --ctotal 0.6": "475118c1adef4f93687f28cd52cff26ef43d9361cd70f264c510e6155dd577e3",
    "verify --regime indep --ubar 1 --c 0.3 --n 4 --tol 1e-6": "fa663a6a3721527bddc09628dbca92cb515846ab86ce44121f440a76b8addc19",
    "verify --regime two-box --ubar 1 --c 0.2 --grid 200": "fd4e834f4ace90f6a919e7ebbb949a1a841d6e31616cfe990af6d4898eeb877a",
    "simulate --regime indep --ubar 1 --c 0.3 --n 5 --truth iid:0.3 --episodes 1000000 --seed 42": "990760b391ba5baf5bbff44b5ec163ed8d56f3e781e5d8b3e90034796710d043",
}

# the CLI path that reads the search-count profile, which no README command runs
Q_SWEEP = "sweep --regime indep --sweep q --from 0.05 --to 0.9 --steps 5 --ubar 1 --c 0.3 --n 4"
Q_SWEEP_SHA256 = "bfbc58fc08066b9b7dce82f00a4b1df570ae64a5832150a49f2c67d5d5c7ac7c"

# the other CLI paths, one command each: every regime of solve, verify and
# simulate that no README command runs, the corr and two-box sweeps, and CSV
CLI_STDOUT = {
    "solve --regime corr --ubar 1 --c 0.1 --n 6": "ec96c7368145ce0c21ef1d99d857ce63c9ccb02dafeadedd9bdadd9a8981d4d3",
    "solve --regime corr-intra --ubar 1 --c 0.1 --n 6": "21697129d3c3f32e102c27a99d23b36492c98660aa554a59a94cb948967f4fb6",
    "solve --regime two-box --ubar 1 --c 0.3": "02fbde8571c7e5bd6be7d0489337c0b63979f02cd66ddc173b3f0e4edf6dfe47",
    "solve --regime two-box --ubar 1 --c 0.2": "2abfe19e6dfbf3111534196c9af3bcb30863cd0bddce5021c2b52f963a1a68a6",
    "sweep --regime corr --sweep n --from 1 --to 12 --ubar 1 --c 0.25": "3f0998a880cd7bd6a84ce32c728831eabad76cb5cb843aa642675e72fe725b37",
    "sweep --regime two-box --sweep ubar --from 0.5 --to 1.5 --steps 9 --c 0.2": "105fa344b4b396f8f57cb21f44167aeb90739c558e98d86023fae2cb7870d155",
    "verify --regime corr --ubar 1 --c 0.1 --n 6": "25f25e0a01bcadb0eb651e82afcb3d98e6285d565714c1ce604d64fb26400255",
    "verify --regime corr-intra --ubar 1 --c 0.1 --n 6": "77df5f47b3a7866a9c6ccaaf8d0b16811f9c000fcf120e18bdcc92c63f256dff",
    "verify --regime two-box --ubar 1 --c 0.3 --grid 200": "17ed2f90da91951ecb8a6e32083135aaea204fedce1f80132ca616f523043cf4",
    # ubar/c = 8, the widest passing band, several blocks; and the quit
    # regime, whose worst pair comes from a row of ties
    "verify --regime two-box --ubar 1 --c 0.125 --grid 2001": "b02ee3dbaa98c0f14a2d060735a4e828b20fa9f46fdc8d432257a5b5c1bd92ba",
    "verify --regime two-box --ubar 1 --c 0.7 --grid 2001": "d8e29e1c35f66978c337bc8da6b0aee71fae347fe838229205e2294700ed108b",
    "simulate --regime corr --ubar 1 --c 0.25 --n 4 --truth needle:0.6 --episodes 100000 --seed 7": "e9531c1ae98f19b155957e887544b5e3d5c40a87ba5556ba8ed2aeec6fae3250",
    "simulate --regime corr-intra --ubar 1 --c 0.1 --n 6 --truth iid:0.2 --episodes 100000 --seed 7": "926bb30d3da5a5e8ecdbad0ddba6ad5eb81059c98851432fb0ee3ec2729841b6",
    # one episode: standard errors of 0.0
    "simulate --regime indep --ubar 1 --c 0.3 --n 3 --truth iid:0.3 --episodes 1 --seed 0": "8266371d46ea9eba548a53ce9c1b20eb0a704a114700907fa459ab36741b9be5",
    "solve --regime corr --ubar 1 --c 0.1 --n 6 --format csv": "7b88dde8694340800cf1964fc823572a3b90b2f6af8ba4c26bb260e7ed0364b1",
    "verify --regime two-box --ubar 1 --c 0.3 --grid 200 --format csv": "8e47cb30b22dc38bcd1f17636a3216109341eabfcd25f892ab3085ebdd575aad",
    "simulate --regime corr --ubar 1 --c 0.25 --n 4 --truth needle:0.6 --episodes 100000 --seed 7 --format csv": "f388cec941a5d67eefb4fd25e2359549b1f844a50659931444c23dd78dd71cb1",
}

# verify --policy-file, the claim file written as claim.json (the note prints
# its basename): (regime, c, n, alpha[0] tampered to 0.2, exit code, digest)
POLICY_FILE_STDOUT = [
    ("indep", 0.3, 4, False, 0, "cee01a9486c7857cbacd102de75f7a7aba4c69a2262dbc5fa4ad1e294568dc70"),
    ("indep", 0.3, 4, True, 3, "8abaca9b089b2ed2988d1438e3969cc9b8b7fb12fa68f0d653fe535dcbde7608"),
    ("corr", 0.1, 6, False, 0, "90228272e1cc51a933398c936ebfe34c3387f7393bf88d9d6a5cd8444f87485f"),
    ("corr-intra", 0.1, 6, False, 0, "f233c159ba8558dbf6b2716b53f0adecc8ea2f91f43b8b3128c94563484cd17b"),
]

DEMO_STDOUT = {
    "01_choice_overload.py": "a4e2c86fce7f0683ba920437aaf03940e7ff8aac2e91856482e670de21f41edf",
    "02_hidden_treasure.py": "98e03633c7123208824481fca4a20c08274114c1379c7990a0aa8af5b7f8b6b1",
    "03_steering_with_costs.py": "c34a197fb622ae40f58e9f66ee1ce7da356770036272db594f7b0a7822669e8a",
    "04_fear_of_missing_out.py": "495fa3b6cf34d3dcfd32d488b4a7694ce1206f528e6a6fcf1d426fd185a31c38",
    "05_randomized_thresholds.py": "26834e55eb1878eefe48e525950e497801c3d88b1d396087ddc05c4bf04c53b8",
    "06_reproducible_simulation.py": "9ca05d7592bf75fff64dd740ab666bbe392e1e19c7e2d94ed5da227c92d7e974",
}

# every solve_het array, regret_het at four beliefs and the raw simulator
# chunks (70 000 episodes, two chunks) of the specs in _engine_arrays
ENGINE_SHA256 = "9d7e1eeb8197ced5da3793dcdc039ad474431993247e276c414f826f2912167d"
# the solve_interim reports of _interim_arrays, at sizes the oracles do not reach
INTERIM_SHA256 = "f87bce90ac7856c3c6e66dbabd43010e8bfd4a26537781748b0eda4dc283ed5d"


def _engine_arrays():
    rng = np.random.default_rng(15)
    for n in (12, 13, 14):
        # n = 13 ties net rewards within menus
        u = rng.choice([1.0, 1.5], n) if n == 13 else rng.uniform(0.5, 2.0, n)
        c = u * (rng.choice([0.2, 0.4], n) if n == 13 else rng.uniform(0.1, 0.9, n))
        spec = HeterogeneousSpec(tuple(zip(u.tolist(), c.tolist())))
        sol = solve_het(spec)
        yield from (sol.policy.weights, sol.policy.optout, sol.regrets, sol.gammas)
        for p in (spec.p_hats, rng.random(n).tolist(), [0.0] * n, [1.0] * n):
            yield np.float64(regret_het(sol.policy, p, spec))
        truth = HeteroPVector(tuple(rng.random(n).tolist()))
        for chunk in _chunks(_heterogeneous_play(sol.policy, truth, spec), n, 70_000, spec.n):
            yield from chunk
    spec = HomogeneousSpec(1.0, 0.3, 7)
    policy = solve_indep(spec).policy
    for truth in (IidBinary(0.3), NeedleP(0.6), CountProfile(rng.dirichlet(np.ones(8)))):
        for chunk in _chunks(_homogeneous_play(policy, truth, spec), 7, 70_000, spec.n):
            yield from chunk


def _interim_arrays():
    for n in (1000, 3000, 5000):
        for c in (1e-3, 0.05, 0.3):
            rep = solve_interim(HomogeneousSpec(1.0, c, n))
            yield np.array([rep.policy.m, rep.policy.alpha, rep.regret, rep.worst_p_high, rep.residual])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _readme_commands():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [" ".join(shlex.split(line)[1:]) for line in lines if line.startswith("robust-pandora ")]


def test_readme_commands_are_pinned():
    assert _readme_commands() == list(README_STDOUT)


@pytest.mark.parametrize("command", README_STDOUT)
def test_readme_command_stdout(capsys, command):
    assert main(shlex.split(command)) == 0
    assert _sha256(capsys.readouterr().out) == README_STDOUT[command]


def test_readme_quick_start():
    # the Python block under "Quick start" runs and gives the values its comments state
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    sol, corr = names["sol"], names["corr"]
    assert np.round(sol.alphas, 3).tolist() == [0.7, 0.658, 0.610]
    assert round(sol.regret, 4) == 0.4599
    assert sol.worst_case_p == pytest.approx(0.3, abs=1e-15)
    assert corr.opts_out is True


def test_q_sweep_stdout(capsys):
    assert main(shlex.split(Q_SWEEP)) == 0
    assert _sha256(capsys.readouterr().out) == Q_SWEEP_SHA256


@pytest.mark.parametrize("command", CLI_STDOUT)
def test_cli_command_stdout(capsys, command):
    assert main(shlex.split(command)) == 0
    assert _sha256(capsys.readouterr().out) == CLI_STDOUT[command]


@pytest.mark.parametrize("regime,c,n,tampered,code,digest", POLICY_FILE_STDOUT)
def test_policy_file_stdout(capsys, tmp_path, regime, c, n, tampered, code, digest):
    solver = {"indep": solve_indep, "corr": solve_corr_commitment, "corr-intra": solve_corr_intrapersonal}[regime]
    sol = solver(HomogeneousSpec(1.0, c, n))
    claim = {"alpha": [float(a) for a in sol.policy.alphas], "regret": sol.regret}
    if tampered:
        claim["alpha"][0] = 0.2
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim))
    argv = ["verify", "--regime", regime, "--ubar", "1", "--c", str(c), "--n", str(n), "--policy-file", str(path)]
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("demo", DEMO_STDOUT)
def test_demo_stdout(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert _sha256(capsys.readouterr().out) == DEMO_STDOUT[demo]


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def test_engine_outputs():
    assert _digest(_engine_arrays()) == ENGINE_SHA256


def test_interim_outputs():
    assert _digest(_interim_arrays()) == INTERIM_SHA256
