"""Byte-identity guard: `ifrsim sim` on every sample scenario, and a fixed
set of `markov`, `compare` and `formulas` invocations, must reproduce the
CSVs checked in under tests/golden/.

The CSVs were generated by running, from the repository root,

    ifrsim sim samples/workload.asm samples/<name>.flt --out tests/golden/<name>.csv

and, for each `<name>: <argv>` pair in `CLI_CASES` below,

    ifrsim <argv> --out tests/golden/cli/<name>.csv

A change to the simulator that moves any simulated number (cycle counts,
events, stress spans, golden verdict) shows up here as a byte difference,
and so does a change to the bracket, sweep, Monte Carlo or formula rows.
"""
from pathlib import Path

import pytest

from ifrsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(path.stem for path in (ROOT / "samples").glob("*.flt"))
EXIT_CODES = {"controller_stuck": 4}  # 0 for the others
CLI_CASES = {
    "markov_builtin_point": "markov --builtin simplex --lam 1e-6",
    "markov_builtin_sweep": "markov --builtin ifr-pipeline --sweep 1e-6 1e-2 4 --mc 3000 --seed 3",
    "markov_builtin_tmr_mc": "markov --builtin tmr --sweep 3e-5 3e-3 3 --mc 100000 --seed 4",
    "markov_model_point": "markov --model samples/twostate.model",
    "markov_model_sweep": "markov --model samples/twostate.model "
                          "--sweep-const lambda 1e-6 1e-3 3 --mc 1000 --seed 2",
    "compare": "compare --sweep 1e-6 1e-2 7",
    "formulas": "formulas --tmr --standby",
    "formulas_tmr": "formulas --tmr -R 0..1:0.25",
    "formulas_standby": "formulas --standby -R 0..1:0.25",
    "formulas_ifr": "formulas --ifr --rb 0.9 -s 0..3",
    "formulas_ifr_pipeline": "formulas --ifr-pipeline --rp 0.5..1:0.1 --coverage 0.9 "
                             "--rsw 0.99 --rctrl 0.999",
    "formulas_availability": "formulas --availability --mttf 999 --mttr 1",
    "formulas_exp": "formulas --exp --rate 1e-3 --hours 1000",
}


def test_every_sample_scenario_has_a_golden_csv():
    assert len(SCENARIOS) == 7
    assert sorted(path.stem for path in GOLDEN.glob("*.csv")) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_sim_csv_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the CSV records the paths as given
    out = tmp_path / f"{name}.csv"
    code = main(["sim", "samples/workload.asm", f"samples/{name}.flt", "--out", str(out)])
    assert code == EXIT_CODES.get(name, 0)
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_every_cli_case_has_a_golden_csv():
    assert sorted(path.stem for path in (GOLDEN / "cli").glob("*.csv")) == sorted(CLI_CASES)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_csv_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # `markov --model` records the path as given
    out = tmp_path / f"{name}.csv"
    assert main(CLI_CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "cli" / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("argv, golden", [
    ("sim samples/workload.asm samples/decode_stuckat.flt", "decode_stuckat.csv"),
    (CLI_CASES["markov_model_point"], "cli/markov_model_point.csv"),
], ids=["sim", "markov"])
def test_csv_goes_to_stdout_without_out(argv, golden, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()
