"""Byte-identity guard: `ifrsim sim` on every sample scenario must reproduce
the CSVs checked in under tests/golden/.

The CSVs were generated by running, from the repository root,

    ifrsim sim samples/workload.asm samples/<name>.flt --out tests/golden/<name>.csv

A change to the simulator that moves any simulated number (cycle counts,
events, stress spans, golden verdict) shows up here as a byte difference.
"""
from pathlib import Path

import pytest

from ifrsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(path.stem for path in (ROOT / "samples").glob("*.flt"))
EXIT_CODES = {"controller_stuck": 4}  # 0 for the others


def test_every_sample_scenario_has_a_golden_csv():
    assert len(SCENARIOS) == 6
    assert sorted(path.stem for path in GOLDEN.glob("*.csv")) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_sim_csv_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the CSV records the paths as given
    out = tmp_path / f"{name}.csv"
    code = main(["sim", "samples/workload.asm", f"samples/{name}.flt", "--out", str(out)])
    assert code == EXIT_CODES.get(name, 0)
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
