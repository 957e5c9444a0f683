import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ifrsim import cli, markov
from ifrsim.cli import main
from ifrsim.report import fmt_float

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
WORKLOAD = str(SAMPLES / "workload.asm")


def parse_csv(text: str):
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return meta, columns, rows


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def test_sim_fault_free(tmp_path):
    code, text = run_cli(["sim", WORKLOAD, str(SAMPLES / "faultfree.flt")], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0
    assert meta["outcome"] == "completed"
    assert meta["golden_match"] == "true"
    assert rows == []


def test_sim_table_style_decode_stuckat(tmp_path):
    code, text = run_cli(["sim", WORKLOAD, str(SAMPLES / "decode_stuckat.flt")], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0
    assert meta["golden_match"] == "true"
    assert len(rows) == 1
    assert rows[0]["class"] == "permanent" and rows[0]["stage"] == "decode"
    assert float(rows[0]["recovery_us"]) < 2.0


def test_sim_controller_fault_exits_dead(tmp_path):
    code, text = run_cli(["sim", WORKLOAD, str(SAMPLES / "controller_stuck.flt")], tmp_path)
    meta, _, _ = parse_csv(text)
    assert code == 4
    assert meta["outcome"] == "dead"


def test_sim_parity_blind_corruption_exits_mismatch(tmp_path):
    program = tmp_path / "tiny.asm"
    program.write_text("LDI r1, 4\nNOP\nNOP\nHALT\n")
    scenario = tmp_path / "blind.flt"
    scenario.write_text("@2 T:1 execute.main flip 0\n@2 T:1 execute.main flip 1\n")
    code, text = run_cli(["sim", str(program), str(scenario)], tmp_path)
    meta, _, _ = parse_csv(text)
    assert code == 5
    assert meta["golden_match"] == "false"


def test_sim_cycle_budget_exhausted_exits_6(tmp_path):
    code, text = run_cli(["sim", WORKLOAD, str(SAMPLES / "faultfree.flt"),
                          "--max-cycles", "5"], tmp_path)
    meta, _, _ = parse_csv(text)
    assert code == 6
    assert (meta["outcome"], meta["total_cycles"], meta["golden_match"]) == \
        ("exhausted", "5", "na")


def test_sim_bad_program_is_parse_error(tmp_path):
    program = tmp_path / "bad.asm"
    program.write_text("FROB r1\n")
    code = main(["sim", str(program), str(SAMPLES / "faultfree.flt")])
    assert code == 2


@pytest.mark.parametrize("source", [",", " , ", "NOP\n,\nHALT"])
def test_sim_program_line_of_only_commas_is_a_parse_error(source, tmp_path, capsys):
    program = tmp_path / "commas.asm"
    program.write_text(source + "\n")
    assert main(["sim", str(program), str(SAMPLES / "faultfree.flt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a mnemonic" in err and err.count("\n") == 1


def test_sim_config_file_overrides(tmp_path):
    config = tmp_path / "core.cfg"
    config.write_text("permanent_threshold=20\nflush_cycles=5\n")
    code, text = run_cli(["sim", WORKLOAD, str(SAMPLES / "decode_stuckat.flt"),
                          "--config", str(config)], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0
    assert meta["permanent_threshold"] == "20"
    assert int(rows[0]["recovery_cycles"]) == (20 - 1) + 5 + 64 + 3


def test_sim_transient_row_has_no_swap_or_recovery(tmp_path):
    scenario = tmp_path / "flip.flt"
    scenario.write_text("@12 T:1 execute.main flip 4\n")
    code, text = run_cli(["sim", WORKLOAD, str(scenario)], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0 and meta["golden_match"] == "true"
    assert len(rows) == 1
    assert (rows[0]["fault_id"], rows[0]["class"], rows[0]["stage"]) == \
        ("0", "transient", "execute")
    assert [rows[0][key] for key in ("swap_complete_cycle", "recovery_cycles",
                                     "recovery_us")] == [""] * 3



def _notes(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]


def test_sim_notes_a_flip_that_was_classified_permanent(tmp_path, capsys):
    # The flip's errors last the permanent threshold, so decode swaps to its
    # spare as for a stuck-at, and `sim` says so once. The warning filter of
    # the suite shows that no warning is issued too.
    scenario = tmp_path / "flip.flt"
    scenario.write_text("@5 T:20 decode.main flip 3\n")
    code, text = run_cli(["sim", WORKLOAD, str(scenario)], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0
    assert (meta["outcome"], meta["total_cycles"], meta["golden_match"]) == (
        "completed", "214", "true")
    assert rows == [{"fault_id": "0", "class": "permanent", "stage": "decode",
                     "detect_cycle": "5", "swap_complete_cycle": "90", "recovery_cycles": "85",
                     "recovery_us": "8.50000000e-01"}]
    assert _notes(capsys) == ["note: fault 0, a flip, was classified permanent: its errors "
                              "lasted the permanent threshold (16 cycles)"]


def test_sim_notes_no_flip_that_never_reached_a_selected_copy(tmp_path, capsys):
    # The same flip on decode's unpowered spare raises no error and gets no
    # note, though it is as long.
    scenario = tmp_path / "flip.flt"
    scenario.write_text("@5 T:20 decode.spare flip 3\n")
    code, text = run_cli(["sim", WORKLOAD, str(scenario)], tmp_path)
    meta, _, rows = parse_csv(text)
    assert code == 0
    assert (meta["outcome"], meta["total_cycles"], rows) == ("completed", "129", [])
    assert _notes(capsys) == []

@pytest.mark.parametrize("name", ["work\nload.asm", "work\rload.asm"])
def test_line_break_in_a_metadata_value_is_a_usage_error(name, tmp_path, capsys):
    # The program path is written as metadata; a line break in it would
    # start a bare line that a reader skipping `#` lines takes as the header.
    program = tmp_path / name
    program.write_bytes(Path(WORKLOAD).read_bytes())
    out = tmp_path / "x.csv"
    code = main(["sim", str(program), str(SAMPLES / "decode_stuckat.flt"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "metadata program=" in err
    assert not out.exists()


@pytest.mark.parametrize("what", ["program", "scenario", "config", "model"])
def test_input_file_that_is_not_utf8_is_a_usage_error(what, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff" + (SAMPLES / "twostate.model").read_bytes())
    scenario = str(SAMPLES / "faultfree.flt")
    args = {"program": ["sim", str(bad), scenario],
            "scenario": ["sim", WORKLOAD, str(bad)],
            "config": ["sim", WORKLOAD, scenario, "--config", str(bad)],
            "model": ["markov", "--model", str(bad)]}[what]
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what}: ") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def test_formulas_tmr_standby_grid(tmp_path):
    code, text = run_cli(["formulas", "--tmr", "--standby", "-R", "0..1:0.1"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    assert len(rows) == 11
    for row in rows:
        assert float(row["r_standby"]) >= float(row["r_tmr"]) - 1e-15


def test_formulas_ifr_spares(tmp_path):
    code, text = run_cli(["formulas", "--ifr", "--rb", "0.9", "-s", "0..3"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    values = [float(r["r_ifr"]) for r in rows]
    assert values == pytest.approx([0.9, 0.99, 0.999, 0.9999], abs=1e-9)


def test_formulas_availability(tmp_path):
    code, text = run_cli(["formulas", "--availability", "--mttf", "999", "--mttr", "1"],
                         tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    assert float(rows[0]["availability"]) == pytest.approx(0.999, abs=1e-12)


def test_formulas_ifr_pipeline(tmp_path):
    code, text = run_cli(["formulas", "--ifr-pipeline", "--rp", "0.9",
                          "--coverage", "1", "--rsw", "0.99", "--rctrl", "0.99"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    assert float(rows[0]["r_ifr_pipeline"]) == pytest.approx(0.970299, abs=1e-9)


def test_formulas_exponential_bridge(tmp_path):
    code, text = run_cli(["formulas", "--exp", "--rate", "1e-3", "--hours", "1000"],
                         tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    assert float(rows[0]["reliability"]) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_formulas_requires_one_group(tmp_path):
    assert main(["formulas", "--tmr", "--ifr", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("args, flag", [
    (["--tmr", "--rb", "5"], "--rb"),
    (["--tmr", "--rb", "5", "--mttf", "-3", "-s", "9..1"], "--rb"),
    (["--ifr", "-R", "0..1"], "--component-r"),
    (["--exp", "--coverage", "0.5"], "--coverage"),
    (["--availability", "--hours", "5"], "--hours"),
    # Given at its default value, a flag of another group is still refused.
    (["--ifr-pipeline", "--rate", "1e-6"], "--rate"),
    (["--standby", "--mttr", "1"], "--mttr"),
])
def test_formulas_refuses_flags_of_another_group(args, flag, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["formulas"] + args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} applies to ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("spec, integer, values", [
    ("0..1:0.25", False, [0.0, 0.25, 0.5, 0.75, 1.0]),
    ("0.5..1:0.1", False, [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    ("-1..-0.5:0.25", False, [-1.0, -0.75, -0.5]),
    ("-2..-1:0.5", False, [-2.0, -1.5, -1.0]),
    ("-0.3..0:0.1", False, [-0.3, -0.2, -0.1, 0.0]),
    ("-3..-1", True, [-3, -2, -1]),
    ("-1..-1", True, [-1]),
    ("0..3", True, [0, 1, 2, 3]),
    # An integer range ends at hi, however large hi is.
    ("0..2999999999999:1000000000000", True, [0, 10**12, 2 * 10**12]),
])
def test_a_range_ends_at_its_last_point(spec, integer, values):
    points = cli._parse_range(spec, integer=integer)
    assert points == (values if integer else pytest.approx(values, rel=1e-12))


@pytest.mark.parametrize("args, good_points, errors", [
    (["--tmr", "--standby", "-R", "0..2:0.5"],
     ["0.00000000e+00", "5.00000000e-01", "1.00000000e+00"],
     ["R=1.5: R=1.5 outside [0, 1]", "R=2.0: R=2.0 outside [0, 1]"]),
    (["--ifr", "--rb", "2", "-s", "0..1"], [],
     ["s=0: Rb=2.0 outside [0, 1]", "s=1: Rb=2.0 outside [0, 1]"]),
    # A negative range keeps its last point, as a single negative value does.
    (["--ifr", "-s=-1..-1"], [], ["s=-1: spare count must be a non-negative integer"]),
    (["--ifr", "-s=-3..-2"], [], ["s=-3: spare count must be a non-negative integer",
                                  "s=-2: spare count must be a non-negative integer"]),
    (["--ifr-pipeline", "--rp", "0.5..1.5:0.5"], ["5.00000000e-01", "1.00000000e+00"],
     ["Rp=1.5: Rp=1.5 outside [0, 1]"]),
    (["--availability", "--mttf", "-1"], [], ["mttf must be positive"]),
    (["--exp", "--rate", "0"], [], ["rate must be positive and finite"]),
])
def test_formulas_bad_point_is_reported_and_good_rows_kept(args, good_points, errors,
                                                           tmp_path, capsys):
    # A point a formula refuses costs its row and one stderr line (labelled
    # with the grid point, bare for the single-row groups), then exit 2.
    code, text = run_cli(["formulas"] + args, tmp_path)
    _, columns, rows = parse_csv(text)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == errors
    assert [row[columns[0]] for row in rows] == good_points


# ---------------------------------------------------------------------------
# markov
# ---------------------------------------------------------------------------

def test_markov_builtin_single_point(tmp_path):
    code, text = run_cli(["markov", "--builtin", "simplex", "--lam", "1e-6", "--T", "1000"],
                         tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    lower, upper = float(rows[0]["lower"]), float(rows[0]["upper"])
    # The CSV renders 9 significant digits, so allow one digit of slack.
    assert lower * (1 - 1e-8) <= 1 - math.exp(-1e-3) <= upper * (1 + 1e-8)


def test_markov_tmr_sweep_shape(tmp_path):
    code, text = run_cli(["markov", "--builtin", "tmr", "--sweep", "1e-6", "1e-2", "25",
                          "--T", "1000"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    assert len(rows) == 25
    uppers = [float(r["upper"]) for r in rows]
    assert all(b >= a - 1e-15 for a, b in zip(uppers, uppers[1:]))
    assert uppers[0] < 1e-4 and uppers[-1] > 0.999


def test_markov_model_file(tmp_path):
    code, text = run_cli(["markov", "--model", str(SAMPLES / "twostate.model"),
                          "--T", "1000"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    assert float(rows[0]["lower"]) * (1 - 1e-8) <= 1 - math.exp(-1.0) \
        <= float(rows[0]["upper"]) * (1 + 1e-8)


def test_markov_model_file_sweep_constant(tmp_path):
    code, text = run_cli(["markov", "--model", str(SAMPLES / "twostate.model"),
                          "--sweep-const", "lambda", "1e-6", "1e-3", "5", "--T", "1000"],
                         tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0 and len(rows) == 5


def test_markov_with_mc_oracle(tmp_path):
    code, text = run_cli(["markov", "--builtin", "standby", "--lam", "1e-3",
                          "--T", "1000", "--mc", "20000", "--seed", "9"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    row = rows[0]
    assert float(row["mc_estimate"]) - float(row["mc_ci99"]) <= float(row["upper"])
    assert float(row["mc_estimate"]) + float(row["mc_ci99"]) >= float(row["lower"])


def test_markov_malformed_model_is_parse_error(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("STATE up;\nup => dead : 1;\n")
    assert main(["markov", "--model", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_markov_single_point_solver_failure_exits_3(tmp_path, capsys):
    # At p = 3e-6 no two distinct floats lie within 1e-16 relative.
    out = tmp_path / "x.csv"
    assert main(["markov", "--builtin", "tmr", "--lam", "1e-6", "--tol", "1e-16",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    # Both widths are below a float's spacing at p: 1e-32 absolute at
    # p = 1e-15 (under WIDTH_FLOOR), 1e-16 relative at p = 0.63.
    (["--lam", "1e-18", "--tol", "1e-20"], "outward rounding"),
    (["--lam", "1e-3", "--tol", "1e-16"], "outward rounding"),
    (["--lam", "1e308", "--T", "1000"], "not finite"),
])
def test_markov_unreachable_bracket_exits_3(tmp_path, capsys, argv, reason):
    out = tmp_path / "x.csv"
    assert main(["markov", "--builtin", "simplex", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("argv, parses", [
    (["markov", "--builtin", "ifr-pipeline", "--sweep", "1e-6", "1e-2", "9"], 1),
    (["compare", "--sweep", "1e-6", "1e-2", "9"], 4),
])
def test_builtin_sweep_parses_each_chain_once(monkeypatch, tmp_path, argv, parses):
    calls = []
    parse = markov.parse_model
    monkeypatch.setattr(markov, "parse_model", lambda text: calls.append(text) or parse(text))
    code, _ = run_cli(argv, tmp_path)
    assert code == 0 and len(calls) == parses


def test_markov_builtin_needs_point_or_sweep(tmp_path):
    assert main(["markov", "--builtin", "tmr", "--out", str(tmp_path / "x.csv")]) == 2


def test_markov_aux_ratio_flag_changes_ifr_curve(tmp_path):
    base = ["markov", "--builtin", "ifr-pipeline", "--lam", "1e-6", "--T", "1000"]
    _, text_1000 = run_cli(base, tmp_path, "a.csv")
    _, text_100 = run_cli(base + ["--aux-ratio", "1e-2"], tmp_path, "b.csv")
    upper_1000 = float(parse_csv(text_1000)[2][0]["upper"])
    upper_100 = float(parse_csv(text_100)[2][0]["upper"])
    # Heavier switch/controller rates push the curve start off the 1e-6 scale.
    assert upper_1000 < 3e-6 < upper_100


@pytest.mark.parametrize("args", [
    ["markov", "--builtin", "simplex", "--lam", "-1"],
    ["markov", "--builtin", "simplex", "--lam", "1e-6", "--T", "-5"],
    ["markov", "--builtin", "simplex", "--lam", "1e-6", "--tol", "2"],
    ["markov", "--builtin", "tmr", "--sweep", "1e-2", "1e-6", "5"],
    ["markov", "--builtin", "tmr", "--sweep", "1e-6", "1e-2", "1"],
    ["markov", "--builtin", "simplex", "--lam", "1e-6", "--mc", "0"],
    ["compare", "--T", "-5"],
    ["compare", "--tol", "2"],
    ["compare", "--sweep", "1e-2", "1e-6", "5"],
    ["compare", "--sweep", "1e-6", "1e-2", "1"],
    # Flags that do not belong to the model source are refused, not ignored.
    ["markov", "--model", str(SAMPLES / "twostate.model"), "--sweep", "1e-6", "1e-2", "3"],
    ["markov", "--model", str(SAMPLES / "twostate.model"), "--lam", "1e-6"],
    ["markov", "--builtin", "simplex", "--lam", "1e-6",
     "--sweep-const", "lambda", "1e-6", "1e-3", "3"],
    ["markov", "--builtin", "simplex", "--lam", "1e-6", "--sweep", "1e-6", "1e-2", "3"],
    # A sweep's point count is a whole number, not truncated.
    ["markov", "--builtin", "simplex", "--sweep", "1e-6", "1e-2", "2.9"],
    ["compare", "--sweep", "1e-6", "1e-2", "3.7"],
    ["markov", "--model", str(SAMPLES / "twostate.model"),
     "--sweep-const", "lambda", "1e-6", "1e-3", "3.5"],
    # --aux-ratio only moves the ifr-pipeline builtin.
    ["markov", "--model", str(SAMPLES / "twostate.model"), "--aux-ratio", "5"],
    ["markov", "--builtin", "simplex", "--lam", "1e-6", "--aux-ratio", "5"],
    ["markov", "--builtin", "tmr", "--sweep", "1e-6", "1e-2", "3", "--aux-ratio", "5"],
    ["markov", "--builtin", "standby", "--lam", "1e-6", "--aux-ratio", "5"],
    # Two grid points that round to one rate are not a strictly increasing sweep.
    ["markov", "--builtin", "simplex", "--sweep", "1", "1.0000000000000002", "3"],
    # A formulas range must be finite.
    ["formulas", "--tmr", "-R", "0..inf"],
    ["formulas", "--tmr", "-R", "0..1:nan"],
    # ... and ask for at most a million points.
    ["formulas", "--tmr", "-R", "0..1e308:1e-300"],
    ["formulas", "--tmr", "-R", "0..1:1e-9"],
    ["formulas", "--ifr", "-s", "0..1000000000000"],
    # An integer range must stay inside the float range, a single value too.
    ["formulas", "--ifr", "-s", "0..1" + "0" * 400],
    ["formulas", "--ifr", "-s", "1" + "0" * 400],
    ["formulas", "--ifr", "-s=-1" + "0" * 308 + "..1" + "0" * 308],
    # Trials are limited, and a count past the limit is refused before any
    # model is built.
    ["markov", "--builtin", "simplex", "--lam", "1e-3", "--mc", "9" * 20],
    ["markov", "--builtin", "simplex", "--lam", "1e-3", "--mc", "1000000001"],
])
def test_markov_and_compare_bad_numbers_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


_REPAIR_MODEL = """
    CONST lambda = 1e-3; CONST mu = 1e-2;
    STATE up; STATE degraded; STATE dead DEATH;
    INIT up;
    up -> degraded : 2 * lambda; degraded -> up : mu; degraded -> dead : lambda;
"""


@pytest.mark.parametrize("args, message", [
    (["markov", "--model", "REPAIR", "--sweep-const", "mu", "1e-2", "1e-6", "3"],
     "error: sweep range must satisfy 0 < lo < hi, got mu from 0.01 to 1e-06"),
    (["markov", "--model", "REPAIR", "--sweep-const", "mu", "1", "1.0000000000000002", "3"],
     "error: sweep points must be strictly increasing in mu"),
    (["markov", "--model", "REPAIR", "--sweep-const", "mu", "1e-6", "inf", "3"],
     "error: sweep range must be finite, got mu from 1e-06 to inf"),
    (["markov", "--builtin", "simplex", "--sweep", "1e-300", "1e300", "5"],
     "error: sweep range must be finite, got lambda from 1e-300 to 1e+300"),
    (["compare", "--sweep", "1e-6", "1e400", "3"],
     "error: sweep range must be finite, got lambda from 1e-06 to inf"),
    (["markov", "--builtin", "simplex", "--lam", "1e-6", "--mc", "10", "--seed", "-1"],
     "error: --seed must be a non-negative integer, got -1"),
    # --seed changes nothing without --mc.
    (["markov", "--builtin", "simplex", "--lam", "1e-3", "--seed", "5"],
     "error: --seed applies to --mc only"),
    (["compare", "--sweep", "1e-6", "1e-2", "3", "--aux-ratio", "-1"],
     "error: --aux-ratio must be a positive finite ratio, got -1"),
    (["markov", "--builtin", "ifr-pipeline", "--lam", "1e-6", "--aux-ratio", "0"],
     "error: --aux-ratio must be a positive finite ratio, got 0"),
    # The switch and controller rates are the pipeline rate times --aux-ratio.
    (["markov", "--builtin", "ifr-pipeline", "--lam", "1e10", "--aux-ratio", "1e300"],
     "error: --lam 1e+10 times --aux-ratio 1e+300 overflows"),
    (["markov", "--builtin", "ifr-pipeline", "--lam", "1e-30", "--aux-ratio", "1e-300"],
     "error: --lam 1e-30 times --aux-ratio 1e-300 underflows to 0"),
    (["compare", "--sweep", "1e-6", "1e10", "3", "--aux-ratio", "1e300"],
     "error: --sweep 1e+10 times --aux-ratio 1e+300 overflows"),
    (["markov", "--model", "REPAIR", "--sweep-const", "lambda", "1e300", "1e308", "3"],
     "error: transition up->degraded has non-finite rate inf"),
    # Every mode refuses a mission time the solver refuses, in its words.
    *[(mode + ["--T", mission_time], "error: mission time must be non-negative and finite")
      for mission_time in ("-5", "inf")
      for mode in (["markov", "--builtin", "simplex", "--lam", "1e-4"],
                   ["markov", "--builtin", "simplex", "--sweep", "1e-4", "1e-3", "3"],
                   ["markov", "--model", "REPAIR", "--sweep-const", "mu", "1e-2", "1", "3"],
                   ["compare", "--sweep", "1e-4", "1e-3", "3"])],
], ids=["const-reversed", "const-not-increasing", "const-infinite", "ratio-overflows",
        "compare-infinite", "negative-seed", "seed-without-mc",
        "compare-aux-ratio", "markov-aux-ratio",
        "lam-times-aux-ratio-overflows", "lam-times-aux-ratio-underflows",
        "compare-times-aux-ratio-overflows", "const-rate-infinite",
        *[f"{mode}-T-{name}" for name in ("negative", "inf")
          for mode in ("lam", "sweep", "sweep-const", "compare")]])
def test_refusals_name_what_they_refuse(args, message, tmp_path, capsys):
    model = tmp_path / "repair.model"
    model.write_text(_REPAIR_MODEL)
    out = tmp_path / "x.csv"
    assert main([str(model) if arg == "REPAIR" else arg for arg in args]
                + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["markov", "--builtin", "simplex", "--sweep", "1e-6", "1e-2"],
    ["markov", "--model", str(SAMPLES / "twostate.model"),
     "--sweep-const", "lambda", "1e-6", "1e-3"],
    ["compare", "--sweep", "1e-6", "1e-2"],
], ids=["markov-sweep", "markov-sweep-const", "compare-sweep"])
def test_sweep_points_share_the_range_limit(args, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_MAX_RANGE_POINTS", 5)
    out = tmp_path / "x.csv"
    assert main(args + ["6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    code, text = run_cli(args + ["5"], tmp_path)
    assert code == 0 and len(parse_csv(text)[2]) == 5


@pytest.mark.parametrize("args", [
    ["sim", WORKLOAD, str(SAMPLES / "decode_stuckat.flt")],
    ["markov", "--builtin", "simplex", "--lam", "1e-6"],
    ["compare", "--sweep", "1e-6", "1e-2", "2"],
    ["formulas", "--tmr"],
])
def test_unwritable_out_is_a_usage_error(args, tmp_path, capsys):
    assert main(args + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sim_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "core.cfg"
    config.write_text("warp_factor=9\n")
    assert main(["sim", WORKLOAD, str(SAMPLES / "faultfree.flt"),
                 "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("flags, config", [
    (["--clock-hz", "nan"], None),
    (["--clock-hz", "inf"], None),
    ([], "clock_hz=nan\n"),
    # Integer keys are whole numbers, not truncated or overflowed.
    ([], "permanent_threshold=2.5\n"),
    ([], "flush_cycles=1e400\n"),
    # Text that is not integer text goes through a float, which holds every
    # whole number only below 2**53.
    ([], "flush_cycles=1e23\n"),
    # A key set twice is refused, not overridden by its last line.
    ([], "permanent_threshold=16\npermanent_threshold=2\n"),
    (["--max-cycles", "0"], None),
    (["--max-cycles", "-5"], None),
    (["--flush-cycles", "0"], None),
], ids=["clock-hz-nan", "clock-hz-inf", "config-clock-hz-nan", "config-threshold-2.5",
        "config-flush-1e400", "config-flush-1e23", "config-duplicate-key", "max-cycles-0",
        "max-cycles-negative", "flush-cycles-0"])
def test_sim_bad_config_is_a_usage_error(flags, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "core.cfg"
        path.write_text(config)
        flags = flags + ["--config", str(path)]
    out = tmp_path / "x.csv"
    assert main(["sim", WORKLOAD, str(SAMPLES / "faultfree.flt"), *flags,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sim_whole_numbers_past_2_53_are_exact(source, tmp_path):
    # A flag's int and a config file's integer text are read exactly, not
    # rounded through a float to 2**53.
    value = str(2**53 + 1)
    flags = ["--flush-cycles", value]
    if source == "config":
        config = tmp_path / "core.cfg"
        config.write_text(f"flush_cycles={value}\n")
        flags = ["--config", str(config)]
    code, text = run_cli(["sim", WORKLOAD, str(SAMPLES / "faultfree.flt"), *flags], tmp_path)
    meta, _, _ = parse_csv(text)
    assert code == 0 and meta["flush_cycles"] == value


@pytest.mark.parametrize("flag, scenario", [
    ("--powerup-cycles-per-block", (SAMPLES / "decode_delay.flt").read_text()),
    ("--flush-cycles", (SAMPLES / "decode_stuckat.flt").read_text()),
    ("--permanent-threshold", (SAMPLES / "decode_stuckat.flt").read_text()),
    ("--permanent-threshold", f"@12 PERM decode.main delay {'9' * 20}\n"),
], ids=["powerup", "flush", "threshold", "threshold-delay"])
def test_sim_takes_a_count_past_a_machine_word_in_one_step(flag, scenario, tmp_path):
    # A countdown or a frozen error window longer than sys.maxsize cycles
    # is skipped in one step, as a short one is, and the run is exhausted;
    # so is a frozen window at a delay site, whose history the skip extends.
    huge = "9" * 20
    path = tmp_path / "scenario.flt"
    path.write_text(scenario)
    code, text = run_cli(["sim", WORKLOAD, str(path), flag, huge, "--max-cycles", huge],
                         tmp_path)
    meta, _, _ = parse_csv(text)
    assert code == 6
    assert meta["outcome"] == "exhausted" and meta["total_cycles"] == huge


@pytest.mark.parametrize("max_cycles", [[], ["--max-cycles", "9" * 20]],
                         ids=["default", "past-a-machine-word"])
def test_sim_delay_longer_than_any_run(max_cycles, tmp_path):
    # A delay past a machine word, or as long as `--max-cycles` even when
    # that is past a machine word, reads its site's first word, as a delay
    # as long as the run does.
    scenario = tmp_path / "delay.flt"
    texts = []
    for extra in ("9" * 20, "9" * 19, str(100_000)):
        scenario.write_text(f"@12 PERM decode.main delay {extra}\n")
        code, text = run_cli(["sim", WORKLOAD, str(scenario), *max_cycles], tmp_path)
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1] == texts[2]


_REPAIR_MODEL = ("CONST lambda = 1e-3;\nCONST mu = 1;\n"
                 "STATE up;\nSTATE degraded;\nSTATE dead DEATH;\nINIT up;\n"
                 "up -> degraded : 2*lambda;\ndegraded -> up : mu;\n"
                 "degraded -> dead : lambda;\n")


def test_markov_sweep_const_solver_failure_row(tmp_path, capsys):
    # At --tol 1e-11 squaring meets tol at mu=0.1 (q = 101), but the
    # rounding of mu=1e3's 2^18 squaring steps alone is wider.
    model = tmp_path / "repair.model"
    model.write_text(_REPAIR_MODEL)
    code, text = run_cli(["markov", "--model", str(model), "--sweep-const", "mu", "0.1", "1e3",
                          "2", "--tol", "1e-11", "--mc", "500", "--seed", "1"], tmp_path)
    _, columns, rows = parse_csv(text)
    assert code == 3
    assert columns == ["mu", "lower", "upper", "width_rel", "error", "mc_estimate", "mc_ci99"]
    assert rows[0]["error"] == "" and rows[0]["mc_estimate"] != ""
    assert rows[1]["error"] == "solver_failure"
    assert [rows[1][key] for key in ("lower", "upper", "width_rel", "mc_estimate",
                                     "mc_ci99")] == [""] * 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mu=1000.0: ")


def test_markov_sweep_whose_rates_do_not_scale_runs_the_oracle_per_point(tmp_path):
    # mu stays fixed while lambda moves, so no one run serves the sweep: each
    # point's cells are its own model's run, as a single point would draw.
    model = tmp_path / "repair.model"
    model.write_text(_REPAIR_MODEL)
    code, text = run_cli(["markov", "--model", str(model), "--sweep-const", "lambda",
                          "1e-3", "1e-1", "3", "--mc", "3000", "--seed", "4"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    base = markov.parse_model(_REPAIR_MODEL)
    for row, lam in zip(rows, markov.SweepSpec("lambda", 1e-3, 1e-1, 3, 1000.0).grid()):
        (own,) = markov.monte_carlo_death_probability(base.with_constant("lambda", lam),
                                                      [1000.0], 3000, 4)
        assert (row["mc_estimate"], row["mc_ci99"]) == (fmt_float(own.estimate),
                                                        fmt_float(own.ci99))


def test_markov_sweep_refused_at_its_top_shares_the_largest_solved_run(tmp_path, capsys):
    # At --tol 1e-6 the rounding of lambda = 1e6's squaring steps alone is
    # wider; the two solved points share one run of lambda = 10's model.
    code, text = run_cli(["markov", "--builtin", "tmr", "--sweep", "1e-4", "1e6", "3",
                          "--tol", "1e-6", "--mc", "2000", "--seed", "1"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 3
    assert [row["error"] for row in rows] == ["", "", "solver_failure"]
    lo, top, _ = markov.SweepSpec("lambda", 1e-4, 1e6, 3, 1000.0).grid()
    shared = markov.monte_carlo_death_probability(markov.build_tmr_model(top),
                                                  [1000.0 * (lo / top), 1000.0], 2000, 1)
    assert [(row["mc_estimate"], row["mc_ci99"]) for row in rows[:2]] == [
        (fmt_float(e.estimate), fmt_float(e.ci99)) for e in shared]
    assert (rows[2]["mc_estimate"], rows[2]["mc_ci99"]) == ("", "")
    assert capsys.readouterr().err.startswith("lambda=1000000.0: ")


@pytest.mark.parametrize("source, text", [
    (["--builtin", "tmr", "--lam", "1e-3"], None),
    (["--model", str(SAMPLES / "twostate.model")], (SAMPLES / "twostate.model").read_text()),
    # No transition: every rate scales with any constant, yet a model
    # file's single point sets none.
    (["--model", "still.model"], "STATE up;\nINIT up;\n"),
], ids=["builtin", "model", "no-transitions"])
def test_a_single_point_mc_row_is_its_own_models_run_up_to_T(tmp_path, monkeypatch, source,
                                                              text):
    # A single solved point that scales takes the sweep's path, whose run
    # goes up to T·v/v = T: the run of its own model up to T.
    monkeypatch.chdir(tmp_path)
    if text is None:
        model = markov.build_tmr_model(1e-3)
    else:
        model = markov.parse_model(text)
        Path(source[-1]).write_text(text)
    code, out = run_cli(["markov", *source, "--T", "1000", "--mc", "20000", "--seed", "7"],
                        tmp_path)
    (row,) = parse_csv(out)[2]
    (own,) = markov.monte_carlo_death_probability(model, [1000.0], 20000, 7)
    assert code == 0
    assert (row["mc_estimate"], row["mc_ci99"]) == (fmt_float(own.estimate), fmt_float(own.ci99))


def test_markov_sweep_const_brackets_stiff_repair(tmp_path, capsys):
    # mu=1e3/h over 1000 h is q = 1e6 uniformized jumps: squared, not refused.
    model = tmp_path / "repair.model"
    model.write_text(_REPAIR_MODEL)
    code, text = run_cli(["markov", "--model", str(model), "--sweep-const", "mu", "1", "1e3",
                          "2"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0 and capsys.readouterr().err == ""
    assert [row["error"] for row in rows] == ["", ""]
    for row in rows:
        assert 0 < float(row["lower"]) <= float(row["upper"])
        assert float(row["width_rel"]) <= markov.DEFAULT_TOL


def test_markov_sweep_const_re_evaluates_derived_constants(tmp_path):
    model = tmp_path / "derived.model"
    model.write_text("CONST lambda = 1e-3;\nCONST mu = 2 * lambda;\n"
                     "STATE up;\nSTATE dead DEATH;\nINIT up;\nup -> dead : mu;\n")
    code, text = run_cli(["markov", "--model", str(model), "--sweep-const", "lambda",
                          "1e-5", "1e-3", "3", "--T", "1000"], tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0 and len(rows) == 3
    for row, lam in zip(rows, (1e-5, 1e-4, 1e-3)):
        assert float(row["lambda"]) == pytest.approx(lam, rel=1e-8)
        # The CSV rounds to 9 significant digits.
        truth = -math.expm1(-2 * lam * 1000)
        assert float(row["lower"]) * (1 - 1e-8) <= truth <= float(row["upper"]) * (1 + 1e-8)


@pytest.mark.parametrize("args, config", [
    (["sim", WORKLOAD, str(SAMPLES / "faultfree.flt"), "--seed", "1"], None),
    (["sim", WORKLOAD, str(SAMPLES / "faultfree.flt")], "rng_seed=1\n"),
    (["formulas", "--tmr", "--seed", "1"], None),
    (["compare", "--seed", "1"], None),
])
def test_seed_is_a_markov_flag_only(args, config, tmp_path):
    # The simulator and the closed forms are deterministic; only `markov --mc`
    # samples, so no other subcommand takes a seed.
    if config is not None:
        (tmp_path / "core.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "core.cfg")]
    try:
        code = main(args + ["--out", str(tmp_path / "x.csv")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_scales_and_identity(tmp_path):
    code, text = run_cli(["compare", "--sweep", "1e-6", "1e-2", "13", "--T", "1000"],
                         tmp_path)
    _, _, rows = parse_csv(text)
    assert code == 0
    first = rows[0]
    assert float(first["lambda"]) == 1e-6
    assert float(first["simplex_lower"]) == pytest.approx(9.995e-4, rel=1e-3)
    assert float(first["ifr_upper"]) < 1e-5
    for row in rows:
        # Complement identity: TMR failure never exceeds 3x standby failure.
        tmr_mid = (float(row["tmr_lower"]) + float(row["tmr_upper"])) / 2
        stb_mid = (float(row["standby_lower"]) + float(row["standby_upper"])) / 2
        assert tmr_mid <= 3 * stb_mid * (1 + 1e-9)
        assert float(row["tmr_lower"]) <= 3 * float(row["standby_upper"]) * (1 + 1e-12)


def test_compare_solver_failure_leaves_blank_cells(tmp_path, capsys):
    code, text = run_cli(["compare", "--sweep", "1e-6", "1e6", "3", "--tol", "2e-6"],
                         tmp_path)
    _, columns, rows = parse_csv(text)
    assert code == 3
    # At 1e6/h, q is 1e9 to 3e9, and the squaring factors leave simplex and
    # IFR brackets about 1.6e-6 wide, TMR's 6e-6 and standby's 3.3e-6; the
    # last two cells are blank and the row keeps the others. Each blank pair
    # prints its model, point and reason to stderr.
    blank = [[column for column in columns if row[column] == ""] for row in rows]
    assert blank == [[], [], ["tmr_lower", "tmr_upper", "standby_lower", "standby_upper"]]
    lines = capsys.readouterr().err.splitlines()
    assert [line.partition(": ")[0] for line in lines] == ["tmr lambda=1000000.0",
                                                           "standby lambda=1000000.0"]
    assert all(line.partition(": ")[2] for line in lines)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["sim", WORKLOAD, str(SAMPLES / "decode_stuckat.flt")],
    ["formulas", "--tmr", "--standby"],
    ["markov", "--builtin", "ifr-pipeline", "--sweep", "1e-6", "1e-2", "9",
     "--mc", "5000", "--seed", "3"],
    ["compare", "--sweep", "1e-6", "1e-2", "7"],
])
def test_reports_are_byte_identical_across_runs(args, tmp_path):
    code1, first = run_cli(args, tmp_path, "a.csv")
    code2, second = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert first == second
    assert first.encode() == second.encode()


# ---------------------------------------------------------------------------
# startup: one parser per process, numpy only where a model is solved
# ---------------------------------------------------------------------------

# Runs `python -m ifrsim.cli ARGV...` and reports whether numpy was loaded.
_RUN_CLI_MODULE = """
import runpy, sys
try:
    runpy.run_module("ifrsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("args, loads_numpy", [
    (["sim", "samples/workload.asm", "samples/decode_stuckat.flt"], False),
    (["formulas", "--tmr"], False),
    (["markov", "--builtin", "simplex", "--lam", "1e-6"], True),
], ids=["sim", "formulas", "markov"])
def test_only_the_model_commands_load_numpy(args, loads_numpy):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", _RUN_CLI_MODULE, *args], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == str(loads_numpy)


def test_main_builds_the_parser_once(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    cli.build_parser.cache_clear()
    run_cli(["formulas", "--exp"], tmp_path, "a.csv")
    first = len(built)
    run_cli(["formulas", "--availability"], tmp_path, "b.csv")
    assert first > 0 and len(built) == first


def test_a_usage_error_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--sweep", "1e-6", "1e-2"])
    assert exc.value.code == 2
    capsys.readouterr()
    out = tmp_path / "compare.csv"
    assert main(["compare", "--sweep", "1e-6", "1e-2", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "cli" / "compare.csv").read_bytes()
