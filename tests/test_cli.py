import math
from pathlib import Path

import pytest

from ifrsim import cli, markov
from ifrsim.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
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


@pytest.mark.parametrize("args, good_points, errors", [
    (["--tmr", "--standby", "-R", "0..2:0.5"],
     ["0.00000000e+00", "5.00000000e-01", "1.00000000e+00"],
     ["R=1.5: R=1.5 outside [0, 1]", "R=2.0: R=2.0 outside [0, 1]"]),
    (["--ifr", "--rb", "2", "-s", "0..1"], [],
     ["s=0: Rb=2.0 outside [0, 1]", "s=1: Rb=2.0 outside [0, 1]"]),
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


def test_markov_single_point_solver_failure_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(markov, "MAX_SERIES_TERMS", 3)
    out = tmp_path / "x.csv"
    assert main(["markov", "--builtin", "tmr", "--lam", "1e-2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["--lam", "1e-18", "--tol", "1e-4"], "outward rounding"),
    (["--lam", "1e-3", "--tol", "1e-12"], "outward rounding"),
    (["--lam", "1e308", "--T", "1000"], "not finite"),
])
def test_markov_unreachable_bracket_exits_3(tmp_path, capsys, argv, reason):
    out = tmp_path / "x.csv"
    assert main(["markov", "--builtin", "simplex", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and reason in err
    assert not out.exists()


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
], ids=["const-reversed", "const-not-increasing", "const-infinite", "ratio-overflows",
        "compare-infinite", "negative-seed"])
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
    (["--max-cycles", "0"], None),
    (["--max-cycles", "-5"], None),
    (["--flush-cycles", "0"], None),
], ids=["clock-hz-nan", "clock-hz-inf", "config-clock-hz-nan", "config-threshold-2.5",
        "config-flush-1e400", "max-cycles-0", "max-cycles-negative", "flush-cycles-0"])
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


def test_markov_sweep_const_solver_failure_row(tmp_path, capsys):
    # A repair chain whose repair rate makes the series refuse the stiff point.
    model = tmp_path / "repair.model"
    model.write_text("CONST lambda = 1e-3;\nCONST mu = 1;\n"
                     "STATE up;\nSTATE degraded;\nSTATE dead DEATH;\nINIT up;\n"
                     "up -> degraded : 2*lambda;\ndegraded -> up : mu;\n"
                     "degraded -> dead : lambda;\n")
    code, text = run_cli(["markov", "--model", str(model), "--sweep-const", "mu", "1", "1e3",
                          "2", "--mc", "500", "--seed", "1"], tmp_path)
    _, columns, rows = parse_csv(text)
    assert code == 3
    assert columns == ["mu", "lower", "upper", "width_rel", "error", "mc_estimate", "mc_ci99"]
    assert rows[0]["error"] == "" and rows[0]["mc_estimate"] != ""
    assert rows[1]["error"] == "solver_failure"
    assert [rows[1][key] for key in ("lower", "upper", "width_rel", "mc_estimate",
                                     "mc_ci99")] == [""] * 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mu=1000.0: ")


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
        truth = 1 - math.exp(-2 * lam * 1000)
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


def test_compare_solver_failure_leaves_blank_cells(monkeypatch, tmp_path):
    monkeypatch.setattr(markov, "MAX_SERIES_TERMS", 3)
    code, text = run_cli(["compare", "--sweep", "1e-6", "1e-2", "3"], tmp_path)
    _, columns, rows = parse_csv(text)
    assert code == 3
    # At 1e-2/h over 1000 h the TMR and standby series miss tol in 3 terms;
    # their cells are blank and the row keeps the other bounds.
    blank = [[column for column in columns if row[column] == ""] for row in rows]
    assert blank == [[], [], ["tmr_lower", "tmr_upper", "standby_lower", "standby_upper"]]


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
