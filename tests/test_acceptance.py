"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -v -s` to see them).
Every tolerance is pinned here; nothing is deferred to later calibration.
"""
import itertools
import math
import random
import time
from pathlib import Path

from corpus import (fault_free_words, gen_permanent_stuckat_scenario, gen_program,
                    gen_transient_scenario)
from ifrsim.cli import main
from ifrsim.formulas import r_ifr, r_standby, r_tmr
from ifrsim.hw import encode_bus, parity_check, trc_compare
from ifrsim.isa import assemble, run_reference
from ifrsim.markov import (SweepSpec, build_ifr_pipeline_model, build_simplex_model,
                           build_standby_model, build_tmr_model,
                           death_probability, monte_carlo_death_probability)
from ifrsim.pipeline import CoreConfig, Outcome, matches_reference, run_core
from ifrsim.faults import FaultScenario, parse_scenario

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
T_MISSION = 1000.0
CFG = CoreConfig()


def _report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit:.0f}s): {label}")


def test_criterion_1_formula_identities():
    started = time.perf_counter()
    rng = random.Random(0xF0F0)
    for _ in range(1000):
        r = rng.random()
        assert abs(r_ifr(r, 1) - r_standby(r)) <= 1e-12
        assert abs((1 - r_tmr(r)) - (1 - r_standby(r)) * (1 + 2 * r)) <= 1e-12
    for i in range(1001):
        r = i / 1000.0
        assert r_standby(r) >= r_tmr(r) - 1e-15
    _report(1, "formula identity suite (1000 random R, 1001-point grid)", started, 1.0)


def test_criterion_2_solver_vs_analytic():
    started = time.perf_counter()
    cases = [
        # expm1, so that no subtraction cancels.
        (build_simplex_model, lambda lam: -math.expm1(-lam * T_MISSION)),
        (build_tmr_model, lambda lam: math.expm1(-lam * T_MISSION) ** 2
                                      * (1 + 2 * math.exp(-lam * T_MISSION))),
        (build_standby_model, lambda lam: math.expm1(-lam * T_MISSION) ** 2),
    ]
    for builder, analytic in cases:
        for lam in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            bracket = death_probability(builder(lam), T_MISSION)
            truth = analytic(lam)
            assert bracket.lower <= truth <= bracket.upper, (builder.__name__, lam)
            assert bracket.relative_width <= 0.05, (builder.__name__, lam)
    _report(2, "solver brackets the analytic chains within 5%", started, 5.0)


def test_criterion_3_monte_carlo_oracle():
    started = time.perf_counter()
    models = [
        ("simplex", build_simplex_model(1e-3)),
        ("tmr", build_tmr_model(1e-3)),
        ("standby", build_standby_model(1e-3)),
        ("ifr_pipeline", build_ifr_pipeline_model(1e-3, 1e-3, 1e-3)),
    ]
    for seed_offset, (name, model) in enumerate(models):
        bracket = death_probability(model, T_MISSION)
        mc = monte_carlo_death_probability(model, T_MISSION, 10 ** 6,
                                           seed=20260809 + seed_offset)
        assert mc.estimate - mc.ci99 <= bracket.upper, name
        assert mc.estimate + mc.ci99 >= bracket.lower, name
    _report(3, "10^6-trial Monte Carlo CI overlaps the solver bracket", started, 30.0)


def test_criterion_4_figure_anchors():
    started = time.perf_counter()
    grid = SweepSpec("lambda", 1e-6, 1e-2, 25, T_MISSION).grid()
    assert grid[0] == 1e-6

    def curve(builder):
        return [death_probability(builder(lam), T_MISSION) for lam in grid]

    simplex = curve(build_simplex_model)
    first = simplex[0]
    assert abs(first.lower - 9.995e-4) <= 1e-6
    assert abs(first.upper - 9.995e-4) <= 1e-6

    # Switch/controller rates default to lambda_p/1000 for figure
    # reproduction; their series contribution (~2e-6 at the anchor) then
    # keeps the curve start on the 1e-6 scale.
    ifr = curve(lambda lam: build_ifr_pipeline_model(lam, 1e-3, 1e-3))
    anchor = ifr[0]
    assert 1e-6 <= anchor.lower <= anchor.upper <= 3e-6

    tmr = curve(build_tmr_model)
    standby = curve(build_standby_model)
    for lam, tp, sp in zip(grid, tmr, standby):
        tmr_mid = (tp.lower + tp.upper) / 2
        stb_mid = (sp.lower + sp.upper) / 2
        assert tmr_mid <= 3 * stb_mid * (1 + 1e-9), lam
        assert tp.lower <= 3 * sp.upper * (1 + 1e-12), lam

    # A refused point raises SolverError, which fails the test.
    for points in (simplex, ifr, tmr, standby):
        for point in points:
            assert (point.upper - point.lower) <= 0.05 * point.upper + 1e-15
    _report(4, "sweep anchors at lambda=1e-6 plus the 3x failure identity", started, 10.0)


def test_criterion_5_recovery_demonstration():
    started = time.perf_counter()
    program = assemble((SAMPLES / "workload.asm").read_text())
    scenarios = ["decode_stuckat.flt", "execute_stuckat.flt",
                 "decode_delay.flt", "execute_delay.flt"]
    for name in scenarios:
        scenario = parse_scenario((SAMPLES / name).read_text())
        report = run_core(program, CFG, scenario)
        assert report.outcome is Outcome.COMPLETED, name
        assert matches_reference(report, program), name
        assert len(report.permanent_events) == 1, name
        recovery_us = CFG.cycles_to_us(report.permanent_events[0].recovery_cycles)
        assert 0.5 <= recovery_us <= 2.0, (name, recovery_us)

    decode_stuck = parse_scenario((SAMPLES / "decode_stuckat.flt").read_text())
    report = run_core(program, CFG, decode_stuck)
    assert 82 <= report.permanent_events[0].recovery_cycles <= 151
    _report(5, "four canonical faults recover in [0.5us, 2.0us] at 100 MHz", started, 5.0)


def test_criterion_6_classification_properties():
    started = time.perf_counter()
    rng = random.Random(0xACCE97)
    silent = 0

    for index in range(200):
        if index % 5 == 0:
            program = gen_program(rng)
            base = run_core(program, CFG, FaultScenario())
        scenario = gen_transient_scenario(rng, base.total_cycles, CFG.permanent_threshold)
        report = run_core(program, CFG, scenario)
        assert report.permanent_events == [], scenario
        assert report.outcome is Outcome.COMPLETED
        assert matches_reference(report, program)
        if not report.events:
            silent += 1  # fault never exposed (e.g. stuck value matched); logged

    for index in range(200):
        if index % 5 == 0:
            program = gen_program(rng)
            words = fault_free_words(program, CFG)
        scenario = gen_permanent_stuckat_scenario(rng, words)
        report = run_core(program, CFG, scenario)
        assert len(report.permanent_events) == 1, scenario
        assert report.outcome is Outcome.COMPLETED
        assert matches_reference(report, program), scenario
        assert report.permanent_events[0].fault_id == 0

    print(f"  (transient scenarios with no observable exposure: {silent}/200)")
    _report(6, "0 false swaps in 200 transient runs; 200/200 permanents classified",
            started, 60.0)


def test_criterion_7_exhaustive_small_scale():
    started = time.perf_counter()
    words = (0x00000000, 0x5A5A5A5A, 0xFFFFFFFF, 0x12345678)
    for word in words:
        bus = encode_bus(word)
        for bit in range(36):
            assert parity_check(bus ^ 1 << bit) != 0, (word, bit)
        for byte in range(4):
            for b1, b2 in itertools.combinations(range(8), 2):
                mask = (1 << (8 * byte + b1)) | (1 << (8 * byte + b2))
                assert parity_check(bus ^ mask) == 0

    width = 16
    full = (1 << width) - 1
    for bit in range(width):
        for const in (0, 1):
            flagged = 0
            for vec in range(1 << width):
                healthy_b = ~vec & full
                faulty_b = healthy_b | (1 << bit) if const else healthy_b & ~(1 << bit)
                error = not trc_compare(vec, faulty_b, width)
                expected_error = ((vec >> bit) & 1) == const
                assert error == expected_error, (bit, const, vec)
                flagged += error
            assert flagged == 1 << (width - 1)  # every stuck bit is observable
    _report(7, "parity single/double-flip exhaustives and two-rail stuck-bit sweep",
            started, 10.0)


def test_criterion_8_conservation_and_determinism(tmp_path):
    started = time.perf_counter()
    program = assemble((SAMPLES / "workload.asm").read_text())
    scenario = parse_scenario((SAMPLES / "decode_stuckat.flt").read_text())
    report = run_core(program, CFG, scenario)
    report.stress.assert_conserved(report.total_cycles)  # also asserted in-run

    invocations = [
        ["sim", str(SAMPLES / "workload.asm"), str(SAMPLES / "decode_stuckat.flt")],
        ["formulas", "--tmr", "--standby", "-R", "0..1:0.1"],
        ["markov", "--builtin", "ifr-pipeline", "--sweep", "1e-6", "1e-2", "9",
         "--T", "1000", "--mc", "10000", "--seed", "7"],
        ["compare", "--sweep", "1e-6", "1e-2", "7", "--T", "1000"],
    ]
    for index, args in enumerate(invocations):
        out_a = tmp_path / f"{index}_a.csv"
        out_b = tmp_path / f"{index}_b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), args
    _report(8, "stress ledgers conserve cycles; CLI reruns are byte-identical",
            started, 30.0)
