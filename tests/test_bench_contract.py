"""The benchmark under perfbench/ reaches into ifrsim by name; these checks
keep those names working. The benchmark files are only read, never changed."""
import dataclasses
import importlib
import importlib.util
import inspect
import random
from pathlib import Path

import pytest

from ifrsim.cli import build_parser, main
from ifrsim.faults import parse_scenario
from ifrsim.hw import BUS_BITS, encode_bus
from ifrsim.isa import ArchState, assemble, run_reference
from ifrsim import markov
from ifrsim.markov import parse_model
from ifrsim.pipeline import CoreConfig, Outcome, RecoveryEvent, SimReport, run_core
from test_sim_golden import CLI_CASES, GOLDEN, ROOT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERTRACE = _load("layertrace")
LAYERS = LAYERTRACE.LAYERS


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in LAYERS.items()
                                         for name in names])
def test_traced_layer_function_is_callable(layer, name):
    assert callable(getattr(importlib.import_module(f"ifrsim.{layer}"), name))


def test_sim_report_has_the_fields_the_benchmark_reads(monkeypatch):
    fields = {f.name for f in dataclasses.fields(SimReport)}
    assert {"outcome", "final_state", "total_cycles", "events", "stress",
            "final_power"} <= fields
    assert {"fault_id", "stage", "classified", "detect_cycle", "end_cycle",
            "swap_complete_cycle", "resume_cycle"} \
        <= {f.name for f in dataclasses.fields(RecoveryEvent)}
    assert isinstance(RecoveryEvent.refill_cycles, property)  # derived, read as an attribute
    # And the benchmark's own digest input can be built from a real report.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports gen
    workloads = _load("workloads")
    program = assemble("LDI r1, 3\nADD r2, r1, r1\nHALT")
    report = run_core(program, CoreConfig(),
                      parse_scenario("@2 PERM decode.main stuckat 1 1"))
    stats = workloads._sim_stats(report)
    assert stats["outcome"] == "completed"
    assert len(stats["events"]) == 1 and len(stats["stress"]) == 6


def test_benchmark_bus_layout_matches_hw(monkeypatch):
    # fault-campaign picks stuck-at bits a run exposes from its own copy of
    # the bus layout; it must read the lines `encode_bus` drives.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bus_bit = _load("workloads")._bus_bit
    rng = random.Random(6)
    for word in [0, 0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(20)]:
        for bit in range(BUS_BITS):
            assert bus_bit(word, bit) == encode_bus(word) >> bit & 1, (word, bit)


def test_golden_cli_output_is_unchanged_under_the_tracer(tmp_path, monkeypatch):
    # The benchmark's traced passes must reproduce its untraced warm-up pass,
    # so no output may depend on a traced function being a timing wrapper
    # (one named `traced`, for instance).
    monkeypatch.chdir(ROOT)
    tracer = LAYERTRACE.Tracer()
    tracer.install()
    try:
        for name, argv in sorted(CLI_CASES.items()):
            out = tmp_path / f"{name}.csv"
            assert main(argv.split() + ["--out", str(out)]) == 0, name
            assert out.read_bytes() == (GOLDEN / "cli" / f"{name}.csv").read_bytes(), name
    finally:
        tracer.uninstall()


def test_markov_oracle_calls_parse(monkeypatch):
    # The oracle workload calls the CLI in-process; every argv it builds must
    # still be accepted, flags and all.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = _load("workloads").MarkovOracle(1, tiny=True)
    try:
        parser = build_parser()
        for argv, _, _ in workload.calls:
            parser.parse_args(argv)
    finally:
        workload.close()


def test_repair_chain_model_has_what_the_benchmark_reads(monkeypatch):
    # markov-stiff parses generated repair chains and reads the model's
    # states, transitions and the mu constant directly.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    model = parse_model(_load("gen").repair_chain(1e-3, 10.0))
    assert model.states == ("up", "degraded", "dead")
    assert model.initial == "up"
    assert model.death_states == frozenset({"dead"})
    assert [(tr.source, tr.target, tr.rate) for tr in model.transitions] == [
        ("up", "degraded", 2e-3), ("degraded", "up", 10.0), ("degraded", "dead", 1e-3)]
    assert model.outgoing_rate("degraded") == 10.0 + 1e-3
    assert model.constants["mu"] == 10.0 and type(model.constants["mu"]) is float


def test_markov_stiff_tiny_passes_its_check_with_no_op_refused(monkeypatch):
    # The benchmark's own correctness gate on markov-stiff (mu = 1 and 1e3):
    # every bracket must contain the mpmath value and meet tol relatively,
    # and no point may be refused.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = _load("workloads").MarkovStiff(1, tiny=True)
    outputs = [op() for op in workload.ops]
    assert not any(workload.refused(output) for output in outputs)
    workload.check(outputs)


def test_markov_oracle_tiny_passes_its_check(monkeypatch):
    # The benchmark's own correctness gate on markov-oracle: each bracket
    # holds its closed form, and each Monte Carlo cell, now from one run per
    # sweep, lies within twice its 99% half-width of the bracket.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = _load("workloads").MarkovOracle(1, tiny=True)
    try:
        workload.check([op() for op in workload.ops])
    finally:
        workload.close()


def test_monte_carlo_oracle_takes_trials_third():
    # perfbench's `mc_trials` observer reads the trial count as `args[2]`.
    parameters = list(inspect.signature(markov.monte_carlo_death_probability).parameters)
    assert parameters[2] == "trials"


def test_run_reference_returns_the_state_and_the_steps_with_halt_counted():
    # `_golden` unpacks (state, steps) and reads `halted`; the traced
    # `reference_steps` count is `result[1]`, which includes the HALT.
    result = run_reference(assemble("LDI r1, 3\nADD r2, r1, r1\nHALT"), 100)
    assert isinstance(result, tuple) and len(result) == 2
    state, steps = result
    assert type(state) is ArchState and state.halted and steps == 3
    assert state.regs[2] == 6
    cut, cut_steps = run_reference(assemble("LDI r1, 3\nADD r2, r1, r1\nHALT"), 2)
    assert not cut.halted and cut_steps == 2


def test_swap_run_counts_down_67_cycles_and_a_budget_inside_them_exhausts():
    # The benchmark's digests hold each event's end and resume cycles. The
    # FLUSH and POWER_SWAP countdown between them is taken in one step, and
    # a cycle budget that ends inside it still ends the run there.
    lines = [f"LDI r1, {i % 2}\nADD r2, r1, r1" for i in range(40)]
    program = assemble("\n".join(lines) + "\nHALT")
    scenario = parse_scenario("@10 PERM decode.main stuckat 3 1")
    report = run_core(program, CoreConfig(), scenario)
    assert report.outcome is Outcome.COMPLETED
    (event,) = report.events
    assert event.resume_cycle - event.end_cycle - 1 == 67  # flush plus power-up
    budget = event.end_cycle + 30
    exhausted = run_core(program, CoreConfig(), scenario, max_cycles=budget)
    assert (exhausted.outcome, exhausted.total_cycles) == (Outcome.EXHAUSTED, budget)
    (cut,) = exhausted.events
    assert (cut.end_cycle, cut.resume_cycle) == (event.end_cycle, None)
