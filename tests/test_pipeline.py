import ast
import hashlib
import inspect
import random
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from corpus import (fault_free_records, fault_free_words, gen_loop_program,
                    gen_permanent_stuckat_scenario, gen_program, gen_transient_scenario)
from ifrsim.faults import (Delay, FaultScenario, FaultSite, FaultUnit, PERMANENT,
                           StuckAt, TimedFault, TransientFlip, parse_scenario)
from ifrsim import pipeline
from ifrsim.hw import BUS_DATA_BITS, Copy, PIPELINE_ORDER, PowerState, StageKind, encode_bus
from ifrsim.isa import (WORD_MASK, Opcode, Program, assemble, decode_word, dst_reg,
                        encode_instruction, execute_result, run_reference, src_regs)
from ifrsim.pipeline import (CLASSIFY, CLEAR, POWER_ON, SWAP, ControllerMode, ControllerState,
                             CoreConfig, Outcome, controller_output_vector, controller_skip,
                             controller_step, matches_reference, run_core)
from refcore import reference_run

CFG = CoreConfig()
WORKLOAD = (Path(__file__).resolve().parent.parent / "samples" / "workload.asm").read_text()
_MAIN = Copy.MAIN
# The controller names stages by pipeline position.
PREDECODE, DECODE, EXECUTE = range(3)
_NO_ERRORS = (0, 0, 0)


def _site(stage, copy=_MAIN):
    return FaultSite(FaultUnit(stage.value), copy)


def _alternating_program(pairs=40):
    lines = []
    for i in range(pairs):
        lines.append(f"LDI r1, {i % 2}")
        lines.append("ADD r2, r1, r1")
    lines.append("HALT")
    return assemble("\n".join(lines))


def _loop_program(trips):
    """A loop of `trips` trips that adds to r1 and stores it every trip."""
    return assemble(f"""
    LDI r9, 64
    LDI r10, {trips}
    LDI r11, 1
    ADD r1, r1, r11
    ST r1, r9, 0
    SUB r10, r10, r11
    BEQ r10, r0, 2
    JMP 3
    HALT
    """)


# ---------------------------------------------------------------------------
# Controller FSM
# ---------------------------------------------------------------------------

def test_monitor_idle_is_identity():
    state = ControllerState()
    assert controller_step(state, _NO_ERRORS, CFG) is None
    assert state == ControllerState()


def test_threshold_crossing_schedules_flush_and_power_off():
    counters = tuple(CFG.permanent_threshold - 1 if s == DECODE else 0
                     for s in (PREDECODE, DECODE, EXECUTE))
    state = ControllerState(mode=ControllerMode.SUSPECT, error_counters=counters)
    strobe = controller_step(state, (0, 0b0001, 0), CFG)
    assert state.mode is ControllerMode.FLUSH
    assert state.remaining == CFG.flush_cycles
    # Classifying a stage flushes and powers off its main copy.
    assert strobe == (CLASSIFY, DECODE)


def test_dead_is_absorbing():
    with pytest.raises(ValueError):
        controller_step(ControllerState(mode=ControllerMode.DEAD), _NO_ERRORS, CFG)


def test_error_clearing_classifies_transient():
    state = ControllerState(mode=ControllerMode.SUSPECT, error_counters=(0, 0, 5))
    strobe = controller_step(state, _NO_ERRORS, CFG)
    assert state.mode is ControllerMode.MONITOR
    assert state.error_counters == (0, 0, 0)
    assert strobe == (CLEAR, EXECUTE)


def test_counters_never_exceed_threshold():
    state = ControllerState()
    for _ in range(CFG.permanent_threshold):
        assert all(c <= CFG.permanent_threshold for c in state.error_counters)
        strobe = controller_step(state, (0, 0, 1), CFG)
    assert state.mode is ControllerMode.FLUSH  # classified exactly at threshold
    assert strobe == (CLASSIFY, EXECUTE)


def test_spare_failure_after_swap_is_dead():
    counters = (0, CFG.permanent_threshold - 1, 0)
    state = ControllerState(mode=ControllerMode.SUSPECT, error_counters=counters,
                            on_spare=frozenset({DECODE}))
    assert controller_step(state, (0, 1, 0), CFG) is None
    assert state.mode is ControllerMode.DEAD


def test_flush_then_powerswap_then_resume_timing():
    state = ControllerState(mode=ControllerMode.FLUSH, swap_stage=DECODE,
                            remaining=CFG.flush_cycles)
    strobes = {}
    for step in range(1, CFG.flush_cycles + CFG.powerup_cycles_per_block + 1):
        strobe = controller_step(state, _NO_ERRORS, CFG)
        if strobe is not None:
            strobes[step] = strobe
    # Power up the spare copy, then flip the switch and replay.
    assert strobes == {CFG.flush_cycles: (POWER_ON, DECODE),
                       CFG.flush_cycles + CFG.powerup_cycles_per_block: (SWAP, DECODE)}
    assert state.mode is ControllerMode.RESUME
    assert DECODE in state.on_spare


def test_output_vector_is_16_bits_and_distinguishes_actions():
    idle = controller_output_vector(ControllerState(), None)
    busy = controller_output_vector(
        ControllerState(mode=ControllerMode.FLUSH, swap_stage=DECODE,
                        remaining=3),
        (CLASSIFY, DECODE))
    assert 0 <= idle < (1 << 16) and 0 <= busy < (1 << 16)
    assert idle != busy


# A state after a step that drove no strobe, the masks every later cycle
# sees, the most cycles a skip may take, and what the next step drives.
_SKIPS = [
    (ControllerState(mode=ControllerMode.SUSPECT, error_counters=(0, 3, 3)), (0, 1, 4),
     CFG.permanent_threshold - 4, (CLASSIFY, DECODE)),
    (ControllerState(mode=ControllerMode.FLUSH, swap_stage=EXECUTE, remaining=3), _NO_ERRORS,
     2, (POWER_ON, EXECUTE)),
    (ControllerState(mode=ControllerMode.POWER_SWAP, swap_stage=PREDECODE, remaining=64),
     _NO_ERRORS, 63, (SWAP, PREDECODE)),
    (ControllerState(), _NO_ERRORS, 0, None),
    (ControllerState(mode=ControllerMode.RESUME, on_spare=frozenset({DECODE})), _NO_ERRORS,
     0, None),
]


@pytest.mark.parametrize("state, masks, most, then", _SKIPS,
                         ids=["suspect", "flush", "power-swap", "monitor", "resume"])
def test_a_controller_skip_equals_its_cycles_stepped_one_at_a_time(state, masks, most, then):
    for limit in range(most + 3):
        skipped, stepped = replace(state), replace(state)
        taken = controller_skip(skipped, CFG, limit)
        assert taken == min(limit, most)
        for _ in range(taken):
            assert controller_step(stepped, masks, CFG) is None
        assert skipped == stepped
    # A full skip stops short of the strobe, which the next step drives.
    assert controller_step(skipped, masks, CFG) == then


# Parity masks in pipeline order, each held for a number of steps: a decode
# fault counted to the threshold, flushed, swapped to the spare and resumed;
# a transient execute error that clears; then errors on predecode and decode
# until decode, now on its spare, reaches the threshold again (Dead).
_REPAIR_SCHEDULE = [((0, 0, 0), 1), ((0, 1, 0), 16), ((0, 0, 0), 68),
                    ((0, 0, 4), 5), ((0, 0, 0), 1), ((2, 1, 0), 3), ((0, 1, 0), 13)]
# (mode, output vector, steps) after each step. Rail stuck-at detection reads
# every bit: bit 10 is never set and bit 14 comes with every power-on.
_REPAIR_VECTORS = [
    (ControllerMode.MONITOR, 0x0000, 1),
    (ControllerMode.SUSPECT, 0x0011, 15),
    (ControllerMode.FLUSH, 0x0132, 1),
    (ControllerMode.FLUSH, 0x0012, 2),
    (ControllerMode.POWER_SWAP, 0x5013, 1),
    (ControllerMode.POWER_SWAP, 0x0013, 63),
    (ControllerMode.RESUME, 0x8054, 1),
    (ControllerMode.MONITOR, 0x0010, 1),
    (ControllerMode.SUSPECT, 0x0019, 5),
    (ControllerMode.MONITOR, 0x0010, 1),
    (ControllerMode.SUSPECT, 0x0009, 3),
    (ControllerMode.SUSPECT, 0x0011, 12),
    (ControllerMode.DEAD, 0x0015, 1),
]


def test_output_vector_along_a_full_repair():
    state = ControllerState()
    seen, clears = [], []
    for masks, steps in _REPAIR_SCHEDULE:
        for _ in range(steps):
            strobe = controller_step(state, masks, CFG)
            seen.append((state.mode, controller_output_vector(state, strobe)))
            if strobe is not None and strobe[0] == CLEAR:
                clears.append(strobe[1])
    expected = [(mode, vec) for mode, vec, steps in _REPAIR_VECTORS for _ in range(steps)]
    assert seen == expected
    assert clears == [EXECUTE]


# ---------------------------------------------------------------------------
# Whole-core runs
# ---------------------------------------------------------------------------

def test_fault_free_run_completes_golden():
    program = assemble("LDI r1, 7\nHALT")
    report = run_core(program, CFG, FaultScenario())
    assert report.outcome is Outcome.COMPLETED
    assert report.final_state.regs[1] == 7
    assert report.events == []
    assert matches_reference(report, program)


def test_permanent_decode_stuckat_recovers_within_band():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(3, 1), _site(StageKind.DECODE),
                                         10, PERMANENT),))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert len(report.permanent_events) == 1
    event = report.permanent_events[0]
    assert 82 <= event.recovery_cycles <= 151
    assert 0.5 <= CFG.cycles_to_us(event.recovery_cycles) <= 2.0


def test_single_cycle_transient_no_swap():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(TransientFlip(4), _site(StageKind.EXECUTE),
                                         12, 1),))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert report.permanent_events == []
    assert [e.classified for e in report.events] == ["transient"]
    # No swap, so no recovery or refill span.
    assert report.events[0].recovery_cycles is None
    assert report.events[0].refill_cycles is None


def test_recovery_accounting_identity():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(0, 1), _site(StageKind.EXECUTE),
                                         9, PERMANENT),))
    report = run_core(program, CFG, scenario)
    event = report.permanent_events[0]
    # detect is the first counted error cycle, so threshold-1 cycles remain.
    assert event.recovery_cycles == ((CFG.permanent_threshold - 1) + CFG.flush_cycles
                                     + CFG.powerup_cycles_per_block + event.refill_cycles)
    assert event.swap_complete_cycle > event.detect_cycle


def test_single_copy_on_after_recovery():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(3, 1), _site(StageKind.DECODE),
                                         10, PERMANENT),))
    report = run_core(program, CFG, scenario)
    assert report.final_power[(StageKind.DECODE, Copy.MAIN)] is PowerState.OFF
    assert report.final_power[(StageKind.DECODE, Copy.SPARE)] is PowerState.ON
    for kind in StageKind:
        on = sum(report.final_power[(kind, copy)] is PowerState.ON for copy in Copy)
        assert on == 1


def test_stress_ledger_matches_event_log():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(3, 1), _site(StageKind.DECODE),
                                         10, PERMANENT),))
    report = run_core(program, CFG, scenario)
    event = report.permanent_events[0]
    total = report.total_cycles
    report.stress.assert_conserved(total)

    spare = report.stress.blocks[(StageKind.DECODE, Copy.SPARE)]
    main = report.stress.blocks[(StageKind.DECODE, Copy.MAIN)]
    # Recomputed from the event log: the spare sat unpowered until the flush
    # completed, spent the configured cycles powering, and ran from then on.
    powering_start = event.end_cycle + CFG.flush_cycles + 1
    assert spare.off_cycles == powering_start
    assert spare.powering_cycles == CFG.powerup_cycles_per_block
    assert spare.on_cycles == total - powering_start - CFG.powerup_cycles_per_block
    # The faulty main was on through the classification cycle, then gated off.
    assert main.on_cycles == event.end_cycle + 1
    assert main.off_cycles == total - event.end_cycle - 1


def test_delay_fault_classified_permanent():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(Delay(1), _site(StageKind.EXECUTE),
                                         12, PERMANENT),))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert [e.classified for e in report.events] == ["permanent"]


def test_delay_with_deeper_lag_classified_permanent():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(Delay(2), _site(StageKind.EXECUTE),
                                         14, PERMANENT),))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert [e.classified for e in report.events] == ["permanent"]


# Each register is loaded once with an even-parity byte, so a stale word
# passes parity and stays in the final state. Delay 1 latches cycle 3's
# result (5) at cycle 4; delay 3 latches cycle 5's (9) at cycle 8.
_WRITE_ONCE = assemble("\n".join(
    f"LDI r{i}, {v}" for i, v in enumerate(
        [3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 33, 34, 36, 40, 48], start=1)) + "\nHALT")
_DELAY_1 = "@4 T:8 execute.main delay 1"
_DELAY_3 = "@8 T:3 execute.main delay 3"
_FLIP = "@9 T:1 execute.main flip 0"


@pytest.mark.parametrize("faults, regs", [
    # Delay 3 is later in scenario order, so it drives cycles 8-10.
    ((_DELAY_1, _DELAY_3, _FLIP), (0, 3, 5, 5, 5, 5, 5, 9, 9, 5, 24, 33, 34, 36, 40, 48)),
    # Delay 1 is later, so it drives its whole window.
    ((_DELAY_3, _DELAY_1, _FLIP), (0, 3, 5, 5, 5, 5, 5, 5, 5, 5, 24, 33, 34, 36, 40, 48)),
], ids=["delay-3-last", "delay-1-last"])
def test_overlapping_delays_the_later_one_in_scenario_order_drives_the_bus(faults, regs):
    # The flip on top breaks parity for one cycle; the delays never do, so
    # the event is credited to the flip, fault 2.
    report = run_core(_WRITE_ONCE, CFG, parse_scenario("\n".join(faults)))
    assert (report.outcome, report.total_cycles) == (Outcome.COMPLETED, 19)
    assert [(e.fault_id, e.stage, e.classified, e.detect_cycle, e.end_cycle)
            for e in report.events] == [(2, StageKind.EXECUTE, "transient", 9, 10)]
    assert (report.final_state.regs, report.final_state.pc,
            report.final_state.mem) == (regs, 15, {})
    assert not matches_reference(report, _WRITE_ONCE)


def test_fault_on_cold_spare_is_inert():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(3, 1),
                                         _site(StageKind.DECODE, Copy.SPARE),
                                         0, PERMANENT),))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert report.events == []
    assert matches_reference(report, program)


def test_detection_completeness_exposed_stuckat_always_permanent():
    program = _alternating_program()
    for stage in StageKind:
        for bit, value in ((0, 1), (7, 1), (33, 1)):
            scenario = FaultScenario((TimedFault(StuckAt(bit, value), _site(stage),
                                                 8, PERMANENT),))
            report = run_core(program, CFG, scenario)
            assert len(report.permanent_events) == 1, (stage, bit)
            assert report.outcome is Outcome.COMPLETED
            assert matches_reference(report, program)


def test_controller_rail_fault_is_fail_stop():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(0, 1),
                                         FaultSite(FaultUnit.CONTROLLER, Copy.MAIN),
                                         5, PERMANENT),))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.DEAD


def test_spare_failure_exhausts_redundancy():
    program = _alternating_program()
    scenario = FaultScenario((
        TimedFault(StuckAt(3, 1), _site(StageKind.DECODE), 0, PERMANENT),
        TimedFault(StuckAt(4, 1), _site(StageKind.DECODE, Copy.SPARE), 0, PERMANENT),
    ))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.DEAD
    assert len(report.permanent_events) >= 1


def test_two_stage_faults_recover_sequentially():
    program = _alternating_program(60)
    scenario = FaultScenario((
        TimedFault(StuckAt(3, 1), _site(StageKind.DECODE), 10, PERMANENT),
        TimedFault(StuckAt(5, 1), _site(StageKind.EXECUTE), 12, PERMANENT),
    ))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    stages = sorted(e.stage.value for e in report.permanent_events)
    assert stages == ["decode", "execute"]
    for event in report.permanent_events:
        # Even when a second fault interrupts a refill, every permanent event
        # eventually records the commit that restored normal operation.
        assert event.swap_complete_cycle is not None
        assert event.swap_complete_cycle > event.detect_cycle
        assert event.recovery_cycles == ((CFG.permanent_threshold - 1) + CFG.flush_cycles
                                         + CFG.powerup_cycles_per_block + event.refill_cycles)


def test_parity_blind_double_flip_corrupts_silently():
    # Two simultaneous flips within one byte evade parity; the corrupted
    # result commits and the run completes with a golden mismatch. This is
    # the documented limitation of single-parity protection.
    program = assemble("LDI r1, 4\nNOP\nNOP\nHALT")
    scenario = FaultScenario((
        TimedFault(TransientFlip(0), _site(StageKind.EXECUTE), 2, 1),
        TimedFault(TransientFlip(1), _site(StageKind.EXECUTE), 2, 1),
    ))
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert report.events == []  # nothing was detected
    assert not matches_reference(report, program)


def test_exhaustion_on_infinite_loop():
    program = assemble("JMP 0")
    report = run_core(program, CFG, FaultScenario(), max_cycles=500)
    assert report.outcome is Outcome.EXHAUSTED
    assert report.total_cycles == 500


def test_a_budget_below_one_cycle_is_refused():
    # The CLI refuses --max-cycles 0 before the core runs; a direct caller
    # gets the same answer from run_core itself.
    with pytest.raises(ValueError, match="max_cycles must be >= 1"):
        run_core(assemble("HALT"), CFG, FaultScenario(), max_cycles=0)


def test_a_budget_of_one_cycle_runs_one_cycle():
    # The smallest budget run_core accepts, with and without a fault that
    # starts on that cycle.
    program = assemble(WORKLOAD)
    for text in ("", "@0 PERM decode.main stuckat 3 1"):
        report = run_core(program, CFG, parse_scenario(text), max_cycles=1)
        assert report.outcome is Outcome.EXHAUSTED and report.total_cycles == 1
        assert report.events == [] and report.final_state.regs == (0,) * 16
        report.stress.assert_conserved(1)


def test_program_without_halt_exhausts():
    program = assemble("NOP\nNOP")
    report = run_core(program, CFG, FaultScenario(), max_cycles=500)
    assert report.outcome is Outcome.EXHAUSTED
    assert report.total_cycles < 500


def test_run_is_deterministic():
    program = _alternating_program()
    scenario = FaultScenario((TimedFault(StuckAt(3, 1), _site(StageKind.DECODE),
                                         10, PERMANENT),))
    a = run_core(program, CFG, scenario)
    b = run_core(program, CFG, scenario)
    assert a.final_state == b.final_state
    assert a.total_cycles == b.total_cycles
    assert [(e.detect_cycle, e.swap_complete_cycle) for e in a.events] == \
           [(e.detect_cycle, e.swap_complete_cycle) for e in b.events]


def test_branches_and_memory_against_reference():
    source = """
    LDI r1, 5
    LDI r2, 5
    LDI r4, 64
    BEQ r1, r2, 2     ; taken, skips the next instruction
    LDI r3, 111
    ST r1, r4, 2
    LD r5, r4, 2
    SUB r6, r5, r1
    BEQ r6, r0, 2     ; taken, skips the next instruction
    LDI r7, 222
    JMP 11
    HALT
    """
    program = assemble(source)
    report = run_core(program, CFG, FaultScenario())
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert report.final_state.regs[3] == 0
    assert report.final_state.regs[5] == 5
    assert report.final_state.regs[7] == 0


# Each opcode through the pipeline's own execute stage: name -> (a, b, lines,
# want). The program sets r1 <- a and r2 <- b, runs `lines`, the last of
# which is under test, then sets r4 <- 7 unless a branch skips it, and
# halts. `want` is the word execute drives: the value for rd, the stored
# value, the branch decision or the jump target.
_EXECUTE_CASES = {
    "NOP": (0, 0, "NOP", 0),
    "HALT": (0, 0, "HALT", 0),
    "LDI sign-extends": (0, 0, "LDI r3, -5", 0xFFFFFFFB),
    "MOV": (-7, 0, "MOV r3, r1", 0xFFFFFFF9),
    "ADD wraps past 0xFFFFFFFF": (-1, 2, "ADD r3, r1, r2", 1),
    "SUB below 0": (1, 3, "SUB r3, r1, r2", 0xFFFFFFFE),
    "AND": (-1, 0x1234, "AND r3, r1, r2", 0x1234),
    "OR": (0x0F0F, 0x7070, "OR r3, r1, r2", 0x7F7F),
    "XOR": (-1, 0x1234, "XOR r3, r1, r2", 0xFFFFEDCB),
    "LD of an unwritten address": (-1, 0, "LD r3, r1, 5", 0),
    "LD of a stored word": (-1, 0x55, "ST r2, r1, 5\nLD r3, r1, 5", 0x55),
    "ST at a wrapped address": (-1, 0x4321, "ST r2, r1, -2", 0x4321),
    "BEQ equal": (9, 9, "BEQ r1, r2, 2", 1),
    "BEQ unequal": (9, 8, "BEQ r1, r2, 2", 0),
    "JMP": (0, 0, "JMP 4", 4),
}


def test_the_execute_cases_cover_every_opcode():
    assert {Opcode[lines.split("\n")[-1].split()[0]]
            for _, _, lines, _ in _EXECUTE_CASES.values()} == set(Opcode)


@pytest.mark.parametrize("name", _EXECUTE_CASES)
def test_the_execute_stage_of_every_opcode(name):
    # `run_core` executes inline, apart from `isa.execute_result`, the ALU
    # of the reference interpreter and the reference core: both cores'
    # execute buses must carry `want`, and `run_core` must commit it.
    a, b, lines, want = _EXECUTE_CASES[name]
    lines = lines.split("\n")
    program = assemble("\n".join([f"LDI r1, {a}", f"LDI r2, {b}", *lines, "LDI r4, 7", "HALT"]))
    at = 1 + len(lines)  # the index of the instruction under test
    instr = program.instructions[at]
    # Its operands as decode drives them, from the state before it.
    before, _ = run_reference(program, at)
    sources = src_regs(instr)
    op_a = before.regs[sources[0]] if sources else instr.imm & WORD_MASK
    op_b = before.regs[sources[1]] if len(sources) > 1 else 0
    assert execute_result(instr, op_a, op_b, dict(before.mem)) == want

    report = run_core(program, CFG, FaultScenario())
    assert report.outcome is Outcome.COMPLETED and matches_reference(report, program)
    # Straight-line code before it: it is commit at + 1, and the execute bus
    # carries its word on that commit's cycle.
    reference = reference_run(program, CFG, FaultScenario())
    cycle = reference.commits[at]
    assert reference.words[cycle][2] == want
    # On that cycle, any data line stuck at the other value than `want`'s
    # bit breaks parity, so `run_core`'s word is `want` bit for bit.
    for bit in range(BUS_DATA_BITS):
        stuck = run_core(program, CFG, parse_scenario(
            f"@{cycle} T:1 execute.main stuckat {bit} {1 - (want >> bit & 1)}"))
        assert [e.detect_cycle for e in stuck.events] == [cycle], bit
    final = report.final_state
    op = instr.opcode
    if op is Opcode.ST:
        assert final.mem[(op_b + instr.imm) & WORD_MASK] == want
    elif op is Opcode.BEQ:
        assert final.regs[4] == (0 if want else 7)
    elif op is Opcode.JMP:
        assert (want, final.regs[4]) == (len(program) - 1, 0)
    elif op is Opcode.HALT:
        assert (final.pc, final.regs[4]) == (at, 0)
    else:
        assert final.regs[3] == (want if dst_reg(instr) else 0)
        assert final.regs[4] == 7


def _mov_program(rounds=30):
    lines = []
    for i in range(rounds):
        lines += [f"LDI r1, {i % 2}",
                  "MOV r2, r1",  # reads r1 the cycle after LDI writes it
                  "MOV r0, r2",  # r0 stays zero
                  "MOV r3, r0",
                  "ADD r4, r4, r2"]
    return assemble("\n".join(lines + ["HALT"]))


@pytest.mark.parametrize("scenario", [
    FaultScenario(),
    FaultScenario((TimedFault(StuckAt(3, 1), _site(StageKind.DECODE), 10, PERMANENT),)),
], ids=["fault-free", "decode-stuckat"])
def test_mov_against_reference(scenario):
    program = _mov_program()
    report = run_core(program, CFG, scenario)
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert report.final_state.regs[:5] == (0, 1, 1, 0, 15)
    assert len(report.permanent_events) == len(scenario.faults)


_REWRITTEN_BASES = assemble("""
    LDI r4, 64
    LDI r1, 7
    ST r1, r4, 2      ; mem[66] <- 7 through r4, which the next instruction rewrites
    LDI r4, 66
    LD r2, r4, 0      ; r2 <- mem[66] through r4, which the next instruction rewrites
    ADD r4, r2, r1
    LDI r6, 80
    LDI r7, 5
    LDI r8, 1
    ST r7, r6, 0      ; loop: store the trip count through the pointer r6 ...
    ADD r6, r6, r8    ; ... and walk it
    SUB r7, r7, r8
    BEQ r7, r0, 2
    JMP 9
    LD r3, r6, -1
    HALT
""")


@pytest.mark.parametrize("fault", [None, (StageKind.DECODE, StuckAt(3, 1)),
                                   (StageKind.EXECUTE, StuckAt(0, 1))],
                         ids=["fault-free", "decode-stuckat", "execute-stuckat"])
def test_stores_and_loads_through_rewritten_base_registers(fault):
    # A store's address and a load's address come from the base register as
    # decode read it, not as a later instruction leaves it. Each stuck-at
    # start cycle swaps a stage and replays from a different instruction.
    program = _REWRITTEN_BASES
    base = run_core(program, CFG, FaultScenario())
    assert base.final_state.mem == {66: 7, 80: 5, 81: 4, 82: 3, 83: 2, 84: 1}
    assert base.final_state.regs[1:9] == (7, 7, 1, 14, 0, 85, 0, 1)
    scenarios = [FaultScenario()] if fault is None else [
        FaultScenario((TimedFault(fault[1], _site(fault[0]), start, PERMANENT),))
        for start in range(base.total_cycles)]
    for scenario in scenarios:
        report = run_core(program, CFG, scenario)
        assert report.outcome is Outcome.COMPLETED
        assert matches_reference(report, program), scenario
        assert len(report.permanent_events) == len(scenario.faults)


def test_golden_check_fails_unless_the_reference_completes_the_same_run():
    program = assemble("NOP\nNOP\nHALT")
    report = run_core(program, CFG, FaultScenario())
    assert matches_reference(report, program)
    # The reference runs off the end of a program without the HALT.
    assert not matches_reference(report, assemble("NOP\nNOP"))
    # A run that did not complete is never golden.
    exhausted = run_core(program, CFG, FaultScenario(), max_cycles=2)
    assert exhausted.outcome is Outcome.EXHAUSTED
    assert not matches_reference(exhausted, program)


def test_golden_equivalence_randomized_corpus():
    # Every completed run equals the reference, across 100 programs and 20
    # scenarios each (transient mixes plus guaranteed-exposure stuck-ats).
    rng = random.Random(0xC0DE)
    for _ in range(100):
        program = gen_program(rng)
        base = run_core(program, CFG, FaultScenario())
        assert base.outcome is Outcome.COMPLETED
        assert matches_reference(base, program)
        words = fault_free_words(program, CFG)
        for s in range(20):
            if s % 2 == 0:
                scenario = gen_transient_scenario(rng, base.total_cycles,
                                                  CFG.permanent_threshold)
            else:
                scenario = gen_permanent_stuckat_scenario(rng, words)
            report = run_core(program, CFG, scenario)
            assert report.outcome is Outcome.COMPLETED
            assert matches_reference(report, program), scenario
            report.stress.assert_conserved(report.total_cycles)


def test_golden_equivalence_loop_corpus():
    # Backward branches: programs commit several times more instructions than
    # they hold, under fault-free, transient and permanent stuck-at runs.
    rng = random.Random(0x100F)
    for _ in range(25):
        program = gen_loop_program(rng, rng.randrange(3, 8))
        base = run_core(program, CFG, FaultScenario())
        assert base.outcome is Outcome.COMPLETED
        assert matches_reference(base, program)
        for scenario in (gen_transient_scenario(rng, base.total_cycles,
                                                CFG.permanent_threshold),
                         gen_permanent_stuckat_scenario(rng, fault_free_words(program, CFG))):
            report = run_core(program, CFG, scenario)
            assert report.outcome is Outcome.COMPLETED
            assert matches_reference(report, program), scenario


def test_golden_check_budget_covers_long_loops():
    # 7 instructions, 50 trips: about 200 committed instructions, far more
    # than any multiple of the program length.
    program = assemble("""
    LDI r1, 50
    LDI r2, 1
    ADD r3, r3, r1
    SUB r1, r1, r2
    BEQ r1, r0, 2
    JMP 2
    HALT
    """)
    report = run_core(program, CFG, FaultScenario())
    assert report.outcome is Outcome.COMPLETED
    assert report.final_state.regs[3] == 50 * 51 // 2
    assert matches_reference(report, program)


# ---------------------------------------------------------------------------
# Faulted sites next to fault-free ones
# ---------------------------------------------------------------------------

_DECODE_SWAP = "@10 PERM decode.main stuckat 3 1"


def test_delay_after_another_stage_swapped_reads_full_history():
    # Execute's delay line activates long after decode moved to its spare and
    # the pipeline was flushed and replayed; the stale word it picks up comes
    # from execute's own bus history, so the error shows on the first cycle.
    program = _alternating_program(80)
    report = run_core(program, CFG, parse_scenario(
        _DECODE_SWAP + "\n@120 PERM execute.main delay 1"))
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    decode, execute = report.permanent_events
    assert (decode.stage, decode.fault_id, decode.resume_cycle) == (StageKind.DECODE, 0, 93)
    assert (execute.stage, execute.fault_id) == (StageKind.EXECUTE, 1)
    assert (execute.detect_cycle, execute.end_cycle) == (120, 135)
    assert report.total_cycles == 413


def test_spare_fault_is_inert_until_switch_in():
    # The spare's flip window opens before the swap and closes after it: the
    # run is undisturbed until the spare is selected at the resume cycle.
    program = _alternating_program(80)
    alone = run_core(program, CFG, parse_scenario(_DECODE_SWAP))
    report = run_core(program, CFG, parse_scenario(
        _DECODE_SWAP + "\n@85 T:15 decode.spare flip 0"))
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    swap, flip = report.events
    assert swap.resume_cycle == alone.events[0].resume_cycle == 93
    assert (flip.classified, flip.fault_id, flip.stage) == ("transient", 1, StageKind.DECODE)
    assert (flip.detect_cycle, flip.end_cycle) == (93, 100)
    # The error stalled the refill for exactly the flip's remaining window.
    assert swap.swap_complete_cycle == alone.events[0].swap_complete_cycle + 7


def test_two_swaps_stress_spans():
    program = _alternating_program(80)
    report = run_core(program, CFG, parse_scenario(
        _DECODE_SWAP + "\n@150 PERM execute.main stuckat 0 1"))
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert [(e.stage, e.end_cycle) for e in report.permanent_events] == \
        [(StageKind.DECODE, 25), (StageKind.EXECUTE, 166)]
    assert report.total_cycles == 412
    spans = {(k.value, c.value): (s.on_cycles, s.off_cycles, s.powering_cycles)
             for (k, c), s in report.stress.blocks.items()}
    # main: on through its classification cycle; spare: off until the flush
    # ends, powering for the configured cycles, then on.
    assert spans == {
        ("predecode", "main"): (412, 0, 0), ("predecode", "spare"): (0, 412, 0),
        ("decode", "main"): (26, 386, 0), ("decode", "spare"): (319, 29, 64),
        ("execute", "main"): (167, 245, 0), ("execute", "spare"): (178, 170, 64),
    }
    powered = {(k.value, c.value): p.value for (k, c), p in report.final_power.items()}
    assert powered == {
        ("predecode", "main"): "on", ("predecode", "spare"): "off",
        ("decode", "main"): "off", ("decode", "spare"): "on",
        ("execute", "main"): "off", ("execute", "spare"): "on",
    }


@pytest.mark.parametrize("text, cycles, events", [
    # Rail a's bit 0 already reads 0 while idle; it is exposed when the
    # controller leaves MONITOR for SUSPECT on decode's first error.
    ("@0 PERM controller.a stuckat 0 0\n" + _DECODE_SWAP, 11, 0),
    # A one-cycle flip on rail b in the middle of decode's power-up.
    ("@40 T:1 controller.b flip 15\n" + _DECODE_SWAP, 41, 1),
])
def test_latent_controller_rail_fault_ends_dead(text, cycles, events):
    report = run_core(_alternating_program(80), CFG, parse_scenario(text))
    assert report.outcome is Outcome.DEAD
    assert report.total_cycles == cycles
    assert len(report.events) == events
    report.stress.assert_conserved(cycles)


def test_rail_mismatch_on_the_cycle_the_controller_dies():
    # Decode's spare reaches the permanent threshold on cycle 135, which is
    # fail-stop. Rail a's bit 0 (set in DEAD's mode code 5) stuck at 0 from
    # that cycle makes the rails disagree on the same cycle: the run ends as
    # it does without the rail fault.
    spare_fails = _DECODE_SWAP + "\n@120 PERM decode.spare stuckat 3 1"
    program = _alternating_program(80)
    alone = run_core(program, CFG, parse_scenario(spare_fails))
    assert (alone.outcome, alone.total_cycles, len(alone.permanent_events)) == \
        (Outcome.DEAD, 136, 1)
    report = run_core(program, CFG, parse_scenario(
        spare_fails + "\n@135 PERM controller.a stuckat 0 0"))
    assert _run_summary(report) == _run_summary(alone)


# ---------------------------------------------------------------------------
# The repair countdown: FLUSH and POWER_SWAP cycles change only `remaining`
# ---------------------------------------------------------------------------

# _DECODE_SWAP on _alternating_program(80) classifies decode at cycle 25.
# FLUSH runs cycles 26-28 and powers the spare on at 28; POWER_SWAP runs
# cycles 29-92 and switches to the spare at 92; the core resumes at 93.
_CLASSIFIED, _POWER_ON, _SWAP = 25, 28, 92
_COUNTDOWN = range(_CLASSIFIED + 1, _SWAP + 1)


def _run_summary(report):
    return {
        "outcome": report.outcome,
        "total_cycles": report.total_cycles,
        "events": [(e.fault_id, e.stage, e.classified, e.detect_cycle, e.end_cycle,
                    e.swap_complete_cycle, e.resume_cycle) for e in report.events],
        "stress": {(k.value, c.value): (s.on_cycles, s.off_cycles, s.powering_cycles)
                   for (k, c), s in report.stress.blocks.items()},
        "final_power": {(k.value, c.value): p.value
                        for (k, c), p in report.final_power.items()},
    }


def _cut_in_countdown(outcome, last_cycle):
    """The summary of a swap run that ends on `last_cycle` of the countdown,
    before the switch flips. The spare powers from the cycle after the
    power-on strobe; a run that dies on the strobe's cycle drops it."""
    total = last_cycle + 1
    powering = max(0, total - (_POWER_ON + 1))
    strobed = last_cycle > _POWER_ON or (last_cycle == _POWER_ON
                                         and outcome is Outcome.EXHAUSTED)
    return {
        "outcome": outcome,
        "total_cycles": total,
        "events": [(0, StageKind.DECODE, "permanent", 10, _CLASSIFIED, None, None)],
        "stress": {
            ("predecode", "main"): (total, 0, 0), ("predecode", "spare"): (0, total, 0),
            ("decode", "main"): (_CLASSIFIED + 1, total - _CLASSIFIED - 1, 0),
            ("decode", "spare"): (0, total - powering, powering),
            ("execute", "main"): (total, 0, 0), ("execute", "spare"): (0, total, 0),
        },
        "final_power": {
            ("predecode", "main"): "on", ("predecode", "spare"): "off",
            ("decode", "main"): "off",
            ("decode", "spare"): "powering" if strobed else "off",
            ("execute", "main"): "on", ("execute", "spare"): "off",
        },
    }


@pytest.mark.parametrize("start", _COUNTDOWN)
def test_rail_fault_inside_the_countdown_ends_dead_on_its_first_cycle(start):
    # Rail a's bit 4 (focal stage decode) is stuck at 0 from `start` on, so
    # the rails disagree on the first cycle it is active. The strobe of that
    # cycle (power-on at 28, switch at 92) is dropped in favour of Dead.
    text = f"{_DECODE_SWAP}\n@{start} PERM controller.a stuckat 4 0"
    report = run_core(_alternating_program(80), CFG, parse_scenario(text))
    assert _run_summary(report) == _cut_in_countdown(Outcome.DEAD, start)


@pytest.mark.parametrize("strobe, rail", [
    (_CLASSIFIED, "a stuckat 5 1"), (_CLASSIFIED, "b stuckat 8 0"),
    (_POWER_ON, "a stuckat 14 1"), (_POWER_ON, "b stuckat 12 0")])
def test_rail_stuck_at_a_strobe_ends_dead_on_the_cycle_after_it(strobe, rail):
    # A rail stuck at the level a strobe drives, from the strobe's own cycle
    # (flush and decode's power-off at 25, power-on at 28): the rails agree
    # on that cycle and disagree on the next, the countdown's first without
    # the strobe, so no skip may start on the strobe's cycle.
    text = f"{_DECODE_SWAP}\n@{strobe} PERM controller.{rail}"
    program = _alternating_program(80)
    report = run_core(program, CFG, parse_scenario(text))
    assert _run_summary(report) == _cut_in_countdown(Outcome.DEAD, strobe + 1)
    expected = reference_run(program, CFG, parse_scenario(text)).reports
    assert report == expected[pipeline.DEFAULT_MAX_CYCLES]


@pytest.mark.parametrize("text, cycle", [
    # Rail b carries the complement of MONITOR's vector 0 on bit 0.
    ("@5 PERM controller.b stuckat 0 0", 5),
    # Rail a stuck at 0 on a bit of the mode code: bit 0 first reads 1 in
    # SUSPECT (1), bit 1 in FLUSH (2) and bit 2 in RESUME (4); bit 0 also
    # reads 1 in POWER_SWAP (3), here from a cycle that drives no strobe.
    ("@0 PERM controller.a stuckat 0 0", 10),
    ("@0 PERM controller.a stuckat 1 0", _CLASSIFIED),
    (f"@{_POWER_ON + 5} PERM controller.a stuckat 0 0", _POWER_ON + 5),
    ("@0 PERM controller.a stuckat 2 0", _SWAP),
], ids=["monitor", "suspect", "flush", "power-swap", "resume"])
def test_a_rail_mismatch_ends_the_run_dead_on_its_cycle_in_every_mode(text, cycle):
    # The controller is in the mode each case names after the step of the
    # cycle on which the rails first disagree; the run ends DEAD on that
    # cycle whatever the mode, as the reference core's does.
    program = _alternating_program(80)
    scenario = parse_scenario(f"{_DECODE_SWAP}\n{text}")
    report = run_core(program, CFG, scenario)
    assert (report.outcome, report.total_cycles) == (Outcome.DEAD, cycle + 1)
    assert report == reference_run(program, CFG, scenario).reports[pipeline.DEFAULT_MAX_CYCLES]


@pytest.mark.parametrize("max_cycles", range(_CLASSIFIED + 1, _SWAP + 2))
def test_cycle_budget_ending_inside_the_countdown(max_cycles):
    report = run_core(_alternating_program(80), CFG, parse_scenario(_DECODE_SWAP),
                      max_cycles=max_cycles)
    if max_cycles <= _SWAP:
        assert _run_summary(report) == _cut_in_countdown(Outcome.EXHAUSTED, max_cycles - 1)
    else:
        # The budget ends on the switch cycle itself: the spare is on.
        summary = _run_summary(report)
        assert (summary["outcome"], summary["total_cycles"]) == (Outcome.EXHAUSTED, _SWAP + 1)
        assert summary["stress"][("decode", "spare")] == \
            (0, _POWER_ON + 1, CFG.powerup_cycles_per_block)
        assert summary["final_power"][("decode", "spare")] == "on"
        assert summary["events"] == [(0, StageKind.DECODE, "permanent", 10, _CLASSIFIED,
                                      None, _SWAP + 1)]


def test_countdown_windows_match_the_config():
    # The constants above follow from the config and the scenario.
    report = run_core(_alternating_program(80), CFG, parse_scenario(_DECODE_SWAP))
    event = report.permanent_events[0]
    assert event.end_cycle == _CLASSIFIED
    assert _POWER_ON == _CLASSIFIED + CFG.flush_cycles
    assert _SWAP == _POWER_ON + CFG.powerup_cycles_per_block
    assert event.resume_cycle == _SWAP + 1


# ---------------------------------------------------------------------------
# Resuming from the fault-free run
# ---------------------------------------------------------------------------

_RESUME_CONFIGS = (CFG, CoreConfig(permanent_threshold=5, flush_cycles=1,
                                   powerup_cycles_per_block=7))


def _random_fault(rng, horizon):
    """One fault anywhere: a stage or rail site, any kind it supports, a
    start in [0, horizon) and a PERM or T:n window."""
    unit = rng.choice(list(FaultUnit))
    rail = unit is FaultUnit.CONTROLLER
    roll = rng.random()
    if roll < 0.4:
        kind = StuckAt(rng.randrange(16 if rail else 36), rng.randrange(2))
    elif roll < 0.7 or rail:
        kind = TransientFlip(rng.randrange(16 if rail else 36))
    else:
        kind = Delay(rng.randrange(1, 4))
    copy = Copy.MAIN if rng.random() < 0.8 else Copy.SPARE
    duration = PERMANENT if rng.random() < 0.4 else rng.randrange(1, 30)
    return TimedFault(kind, FaultSite(unit, copy), rng.randrange(horizon), duration)


def test_fault_free_records_stop_where_runs_asked():
    # A 20,000-cycle fault-free run is recorded only up to the cycle a run
    # resumed from, not to its end: one record per commit made by then.
    program = assemble("""
    LDI r1, 2600
    LDI r2, 1
    SUB r1, r1, r2
    BEQ r1, r0, 2
    JMP 2
    HALT
    """)
    every = fault_free_records(program, CFG)

    def recorded_through(cycle):
        return program.core_memo["records"] == [r for r in every if r[0] <= cycle]

    fault_free = run_core(program, CFG, FaultScenario())
    assert fault_free.total_cycles >= 20_000
    assert recorded_through(0)  # a fault-free run records nothing but the start
    report = run_core(program, CFG, parse_scenario("@5 PERM decode.main stuckat 0 1"))
    assert report.outcome is Outcome.COMPLETED
    assert matches_reference(report, program)
    assert recorded_through(5)
    run_core(program, CFG, parse_scenario("@3 T:2 execute.main flip 7"))
    assert recorded_through(5)
    # A run that a rail fault kills on its first cycle still records the
    # commits before it.
    dead = run_core(program, CFG, parse_scenario("@6 PERM controller.a stuckat 0 1"))
    assert (dead.outcome, dead.total_cycles) == (Outcome.DEAD, 7)
    assert recorded_through(6) and not recorded_through(5)
    # A delay's run stops its records short of its start by the length of
    # its delay history, the cycles it replays to fill that history.
    run_core(program, CFG, parse_scenario("@30 T:4 execute.main delay 3"))
    assert recorded_through(26) and not recorded_through(30)


def test_fault_free_end_is_learned_from_a_run_that_reaches_it():
    program = _alternating_program(10)
    fault_free = run_core(program, CFG, FaultScenario())
    late = parse_scenario(f"@{fault_free.total_cycles + 5} PERM decode.main stuckat 3 1")
    for _ in range(2):
        report = run_core(program, CFG, late)
        assert report == fault_free
        assert program.core_memo["records"] == fault_free_records(program, CFG)


def test_fault_free_records_share_unchanged_registers_and_memory():
    # Every register write here changes its register and every store writes
    # a new value, so two records hold equal registers (memory) exactly when
    # no commit wrote them in between. Those records share one object. The
    # registers are written 3 times before the loop and twice a trip, memory
    # once a trip.
    records = fault_free_records(_loop_program(20), CFG)
    assert len(records) > 100
    for field, writes in ((1, 3 + 2 * 20), (2, 20)):
        for before, after in zip(records, records[1:]):
            assert (before[field] is after[field]) == (before[field] == after[field])
        assert len({id(record[field]) for record in records}) == writes + 1


def test_program_tables_are_built_once(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "encode_instruction",
                        lambda instr: calls.append(instr) or encode_instruction(instr))
    program = _alternating_program(10)
    for text in ("", "@4 T:3 decode.main flip 2", "@9 PERM execute.main stuckat 1 1"):
        run_core(program, CFG, parse_scenario(text))
    assert len(calls) == len(program)


# ---------------------------------------------------------------------------
# Ending a run once it rejoins the fault-free run
# ---------------------------------------------------------------------------

def test_a_run_that_rejoins_the_fault_free_run_executes_far_fewer_instructions():
    program = _loop_program(200)
    scenario = parse_scenario("@20 PERM decode.main stuckat 0 1")

    def run(target, scenario):
        report = run_core(target, CFG, scenario)
        assert report.outcome is Outcome.COMPLETED and matches_reference(report, program)
        return report

    fresh = run(Program(program.instructions), scenario)
    assert (fresh.resumed_from, fresh.joined_at) == (0, None)
    # A run with no faults simulates every cycle, every time.
    for target in (program, program, Program(program.instructions)):
        report = run(target, FaultScenario())
        assert (report.simulated_cycles, report.resumed_from, report.joined_at) == (
            report.total_cycles, 0, None)
    for _ in range(2):
        warm = run(program, scenario)
        assert warm == fresh and warm.joined_at is not None
        assert 20 * warm.simulated_cycles < fresh.simulated_cycles


def test_a_swapped_run_on_straight_line_code_rejoins_the_fault_free_run():
    # `workload.asm` has one branch, near its end: a run that swaps its
    # decode stage rejoins the fault-free run within a few commits of the
    # refill, not at that branch.
    program = assemble(WORKLOAD)
    scenario = parse_scenario("@10 PERM decode.main stuckat 3 1")
    fresh = run_core(Program(program.instructions), CFG, scenario)
    assert fresh.outcome is Outcome.COMPLETED and matches_reference(fresh, program)
    assert len(fresh.permanent_events) == 1
    run_core(program, CFG, FaultScenario())
    for _ in range(2):
        warm = run_core(program, CFG, scenario)
        assert warm == fresh and warm.joined_at is not None
        assert 5 * warm.simulated_cycles <= fresh.simulated_cycles


def test_runs_that_can_never_settle_equal_runs_from_cycle_zero():
    # A permanent stuck-at on a selected main that never breaks parity is
    # never inert: such a run simulates to the HALT on a warm `Program` too,
    # and equals its fresh run.
    program = assemble(WORKLOAD)
    words = fault_free_words(program, CFG)
    stage, bit, value = next((stage, bit, value) for stage in range(3) for bit in range(36)
                             for value in (0, 1)
                             if all(encode_bus(w[stage]) >> bit & 1 == value for w in words))
    unexposed = f"@5 PERM {PIPELINE_ORDER[stage].value}.main stuckat {bit} {value}"
    run_core(program, CFG, FaultScenario())
    run_core(program, CFG, parse_scenario(_DECODE_SWAP))
    scenario = parse_scenario(unexposed)
    fresh = run_core(Program(program.instructions), CFG, scenario)
    assert fresh.outcome is Outcome.COMPLETED and matches_reference(fresh, program)
    warm = run_core(program, CFG, scenario)
    assert warm == fresh
    assert warm.joined_at is None  # it simulated its HALT


# Rail stuck-ats, against the idle vector: 0 before any swap, the swapped
# stage's code (position + 1) in bits 3-4 after it. Rail b carries the
# complement. Name -> (scenario, outcome).
_IDLE_RAIL_CASES = {
    # Power-off-targets-spare is always 0 on rail a.
    "bit 10 always idle": ("@5 PERM controller.a stuckat 10 0", Outcome.COMPLETED),
    "bit 10 always idle, decode swap":
        ("@5 PERM controller.a stuckat 10 0\n" + _DECODE_SWAP, Outcome.COMPLETED),
    "bit 3 idle before and after a decode swap":
        ("@5 PERM controller.b stuckat 3 1\n" + _DECODE_SWAP, Outcome.COMPLETED),
    "bit 4 never idle without a swap": ("@60 PERM controller.a stuckat 4 1", Outcome.DEAD),
    # Idle-level only before the swap: the error run's focal code is seen at
    # once, and the run dies.
    "bit 4 idle before a decode swap":
        ("@5 PERM controller.a stuckat 4 0\n" + _DECODE_SWAP, Outcome.DEAD),
    "bit 3 idle before an execute swap":
        ("@5 PERM controller.a stuckat 3 0\n@10 PERM execute.main stuckat 3 1", Outcome.DEAD),
    # Idle-level only after the swap, which completes at cycle 95: the run
    # settles once the swap has made the rail fault inert.
    "rail a bit 4 idle after a decode swap":
        ("@120 PERM controller.a stuckat 4 1\n" + _DECODE_SWAP, Outcome.COMPLETED),
    "rail b bit 4 idle after a decode swap":
        ("@120 PERM controller.b stuckat 4 0\n" + _DECODE_SWAP, Outcome.COMPLETED),
}


@pytest.mark.parametrize("name", _IDLE_RAIL_CASES)
def test_a_rail_stuck_at_its_idle_level_is_inert(name):
    # Once every stage fault is inert, the controller idles in MONITOR with
    # no strobe, so a rail stuck at the level it carries there is never
    # seen: a run that completes rejoins the fault-free run before its HALT
    # on a warm `Program`. Every run equals its fresh run and the reference
    # core's.
    program = assemble(WORKLOAD)
    run_core(program, CFG, FaultScenario())
    run_core(program, CFG, parse_scenario(_DECODE_SWAP))
    text, outcome = _IDLE_RAIL_CASES[name]
    scenario = parse_scenario(text)
    fresh = run_core(Program(program.instructions), CFG, scenario)
    assert fresh.outcome is outcome
    assert fresh == reference_run(program, CFG, scenario).reports[pipeline.DEFAULT_MAX_CYCLES]
    warm = run_core(program, CFG, scenario)
    assert warm == fresh
    if outcome is Outcome.COMPLETED:
        assert matches_reference(fresh, program)
        assert warm.joined_at is not None  # it rejoined before its HALT


def test_jumped_reports_do_not_share_the_memoized_final_state():
    program = _loop_program(30)
    scenario = parse_scenario("@20 PERM execute.main stuckat 0 1")
    fault_free = run_core(program, CFG, FaultScenario())
    expected = dict(fault_free.final_state.mem)
    assert expected
    fault_free.final_state.mem[0xBAD] = 1
    for _ in range(2):
        report = run_core(program, CFG, scenario)
        assert report.outcome is Outcome.COMPLETED and report.joined_at is not None
        assert report.final_state.mem == expected
        report.final_state.mem[0xBAD] = 1
    assert program.core_memo["end"][1].mem == expected


def _loop_iterations(run):
    """`run()` and the number of iterations of `run_core`'s cycle loop it
    made, counted by a line tracer on the loop's first statement."""
    code = pipeline.run_core.__code__
    source, first = inspect.getsourcelines(pipeline.run_core)
    line = first + next(i for i, text in enumerate(source)
                        if text.strip() == "total_cycles = cycle + 1")
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == line
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, count


def test_a_report_counts_the_cycles_its_loop_simulated():
    # `simulated_cycles` is worked out at the end of a run from where it
    # resumed, what it skipped and where it joined; it must be the number of
    # cycles the loop ran. `resumed_from` is the last commit record at or
    # before the run's start bound (no delay here, so no margin).
    program = assemble(WORKLOAD)
    seen = set()
    cases = [("", None), (_DECODE_SWAP, None), ("@30 T:5 decode.main flip 3", None),
             ("@40 PERM controller.a stuckat 4 1", None), (_DECODE_SWAP, 60),
             ("@125 PERM decode.main stuckat 0 1", None), (_DECODE_SWAP, None)]
    for text, budget in cases:
        scenario = parse_scenario(text)
        budget = budget or pipeline.DEFAULT_MAX_CYCLES
        bound = min(min((f.start for f in scenario.faults), default=0), budget - 1)
        for target in (Program(program.instructions), program):
            before = list(target.core_memo.get("records", [(0,)]))
            report, loops = _loop_iterations(
                lambda: run_core(target, CFG, scenario, max_cycles=budget))
            assert report.simulated_cycles == loops, (text, budget)
            assert report.resumed_from == max(n for n, record in enumerate(before)
                                              if record[0] <= bound)
            tail = 0 if report.joined_at is None else target.core_memo["tails"][report.joined_at]
            resumed = before[report.resumed_from][0]
            seen.add("every cycle" if report.total_cycles == resumed + loops + tail else "skips")
            seen.update(("resumed",) * (report.resumed_from > 0)
                        + ("joined",) * (report.joined_at is not None))
    assert seen == {"skips", "every cycle", "resumed", "joined"}


def test_the_join_table_holds_the_fault_free_cycles_left_after_each_commit():
    # A settled run after n commits is in the fault-free run's state after n
    # commits, latches included, so `tails[n]` is the fault-free run's cycles
    # left after its n-th commit, whichever runs filled it. One copy of each
    # program is filled by faulted runs alone (a swapped stuck-at, a delay
    # window, and two faults at once), another by a run with no faults. The
    # programs are loop kernels and `samples/workload.asm`, with RAW stalls.
    rng = random.Random(0x7A11)
    seen = set()
    programs = [gen_loop_program(rng, rng.randrange(3, 8)) for _ in range(16)]
    for program in programs + [assemble(WORKLOAD)]:
        records = fault_free_records(program, CFG)
        total = run_core(Program(program.instructions), CFG, FaultScenario()).total_cycles
        # records[n] is the fault-free state on the first cycle after commit n.
        expected = [None] + [total - record[0] for record in records[1:]]
        if any(pd is not None and de is not None and de[1]
               and de[1] in src_regs(decode_word(pd)) for *_, pd, de in records):
            seen.add("stall")

        def check(tails):
            assert len(tails) in (0, len(expected))
            assert all(tail in (None, want) for tail, want in zip(tails, expected))
            return sum(tail is not None for tail in tails)

        warm = Program(program.instructions)
        words = fault_free_words(program, CFG)
        stuck, other = (gen_permanent_stuckat_scenario(rng, words).faults[0] for _ in range(2))
        delay = TimedFault(Delay(rng.randrange(1, 4)), _site(rng.choice(PIPELINE_ORDER)),
                           rng.randrange(len(words)), rng.randrange(1, 41))
        for name, faults in (("swap", (stuck,)), ("delay", (delay,)),
                             ("two faults", (stuck, delay)), ("two faults", (stuck, other))):
            before = check(warm.core_memo.get("tails", []))
            run_core(warm, CFG, FaultScenario(faults))
            if check(warm.core_memo["tails"]) > before:
                seen.add(name)

        fresh = Program(program.instructions)
        run_core(fresh, CFG, FaultScenario())
        assert fresh.core_memo["tails"] == expected
    assert seen >= {"stall", "swap", "delay", "two faults"}


# ---------------------------------------------------------------------------
# The frozen error window: SUSPECT cycles change only the error counters
# ---------------------------------------------------------------------------

def _window_scenarios(threshold):
    """Scenarios around the error window of each `threshold`."""
    half = max(threshold // 2, 1)  # a fault this long ends inside the window

    def delays(site, start, extra):
        # A delay window that clears, then a deeper delay at the same site
        # that reads the history its frozen cycles appended.
        return (f"@{start} T:{threshold - 1} {site} delay 1\n"
                f"@{start + threshold} PERM {site} delay {extra}")

    return {
        "predecode stuck-at": "@10 PERM predecode.main stuckat 3 1",
        "decode stuck-at": _DECODE_SWAP,
        "execute stuck-at": "@10 PERM execute.main stuckat 3 1",
        "spare stuck-at after the swap": _DECODE_SWAP + "\n@120 PERM decode.spare stuckat 3 1",
        "transient inside the window": f"@30 T:{half} decode.main flip 3",
        "second fault inside the window":
            f"@30 T:{half} decode.main flip 3\n@{30 + half // 2} PERM execute.main stuckat 3 1",
        "second fault inside a permanent window":
            _DECODE_SWAP + f"\n@{10 + half} PERM execute.main stuckat 3 1",
        "two stages in error": _DECODE_SWAP + "\n@10 PERM execute.main stuckat 3 1",
        "permanent delay": "@12 PERM execute.main delay 2",
        "second delay after the window": delays("execute.main", 12, 3),
        "deeper second delay after the window": delays("execute.main", 12, 5),
        "second delay on the spare": _DECODE_SWAP + "\n" + delays("decode.spare", 120, 3),
    }


@pytest.mark.parametrize("threshold", (2, 4, 16))
def test_skipped_error_windows_equal_windows_taken_cycle_by_cycle(threshold):
    config = replace(CFG, permanent_threshold=threshold)
    program = _alternating_program(80)
    # Budgets that end inside the windows opening at cycles 10 and 12, and
    # one that does not.
    budgets = (*range(11, 13 + threshold), pipeline.DEFAULT_MAX_CYCLES)
    for name, text in _window_scenarios(threshold).items():
        scenario = parse_scenario(text)
        expected = reference_run(program, config, scenario, budgets).reports
        for max_cycles in budgets:
            for target in (Program(program.instructions), program):
                assert run_core(target, config, scenario,
                                max_cycles=max_cycles) == expected[max_cycles], (name, max_cycles)


def test_a_million_cycle_delay_keeps_a_small_history():
    # The frozen window before a threshold of a million is one history
    # entry at the delay's site, however long the delay.
    program = assemble(WORKLOAD)
    config = replace(CFG, permanent_threshold=10**6)
    scenario = parse_scenario("@12 PERM decode.main delay 1000000")
    tracemalloc.start()
    try:
        report = run_core(program, config, scenario, max_cycles=2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.outcome is Outcome.COMPLETED and matches_reference(report, program)
    assert [event.classified for event in report.events] == ["permanent"]
    assert peak < 2**20, f"{peak / 2**20:.1f} MiB traced"


@pytest.mark.parametrize("text, steps", [
    # A step on the window's first error cycle and one on the cycle that
    # classifies; then the first cycle after each countdown's strobe and
    # the ends of the FLUSH and POWER_SWAP countdowns, and the RESUME cycle.
    ("@125 PERM decode.main stuckat 0 1", 7),
    ("@40 PERM execute.main delay 2", 7),
    # The flip ends inside the window: its first error cycle, and the cycle
    # that clears.
    ("@60 T:10 predecode.main flip 3", 2),
])
def test_a_frozen_error_window_costs_two_controller_steps(monkeypatch, text, steps):
    calls = [0]
    step = pipeline.controller_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(pipeline, "controller_step", counted)
    program = assemble(WORKLOAD)
    scenario = parse_scenario(text)
    run_core(program, CFG, scenario)
    for _ in range(2):
        calls[0] = 0
        report = run_core(program, CFG, scenario)
        assert report.outcome is Outcome.COMPLETED and matches_reference(report, program)
        assert len(report.events) == 1
        assert calls[0] == steps


def test_a_countdown_skips_past_a_stage_fault_edge():
    # The flip on execute's cold spare starts and ends inside decode's
    # POWER_SWAP countdown, which evaluates no stage bus: the countdown is
    # one skip, as it is under the decode fault alone.
    program = assemble(WORKLOAD)
    decode = "@10 PERM decode.main stuckat 3 1"
    scenario = parse_scenario(decode + "\n@40 T:5 execute.spare flip 3")
    expected = reference_run(program, CFG, scenario).reports[pipeline.DEFAULT_MAX_CYCLES]
    for warm in (False, True):
        alone, target = Program(program.instructions), Program(program.instructions)
        if warm:
            run_core(alone, CFG, FaultScenario())
            run_core(target, CFG, FaultScenario())
        report = run_core(target, CFG, scenario)
        assert report == expected and [e.end_cycle for e in report.events] == [25]
        assert report.simulated_cycles == run_core(alone, CFG,
                                                   parse_scenario(decode)).simulated_cycles


# ---------------------------------------------------------------------------
# Every run against the reference core
# ---------------------------------------------------------------------------

def test_the_reference_core_takes_nothing_from_the_fast_path():
    # `tests/refcore.py` checks `run_core`'s shortcuts and its controller, so
    # it must not share them: it imports ifrsim names one by one, and none
    # of them is `run_core`, `fold_faults`, a controller function, the
    # controller's registers or a private name.
    tree = ast.parse((Path(__file__).resolve().parent / "refcore.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "ifrsim" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ifrsim":
            assert node.module != "ifrsim", "a whole ifrsim module"
            names += [(node.module, alias.name) for alias in node.names]
    assert ("ifrsim.isa", "execute_result") in names
    assert [(module, name) for module, name in names
            if name in ("*", "run_core", "fold_faults", "controller_step", "controller_skip",
                        "controller_output_vector", "ControllerState")
            or name.startswith("_")] == []



@pytest.mark.parametrize("text, culprit", [
    # Alone, the delay breaks parity from cycle 8 and the stuck-at from
    # cycle 6; together they break it on cycle 5, and the first active
    # fault is credited, in either order.
    ("@5 PERM predecode.main delay 2\n@5 PERM predecode.main stuckat 16 1", 0),
    ("@5 PERM predecode.main stuckat 16 1\n@5 PERM predecode.main delay 2", 0),
    # Otherwise the first active fault that breaks parity alone is.
    ("@5 PERM predecode.main delay 2\n@5 PERM predecode.main flip 0\n"
     "@5 PERM predecode.main flip 8", 1),
    ("@5 PERM predecode.main stuckat 16 1\n@5 PERM predecode.main delay 2\n"
     "@5 PERM predecode.main flip 8", 2),
])
def test_an_error_run_credits_its_culprit(text, culprit):
    program = assemble(WORKLOAD)
    scenario = parse_scenario(text)
    report = run_core(program, CFG, scenario)
    assert report == reference_run(program, CFG, scenario).reports[pipeline.DEFAULT_MAX_CYCLES]
    assert [(e.fault_id, e.classified, e.detect_cycle) for e in report.events] == [
        (culprit, "permanent", 5)]

def _reference_property(seed, programs, strata):
    """The coverage marks of runs checked against the reference core.
    `programs` counts corpus loop kernels, forward-branch programs and
    copies of `samples/workload.asm`. Each scenario draws from one of
    `strata`: "random", 1-3 faults anywhere; "settling", a main-copy fault
    a run can settle from, alone, with another fault or a rail window, or
    with a second fault once it has settled; "delays", chains of delays,
    some on decode's spare after `_DECODE_SWAP`. Some scenarios with
    permanent events run again with a rail stuck at a strobe's level from
    the strobe's cycle.

    Every scenario runs on a fresh `Program` and on one warm `Program` per
    program, so later runs resume from records and join through tails that
    earlier ones left; a run with no faults warms it first for half the
    programs, faulted runs alone fill it for the others. Configs:
    thresholds 2, 4 and 16 and `_RESUME_CONFIGS`. Budgets: the full one,
    inside error windows and countdowns, at or below the first fault start,
    and the fresh total -1, +0 or +1. One reference pass reports every
    budget of a scenario. Each run equals it and diverges on the same
    cycle, simulates no more cycles than it reports and charges each block
    every cycle; a fresh run never joins, and a completed run that never
    diverged matches the reference interpreter."""
    rng = random.Random(seed)
    seen = set()
    configs = (*(replace(CFG, permanent_threshold=t) for t in (2, 4, 16)), *_RESUME_CONFIGS)
    decode_swap = parse_scenario(_DECODE_SWAP).faults

    def check(program, warm, config, scenario, budgets):
        """The run of each budget on a fresh and on the warm `Program`,
        against one reference pass: {budget: (fresh report, warm report)}."""
        expected = reference_run(program, config, scenario, budgets).reports
        runs = {}
        for budget in sorted(budgets):
            want = expected[budget]
            seen.add(want.outcome)
            fresh = run_core(Program(program.instructions), config, scenario, max_cycles=budget)
            runs[budget] = fresh, run_core(warm, config, scenario, max_cycles=budget)
            for report in runs[budget]:
                assert (report, report.diverged_at) == (want, want.diverged_at), \
                    (program, config, scenario, budget)
                assert report.simulated_cycles <= report.total_cycles
                assert all(stress.total == report.total_cycles
                           for stress in report.stress.blocks.values())
                if report.outcome is Outcome.COMPLETED and report.diverged_at is None:
                    assert matches_reference(report, program), (program, config, scenario)
            assert fresh.joined_at is None
        return runs

    def main_fault(words):
        """A fault on a main stage copy that a run can settle from: a
        permanent stuck-at exposed at its start, which swaps the stage, or
        a flip, stuck-at or delay in a window of 1 to 40 cycles."""
        if rng.random() < 0.4:
            return gen_permanent_stuckat_scenario(rng, words).faults[0]
        roll = rng.random()
        kind = (StuckAt(rng.randrange(36), rng.randrange(2)) if roll < 0.3 else
                TransientFlip(rng.randrange(36)) if roll < 0.6 else Delay(rng.randrange(1, 5)))
        return TimedFault(kind, _site(rng.choice(PIPELINE_ORDER)), rng.randrange(len(words)),
                          rng.randrange(1, 41))

    def settling(program, words, config, full):
        """A main fault alone or with a second one: anywhere, a rail window,
        or one that starts well after the first has closed its window or
        completed its swap, on a main copy or on the first one's spare."""
        first, roll = main_fault(words), rng.random()
        if roll < 0.2:
            return first, _random_fault(rng, len(words) + 40)
        if roll < 0.4:
            rail = FaultSite(FaultUnit.CONTROLLER, rng.choice(list(Copy)))
            return first, TimedFault(StuckAt(rng.randrange(16), rng.randrange(2)), rail,
                                     rng.randrange(len(words)), rng.randrange(1, 41))
        if roll < 0.65:
            alone = run_core(Program(program.instructions), config, FaultScenario((first,)),
                             max_cycles=full)
            settled = max([e.swap_complete_cycle or 0 for e in alone.events]
                          + [first.end if first.duration else 0])
            second = main_fault(words) if rng.random() < 0.5 else TimedFault(
                StuckAt(rng.randrange(36), rng.randrange(2)),
                replace(first.site, copy=Copy.SPARE), 0, PERMANENT)
            seen.add("second after settling")
            return first, replace(second, start=settled + rng.randrange(20, 80))
        return first,

    def delays(program, words, config):
        """1-3 delays with `extra` 1 to 6, PERM or T:n, on a main copy or,
        after `_DECODE_SWAP` has swapped decode, on the decode spare. A later
        delay often shares the site of the one before it and starts inside
        or just after that one's window, so it reads back across the frozen
        cycles of that window's errors."""
        threshold = config.permanent_threshold
        swap = run_core(Program(program.instructions), config, FaultScenario(decode_swap)).events
        swapped_at = swap[0].resume_cycle if swap and rng.random() < 0.4 else None
        faults = [] if swapped_at is None else list(decode_swap)
        site = None
        for _ in range(rng.randrange(1, 4)):
            if site is None or rng.random() < 0.4:
                if swapped_at is not None and rng.random() < 0.5:
                    site = FaultSite(FaultUnit.DECODE, Copy.SPARE)
                    start = swapped_at + rng.randrange(12)
                else:
                    site, start = _site(rng.choice(PIPELINE_ORDER)), rng.randrange(3, len(words))
            else:
                start += rng.randrange(1, threshold + 8)
            duration = PERMANENT if rng.random() < 0.4 else rng.randrange(1, 2 * threshold)
            faults.append(TimedFault(Delay(rng.randrange(1, 7)), site, start, duration))
        return tuple(faults)

    loops, branches, workloads = programs
    sources = ([lambda: gen_loop_program(rng, rng.randrange(3, 8))] * loops
               + [lambda: gen_program(rng, rng.randrange(8, 30))] * branches
               + [lambda: assemble(WORKLOAD)] * workloads)
    for make in sources:
        program = make()
        words = fault_free_words(program, CFG)
        golden = run_core(Program(program.instructions), CFG, FaultScenario())
        warm = Program(program.instructions)
        warmed = rng.random() < 0.5
        if warmed:
            check(program, warm, CFG, FaultScenario(), {pipeline.DEFAULT_MAX_CYCLES})
        full = 3 * golden.total_cycles + 300
        for _ in range(5):
            config = rng.choice(configs)
            stratum = rng.choice(strata)
            if stratum == "random":
                faults = tuple(_random_fault(rng, golden.total_cycles + 40)
                               for _ in range(rng.randrange(1, 4)))
            elif stratum == "settling":
                faults = settling(program, words, config, full)
            else:
                faults = delays(program, words, config)
            scenario = FaultScenario(faults)
            probe = run_core(Program(program.instructions), config, scenario, max_cycles=full)
            # A budget b ends on cycle b - 1.
            windows = [b for e in probe.events for b in range(e.detect_cycle + 1, e.end_cycle + 1)]
            countdowns = [b for e in probe.permanent_events
                          for b in range(e.end_cycle + 2,
                                         (e.resume_cycle or probe.total_cycles) + 1)]
            budgets = {full, *rng.sample(windows, min(2, len(windows))),
                       *rng.sample(countdowns, min(2, len(countdowns)))}
            first = min(f.start for f in faults)
            if first and rng.random() < 0.2:
                budgets.add(rng.randrange(1, first + 1))
            near = rng.choice((-1, 0, 1)) if rng.random() < 0.4 else None
            if near is not None:
                budgets.add(max(probe.total_cycles + near, 1))
            fresh, hot = check(program, warm, config, scenario, budgets)[full]

            # A rail stuck at the level one of a strobe's bits drives, from
            # the strobe's own cycle on: classify, power-on or switch.
            strobes = [(cycle, bit) for e in probe.permanent_events
                       for stage in [PIPELINE_ORDER.index(e.stage)]
                       for cycle, bits in ((e.end_cycle, (5, 7 + stage)),
                                           (e.end_cycle + config.flush_cycles, (11 + stage, 14)),
                                           ((e.resume_cycle or 0) - 1, (6, 15)))
                       if cycle >= e.end_cycle for bit in bits]
            if strobes and rng.random() < 0.4:
                cycle, bit = rng.choice(strobes)
                value = rng.randrange(2)
                rail = TimedFault(StuckAt(bit, value), FaultSite(
                    FaultUnit.CONTROLLER, Copy.MAIN if value else Copy.SPARE), cycle, PERMANENT)
                check(program, warm, config, FaultScenario(faults + (rail,)), {full})
                seen.add("strobe")

            rails = any(f.site.unit is FaultUnit.CONTROLLER for f in faults)
            other_config = config.flush_cycles != CFG.flush_cycles
            seen.add("rail" if rails else "stage")
            seen.update(type(f.kind).__name__ for f in faults)
            seen.update("PERM" if f.duration is PERMANENT else "T:n" for f in faults)
            seen.add(f"threshold {config.permanent_threshold}")
            seen.update(("config",) * other_config
                        + ("past the end",) * (first >= golden.total_cycles)
                        + ("budget below start",) * (min(budgets) <= first)
                        + ("window budget",) * bool(budgets.intersection(windows))
                        + ("countdown budget",) * bool(budgets.intersection(countdowns)))
            if any(isinstance(f.kind, Delay) and f.site.copy is _MAIN and f.start > f.kind.extra
                   for f in faults):
                seen.add("main delay")
            earliest = min(faults, key=lambda f: f.start)
            if (isinstance(earliest.kind, Delay) and earliest.site.copy is _MAIN
                    and [f.start for f in faults].count(first) == 1):
                seen.add("main delay first")
            seen.update(e.classified for e in fresh.events)
            seen.update(("skips",) * (fresh.simulated_cycles < fresh.total_cycles)
                        + ("diverged",) * (fresh.diverged_at is not None))
            if hot.joined_at is not None:
                seen.add("jump")
                pc = run_reference(program, hot.joined_at - 1)[0].pc if hot.joined_at > 1 else 0
                if program.instructions[pc].opcode not in (Opcode.BEQ, Opcode.JMP):
                    seen.add("jump at a non-branch commit")
                seen.add("swap" if any(f.duration is PERMANENT for f in faults) else "window")
                seen.update(("jump with a rail fault",) * rails
                            + ("jump under another config",) * other_config
                            + ("table filled by faulted runs",) * (not warmed))
                if any(f.site.copy is Copy.SPARE and f.site.unit is not FaultUnit.CONTROLLER
                       and f.duration is PERMANENT for f in faults):
                    seen.add("unselected spare")
                if near is not None:
                    seen.add(f"budget {near:+d}")
            if (fresh.outcome is Outcome.COMPLETED and fresh.final_state != golden.final_state
                    and all(isinstance(f.kind, Delay) for f in faults)):
                seen.add("silent delay")
            if fresh.outcome is Outcome.DEAD and faults[-1].site.copy is Copy.SPARE:
                seen.add("selected spare")
            if len(fresh.events) > 1 and any(isinstance(f.kind, Delay)
                                             and f.site.copy is Copy.SPARE for f in faults):
                seen.add("spare delay")
    return seen


def test_resumed_runs_equal_runs_from_cycle_zero():
    # Runs that resume from records left by earlier runs, in random order,
    # under 1-3 faults anywhere, equal the reference core's runs from cycle 0.
    assert _reference_property(0x5E5E, (8, 0, 0), ("random",)) >= {
        "rail", "stage", "StuckAt", "TransientFlip", "Delay", "PERM", "T:n", "config",
        "main delay", "past the end", "budget below start"}


def test_runs_that_rejoin_the_fault_free_run_equal_runs_from_cycle_zero():
    # Runs that settle from a main-copy fault and may end early from the
    # join table equal the reference core's runs from cycle 0.
    assert _reference_property(0x7017, (10, 5, 2), ("settling",)) >= {
        "jump", "jump at a non-branch commit", "swap", "window", "jump with a rail fault",
        "jump under another config", "table filled by faulted runs",
        "second after settling", "unselected spare", "selected spare", "silent delay",
        "budget -1", "budget +0", "budget +1"}


def test_skipped_error_windows_equal_cycle_by_cycle_runs_under_random_delays():
    # Runs under chains of delays, which skip their frozen error windows and
    # countdowns, equal the reference core's cycle-by-cycle runs, budgets
    # inside those windows and countdowns among them.
    assert _reference_property(0xDE1A, (5, 5, 0), ("delays",)) >= {
        "permanent", "transient", "Delay", "main delay first", "spare delay", "skips",
        "window budget", "countdown budget"}


def test_runs_equal_the_reference_core():
    # Every stratum mixed, on every kind of program.
    assert _reference_property(0x27EF, (4, 4, 1), ("random", "settling", "delays")) >= {
        Outcome.COMPLETED, Outcome.DEAD, Outcome.EXHAUSTED, "permanent", "transient",
        "threshold 2", "threshold 4", "threshold 16", "diverged", "strobe"}


# ---------------------------------------------------------------------------
# Small scope: every fault of a few kinds at every start of a short program
# ---------------------------------------------------------------------------

_STRAIGHT_LINE = assemble("""
LDI r1, 3
LDI r2, 5
ADD r3, r1, r2
ST r3, r0, 4
LD r4, r0, 4
XOR r5, r4, r1
HALT
""")


def _small_scope_faults(threshold):
    """(kind, site, duration) of each fault of the small-scope check: a PERM
    stuck-at at both values on bits 0 and 32 of each stage copy; on each
    main copy a flip of `threshold` - 1 and `threshold` cycles and a PERM
    delay of 1 and 2; and a PERM stuck-at at both values on bits 0, 5 and
    15 of each rail."""
    for kind in PIPELINE_ORDER:
        unit = FaultUnit(kind.value)
        for copy in Copy:
            for bit in (0, 32):
                for value in (0, 1):
                    yield StuckAt(bit, value), FaultSite(unit, copy), PERMANENT
        main = FaultSite(unit, _MAIN)
        for duration in (threshold - 1, threshold):
            yield TransientFlip(0), main, duration
        for extra in (1, 2):
            yield Delay(extra), main, PERMANENT
    for copy in Copy:
        for bit in (0, 5, 15):
            for value in (0, 1):
                yield StuckAt(bit, value), FaultSite(FaultUnit.CONTROLLER, copy), PERMANENT


def test_every_small_fault_at_every_start_equals_the_reference_core():
    # No random draw hits every critical cycle, so each fault above starts
    # on each cycle of the 12-cycle fault-free run. Each scenario runs on a
    # fresh `Program` and on one warm `Program`, which resumes from records
    # and joins through tails, and equals the reference core's run, on the
    # same divergence cycle too.
    program = _STRAIGHT_LINE
    cycles = run_core(Program(program.instructions), CFG, FaultScenario()).total_cycles
    assert cycles == 12
    warm = Program(program.instructions)
    run_core(warm, CFG, FaultScenario())
    runs, mismatches, seen = 0, [], set()
    for kind, site, duration in _small_scope_faults(CFG.permanent_threshold):
        for start in range(cycles):
            scenario = FaultScenario((TimedFault(kind, site, start, duration),))
            want = reference_run(program, CFG, scenario).reports[pipeline.DEFAULT_MAX_CYCLES]
            seen.add(want.outcome)
            seen.update(e.classified for e in want.events)
            seen.update(("diverged",) * (want.diverged_at is not None))
            for target in (Program(program.instructions), warm):
                report = run_core(target, CFG, scenario)
                runs += 1
                seen.update(("joined",) * (report.joined_at is not None))
                if (report, report.diverged_at) != (want, want.diverged_at):
                    mismatches.append(scenario.faults[0])
    assert runs == 2 * 48 * cycles
    assert not mismatches, f"{len(mismatches)} mismatches, the first {mismatches[:3]}"
    assert seen == {Outcome.COMPLETED, Outcome.DEAD, "permanent", "transient", "diverged",
                    "joined"}


# ---------------------------------------------------------------------------
# Seeded runs, pinned
# ---------------------------------------------------------------------------

def _report_bytes(report) -> bytes:
    """Every simulated number of a report, in a fixed order."""
    state = report.final_state
    return repr((_run_summary(report), state.regs, state.pc, sorted(state.mem.items()),
                 state.halted)).encode()


_PINNED_RUNS = "9bc156ef241f66805898aa38f327c159f435b5c138667474ad9ac408360ab3b5"


def test_seeded_runs_are_pinned():
    # 200 seeded cases: forward-branch and loop programs; stuck-ats, flips
    # and delays on main and spare copies and on the controller rails, PERM
    # and T:n; thresholds 2, 4 and 16; and budgets that end inside an error
    # window or a countdown. Each case runs on a fresh `Program` and on one
    # that earlier cases of the same program warmed. One digest over every
    # report pins cycle counts, events, stress and power, which the golden
    # checks cannot see.
    rng = random.Random(0x9127)
    digest = hashlib.sha256()
    for index in range(25):
        program = (gen_loop_program(rng, rng.randrange(3, 8)) if index % 2
                   else gen_program(rng, rng.randrange(8, 24)))
        fault_free = run_core(Program(program.instructions), CFG, FaultScenario()).total_cycles
        if rng.random() < 0.5:
            run_core(program, CFG, FaultScenario())
        for _ in range(8):
            config = replace(CFG, permanent_threshold=rng.choice((2, 4, 16)))
            faults = [_random_fault(rng, fault_free + 20) for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.3:
                # A permanent stuck-at on a main copy, most likely exposed.
                faults[0] = TimedFault(StuckAt(rng.randrange(36), rng.randrange(2)),
                                       _site(rng.choice(PIPELINE_ORDER)),
                                       rng.randrange(fault_free), PERMANENT)
            scenario = FaultScenario(tuple(faults))
            budget = 3 * fault_free + 300
            probe = run_core(Program(program.instructions), config, scenario, max_cycles=budget)
            # A budget that ends inside an error window or a countdown.
            inside = [cycle for e in probe.events
                      for cycle in range(e.detect_cycle + 1, (e.resume_cycle or e.end_cycle) + 1)]
            if inside and rng.random() < 0.5:
                budget = rng.choice(inside)
            for target in (Program(program.instructions), program):
                digest.update(_report_bytes(run_core(target, config, scenario,
                                                     max_cycles=budget)))
    assert digest.hexdigest() == _PINNED_RUNS
