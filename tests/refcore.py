"""A plain reference model of the repairable core, for the tests to check
`pipeline.run_core` against.

It is written from README's description of the core and takes none of
`run_core`'s shortcuts: it keeps no memo, never resumes from a commit
record, never joins the fault-free run, and takes no cycle in a skip. On
every cycle on which the pipeline runs it drives all three stage buses
through `hw.encode_bus`, the active faults of the selected copy one at a
time (`sorted_order`) and `hw.parity_check`. On every cycle it builds both
controller rails and two-rail checks them, and it counts each block's
stress one cycle at a time. Where it drives a bus it notes the first cycle
on which a corrupted data word passed parity (`diverged_at`). It shares
with `run_core` only the controller (`controller_step`,
`controller_output_vector`), the instruction decoding and
`isa.execute_result`. It is meant to be read, not to be fast.
"""
from __future__ import annotations

import copy as copying
from dataclasses import dataclass

from ifrsim.faults import (CONTROLLER_VEC_BITS, Delay, FaultUnit, StressLedger, StuckAt,
                           TransientFlip)
from ifrsim.hw import (OFF, ON, POWERING, BUS_DATA_BITS, Copy, PIPELINE_ORDER, encode_bus,
                       parity_check, trc_compare)
from ifrsim.isa import (BEQ, HALT, JMP, LDI, ST, WORD_MASK, ArchState, decode_word, dst_reg,
                        encode_instruction, execute_result, src_regs)
from ifrsim.pipeline import (DEFAULT_MAX_CYCLES, MONITOR, RESUME, SUSPECT, ControllerState,
                             Outcome, RecoveryEvent, SimReport, controller_output_vector,
                             controller_step)

_DATA = (1 << BUS_DATA_BITS) - 1
_RAIL_MASK = (1 << CONTROLLER_VEC_BITS) - 1


def sorted_order(vector: int, faults, stale=None, width: int = 36) -> int:
    """One site's active faults applied to `vector`: a delay's `stale` word,
    if given, replaces the data lines, then the faults apply one at a time,
    sorted by kind (flips before stuck-ats), bit and stuck value, so a line
    stuck at both values reads 1."""
    if stale is not None:
        vector = vector & ~_DATA | stale & _DATA
    rank = {Delay: 0, TransientFlip: 1, StuckAt: 2}
    for fault in sorted(faults, key=lambda f: (rank[type(f.kind)], getattr(f.kind, "bit", -1),
                                               getattr(f.kind, "value", 0))):
        kind = fault.kind
        if isinstance(kind, TransientFlip):
            vector ^= 1 << kind.bit
        elif isinstance(kind, StuckAt):
            vector = vector | (1 << kind.bit) if kind.value else vector & ~(1 << kind.bit)
    return vector & ((1 << width) - 1)


@dataclass
class ReferenceRun:
    """What one reference pass saw. `reports[budget]` is the report of the
    run under that cycle budget. `words[c]` is the (predecode, decode,
    execute) tuple of true words the stages drove on cycle c, before any
    fault, or None on a cycle the pipeline did not run. `commits[n]` is the
    cycle of commit n + 1."""
    reports: dict
    words: list
    commits: list


def reference_run(program, config, scenario, budgets=(DEFAULT_MAX_CYCLES,)) -> ReferenceRun:
    """Run `program` under `scenario` one cycle at a time, from cycle 0 to
    its end or the largest budget, and report it under each budget."""
    scenario.validate(config.permanent_threshold)
    core = _Core(program, config, scenario)
    reports = {}
    pending = sorted(set(budgets))
    outcome = None
    while outcome is None and core.cycle < pending[-1]:
        outcome = core.step()
        if outcome is None and core.cycle in pending:
            reports[core.cycle] = core.report(Outcome.EXHAUSTED)
    for budget in pending:
        if budget not in reports:
            reports[budget] = core.report(outcome)
    return ReferenceRun(reports, core.words, core.commits)


class _Core:
    """The core's state, stepped one cycle at a time. Stages are pipeline
    positions 0..2; a stage's switch selects its spare once it is in
    `ctrl.on_spare`."""

    def __init__(self, program, config, scenario):
        self.instructions = program.instructions
        self.config = config
        self.faults = list(enumerate(scenario.faults))
        self.cycle = 0
        self.regs = [0] * 16
        self.mem = {}
        self.pc = self.fetch_pc = 0
        self.fetch_wait = False  # a control-flow instruction was fetched
        self.pd = None  # the predecode latch: a fetched word
        self.de = None  # the decode latch: (instruction, op_a, op_b)
        self.ctrl = ControllerState()
        self.power = {(kind, copy): ON if copy is Copy.MAIN else OFF
                      for kind in PIPELINE_ORDER for copy in Copy}
        self.stress = StressLedger()
        # Per site, the true words driven on the cycles it was selected
        # and the pipeline ran; a delay latches one of them.
        self.history = {key: [] for key in self.power}
        self.latched = {}  # scenario index of a delay -> its stale word
        self.diverged_at = None  # the first cycle a corrupted data word passed parity
        self.error_run = {}  # stage -> (first cycle, culprit) of its error run
        self.events = []
        self.open_events = []  # permanent events until the first commit after the swap
        self.words = []
        self.commits = []

    def selected(self, stage: int) -> Copy:
        return Copy.SPARE if stage in self.ctrl.on_spare else Copy.MAIN

    def active(self, unit: FaultUnit, copy: Copy) -> list:
        """The (scenario index, fault) pairs active at a site this cycle."""
        return [(i, f) for i, f in self.faults
                if f.site.unit is unit and f.site.copy is copy and f.active_at(self.cycle)]

    def bus(self, stage: int, word: int) -> tuple[int, int]:
        """`word` driven through the selected copy of `stage`: (data word
        the next stage latches, parity error mask)."""
        kind, copy = PIPELINE_ORDER[stage], self.selected(stage)
        active = self.active(FaultUnit(kind.value), copy)
        history = self.history[kind, copy]
        for i, fault in active:
            if isinstance(fault.kind, Delay) and i not in self.latched:
                # The word driven `extra` selected cycles back, else the
                # oldest one kept, else this cycle's.
                back = fault.kind.extra
                self.latched[i] = (history[-back] if len(history) >= back
                                   else history[0] if history else word)
        history.append(word)
        delays = [i for i, f in active if isinstance(f.kind, Delay)]
        # The last active delay in scenario order drives the data lines.
        stale = self.latched[delays[-1]] if delays else None
        bus = sorted_order(encode_bus(word), [f for _, f in active], stale)
        mask = parity_check(bus)
        if not mask and bus & WORD_MASK != word and self.diverged_at is None:
            self.diverged_at = self.cycle
        if mask and not self.ctrl.error_counters[stage]:
            # An error run starts. Its culprit is the first active fault
            # that breaks parity on its own, else the first active one.
            culprits = [i for i, f in active
                        if parity_check(sorted_order(encode_bus(word), [f],
                                                     self.latched.get(i)))]
            self.error_run[stage] = self.cycle, (culprits or [active[0][0]])[0]
        return bus & WORD_MASK, mask

    def rails_agree(self, actions) -> bool:
        """Both controller copies' outputs through their rail faults, rail
        b complemented, two-rail checked."""
        vector = controller_output_vector(self.ctrl, actions)
        rail_a = sorted_order(vector, [f for _, f in self.active(FaultUnit.CONTROLLER, Copy.MAIN)],
                              width=CONTROLLER_VEC_BITS)
        rail_b = sorted_order(~vector & _RAIL_MASK,
                              [f for _, f in self.active(FaultUnit.CONTROLLER, Copy.SPARE)],
                              width=CONTROLLER_VEC_BITS)
        return trc_compare(rail_a, rail_b, CONTROLLER_VEC_BITS)

    def set_power(self, stage: int, copy: Copy, state) -> None:
        self.power[PIPELINE_ORDER[stage], copy] = state

    def step(self) -> Outcome | None:
        """One clock; returns the run's outcome if it ends on this cycle."""
        outcome = self.clock(self.cycle)
        self.cycle += 1
        return outcome

    def clock(self, cycle: int) -> Outcome | None:
        """The work of cycle `cycle`, which `self.cycle` still names."""
        for key, state in self.power.items():
            self.stress.blocks[key].add(state, 1)
        live = self.ctrl.mode in (MONITOR, SUSPECT, RESUME)
        masks = (0, 0, 0)
        stall = False
        fetched = decoded = None
        if live:
            # Decode the predecode latch, unless it reads the register the
            # instruction in execute writes.
            p_word = d_word = op_b = 0
            if self.pd is not None:
                instr = decode_word(self.pd)
                sources = src_regs(instr)
                writes = 0 if self.de is None else dst_reg(self.de[0])
                stall = writes != 0 and writes in sources
                if not stall:
                    values = [self.regs[r] for r in sources]
                    imm = instr.imm & WORD_MASK if instr.opcode in (LDI, JMP) else 0
                    d_word = values[0] if values else imm
                    op_b = values[1] if len(values) > 1 else 0
                    decoded = instr
            # Fetch, unless decode stalls or a control-flow instruction is
            # in flight.
            if not stall and not self.fetch_wait and 0 <= self.fetch_pc < len(self.instructions):
                fetched = self.instructions[self.fetch_pc]
                p_word = encode_instruction(fetched)
            e_word = 0 if self.de is None else execute_result(*self.de, self.mem)
            self.words.append((p_word, d_word, e_word))
            (p_word, p_mask), (d_word, d_mask), (e_word, e_mask) = (
                self.bus(stage, word) for stage, word in enumerate((p_word, d_word, e_word)))
            masks = (p_mask, d_mask, e_mask)
        else:
            self.words.append(None)
        frozen = not live or any(masks)

        actions = controller_step(self.ctrl, masks, False, self.config)
        if not self.rails_agree(actions):
            actions = controller_step(self.ctrl, (0, 0, 0), True, self.config)
        if actions.dead:
            return Outcome.DEAD
        if actions.classified is not None:
            stage = actions.classified
            detect, culprit = self.error_run[stage]
            event = RecoveryEvent(fault_id=culprit, stage=PIPELINE_ORDER[stage],
                                  classified="permanent", detect_cycle=detect, end_cycle=cycle)
            self.events.append(event)
            self.open_events.append(event)
            self.pd = self.de = None
            self.set_power(stage, Copy.MAIN, OFF)
        if actions.power_on is not None:
            self.set_power(actions.power_on, Copy.SPARE, POWERING)
        if actions.swap is not None:
            self.set_power(actions.swap, Copy.SPARE, ON)
            self.fetch_pc, self.fetch_wait = self.pc, False
            for event in self.open_events:
                if event.resume_cycle is None:
                    event.resume_cycle = cycle + 1
        if actions.transient_clear is not None:
            stage = actions.transient_clear
            detect, culprit = self.error_run[stage]
            self.events.append(RecoveryEvent(
                fault_id=culprit, stage=PIPELINE_ORDER[stage], classified="transient",
                detect_cycle=detect, end_cycle=cycle))
        if frozen:
            return None

        # Commit the instruction in execute with its routed word, then move
        # the latches on.
        outcome = None
        if self.de is not None:
            instr, _, op_b_latched = self.de
            op = instr.opcode
            self.commits.append(cycle)
            if op is HALT:
                outcome = Outcome.COMPLETED
            elif op is BEQ or op is JMP:
                self.pc = e_word if op is JMP else self.pc + (instr.imm if e_word else 1)
                self.fetch_pc, self.fetch_wait = self.pc, False
            else:
                if op is ST:
                    self.mem[(op_b_latched + instr.imm) & WORD_MASK] = e_word
                elif dst_reg(instr):
                    self.regs[dst_reg(instr)] = e_word
                self.pc += 1
            for event in self.open_events:
                event.swap_complete_cycle = cycle
            self.open_events.clear()
        self.de = None if decoded is None else (decoded, d_word, op_b)
        if not stall:
            self.pd = None if fetched is None else p_word
            if fetched is not None:
                self.fetch_pc += 1
                self.fetch_wait = fetched.opcode in (BEQ, JMP, HALT)
        if outcome is None and self.pd is None and self.de is None and not self.fetch_wait \
                and not 0 <= self.fetch_pc < len(self.instructions):
            outcome = Outcome.EXHAUSTED  # ran past the end without a HALT
        return outcome

    def report(self, outcome: Outcome) -> SimReport:
        """The run so far as a report that ends with `outcome`."""
        self.stress.assert_conserved(self.cycle)
        final_state = ArchState(tuple(self.regs), self.pc, dict(self.mem),
                                outcome is Outcome.COMPLETED)
        return SimReport(outcome=outcome, final_state=final_state,
                         total_cycles=self.cycle, events=copying.deepcopy(self.events),
                         stress=copying.deepcopy(self.stress), final_power=dict(self.power),
                         simulated_cycles=self.cycle, resumed_from=0, joined_at=None,
                         diverged_at=self.diverged_at)
