"""A plain reference model of the repairable core, for the tests to check
`pipeline.run_core` against.

It is written from README's description of the core and takes none of
`run_core`'s shortcuts: it keeps no memo, never resumes from a commit
record, never joins the fault-free run, and takes no cycle in a skip
(`controller_skip`). On every cycle on which the pipeline runs it drives
all three stage buses through `hw.encode_bus`, the active faults of the
selected copy one at a time (`sorted_order`) and `hw.parity_check`. On
every cycle it steps its own repair controller, written from README's
description of the state machine and the output vector, builds both
controller rails and two-rail checks them, and it counts each block's
stress one cycle at a time. Where it drives a bus it notes the first
cycle on which a corrupted data word passed parity (`diverged_at`). It
shares with `run_core` only the instruction decoding and
`isa.execute_result`. It is meant to be read, not to be fast.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ifrsim.faults import (CONTROLLER_VEC_BITS, Delay, FaultUnit, StressLedger, StuckAt,
                           TransientFlip)
from ifrsim.hw import (OFF, ON, POWERING, BUS_DATA_BITS, Copy, PIPELINE_ORDER, encode_bus,
                       parity_check, trc_compare)
from ifrsim.isa import (BEQ, HALT, JMP, LDI, ST, WORD_MASK, ArchState, decode_word, dst_reg,
                        encode_instruction, execute_result, src_regs)
from ifrsim.pipeline import DEFAULT_MAX_CYCLES, Outcome, RecoveryEvent, SimReport

_DATA = (1 << BUS_DATA_BITS) - 1
_RAIL_MASK = (1 << CONTROLLER_VEC_BITS) - 1

# The controller's modes, named by their codes in the output vector.
MONITOR, SUSPECT, FLUSH, POWER_SWAP, RESUME, DEAD = range(6)
# The strobes the controller drives, each for one stage.
CLASSIFY, POWER_ON, SWAP, CLEAR = "classify", "power on", "swap", "clear"


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
    `on_spare`."""

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
        # The controller's registers.
        self.mode = MONITOR
        self.counters = [0, 0, 0]  # consecutive error cycles per stage
        self.swap_stage = None  # the stage being or last swapped
        self.countdown = 0  # cycles left in FLUSH or POWER_SWAP
        self.on_spare = set()
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
        return Copy.SPARE if stage in self.on_spare else Copy.MAIN

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
        if mask and not self.counters[stage]:
            # An error run starts. Its culprit is the first active fault
            # that breaks parity on its own, else the first active one.
            culprits = [i for i, f in active
                        if parity_check(sorted_order(encode_bus(word), [f],
                                                     self.latched.get(i)))]
            self.error_run[stage] = self.cycle, (culprits or [active[0][0]])[0]
        return bus & WORD_MASK, mask

    def suspect(self) -> int:
        """The first stage at the highest error counter."""
        return self.counters.index(max(self.counters))

    def control(self, masks) -> tuple | None:
        """One clock of the repair controller, seeing each stage's parity
        error mask: the (strobe, stage) it drives, or None."""
        if self.mode in (FLUSH, POWER_SWAP):
            self.countdown -= 1
            if self.countdown > 0:
                return None
            if self.mode == FLUSH:
                self.mode, self.countdown = POWER_SWAP, self.config.powerup_cycles_per_block
                return POWER_ON, self.swap_stage
            self.mode = RESUME
            self.on_spare.add(self.swap_stage)
            return SWAP, self.swap_stage
        if not any(masks):
            # An error run that ends below the threshold was transient.
            strobe = (CLEAR, self.suspect()) if self.mode == SUSPECT else None
            self.mode, self.counters = MONITOR, [0, 0, 0]
            return strobe
        self.counters = [count + 1 if mask else 0 for count, mask in zip(self.counters, masks)]
        stage = self.suspect()
        if self.counters[stage] < self.config.permanent_threshold:
            self.mode = SUSPECT
            return None
        if stage in self.on_spare:
            self.mode = DEAD  # its spare failed too
            return None
        self.mode, self.counters = FLUSH, [0, 0, 0]
        self.swap_stage, self.countdown = stage, self.config.flush_cycles
        return CLASSIFY, stage

    def output_vector(self, strobe) -> int:
        """The controller's 16 output lines: the mode's code in bits 0-2,
        the focal stage's position + 1 in bits 3-4 (the suspect while a
        counter is nonzero, else the swap stage, else 0), then one line per
        strobe output."""
        focal = self.suspect() if any(self.counters) else self.swap_stage
        vector = self.mode | (0 if focal is None else focal + 1) << 3
        kind, stage = strobe or (None, None)
        if kind == CLASSIFY:
            vector |= 1 << 5  # flush
            vector |= 1 << (7 + stage)  # power off this stage's main
        elif kind == POWER_ON:
            vector |= 1 << (11 + stage)  # power on this stage's ...
            vector |= 1 << 14  # ... spare
        elif kind == SWAP:
            vector |= 1 << 6  # replay
            vector |= 1 << 15  # switch flip
        return vector

    def rails_agree(self, strobe) -> bool:
        """Both controller copies' outputs through their rail faults, rail
        b complemented, two-rail checked."""
        vector = self.output_vector(strobe)
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
        live = self.mode in (MONITOR, SUSPECT, RESUME)
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

        strobe = self.control(masks)
        if not self.rails_agree(strobe):
            self.mode = DEAD  # fail-stop
        if self.mode == DEAD:
            return Outcome.DEAD
        kind, stage = strobe or (None, None)
        if kind == CLASSIFY:
            detect, culprit = self.error_run[stage]
            event = RecoveryEvent(fault_id=culprit, stage=PIPELINE_ORDER[stage],
                                  classified="permanent", detect_cycle=detect, end_cycle=cycle)
            self.events.append(event)
            self.open_events.append(event)
            self.pd = self.de = None
            self.set_power(stage, Copy.MAIN, OFF)
        elif kind == POWER_ON:
            self.set_power(stage, Copy.SPARE, POWERING)
        elif kind == SWAP:
            self.set_power(stage, Copy.SPARE, ON)
            self.fetch_pc, self.fetch_wait = self.pc, False
            for event in self.open_events:
                if event.resume_cycle is None:
                    event.resume_cycle = cycle + 1
        elif kind == CLEAR:
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
        stress = StressLedger({key: replace(block) for key, block in self.stress.blocks.items()})
        return SimReport(outcome=outcome, final_state=final_state,
                         total_cycles=self.cycle, events=[replace(e) for e in self.events],
                         stress=stress, final_power=dict(self.power),
                         simulated_cycles=self.cycle, resumed_from=0, joined_at=None,
                         diverged_at=self.diverged_at)
