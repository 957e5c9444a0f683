"""Cycle-level model of the repairable 3-stage core.

Every pipeline stage exists twice (main plus cold spare); the active copy
drives a 36-bit parity-protected bus through a 2-way switch box into the next
pipeline register. A duplicated, two-rail-checked controller watches the
per-stage parity masks each cycle:

* an error freezes the pipeline so nothing corrupted can commit and the
  stage re-presents the same value while an adjustable counter runs;
* errors that clear before the counter reaches the permanent threshold are
  classified transient and execution simply resumes;
* errors that persist are classified permanent: the pipeline is flushed, the
  faulty copy is power-gated, the spare is powered up (one block per power-up
  step to bound in-rush current), the boundary switch flips, and execution
  replays from the oldest uncommitted instruction;
* a two-rail mismatch between the controller copies, or a permanent fault on
  a stage already running on its spare, is fail-stop (Dead).

When a run completes, its architectural state must equal the reference
interpreter's, which is the checked contract of this module.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice

from .faults import (CONTROLLER_VEC_BITS, Delay, FaultScenario, FaultUnit,
                     StressLedger, apply_faults, apply_vector_faults)
from .hw import (Copy, PIPELINE_ORDER, PowerState, StageKind,
                 encode_bus, parity_check, trc_compare)
from .isa import (ArchState, ExecutionError, Instruction, Opcode, Program,
                  WORD_MASK, decode_word, dst_reg, encode_instruction,
                  execute_result, run_reference, src_regs)

DEFAULT_MAX_CYCLES = 100_000
_CONTROL_OPS = (Opcode.BEQ, Opcode.JMP, Opcode.HALT)


@dataclass(frozen=True)
class CoreConfig:
    clock_hz: float = 1.0e8
    permanent_threshold: int = 16
    flush_cycles: int = 3
    powerup_cycles_per_block: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.clock_hz) and self.clock_hz > 0):
            raise ValueError(f"clock_hz must be finite and positive, got {self.clock_hz}")
        for name in ("permanent_threshold", "flush_cycles", "powerup_cycles_per_block"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def cycles_to_us(self, cycles: int) -> float:
        return cycles / self.clock_hz * 1e6


class ControllerMode(enum.Enum):
    MONITOR = 0
    SUSPECT = 1
    FLUSH = 2
    POWER_SWAP = 3
    RESUME = 4
    DEAD = 5


@dataclass(frozen=True)
class ControllerState:
    """The controller's registers. Stages are pipeline positions 0..2
    (predecode, decode, execute), the indices `run_core` uses."""
    mode: ControllerMode = ControllerMode.MONITOR
    suspect_stage: int | None = None
    swap_stage: int | None = None
    remaining: int = 0
    error_counters: tuple[int, int, int] = (0, 0, 0)
    on_spare: frozenset = frozenset()


@dataclass(frozen=True)
class ControllerActions:
    """The strobes of one controller step; at most one field is set. Stages
    are pipeline positions 0..2. `classified` flushes the pipeline and powers
    off that stage's main copy; `power_on` starts powering up its spare;
    `swap` flips its switch to the spare and replays; `transient_clear` is
    (stage, consecutive error cycles); `dead` is fail-stop.
    """
    classified: int | None = None
    power_on: int | None = None
    swap: int | None = None
    transient_clear: tuple[int, int] | None = None
    dead: bool = False


_NO_ACTIONS = ControllerActions()
_DEAD = ControllerActions(dead=True)


def controller_step(state: ControllerState, masks, trc_error: bool,
                    config: CoreConfig) -> tuple[ControllerState, ControllerActions]:
    """One combinational step of the repair controller.

    `masks` holds the 4-bit parity error mask of each stage in pipeline
    order; stages in the state and the actions are positions 0..2. Returns
    the next state plus the action strobes the surrounding logic must obey.
    """
    if state.mode is ControllerMode.DEAD:
        raise ValueError("controller is dead; Dead is absorbing")
    if trc_error:
        return replace(state, mode=ControllerMode.DEAD), _DEAD

    mode = state.mode
    if mode is ControllerMode.FLUSH:
        remaining = state.remaining - 1
        if remaining > 0:
            return replace(state, remaining=remaining), _NO_ACTIONS
        new = replace(state, mode=ControllerMode.POWER_SWAP,
                      remaining=config.powerup_cycles_per_block)
        return new, ControllerActions(power_on=state.swap_stage)

    if mode is ControllerMode.POWER_SWAP:
        remaining = state.remaining - 1
        if remaining > 0:
            return replace(state, remaining=remaining), _NO_ACTIONS
        new = replace(state, mode=ControllerMode.RESUME, remaining=0,
                      on_spare=state.on_spare | {state.swap_stage})
        return new, ControllerActions(swap=state.swap_stage)

    # MONITOR / SUSPECT / RESUME watch the parity masks.
    if not any(masks):
        if mode is ControllerMode.SUSPECT:
            stage = state.suspect_stage
            new = replace(state, mode=ControllerMode.MONITOR, suspect_stage=None,
                          error_counters=(0, 0, 0))
            return new, ControllerActions(transient_clear=(stage, state.error_counters[stage]))
        if mode is ControllerMode.RESUME:
            return replace(state, mode=ControllerMode.MONITOR), _NO_ACTIONS
        return state, _NO_ACTIONS

    counters = tuple(count + 1 if mask else 0
                     for count, mask in zip(state.error_counters, masks))
    # Counters start below the threshold and grow by one a step, so the
    # first stage at the peak is the first to reach the threshold.
    peak = max(counters)
    stage = counters.index(peak)
    if peak < config.permanent_threshold:
        new = replace(state, mode=ControllerMode.SUSPECT, suspect_stage=stage,
                      error_counters=counters)
        return new, _NO_ACTIONS
    if stage in state.on_spare:
        # The spare itself has failed permanently: nothing left to swap in.
        return replace(state, mode=ControllerMode.DEAD), _DEAD
    new = replace(state, mode=ControllerMode.FLUSH, suspect_stage=None,
                  swap_stage=stage, remaining=config.flush_cycles,
                  error_counters=(0, 0, 0))
    return new, ControllerActions(classified=stage)


def controller_output_vector(state: ControllerState, actions: ControllerActions) -> int:
    """Pack the controller's observable outputs into a 16-bit vector.

    Layout: [0:3] mode, [3:5] focal stage code (position + 1), 5 flush,
    6 replay, [7:10] power-off stage one-hot, 10 power-off-targets-spare
    (always 0: only main copies are powered off), [11:14] power-on stage
    one-hot, 14 power-on-targets-spare, 15 switch flip.
    """
    vec = state.mode.value
    focal = state.suspect_stage if state.suspect_stage is not None else state.swap_stage
    if focal is not None:
        vec |= (focal + 1) << 3
    if actions.classified is not None:
        vec |= 1 << 5 | 1 << (7 + actions.classified)
    if actions.power_on is not None:
        vec |= 1 << (11 + actions.power_on) | 1 << 14
    if actions.swap is not None:
        vec |= 1 << 6 | 1 << 15
    return vec


class Outcome(enum.Enum):
    COMPLETED = "completed"
    DEAD = "dead"
    EXHAUSTED = "exhausted"


@dataclass
class RecoveryEvent:
    fault_id: int  # scenario index of the fault credited with the event
    stage: StageKind
    classified: str  # "permanent" | "transient"
    detect_cycle: int
    end_cycle: int  # classification cycle (permanent) or clear cycle (transient)
    swap_complete_cycle: int | None = None
    resume_cycle: int | None = None

    @property
    def recovery_cycles(self) -> int | None:
        if self.swap_complete_cycle is None:
            return None
        return self.swap_complete_cycle - self.detect_cycle

    @property
    def refill_cycles(self) -> int | None:
        if self.swap_complete_cycle is None:
            return None
        return self.swap_complete_cycle - self.resume_cycle + 1


@dataclass
class SimReport:
    outcome: Outcome
    final_state: ArchState
    total_cycles: int
    events: list
    stress: StressLedger
    final_power: dict

    @property
    def permanent_events(self) -> list:
        return [e for e in self.events if e.classified == "permanent"]


_LIVE_MODES = (ControllerMode.MONITOR, ControllerMode.SUSPECT, ControllerMode.RESUME)
_NO_MASKS = (0, 0, 0)
# run_core indexes its state by integers: stages 0..2 in pipeline order, the
# controller as unit 3, and copy 0 = main (rail a), copy 1 = spare (rail b).
_COPIES = (Copy.MAIN, Copy.SPARE)
_COPY_INDEX = {copy: i for i, copy in enumerate(_COPIES)}
_UNIT_INDEX = {FaultUnit(kind.value): i for i, kind in enumerate(PIPELINE_ORDER)}
_UNIT_INDEX[FaultUnit.CONTROLLER] = len(PIPELINE_ORDER)
_RAIL_MASK = (1 << CONTROLLER_VEC_BITS) - 1


def _decoded(word: int) -> tuple[Instruction, tuple[int, ...], int, int]:
    """What the decode stage needs of a word: (instruction, sources, dest,
    imm). Decode drives its sources' values as (op_a, op_b), or imm as op_a
    if it reads no register; imm is 0 but for LDI and JMP."""
    instr = decode_word(word)
    imm = instr.imm & WORD_MASK if instr.opcode in (Opcode.LDI, Opcode.JMP) else 0
    return instr, src_regs(instr), dst_reg(instr), imm


def _program_memo(program: Program) -> dict:
    """`program.core_memo`, filled on the program's first run: `slots`, the
    (word, control-flow?) fetch slot of each instruction; `decoded`, the
    word -> `_decoded` table; `records`, where `records[c]` is the fault-free
    run at cycle c, as (bus words, regs, mem, pc, fetch_pc, fetch_wait, pd,
    de, commits) before its commit, a record sharing its regs tuple and mem
    dict with the one before unless a commit wrote them in between; `end`,
    the fault-free run's last cycle, or infinity until a run has reached it;
    and `join`, None until a settled run has reached the program's end, then
    (tails, outcome, final state) of that end, where `tails[n]` is the number
    of cycles the fault-free run takes after its BEQ or JMP commit number n.
    A fresh `Program` has no records and no join table, so its runs simulate
    every cycle from cycle 0."""
    memo = program.core_memo
    if not memo:
        memo.update(slots=[(encode_instruction(instr), instr.opcode in _CONTROL_OPS)
                           for instr in program.instructions],
                    decoded={}, records=[], end=math.inf, join=None)
    return memo


def run_core(program: Program, config: CoreConfig, scenario: FaultScenario, *,
             max_cycles: int = DEFAULT_MAX_CYCLES) -> SimReport:
    """Simulate the repairable core cycle by cycle under a fault scenario.

    The pipeline is in-order with interlock stalls and no forwarding; fetch
    drains behind control-flow instructions, so cycle counts are a property
    of this artifact while architectural correctness is checked against the
    reference interpreter.

    A run with faults equals the program's fault-free run until its earliest
    fault starts, so it resumes from that run's recorded state at the first
    of: that start, the fault-free run's last cycle, and `max_cycles - 1`.
    Each main-copy delay history starts with the fault-free bus words before
    it. The fault-free states are recorded once per `Program`, by the runs
    that pass through them, and only as far as some run has resumed; a run
    on a fresh `Program` starts at cycle 0.

    A run with faults also ends early once it has rejoined the fault-free
    run. It is *settled* at a BEQ or JMP commit when every fault is inert
    (past its `end`, or on a stage copy that the switch does not select:
    the main once the stage is on its spare, the spare before), the
    controller is in MONITOR with no event open, and no faulted bus has
    passed parity with a corrupted data word. Then no error can arise, so
    no swap can select a faulty copy again. Such a commit drains the
    pipeline, so the run's state is (regs, mem, pc): the fault-free run's
    after the same number of commits. Each settled run that reaches the
    program's end records, per such commit, the cycles left after it, and
    that end's outcome and final state. A later settled run that finds its
    commit there, with the cycles left fitting `max_cycles`, ends at once
    with that outcome and a copy of that state; its stress spans close at
    the new end, and no event is added. A run with no faults is settled from
    cycle 0: it fills the record but never ends early.

    Bus words and parity masks are plain ints. The bus fabric (parity
    encode, fault application, parity check) is evaluated only at sites with
    an active fault, and only before the latest stage fault window ends: any
    other site drives its word with a zero error mask by construction.
    Likewise the controller rails are built and two-rail checked only inside
    [earliest start, latest end) of the rail faults, the FLUSH and POWER_SWAP
    countdowns are taken in one step up to the first cycle a rail fault is
    active on, and the stress ledger is kept as spans that close when a
    block's power changes.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    scenario.validate(config.permanent_threshold)
    memo = _program_memo(program)
    slots, decoded, records = memo["slots"], memo["decoded"], memo["records"]

    # site_faults[unit][copy]: the (scenario index, fault) pairs at that site.
    site_faults = [([], []) for _ in range(len(PIPELINE_ORDER) + 1)]
    for index, fault in enumerate(scenario.faults):
        unit = _UNIT_INDEX[fault.site.unit]
        site_faults[unit][_COPY_INDEX[fault.site.copy]].append((index, fault))
    stage_faults = site_faults[:-1]
    rail_a, rail_b = site_faults[-1]
    # A stage fault can be active before `stage_end`, a rail fault inside
    # [rail_from, rail_to).
    stage_end = max((f.end for copies in stage_faults for faults in copies
                     for _, f in faults), default=0)
    rail_from = min((f.start for _, f in rail_a + rail_b), default=math.inf)
    rail_to = max((f.end for _, f in rail_a + rail_b), default=0)

    power = [[PowerState.ON, PowerState.OFF] for _ in PIPELINE_ORDER]
    since = [[0, 0] for _ in PIPELINE_ORDER]  # first cycle of each block's power span
    ledger = StressLedger()

    def close_span(stage: int, copy: int, end: int) -> None:
        stress = ledger.blocks[(PIPELINE_ORDER[stage], _COPIES[copy])]
        stress.add(power[stage][copy], end - since[stage][copy])
        since[stage][copy] = end

    def set_power(stage: int, copy: int, state: PowerState, cycle: int) -> None:
        # A controller action of this cycle takes effect from the next one.
        close_span(stage, copy, cycle + 1)
        power[stage][copy] = state
        # Power changes only here, so the invariants are checked here.
        live_next = ctrl.mode in _LIVE_MODES
        for position, copies in enumerate(power):
            assert copies.count(PowerState.ON) <= 1, \
                "at most one copy of a stage may be powered"
            assert not live_next or copies[position in ctrl.on_spare] is PowerState.ON, \
                "selected copy must be powered"

    # Each site with a delay fault keeps the true data words of its last
    # `extra` + 1 observed cycles, for the largest `extra` there.
    delay_hist: dict = {}  # (stage, copy) -> deque of true data words
    for stage, copies in enumerate(stage_faults):
        for copy, faults in enumerate(copies):
            extras = [f.kind.extra for _, f in faults if isinstance(f.kind, Delay)]
            if extras:
                delay_hist[stage, copy] = deque(maxlen=max(extras) + 1)
    held_delay: dict = {}  # fault index -> latched stale data word
    # (stage, first cycle of a parity-error run) -> scenario index of the
    # fault credited with it.
    culprits: dict = {}

    diverged = False  # a corrupted data word passed parity

    def faulty_bus(stage: int, copy: int, word: int, cycle: int) -> tuple[int, int]:
        """Drive `word` through a site that carries faults: (data, error mask).
        With none of them active the site drives `word` clean."""
        nonlocal diverged
        hist = delay_hist.get((stage, copy))
        active = []
        stale = word
        for i, f in stage_faults[stage][copy]:
            if f.active_at(cycle):
                active.append((i, f))
                if isinstance(f.kind, Delay):
                    # A delay latches its stale word when it activates; the
                    # last active one in scenario order drives the data lines.
                    if i not in held_delay:
                        held_delay[i] = hist[max(len(hist) - f.kind.extra, 0)] if hist else word
                    stale = held_delay[i]
        if hist is not None:
            hist.append(word)
        if not active:
            return word, 0
        bus = apply_faults(encode_bus(word), [f for _, f in active], stale)
        mask = parity_check(bus)
        if not mask and bus & WORD_MASK != word:
            diverged = True
        if mask and not ctrl.error_counters[stage]:
            # A parity-error run starts (the controller has counted no error
            # at this stage yet). Its culprit is the first active fault, in
            # scenario order, whose corruption alone breaks parity, else the
            # first active one.
            culprits[stage, cycle] = active[0][0] if len(active) == 1 else next(
                (i for i, f in active
                 if parity_check(apply_faults(encode_bus(word), [f], held_delay.get(i, word)))),
                active[0][0])
        return bus & WORD_MASK, mask

    # (end, unit, copy) of each fault, indexed as in `site_faults`.
    inert_when = [(f.end, _UNIT_INDEX[f.site.unit], _COPY_INDEX[f.site.copy])
                  for f in scenario.faults]

    def settled(cycle: int) -> bool:
        """Whether, from `cycle` on, the run repeats the fault-free run (see
        *settled* in the docstring above)."""
        return (not diverged and ctrl.mode is ControllerMode.MONITOR and not open_events
                and all(end <= cycle or unit < len(PIPELINE_ORDER)
                        and copy != (unit in ctrl.on_spare) for end, unit, copy in inert_when))

    regs = [0] * 16
    mem: dict = {}
    pc = fetch_pc = 0
    fetch_wait = False
    pd: int | None = None  # predecode latch: the fetched word
    de: tuple | None = None  # decode latch: (instr, dest, op_a, op_b)
    commits = 0
    first_start = min((f.start for f in scenario.faults), default=math.inf)
    resume = 0
    record_to = -1  # this run appends the fault-free records up to this cycle
    # The last record's regs tuple and mem dict, None once a commit has
    # written that field since: a record shares what has not changed.
    saved_regs = saved_mem = None
    if scenario.faults:
        target = min(first_start, memo["end"], max_cycles - 1)
        if target >= len(records):
            record_to = target
        if records:
            resume = min(target, len(records) - 1)
            _, saved_regs, saved_mem, pc, fetch_pc, fetch_wait, pd, de, commits = \
                records[resume]
            regs, mem = list(saved_regs), dict(saved_mem)
        for (stage, copy), hist in delay_hist.items():
            if copy == 0:  # a spare copy is not observed before a swap
                hist.extend(record[0][stage]
                            for record in records[max(resume - hist.maxlen, 0):resume])
    # A stage's switch selects its spare (copy 1) iff it is in ctrl.on_spare.
    ctrl = ControllerState()

    events: list[RecoveryEvent] = []
    # Permanent events stay open until the first post-resume commit; a second
    # fault may interrupt a refill, in which case the earlier event's refill
    # span absorbs the later recovery (normal function returned only then).
    open_events: list[RecoveryEvent] = []
    outcome: Outcome | None = None
    total_cycles = resume
    # (n, cycles so far) at each BEQ or JMP commit n since the run settled
    # that the join table lacks; None until the run has settled. A run with
    # no faults is settled from cycle 0.
    drained = None if scenario.faults else []
    join = memo["join"]
    tails = join[0] if join else {}

    cycles = iter(range(resume, max_cycles))
    for cycle in cycles:
        total_cycles = cycle + 1
        live = ctrl.mode in _LIVE_MODES
        masks = _NO_MASKS
        error = False
        pending = None
        d_instr = None
        stall = False

        if live:
            # Decode: consumes the predecode latch, stalls on a read-after-write
            # hazard against the instruction currently in execute.
            d_word = 0
            if pd is not None:
                entry = decoded.get(pd)
                if entry is None:
                    entry = decoded[pd] = _decoded(pd)
                instr, sources, dest, imm = entry
                if de is not None and de[1] and de[1] in sources:
                    stall = True
                else:
                    d_word = regs[sources[0]] if sources else imm
                    d_op_b = regs[sources[1]] if len(sources) > 1 else 0
                    d_instr, d_dest = instr, dest

            # Predecode: fetch only if the latch will be free this cycle.
            p_word = 0
            if not stall and not fetch_wait and 0 <= fetch_pc < len(slots):
                pending = slots[fetch_pc]
                p_word = pending[0]

            # Execute.
            e_word = execute_result(de[0], de[2], de[3], mem) if de is not None else 0

            words = [p_word, d_word, e_word]
            if cycle <= record_to and cycle == len(records):
                # No fault has started yet: this is the fault-free run.
                if saved_regs is None:
                    saved_regs = tuple(regs)
                if saved_mem is None:
                    saved_mem = dict(mem)
                records.append((tuple(words), saved_regs, saved_mem, pc, fetch_pc,
                                fetch_wait, pd, de, commits))
            if cycle < stage_end:
                masks = [0, 0, 0]
                for stage in range(len(PIPELINE_ORDER)):
                    copy = stage in ctrl.on_spare
                    if stage_faults[stage][copy]:
                        words[stage], masks[stage] = faulty_bus(stage, copy, words[stage], cycle)
                error = any(masks)

        # Controller. Idle monitoring is the identity step.
        if ctrl.mode is ControllerMode.MONITOR and not error:
            new_ctrl, actions = ctrl, _NO_ACTIONS
        else:
            new_ctrl, actions = controller_step(ctrl, masks, False, config)
        if rail_from <= cycle < rail_to:
            # Both controller copies compute the same transition; copy B's
            # outputs are complemented and the rails are compared. Outside
            # the rail faults' windows the rails agree by construction.
            vec = controller_output_vector(new_ctrl, actions)
            out_a = apply_vector_faults(vec, [f for _, f in rail_a if f.active_at(cycle)])
            out_b = apply_vector_faults(~vec & _RAIL_MASK,
                                        [f for _, f in rail_b if f.active_at(cycle)])
            if not trc_compare(out_a, out_b, CONTROLLER_VEC_BITS):
                new_ctrl, actions = controller_step(ctrl, _NO_MASKS, True, config)
        ctrl = new_ctrl

        if actions is not _NO_ACTIONS:
            if actions.dead:
                outcome = Outcome.DEAD
                break
            if actions.classified is not None:
                stage = actions.classified
                detect = cycle - (config.permanent_threshold - 1)
                event = RecoveryEvent(
                    fault_id=culprits[stage, detect],
                    stage=PIPELINE_ORDER[stage], classified="permanent",
                    detect_cycle=detect, end_cycle=cycle)
                events.append(event)
                open_events.append(event)
                pd = de = None
                set_power(stage, 0, PowerState.OFF, cycle)
            if actions.power_on is not None:
                set_power(actions.power_on, 1, PowerState.POWERING, cycle)
            if actions.swap is not None:
                set_power(actions.swap, 1, PowerState.ON, cycle)
                fetch_pc = pc
                fetch_wait = False
                for event in open_events:
                    if event.resume_cycle is None:
                        event.resume_cycle = cycle + 1
            if actions.transient_clear is not None:
                stage, run_length = actions.transient_clear
                detect = cycle - run_length
                events.append(RecoveryEvent(
                    fault_id=culprits[stage, detect],
                    stage=PIPELINE_ORDER[stage], classified="transient",
                    detect_cycle=detect, end_cycle=cycle))

        # Advance the pipeline when nothing flagged an error this cycle.
        if live and not error:
            if de is not None:
                commits += 1
                result = words[2]
                instr = de[0]
                op = instr.opcode
                if op is Opcode.HALT:
                    outcome = Outcome.COMPLETED
                elif op is Opcode.BEQ or op is Opcode.JMP:
                    pc = result if op is Opcode.JMP else pc + (instr.imm if result else 1)
                    fetch_pc = pc
                    fetch_wait = False
                    # Fetch waited for this commit, so the pipeline drains:
                    # unless a corrupted word has been latched, the state is
                    # the fault-free run's after `commits` commits.
                    if drained is None and settled(total_cycles):
                        drained = []
                    if drained is not None:
                        tail = tails.get(commits)
                        if tail is None:
                            drained.append((commits, total_cycles))
                        elif scenario.faults and total_cycles + tail <= max_cycles:
                            # A run with no faults never jumps.
                            total_cycles += tail
                            _, outcome, final = join
                            regs, pc, mem = final.regs, final.pc, dict(final.mem)
                            break
                else:
                    if op is Opcode.ST:
                        mem[(de[3] + instr.imm) & WORD_MASK] = result
                        saved_mem = None
                    elif de[1]:
                        regs[de[1]] = result
                        saved_regs = None
                    pc += 1
                for event in open_events:
                    event.swap_complete_cycle = cycle
                open_events.clear()
            # Latches capture the routed bus words, so a corruption that
            # evaded parity really does propagate downstream; sideband
            # metadata (decoded fields, op_b) is not fault-addressable.
            de = None if d_instr is None else (d_instr, d_dest, words[1], d_op_b)
            if stall:
                pass  # pd holds; decode retries next cycle
            elif pending is not None:
                pd = words[0]
                fetch_pc += 1
                if pending[1]:
                    fetch_wait = True
            else:
                pd = None
            if outcome is not None:
                break
            if pd is None and de is None and not fetch_wait \
                    and not program.in_bounds(fetch_pc):
                # Ran past the end of the program without a HALT.
                outcome = Outcome.EXHAUSTED
                break
        elif ctrl.remaining > 1:
            # FLUSH and POWER_SWAP count down: until `remaining` is 1, a cycle
            # changes nothing else unless a rail fault is active on it. Take
            # those cycles in one step.
            skip = min(ctrl.remaining - 1, max_cycles - total_cycles)
            for _, f in rail_a + rail_b:
                first = max(f.start, total_cycles)
                if f.active_at(first):
                    skip = min(skip, first - total_cycles)
            if skip:
                next(islice(cycles, skip, skip), None)  # consumes `skip` cycles
                total_cycles += skip
                ctrl = replace(ctrl, remaining=ctrl.remaining - skip)

    if outcome is None:
        outcome = Outcome.EXHAUSTED
    else:
        # The run halted, ran off the end or died; a settled one cannot die.
        if total_cycles - 1 <= record_to and total_cycles - 1 < first_start:
            memo["end"] = total_cycles - 1  # the fault-free run reached its end
        if drained:
            if join is None:
                join = memo["join"] = ({}, outcome, ArchState(
                    tuple(regs), pc, dict(mem), outcome is Outcome.COMPLETED))
            # The table holds a suffix of the fault-free run's BEQ and JMP
            # commits, and a settled run passes a suffix of them: `drained`
            # holds those before the table's first.
            join[0].update((n, total_cycles - cycles) for n, cycles in drained)

    for stage in range(len(PIPELINE_ORDER)):
        for copy in range(len(_COPIES)):
            close_span(stage, copy, total_cycles)
    ledger.assert_conserved(total_cycles)
    final_state = ArchState(tuple(regs), pc, mem, outcome is Outcome.COMPLETED)
    final_power = {(kind, _COPIES[copy]): power[stage][copy]
                   for stage, kind in enumerate(PIPELINE_ORDER) for copy in range(len(_COPIES))}
    return SimReport(outcome=outcome, final_state=final_state,
                     total_cycles=total_cycles, events=events, stress=ledger,
                     final_power=final_power)


def matches_reference(report: SimReport, program: Program) -> bool:
    """Golden check: a completed run must equal the reference interpreter.

    Every committed instruction takes a cycle, so the reference gets
    `total_cycles` steps; a reference run that needs more, or falls off the
    end of the program, is a mismatch.
    """
    if report.outcome is not Outcome.COMPLETED:
        return False
    try:
        ref_state, _ = run_reference(program, report.total_cycles)
    except ExecutionError:
        return False
    return report.final_state == ref_state
