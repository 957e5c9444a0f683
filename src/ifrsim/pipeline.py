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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from .faults import (CONTROLLER_VEC_BITS, Delay, FaultScenario, FaultUnit,
                     StressLedger, StuckAt, apply_faults, fold_faults)
from .hw import (OFF, ON, POWERING, Copy, PIPELINE_ORDER, PowerState,
                 StageKind, encode_bus, parity_check, trc_compare)
from .isa import (ADD, AND, BEQ, HALT, JMP, LD, LDI, MOV, NOP, OR, ST, SUB, XOR,
                  ArchState, ExecutionError, Instruction, Opcode, Program, WORD_MASK,
                  decode_word, dst_reg, encode_instruction, run_reference, src_regs)

DEFAULT_MAX_CYCLES = 100_000
_CONTROL_OPS = (BEQ, JMP, HALT)


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


# Enum members are bound once as module globals, as in `isa` and `hw`: on
# Python 3.10 and 3.11 every `ControllerMode.X` load runs a metaclass hook.
MONITOR, SUSPECT, FLUSH, POWER_SWAP, RESUME, DEAD = ControllerMode


@dataclass
class ControllerState:
    """The controller's registers, which `controller_step` updates in place
    on every clock. Stages are pipeline positions 0..2 (predecode, decode,
    execute), the indices `run_core` uses. A step reassigns
    `error_counters` and `on_spare` rather than mutating them."""
    mode: ControllerMode = MONITOR
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
    the stage whose error run cleared; `dead` is fail-stop.
    """
    classified: int | None = None
    power_on: int | None = None
    swap: int | None = None
    transient_clear: int | None = None
    dead: bool = False


_NO_ACTIONS = ControllerActions()
_DEAD_ACTIONS = ControllerActions(dead=True)


def controller_step(state: ControllerState, masks, trc_error: bool,
                    config: CoreConfig) -> ControllerActions:
    """One clock of the repair controller: steps `state` in place and returns
    only the action strobes the surrounding logic must obey.

    `masks` holds the 4-bit parity error mask of each stage in pipeline
    order; stages in the state and the actions are positions 0..2. A
    two-rail error is fail-stop from any mode, DEAD included; otherwise
    stepping a DEAD controller raises.
    """
    if trc_error:
        state.mode = DEAD
        return _DEAD_ACTIONS
    mode = state.mode
    if mode is DEAD:
        raise ValueError("controller is dead; Dead is absorbing")

    if mode is FLUSH or mode is POWER_SWAP:
        state.remaining -= 1
        if state.remaining > 0:
            return _NO_ACTIONS
        stage = state.swap_stage
        if mode is FLUSH:
            state.mode = POWER_SWAP
            state.remaining = config.powerup_cycles_per_block
            return ControllerActions(power_on=stage)
        state.mode = RESUME
        state.on_spare = state.on_spare | {stage}
        return ControllerActions(swap=stage)

    # MONITOR / SUSPECT / RESUME watch the parity masks.
    if not any(masks):
        actions = _NO_ACTIONS
        if mode is SUSPECT:
            actions = ControllerActions(transient_clear=state.suspect_stage)
            state.suspect_stage = None
            state.error_counters = (0, 0, 0)
        state.mode = MONITOR
        return actions

    counters = tuple(count + 1 if mask else 0
                     for count, mask in zip(state.error_counters, masks))
    # Counters start below the threshold and grow by one a step, so the
    # first stage at the peak is the first to reach the threshold.
    peak = max(counters)
    stage = counters.index(peak)
    if peak < config.permanent_threshold:
        state.mode = SUSPECT
        state.suspect_stage = stage
        state.error_counters = counters
        return _NO_ACTIONS
    if stage in state.on_spare:
        # The spare itself has failed permanently: nothing left to swap in.
        state.mode = DEAD
        return _DEAD_ACTIONS
    state.mode = FLUSH
    state.suspect_stage = None
    state.swap_stage = stage
    state.remaining = config.flush_cycles
    state.error_counters = (0, 0, 0)
    return ControllerActions(classified=stage)


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


# Prefixed, since a controller mode is also named DEAD.
RUN_COMPLETED, RUN_DEAD, RUN_EXHAUSTED = Outcome


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
    # How the run was simulated, which is not part of its result: the cycles
    # the loop ran, not those it resumed past, took in one step or jumped
    # over; the commit record it resumed from; and the commit count at which
    # it rejoined the fault-free run and jumped to its end, or None.
    simulated_cycles: int = field(compare=False)
    resumed_from: int = field(compare=False)
    joined_at: int | None = field(compare=False)

    @property
    def permanent_events(self) -> list:
        return [e for e in self.events if e.classified == "permanent"]


_LIVE_MODES = (MONITOR, SUSPECT, RESUME)
_NO_MASKS = (0, 0, 0)
# run_core indexes its state by integers: stages 0..2 in pipeline order, the
# controller as unit 3, and copy 0 = main (rail a), copy 1 = spare (rail b).
_COPIES = (Copy.MAIN, Copy.SPARE)
_COPY_INDEX = {copy: i for i, copy in enumerate(_COPIES)}
_UNIT_INDEX = {FaultUnit(kind.value): i for i, kind in enumerate(PIPELINE_ORDER)}
_UNIT_INDEX[FaultUnit.CONTROLLER] = _RAIL = len(PIPELINE_ORDER)
_RAIL_MASK = (1 << CONTROLLER_VEC_BITS) - 1

# Execute kinds: what the execute stage and the commit do with an
# instruction. The kinds up to _NOP write their destination register, if
# any, and step the pc. `_EXECUTE_KIND` is indexed by `int(opcode)`, since
# an enum key would hash through Python code.
_MOVE, _ADD, _SUB, _AND, _OR, _XOR, _LD, _NOP, _ST, _BEQ, _JMP, _HALT = range(12)
_EXECUTE_KIND = tuple({NOP: _NOP, HALT: _HALT, LDI: _MOVE, MOV: _MOVE, ADD: _ADD, SUB: _SUB,
                       AND: _AND, OR: _OR, XOR: _XOR, LD: _LD, ST: _ST, BEQ: _BEQ,
                       JMP: _JMP}[op] for op in Opcode)


def _decoded(word: int) -> tuple[Instruction, tuple[int, ...], int | None, int | None,
                                 int, int, int]:
    """What the decode stage needs of a word: (instruction, sources, src_a,
    src_b, dest, imm, kind). `src_a` and `src_b` are the first and second
    source, or None where it has fewer. Decode drives their values as
    (op_a, op_b), with imm as op_a if it reads no register and 0 as a
    missing op_b; imm is 0 but for LDI and JMP. `kind` is the execute kind."""
    instr = decode_word(word)
    imm = instr.imm & WORD_MASK if instr.opcode in (LDI, JMP) else 0
    sources = src_regs(instr)
    src_a, src_b = (*sources, None, None)[:2]
    return (instr, sources, src_a, src_b, dst_reg(instr), imm,
            _EXECUTE_KIND[int(instr.opcode)])


def _program_memo(program: Program) -> dict:
    """`program.core_memo`, filled on the program's first run: `slots`, the
    (word, control-flow?) fetch slot of each instruction; `decoded`, the word
    -> `_decoded` table; `records`, where `records[n]` is the fault-free run
    on the first cycle after commit n, as (cycle, regs, mem, pc, fetch_pc,
    fetch_wait, pd, de), with `de` the decode latch (instruction, dest, op_a,
    op_b, execute kind) or None, sharing the regs tuple and mem dict of
    `records[n - 1]` unless commit n wrote them; `end`, None until a settled
    run has reached the program's end, then (outcome, final state) of that
    end; and `tails`, where `tails[n]` is the number of cycles a settled run
    takes from its commit number n to that end, or None where no run has told.
    A fresh `Program` has only `records[0]`, its start at cycle 0."""
    memo = program.core_memo
    if not memo:
        memo.update(slots=[(encode_instruction(instr), instr.opcode in _CONTROL_OPS)
                           for instr in program.instructions],
                    decoded={}, records=[(0, (0,) * 16, {}, 0, 0, False, None, None)],
                    tails=[], end=None)
    return memo


def run_core(program: Program, config: CoreConfig, scenario: FaultScenario, *,
             max_cycles: int = DEFAULT_MAX_CYCLES) -> SimReport:
    """Simulate the repairable core cycle by cycle under a fault scenario.

    The pipeline is in-order with interlock stalls and no forwarding; fetch
    drains behind control-flow instructions, so cycle counts are a property
    of this artifact while architectural correctness is checked against the
    reference interpreter.

    A run with faults equals the program's fault-free run until its earliest
    fault starts, and that run's state after n commits fixes every later
    cycle. So a run with faults starts from the last fault-free commit record
    whose cycle is at most min(earliest start - margin, `max_cycles` - 1),
    where the margin, the largest delay `extra` + 1 or 0, lets the replayed
    cycles fill each delay history. It records the fault-free commits up to
    there, once per `Program`; a run with no faults starts from `records[0]`.

    A run with faults also ends early once it has rejoined the fault-free
    run. It is *settled* at a commit when every fault is inert (past its
    `end`, on a stage copy that the switch does not select: the main once
    the stage is on its spare, the spare before, or a rail stuck-at at the
    level its rail carries while the controller idles in MONITOR), the
    controller is in MONITOR with no event open, and no faulted bus has
    passed parity with a corrupted data word. Then no error can arise, so
    no swap can select a faulty copy again and the controller idles for
    good, and the run has latched no corrupted word: after n
    commits its regs, mem and pc are the fault-free run's after n commits.
    So are its latches: both runs have just committed the same instruction,
    and it and the two after it in program order alone decide the stall,
    the fetch wait and the bounds checks that fill `pd` and `de` (an error
    only freezes the pipeline, and a swap refills it from pc). So n fixes
    every cycle that follows. A settled run that reaches the program's end
    records `tails[n]`, the cycles left after each of its settled commits n;
    the first also records that end's outcome and final state. A later run
    settled at commit n that finds `tails[n]`, with the cycles left fitting
    `max_cycles`, ends at once with that outcome and a copy of that state;
    its stress spans close at the new end, and no event is added. A run with
    no faults is settled from cycle 0: it fills the table while the program
    has no end, and never ends early.

    Bus words and parity masks are plain ints. The bus fabric (parity
    encode, fault application, parity check) is evaluated only at sites with
    an active fault, and only before the latest stage fault window ends: any
    other site drives its word with a zero error mask by construction.
    Between two fault starts or ends a site's active faults stay the same,
    so on its first evaluated cycle in such a window they are folded into
    three masks (`faults.fold_faults`), and each cycle there applies them in
    one step; a delay's stale word, latched on its first evaluated cycle,
    is folded in too. Likewise the controller rails are built and two-rail
    checked only in a run with rail faults, with masks folded the same way,
    and the stress ledger is kept as spans that close when a block's power
    changes.

    A run without rail faults takes in one step the cycles that change only
    a count: the FLUSH and POWER_SWAP countdowns, and the frozen error
    window. An error freezes the pipeline, so until a fault starts or ends,
    each later SUSPECT cycle re-presents the same words and adds one to each
    nonzero error counter; the skip stops short of the threshold, so the
    next simulated cycle classifies or clears on the same cycle, and it
    appends the re-presented word to each selected copy's delay history. A
    run with rail faults takes neither skip.

    The execute stage does not call `isa.execute_result`: the decode table
    names each word's execute kind, the decode latch carries it, and the
    execute stage and the commit branch on it inline. The report's
    `simulated_cycles`, `resumed_from` and `joined_at` say which cycles the
    loop ran; they are derived when it exits.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    scenario.validate(config.permanent_threshold)
    memo = _program_memo(program)
    slots, decoded, records = memo["slots"], memo["decoded"], memo["records"]

    # A cycle count past the budget, which no commit reaches: a permanent
    # fault ends here, and a run settled only from here never settles.
    never = max_cycles + 1
    # site_faults[unit][copy]: the (scenario index, fault) pairs at that site;
    # inert_when: the (end, unit, copy, kind) of each fault.
    site_faults = [([], []) for _ in range(len(PIPELINE_ORDER) + 1)]
    inert_when = []
    # The cycles on which a fault starts or ends, and `never`: between two of
    # them the same faults are active.
    edges = {never}
    for index, fault in enumerate(scenario.faults):
        unit, copy = _UNIT_INDEX[fault.site.unit], _COPY_INDEX[fault.site.copy]
        site_faults[unit][copy].append((index, fault))
        inert_when.append((min(fault.end, never), unit, copy, fault.kind))
        edges.update((fault.start, min(fault.end, never)))
    edges = sorted(edges)
    stage_faults = site_faults[:-1]
    rail_a, rail_b = site_faults[-1]
    # A stage fault can be active before `stage_end`.
    stage_end = max((f.end for copies in stage_faults for faults in copies
                     for _, f in faults), default=0)

    power = [[ON, OFF] for _ in PIPELINE_ORDER]
    since = [[0, 0] for _ in PIPELINE_ORDER]  # first cycle of each block's power span
    ledger = StressLedger()
    stress_of = [[ledger.blocks[kind, copy] for copy in _COPIES] for kind in PIPELINE_ORDER]
    # A stage's switch selects its spare (copy 1) iff it is in ctrl.on_spare.
    ctrl = ControllerState()

    def close_span(stage: int, copy: int, end: int) -> None:
        stress_of[stage][copy].add(power[stage][copy], end - since[stage][copy])
        since[stage][copy] = end

    def set_power(stage: int, copy: int, state: PowerState, cycle: int) -> None:
        # A controller action of this cycle takes effect from the next one.
        close_span(stage, copy, cycle + 1)
        power[stage][copy] = state
        # Power changes only here, so the invariants are checked here.
        live_next = ctrl.mode in _LIVE_MODES
        for position, copies in enumerate(power):
            assert copies.count(ON) <= 1, \
                "at most one copy of a stage may be powered"
            assert not live_next or copies[position in ctrl.on_spare] is ON, \
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
    # Per stage, (first cycle, scenario index of the fault credited) of its
    # latest parity-error run.
    run_start: list = [None] * len(PIPELINE_ORDER)

    diverged = False  # a corrupted data word passed parity
    # (unit, copy, window) -> (active, flips, keep, ones): the (scenario
    # index, fault) pairs active at that site between edges[window - 1] and
    # edges[window], and their corruption folded by `fold_faults`.
    folds: dict = {}

    def fold(unit: int, copy: int, cycle: int, word: int) -> tuple:
        """The folded faults of a site for the window of `cycle`, its first
        evaluated cycle there. A delay latches its stale word on its first
        evaluated cycle; the last active one in scenario order drives the
        data lines."""
        active = [(i, f) for i, f in site_faults[unit][copy] if f.active_at(cycle)]
        stale = None
        for i, f in active:
            if isinstance(f.kind, Delay):
                if i not in held_delay:
                    hist = delay_hist[unit, copy]
                    held_delay[i] = hist[max(len(hist) - f.kind.extra, 0)] if hist else word
                stale = held_delay[i]
        folded = folds[unit, copy, bisect_right(edges, cycle)] = (
            active, *fold_faults([f for _, f in active], stale))
        return folded

    def faulty_bus(stage: int, copy: int, word: int, cycle: int) -> tuple[int, int]:
        """Drive `word` through a site that carries faults: (data, error mask).
        With none of them active the site drives `word` clean."""
        nonlocal diverged
        active, flips, keep, ones = (folds.get((stage, copy, bisect_right(edges, cycle)))
                                     or fold(stage, copy, cycle, word))
        hist = delay_hist.get((stage, copy))
        if hist is not None:
            hist.append(word)
        if not active:
            return word, 0
        bus = (encode_bus(word) ^ flips) & keep | ones
        mask = parity_check(bus)
        if not mask and bus & WORD_MASK != word:
            diverged = True
        if mask and not ctrl.error_counters[stage]:
            # A parity-error run starts (the controller has counted no error
            # at this stage yet). Its culprit is the first active fault, in
            # scenario order, whose corruption alone breaks parity, else the
            # first active one.
            run_start[stage] = cycle, active[0][0] if len(active) == 1 else next(
                (i for i, f in active
                 if parity_check(apply_faults(encode_bus(word), [f], held_delay.get(i, word)))),
                active[0][0])
        return bus & WORD_MASK, mask

    def inert_from() -> int:
        """The cycle from which every fault is inert while the switches stay
        as they are: a fault on a selected copy is inert from its end, one
        on an unselected copy at once. A rail fault is inert from its end,
        or at once if it is a stuck-at at the level its rail carries while
        the controller idles in MONITOR: once every stage fault is inert,
        the controller idles for good."""
        idle = controller_output_vector(ControllerState(swap_stage=ctrl.swap_stage), _NO_ACTIONS)
        return max((end for end, unit, copy, kind in inert_when
                    if (copy == (unit in ctrl.on_spare) if unit != _RAIL else
                        not (isinstance(kind, StuckAt)
                             and kind.value == (idle >> kind.bit & 1) ^ copy))),
                   default=0)

    # The start record and the records this run makes are at or before
    # `bound`; a run with no faults starts at cycle 0 and records none.
    margin = max((hist.maxlen for hist in delay_hist.values()), default=0)
    earliest = min((f.start for f in scenario.faults), default=0)
    bound = max(min(earliest - margin, max_cycles - 1), 0)
    commits = bisect_right(records, bound, key=itemgetter(0)) - 1
    # `pd` and `de` are the predecode and decode latches: the fetched word and
    # (instr, dest, op_a, op_b, execute kind). `saved_regs` and `saved_mem`
    # are the last record's regs and mem, None once a commit has written
    # that field since.
    resume, saved_regs, saved_mem, pc, fetch_pc, fetch_wait, pd, de = records[commits]
    regs, mem = list(saved_regs), dict(saved_mem)

    events: list[RecoveryEvent] = []
    # Permanent events stay open until the first post-resume commit; a second
    # fault may interrupt a refill, in which case the earlier event's refill
    # span absorbs the later recovery (normal function returned only then).
    open_events: list[RecoveryEvent] = []
    outcome: Outcome | None = None
    total_cycles = resume
    tails, end = memo["tails"], memo["end"]
    # Commit count -> cycles so far, at each settled commit that has no tail
    # yet. Every commit leaves the controller in MONITOR with no event open,
    # so a commit is settled once the cycle count reaches `inert_at`, unless
    # the run has diverged. A run with no faults fills the table only while
    # the program has no end, so it never finds a tail there.
    settled_at: dict = {}
    inert_at = inert_from() if scenario.faults or end is None else never

    # The controller's mode, read afresh after each `controller_step`, its
    # only writer, and whether the pipeline runs in that mode.
    mode = ctrl.mode
    live = mode in _LIVE_MODES
    rails = bool(rail_a or rail_b)
    resumed_from = commits
    skipped = 0  # cycles taken in one step
    joined = None
    length = len(slots)
    cycles = iter(range(resume, max_cycles))
    for cycle in cycles:
        total_cycles = cycle + 1
        masks = _NO_MASKS
        # The pipeline holds this cycle: the controller is not live, or a
        # parity error flags a stage.
        frozen = not live

        if live:
            # Decode: consumes the predecode latch, stalls on a read-after-write
            # hazard against the instruction currently in execute.
            d_word = 0
            d_instr = None
            stall = False
            if pd is not None:
                entry = decoded.get(pd)
                if entry is None:
                    entry = decoded[pd] = _decoded(pd)
                instr, sources, src_a, src_b, dest, imm, kind = entry
                if de is not None and de[1] and de[1] in sources:
                    stall = True
                else:
                    d_word = imm if src_a is None else regs[src_a]
                    d_op_b = 0 if src_b is None else regs[src_b]
                    d_instr, d_dest, d_kind = instr, dest, kind

            # Predecode: fetch only if the latch will be free this cycle.
            p_word = 0
            pending = None
            if not stall and not fetch_wait and 0 <= fetch_pc < length:
                pending = slots[fetch_pc]
                p_word = pending[0]

            # Execute: the word the latched instruction's kind drives. Its
            # operands are words already: registers, masked immediates or
            # routed bus words.
            if de is None:
                e_word = 0
            else:
                e_instr, e_dest, op_a, op_b, e_kind = de
                if e_kind == _MOVE:
                    e_word = op_a
                elif e_kind == _ADD:
                    e_word = (op_a + op_b) & WORD_MASK
                elif e_kind == _SUB:
                    e_word = (op_a - op_b) & WORD_MASK
                elif e_kind == _AND:
                    e_word = op_a & op_b
                elif e_kind == _OR:
                    e_word = op_a | op_b
                elif e_kind == _XOR:
                    e_word = op_a ^ op_b
                elif e_kind == _LD:
                    e_word = mem.get((op_a + e_instr.imm) & WORD_MASK, 0)
                elif e_kind == _BEQ:
                    e_word = 1 if op_a == op_b else 0
                elif e_kind == _NOP or e_kind == _HALT:
                    e_word = 0
                else:  # _ST drives the stored value, _JMP its target
                    e_word = op_a

            if cycle < stage_end:
                words = [p_word, d_word, e_word]
                masks = [0, 0, 0]
                for stage in range(len(PIPELINE_ORDER)):
                    copy = stage in ctrl.on_spare
                    if stage_faults[stage][copy]:
                        words[stage], masks[stage] = faulty_bus(stage, copy, words[stage], cycle)
                p_word, d_word, e_word = words
                frozen = any(masks)

        # Controller. Idle monitoring is the identity step.
        actions = _NO_ACTIONS
        if mode is not MONITOR or frozen:
            actions = controller_step(ctrl, masks, False, config)
            mode = ctrl.mode
            live = mode in _LIVE_MODES
        if rails:
            # Both controller copies compute the same transition; copy B's
            # outputs are complemented and the rails are compared. Without
            # rail faults the rails agree by construction. A mismatch ends
            # the controller DEAD, even when this cycle's step already has.
            vec = controller_output_vector(ctrl, actions)
            window = bisect_right(edges, cycle)
            _, flips_a, keep_a, ones_a = folds.get((_RAIL, 0, window)) or fold(_RAIL, 0, cycle, 0)
            _, flips_b, keep_b, ones_b = folds.get((_RAIL, 1, window)) or fold(_RAIL, 1, cycle, 0)
            out_a = (vec ^ flips_a) & keep_a | ones_a
            out_b = ((~vec & _RAIL_MASK) ^ flips_b) & keep_b | ones_b
            if not trc_compare(out_a, out_b, CONTROLLER_VEC_BITS):
                actions = controller_step(ctrl, _NO_MASKS, True, config)
                mode = ctrl.mode

        if actions is not _NO_ACTIONS:
            if actions.dead:
                outcome = RUN_DEAD
                break
            if actions.classified is not None:
                stage = actions.classified
                detect, culprit = run_start[stage]
                event = RecoveryEvent(
                    fault_id=culprit, stage=PIPELINE_ORDER[stage], classified="permanent",
                    detect_cycle=detect, end_cycle=cycle)
                events.append(event)
                open_events.append(event)
                pd = de = None
                set_power(stage, 0, OFF, cycle)
            if actions.power_on is not None:
                set_power(actions.power_on, 1, POWERING, cycle)
            if actions.swap is not None:
                set_power(actions.swap, 1, ON, cycle)
                inert_at = inert_from()
                fetch_pc = pc
                fetch_wait = False
                for event in open_events:
                    if event.resume_cycle is None:
                        event.resume_cycle = cycle + 1
            if actions.transient_clear is not None:
                stage = actions.transient_clear
                detect, culprit = run_start[stage]
                events.append(RecoveryEvent(
                    fault_id=culprit, stage=PIPELINE_ORDER[stage], classified="transient",
                    detect_cycle=detect, end_cycle=cycle))

        # Advance the pipeline unless it was frozen this cycle.
        if not frozen:
            committed = de is not None
            if committed:
                commits += 1
                if e_kind <= _NOP:
                    if e_dest:
                        regs[e_dest] = e_word
                        saved_regs = None
                    pc += 1
                elif e_kind == _ST:
                    mem[(op_b + e_instr.imm) & WORD_MASK] = e_word
                    saved_mem = None
                    pc += 1
                elif e_kind == _HALT:
                    outcome = RUN_COMPLETED
                else:  # _BEQ or _JMP
                    pc = e_word if e_kind == _JMP else pc + (e_instr.imm if e_word else 1)
                    fetch_pc = pc
                    fetch_wait = False
                if open_events:
                    for event in open_events:
                        event.swap_complete_cycle = cycle
                    open_events.clear()
            # Latches capture the routed bus words, so a corruption that
            # evaded parity really does propagate downstream; sideband
            # metadata (decoded fields, op_b) is not fault-addressable.
            de = None if d_instr is None else (d_instr, d_dest, d_word, d_op_b, d_kind)
            if stall:
                pass  # pd holds; decode retries next cycle
            elif pending is not None:
                pd = p_word
                fetch_pc += 1
                if pending[1]:
                    fetch_wait = True
            else:
                pd = None
            if outcome is not None:
                break
            if pd is None and de is None and not fetch_wait and not 0 <= fetch_pc < length:
                # Ran past the end of the program without a HALT.
                outcome = RUN_EXHAUSTED
                break
            if committed:
                if total_cycles <= bound and commits == len(records):
                    # No fault has started yet: this is the fault-free run.
                    if saved_regs is None:
                        saved_regs = tuple(regs)
                    if saved_mem is None:
                        saved_mem = dict(mem)
                    records.append((total_cycles, saved_regs, saved_mem, pc, fetch_pc,
                                    fetch_wait, pd, de))
                if total_cycles >= inert_at and not diverged:
                    # A settled run after n commits is the fault-free run, whose
                    # last commit ends the loop above: n < len(tails) once the
                    # table is filled.
                    tail = tails[commits] if tails else None
                    if tail is None:
                        settled_at[commits] = total_cycles
                    elif total_cycles + tail <= max_cycles:
                        total_cycles += tail
                        joined = commits
                        outcome, final = end
                        regs, pc, mem = final.regs, final.pc, dict(final.mem)
                        break
        elif not rails:
            # In a run without rail faults, the cycles that change nothing but
            # a count are taken in one step.
            skip = 0
            if mode is SUSPECT:
                # The frozen pipeline re-presents this cycle's words, so until
                # a fault starts or ends, each cycle sees this cycle's masks
                # and adds one to each nonzero counter. Stop short of the
                # threshold, so the next simulated cycle classifies or clears.
                counters = ctrl.error_counters
                skip = min(config.permanent_threshold - 1 - max(counters),
                           edges[bisect_right(edges, cycle)] - total_cycles,
                           max_cycles - total_cycles)
                if skip:
                    ctrl.error_counters = tuple(count + skip if count else 0
                                                for count in counters)
                    # Each skipped cycle appends the same true word.
                    for stage in range(len(PIPELINE_ORDER)):
                        hist = delay_hist.get((stage, stage in ctrl.on_spare))
                        if hist:
                            hist.extend([hist[-1]] * min(skip, hist.maxlen))
            elif ctrl.remaining > 1:
                # FLUSH and POWER_SWAP count down: until `remaining` is 1, a
                # cycle changes nothing else.
                skip = min(ctrl.remaining - 1, max_cycles - total_cycles)
                ctrl.remaining -= skip
            if skip:
                next(islice(cycles, skip, skip), None)  # consumes `skip` cycles
                total_cycles += skip
                skipped += skip

    if outcome is None:
        outcome = RUN_EXHAUSTED
    elif settled_at:
        # The run halted or ran off the end: a settled run cannot die.
        if end is None:
            memo["end"] = (outcome, ArchState(
                tuple(regs), pc, dict(mem), outcome is RUN_COMPLETED))
            tails.extend([None] * commits)
        for n, so_far in settled_at.items():
            tails[n] = total_cycles - so_far

    for stage in range(len(PIPELINE_ORDER)):
        for copy in range(len(_COPIES)):
            close_span(stage, copy, total_cycles)
    ledger.assert_conserved(total_cycles)
    final_state = ArchState(tuple(regs), pc, mem, outcome is RUN_COMPLETED)
    # The ledger keeps its blocks in stage then copy order, as `power` is.
    final_power = dict(zip(ledger.blocks, (state for copies in power for state in copies)))
    simulated = total_cycles - resume - skipped - (0 if joined is None else tails[joined])
    return SimReport(outcome=outcome, final_state=final_state,
                     total_cycles=total_cycles, events=events, stress=ledger,
                     final_power=final_power, simulated_cycles=simulated,
                     resumed_from=resumed_from, joined_at=joined)


def matches_reference(report: SimReport, program: Program) -> bool:
    """Golden check: a completed run must equal the reference interpreter.

    Every committed instruction takes a cycle, so the reference gets
    `total_cycles` steps; a reference run that needs more, or falls off the
    end of the program, is a mismatch.
    """
    if report.outcome is not RUN_COMPLETED:
        return False
    try:
        ref_state, _ = run_reference(program, report.total_cycles)
    except ExecutionError:
        return False
    return report.final_state == ref_state
