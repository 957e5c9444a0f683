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
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from .faults import (CONTROLLER_VEC_BITS, Delay, FaultScenario, FaultUnit,
                     StressLedger, StuckAt, fold_faults)
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
    """The controller's registers, which only `controller_step` and
    `controller_skip` update, reassigning `error_counters` and `on_spare`.
    Stages are pipeline positions 0..2, the indices `run_core` uses. The
    suspect stage is the first at the highest nonzero error counter."""
    mode: ControllerMode = MONITOR
    swap_stage: int | None = None
    remaining: int = 0
    error_counters: tuple[int, int, int] = (0, 0, 0)
    on_spare: frozenset = frozenset()


# The strobes a controller step drives, each for one stage and on its own
# cycle alone: CLASSIFY flushes the pipeline and powers off the stage's main
# copy; POWER_ON starts powering up its spare; SWAP flips its switch to the
# spare and replays; CLEAR ends its error run below the threshold.
CLASSIFY, POWER_ON, SWAP, CLEAR = range(4)


def controller_step(state: ControllerState, masks, config: CoreConfig) -> tuple[int, int] | None:
    """One clock of the repair controller: steps `state` in place and returns
    the `(strobe, stage)` the surrounding logic must obey, or None.

    `masks` holds the 4-bit parity error mask of each stage in pipeline
    order; stages in the state and the strobes are positions 0..2. Stepping
    a DEAD controller raises. A two-rail mismatch is not the controller's
    to see: `run_core` checks the rails and ends the run on it.
    """
    mode = state.mode
    if mode is DEAD:
        raise ValueError("controller is dead; Dead is absorbing")

    if mode is FLUSH or mode is POWER_SWAP:
        state.remaining -= 1
        if state.remaining > 0:
            return None
        stage = state.swap_stage
        if mode is FLUSH:
            state.mode = POWER_SWAP
            state.remaining = config.powerup_cycles_per_block
            return POWER_ON, stage
        state.mode = RESUME
        state.on_spare = state.on_spare | {stage}
        return SWAP, stage

    # MONITOR / SUSPECT / RESUME watch the parity masks.
    if not any(masks):
        strobe = None
        if mode is SUSPECT:
            counters = state.error_counters
            strobe = CLEAR, counters.index(max(counters))
            state.error_counters = (0, 0, 0)
        state.mode = MONITOR
        return strobe

    counters = tuple(count + 1 if mask else 0
                     for count, mask in zip(state.error_counters, masks))
    # Counters start below the threshold and grow by one a step, so the
    # first stage at the peak is the first to reach the threshold.
    peak = max(counters)
    stage = counters.index(peak)
    if peak < config.permanent_threshold:
        state.mode = SUSPECT
        state.error_counters = counters
        return None
    if stage in state.on_spare:
        # The spare itself has failed permanently: nothing left to swap in.
        state.mode = DEAD
        return None
    state.mode = FLUSH
    state.swap_stage = stage
    state.remaining = config.flush_cycles
    state.error_counters = (0, 0, 0)
    return CLASSIFY, stage


def controller_skip(state: ControllerState, config: CoreConfig, limit: int) -> int:
    """Take up to `limit` cycles, each seeing the masks of the last step,
    which drove no strobe, and return how many. In SUSPECT each adds one to
    each nonzero counter, short of the threshold. Otherwise each counts
    `remaining` down, short of the strobe; MONITOR and RESUME have none."""
    if state.mode is SUSPECT:
        counters = state.error_counters
        skip = min(config.permanent_threshold - 1 - max(counters), limit)
        state.error_counters = tuple(count + skip if count else 0 for count in counters)
    else:
        skip = min(max(state.remaining - 1, 0), limit)
        state.remaining -= skip
    return skip


def controller_output_vector(state: ControllerState, strobe: tuple[int, int] | None) -> int:
    """Pack the controller's observable outputs into a 16-bit vector.

    Layout: [0:3] mode, [3:5] focal stage code (position + 1: the suspect
    stage while an error counter is nonzero, else the swap stage), 5 flush,
    6 replay, [7:10] power-off stage one-hot, 10 power-off-targets-spare
    (always 0: only main copies are powered off), [11:14] power-on stage
    one-hot, 14 power-on-targets-spare, 15 switch flip.
    """
    vec = state.mode.value
    counters = state.error_counters
    focal = counters.index(max(counters)) if any(counters) else state.swap_stage
    if focal is not None:
        vec |= (focal + 1) << 3
    if strobe is not None:
        kind, stage = strobe
        if kind == CLASSIFY:
            vec |= 1 << 5 | 1 << (7 + stage)
        elif kind == POWER_ON:
            vec |= 1 << (11 + stage) | 1 << 14
        elif kind == SWAP:
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
    # The first cycle on which a corrupted data word passed parity, or None.
    diverged_at: int | None = field(compare=False)

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
    where the margin, the largest delay `extra` (at most `max_cycles`) + 1
    or 0, lets the replayed cycles fill each delay history. It records the
    fault-free commits up to there, once per `Program`; a run with no faults
    starts from `records[0]`.

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

    Bus words and parity masks are plain ints. The stage loop drives the bus
    fabric (parity encode, fault application, parity check) only at selected
    copies with an active fault, before the latest stage fault window ends:
    any other site drives its word with a zero error mask by construction.
    Between two fault starts or ends a site's active faults stay the same,
    so on its first evaluated cycle in such a window they are folded into
    three masks (`faults.fold_faults`), and each cycle there applies them in
    one step; a delay's stale word, latched on its first evaluated cycle,
    is folded in too. `fold_faults` is the only fault application: a
    parity-error run's culprit is found by folding each active fault alone.
    Likewise the controller rails are built and two-rail checked only in a
    run with rail faults, with masks folded the same way; a mismatch ends
    the run DEAD on its cycle without stepping the controller. The stress
    ledger is kept as spans that close when a block's power changes.

    After a cycle that drove no strobe, every run takes in one step
    (`controller_skip`), up to the budget, the cycles that change only a
    count: the frozen error window, up to the next fault start or end, and
    the FLUSH and POWER_SWAP countdowns, which evaluate no stage bus, up to
    that edge only in a run with rail faults, whose rails carry the outputs
    and faults of that cycle until then. An error freezes the pipeline, so
    each later SUSPECT cycle re-presents the same words and adds one to
    each nonzero counter; the skip stops short of the threshold, so the
    next simulated cycle classifies or clears on the same cycle. A window
    skip adds its cycles to the newest entry of each selected copy's delay
    history.

    The execute stage does not call `isa.execute_result`: the decode table
    names each word's execute kind, the decode latch carries it, and the
    execute stage and the commit branch on it inline. The report's
    `simulated_cycles`, `resumed_from` and `joined_at` say which cycles the
    loop ran; they are derived when it exits.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    memo = _program_memo(program)
    slots, decoded, records = memo["slots"], memo["decoded"], memo["records"]

    # A cycle count past the budget, which no commit reaches: a permanent
    # fault ends here, and a run settled only from here never settles.
    never = max_cycles + 1
    # The run's fault table, from one pass over the scenario.
    # site_faults[unit][copy]: the (scenario index, fault) pairs at that site.
    site_faults = [([], []) for _ in range(len(PIPELINE_ORDER) + 1)]
    # The cycles on which a fault starts or ends, and `never`: between two of
    # them the same faults are active.
    edges = {never}
    stage_end = 0  # a stage fault can be active before `stage_end`
    earliest = math.inf if scenario.faults else 0  # the earliest fault start
    # Each delay site keeps one [true data word, cycles] entry per evaluated
    # cycle, newest last; a frozen-window skip adds to the newest count. A
    # delay latches the word driven `extra` cycles back, else the oldest
    # kept, else the current one. An entry covers at least one cycle, so a
    # site keeps its largest `extra` + 1 entries; no run holds sys.maxsize.
    depths: dict = {}  # (stage, copy) -> entries kept
    margin = 0  # the largest delay `extra`, at most `max_cycles`, + 1, or 0
    for index, fault in enumerate(scenario.faults):
        unit, copy = _UNIT_INDEX[fault.site.unit], _COPY_INDEX[fault.site.copy]
        site_faults[unit][copy].append((index, fault))
        edges.update((fault.start, min(fault.end, never)))
        earliest = min(earliest, fault.start)
        if unit != _RAIL:
            stage_end = max(stage_end, fault.end)
        if isinstance(fault.kind, Delay):  # never on a rail
            extra = fault.kind.extra
            depths[unit, copy] = max(depths.get((unit, copy), 0), min(extra + 1, sys.maxsize))
            margin = max(margin, min(extra, max_cycles) + 1)
    edges = sorted(edges)
    delay_hist = {site: deque(maxlen=depth) for site, depth in depths.items()}

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
        # A controller strobe of this cycle takes effect from the next one.
        close_span(stage, copy, cycle + 1)
        power[stage][copy] = state
        # Power changes only here, so the invariants are checked here.
        live_next = ctrl.mode in _LIVE_MODES
        for position, copies in enumerate(power):
            assert copies.count(ON) <= 1, \
                "at most one copy of a stage may be powered"
            assert not live_next or copies[position in ctrl.on_spare] is ON, \
                "selected copy must be powered"

    held_delay: dict = {}  # fault index -> latched stale data word
    # Per stage, (first cycle, scenario index of the fault credited) of its
    # latest parity-error run.
    run_start: list = [None] * len(PIPELINE_ORDER)

    diverged_at = None  # the first cycle a corrupted data word passed parity
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
                    stale, back = word, f.kind.extra
                    for stale, cycles in reversed(delay_hist[unit, copy]):
                        back -= cycles
                        if back <= 0:
                            break
                    held_delay[i] = stale
                stale = held_delay[i]
        folded = folds[unit, copy, bisect_right(edges, cycle)] = (
            active, *fold_faults([f for _, f in active], stale))
        return folded

    def inert_from() -> int:
        """The cycle from which every fault is inert while the switches stay
        as they are: a fault on a selected copy is inert from its end, one
        on an unselected copy at once. A rail fault is inert from its end,
        or at once if it is a stuck-at at the level its rail carries while
        the controller idles in MONITOR: once every stage fault is inert,
        the controller idles for good."""
        idle = controller_output_vector(ControllerState(swap_stage=ctrl.swap_stage), None)
        return max((min(f.end, never) for unit, copies in enumerate(site_faults)
                    for copy, faults in enumerate(copies) for _, f in faults
                    if (copy == (unit in ctrl.on_spare) if unit != _RAIL else
                        not (isinstance(f.kind, StuckAt)
                             and f.kind.value == (idle >> f.kind.bit & 1) ^ copy))),
                   default=0)

    # The start record and the records this run makes are at or before
    # `bound`; a run with no faults starts at cycle 0 and records none.
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

    # The controller's mode, read afresh after each `controller_step` or set
    # DEAD by a rail mismatch, and whether the pipeline runs in that mode.
    mode = ctrl.mode
    live = mode in _LIVE_MODES
    rails = any(site_faults[-1])
    resumed_from = commits
    skipped = 0  # cycles taken in one step
    joined = None
    length = len(slots)
    cycle = resume
    while cycle < max_cycles:
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
                # Each selected copy that carries faults drives its bus.
                words = [p_word, d_word, e_word]
                masks = [0, 0, 0]
                window = None  # found once per cycle, on a selected faulted copy
                for stage in range(len(PIPELINE_ORDER)):
                    copy = stage in ctrl.on_spare
                    if not site_faults[stage][copy]:
                        continue
                    if window is None:
                        window = bisect_right(edges, cycle)
                    word = words[stage]
                    active, flips, keep, ones = (folds.get((stage, copy, window))
                                                 or fold(stage, copy, cycle, word))
                    hist = delay_hist.get((stage, copy))
                    if hist is not None:
                        hist.append([word, 1])
                    if not active:
                        continue
                    bus = (encode_bus(word) ^ flips) & keep | ones
                    words[stage] = bus & WORD_MASK
                    mask = masks[stage] = parity_check(bus)
                    if not mask and words[stage] != word and diverged_at is None:
                        diverged_at = cycle
                    if mask and not ctrl.error_counters[stage]:
                        # A parity-error run starts. Its culprit is the first
                        # active fault whose own folded masks break parity,
                        # else the first active one.
                        run_start[stage] = cycle, active[0][0] if len(active) == 1 else next(
                            (i for i, f in active
                             for f_flips, f_keep, f_ones in [fold_faults([f], held_delay.get(i))]
                             if parity_check((encode_bus(word) ^ f_flips) & f_keep | f_ones)),
                            active[0][0])
                p_word, d_word, e_word = words
                frozen = any(masks)

        # Controller. Idle monitoring is the identity step.
        strobe = None
        if mode is not MONITOR or frozen:
            strobe = controller_step(ctrl, masks, config)
            mode = ctrl.mode
            live = mode in _LIVE_MODES
        if rails:
            # Both controller copies compute the same transition; copy B's
            # outputs are complemented and the rails are compared. Without
            # rail faults the rails agree by construction. A mismatch is
            # fail-stop: the run ends DEAD on this cycle, its strobe dropped.
            vec = controller_output_vector(ctrl, strobe)
            window = bisect_right(edges, cycle)
            _, flips_a, keep_a, ones_a = folds.get((_RAIL, 0, window)) or fold(_RAIL, 0, cycle, 0)
            _, flips_b, keep_b, ones_b = folds.get((_RAIL, 1, window)) or fold(_RAIL, 1, cycle, 0)
            out_a = (vec ^ flips_a) & keep_a | ones_a
            out_b = ((~vec & _RAIL_MASK) ^ flips_b) & keep_b | ones_b
            if not trc_compare(out_a, out_b, CONTROLLER_VEC_BITS):
                mode = DEAD

        if mode is DEAD:
            outcome = RUN_DEAD
            break
        if strobe is not None:
            kind, stage = strobe
            if kind == CLASSIFY:
                detect, culprit = run_start[stage]
                event = RecoveryEvent(
                    fault_id=culprit, stage=PIPELINE_ORDER[stage], classified="permanent",
                    detect_cycle=detect, end_cycle=cycle)
                events.append(event)
                open_events.append(event)
                pd = de = None
                set_power(stage, 0, OFF, cycle)
            elif kind == POWER_ON:
                set_power(stage, 1, POWERING, cycle)
            elif kind == SWAP:
                set_power(stage, 1, ON, cycle)
                inert_at = inert_from()
                fetch_pc = pc
                fetch_wait = False
                for event in open_events:
                    if event.resume_cycle is None:
                        event.resume_cycle = cycle + 1
            else:  # CLEAR
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
                if total_cycles >= inert_at and diverged_at is None:
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
        elif strobe is None:
            # The cycles that change nothing but a count are taken in one
            # step; a strobe is driven on its own cycle only. Until the next
            # fault start or end the stages and the rails see what they saw
            # on this cycle; a countdown evaluates no stage bus, so only rail
            # faults bound it.
            window = mode is SUSPECT
            edge = edges[bisect_right(edges, cycle)] if window or rails else never
            skip = controller_skip(ctrl, config, min(edge, max_cycles) - total_cycles)
            if window:
                # Each skipped cycle drives the same true words.
                for stage in range(len(PIPELINE_ORDER)):
                    hist = delay_hist.get((stage, stage in ctrl.on_spare))
                    if hist:
                        hist[-1][1] += skip
            total_cycles += skip
            skipped += skip
        cycle = total_cycles

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
                     resumed_from=resumed_from, joined_at=joined, diverged_at=diverged_at)


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
