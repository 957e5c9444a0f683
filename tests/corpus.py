"""Randomized program and fault-scenario generators shared by the test suite.

Programs either branch forward only or run one loop with a bounded trip
count, so every run terminates; scenarios are derived from the fault-free
run's bus words so stuck-at exposures are guaranteed by construction.
"""
from __future__ import annotations

import random
from dataclasses import replace

from ifrsim import pipeline
from ifrsim.faults import (FaultScenario, FaultSite, FaultUnit, StuckAt,
                           TimedFault, TransientFlip, PERMANENT)
from ifrsim.hw import Copy, PIPELINE_ORDER, encode_bus
from ifrsim.isa import Program, assemble
from ifrsim.pipeline import DEFAULT_MAX_CYCLES, CoreConfig, run_core

_ALU = ("ADD", "SUB", "AND", "OR", "XOR")


def gen_program(rng: random.Random, body_length: int = 16) -> Program:
    """Random terminating program touching all three stages: register inits,
    ALU traffic, loads/stores through a base register, and forward branches."""
    lines = ["LDI r9, 64"]
    for reg in range(1, 7):
        lines.append(f"LDI r{reg}, {rng.randrange(-99, 100)}")
    total = len(lines) + body_length + 1  # plus final HALT
    while len(lines) < total - 1:
        index = len(lines)
        room = total - 1 - index  # indices strictly before the HALT slot
        roll = rng.random()
        if roll < 0.55 or room < 3:
            op = rng.choice(_ALU)
            lines.append(f"{op} r{rng.randrange(1, 9)}, r{rng.randrange(0, 9)}, "
                         f"r{rng.randrange(0, 9)}")
        elif roll < 0.70:
            lines.append(f"LDI r{rng.randrange(1, 9)}, {rng.randrange(-99, 100)}")
        elif roll < 0.80:
            lines.append(f"ST r{rng.randrange(1, 9)}, r9, {rng.randrange(0, 16)}")
        elif roll < 0.90:
            lines.append(f"LD r{rng.randrange(1, 8)}, r9, {rng.randrange(0, 16)}")
        elif roll < 0.96:
            offset = rng.randrange(2, min(6, room + 1))
            lines.append(f"BEQ r{rng.randrange(0, 9)}, r{rng.randrange(0, 9)}, {offset}")
        else:
            target = index + rng.randrange(2, min(6, room + 1))
            lines.append(f"JMP {target}")
    lines.append("HALT")
    return assemble("\n".join(lines))


def gen_loop_program(rng: random.Random, body_length: int = 5) -> Program:
    """Random terminating program with one backward-branch loop: a counter in
    r10 runs down from a small trip count around an ALU/load/store body."""
    lines = ["LDI r9, 64", f"LDI r10, {rng.randrange(2, 12)}", "LDI r11, 1"]
    for reg in range(1, 7):
        lines.append(f"LDI r{reg}, {rng.randrange(-99, 100)}")
    top = len(lines)
    for _ in range(body_length):
        roll = rng.random()
        if roll < 0.6:
            lines.append(f"{rng.choice(_ALU)} r{rng.randrange(1, 9)}, r{rng.randrange(0, 9)}, "
                         f"r{rng.randrange(0, 9)}")
        elif roll < 0.8:
            lines.append(f"ST r{rng.randrange(1, 9)}, r9, {rng.randrange(0, 16)}")
        else:
            lines.append(f"LD r{rng.randrange(1, 8)}, r9, {rng.randrange(0, 16)}")
    lines += ["SUB r10, r10, r11", "BEQ r10, r0, 2", f"JMP {top}", "HALT"]
    return assemble("\n".join(lines))


def fault_free_records(program: Program, config: CoreConfig) -> list:
    """The fault-free run's record of every commit, as `run_core` keeps them
    in `core_memo["records"]`: `records[n]` is the state on the first cycle
    after commit n, and `records[0]` the state at cycle 0. A run whose only
    fault sits on a spare copy that is never selected, and starts at the
    cycle budget, records every commit it makes but the last. It runs on a
    fresh copy of `program`, which has no cycles left recorded for any
    commit count to end it early, so the result does not depend on the runs
    `program` has seen, and `program` itself is left as it was."""
    fresh = Program(program.instructions)
    idle = TimedFault(StuckAt(0, 0), FaultSite(FaultUnit.PREDECODE, Copy.SPARE),
                      DEFAULT_MAX_CYCLES, PERMANENT)
    run_core(fresh, config, FaultScenario((idle,)))
    records = fresh.core_memo["records"]
    # The idle run is settled from cycle 0, so on reaching the program's end
    # it left a tail for each of its commit counts, the last one included.
    assert len(records) == len(fresh.core_memo["tails"])
    return records


def fault_free_words(program: Program, config: CoreConfig) -> list:
    """The (predecode, decode, execute) bus words of each cycle of the
    fault-free run. They are observed at `pipeline.encode_bus` in a run on
    a fresh copy of `program` whose only faults are two flips of bit 0 on
    each main stage, active for the whole run: each pair cancels, so every
    stage's bus is encoded once on every cycle and carries its true word.
    Its threshold lies above the flips' duration, so they are not classified
    permanent, and the run must equal the fault-free run."""
    flips = tuple(TimedFault(TransientFlip(0), FaultSite(FaultUnit(stage.value), Copy.MAIN),
                             0, DEFAULT_MAX_CYCLES)
                  for stage in PIPELINE_ORDER for _ in range(2))
    seen = []

    def observe(word):
        seen.append(word)
        return encode_bus(word)

    fresh = Program(program.instructions)
    pipeline.encode_bus = observe
    try:
        observed = run_core(fresh, replace(config, permanent_threshold=DEFAULT_MAX_CYCLES + 1),
                            FaultScenario(flips))
    finally:
        pipeline.encode_bus = encode_bus
    assert observed == run_core(fresh, config, FaultScenario())
    assert len(seen) == len(PIPELINE_ORDER) * observed.total_cycles
    return list(zip(*[iter(seen)] * len(PIPELINE_ORDER)))


def _bus_bit(data_word: int, bit: int) -> int:
    return encode_bus(data_word) >> bit & 1


def gen_transient_scenario(rng: random.Random, total_cycles: int,
                           threshold: int) -> FaultScenario:
    """Only faults shorter than the permanent threshold, spaced so error
    streaks can never chain across fault windows on one stage."""
    faults = []
    slots = max(1, (max(total_cycles, 30) - 6) // 20)
    chosen = rng.sample(range(slots), k=min(rng.randrange(1, 4), slots))
    for slot in chosen:
        start = 3 + slot * 20
        stage = rng.choice(PIPELINE_ORDER)
        site = FaultSite(FaultUnit(stage.value), Copy.MAIN)
        duration = rng.randrange(1, min(8, threshold - 1))
        if rng.random() < 0.6:
            kind = TransientFlip(rng.randrange(0, 36))
        else:
            kind = StuckAt(rng.randrange(0, 36), rng.randrange(0, 2))
        faults.append(TimedFault(kind, site, start, duration))
    return FaultScenario(tuple(faults))


def gen_permanent_stuckat_scenario(rng: random.Random, words: list) -> FaultScenario:
    """One permanent stuck-at on an active-copy bus whose stuck value is
    guaranteed to differ from the transported value at its start cycle.
    `words` is `fault_free_words` of the program."""
    rows = list(enumerate(words))
    usable = [entry for entry in rows if 3 <= entry[0] <= len(words) - 8]
    cycle, row = rng.choice(usable if usable else rows)
    stage_index = rng.randrange(0, 3)
    bit = rng.randrange(0, 36)
    value = 1 - _bus_bit(row[stage_index], bit)
    stage = PIPELINE_ORDER[stage_index]
    site = FaultSite(FaultUnit(stage.value), Copy.MAIN)
    return FaultScenario((TimedFault(StuckAt(bit, value), site, cycle, PERMANENT),))
