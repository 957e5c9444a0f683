"""Seeded input generators of the benchmark.

Every generator takes a `random.Random` and returns plain text (assembly,
fault-scenario lines, model descriptions), so the program under test sees
only the generated inputs and parses them itself.
"""
from __future__ import annotations

import random

_ALU = ("ADD", "SUB", "AND", "OR", "XOR")
# r1 inner trip counter, r2 holds 1, r3 outer trip counter, r9 memory base.
_BODY_DST = (4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15)
_BODY_SRC = _BODY_DST + (0, 1, 3)
_BODY_PATTERN = ("ALU", "ALU", "LD", "ALU", "ST", "ALU", "MOV", "ALU", "LDI", "ALU")


def loop_program(rng: random.Random, body_len: int, inner_trips: int,
                 outer_trips: int) -> str:
    """Assembly for a nested loop kernel with bounded trip counts.

    The inner loop closes with a backward branch (`BEQ r0, r0, -k`, always
    taken) and the outer loop with an absolute `JMP`. The body follows a
    fixed pattern of ALU, load/store, MOV and LDI instructions with random
    operations, registers and immediates. Every instruction at an odd body
    position reads the register written just before it and every other one
    avoids it, so the read-after-write stalls, and with them the cycle count,
    are the same for every seed. Every body also starts with `LDI rX, -1` and
    `LDI rY, 0`, so each iteration drives every data bit of the decode and
    execute buses both high and low, and a stuck data bit on those stages is
    always exposed.
    """
    if body_len < 4 or inner_trips < 1 or outer_trips < 1:
        raise ValueError("loop_program needs body_len >= 4 and trip counts >= 1")
    kinds = [_BODY_PATTERN[i % len(_BODY_PATTERN)] for i in range(body_len - 2)]
    high, low = rng.sample(_BODY_DST, 2)
    body = [f"LDI r{high}, -1", f"LDI r{low}, 0"]
    last_dst = low
    for index, kind in enumerate(kinds):
        dependent = index % 2 == 1

        def src() -> int:
            if dependent and last_dst is not None:
                return last_dst
            return rng.choice([r for r in _BODY_SRC if r != last_dst])

        dst = rng.choice(_BODY_DST)
        if kind == "ALU":
            body.append(f"{rng.choice(_ALU)} r{dst}, r{src()}, r{src()}")
        elif kind == "LDI":
            body.append(f"LDI r{dst}, {rng.randrange(-32768, 32768)}")
        elif kind == "MOV":
            body.append(f"MOV r{dst}, r{src()}")
        elif kind == "LD":
            body.append(f"LD r{dst}, r9, {rng.randrange(16)}")
        else:
            body.append(f"ST r{src()}, r9, {rng.randrange(16)}")
            dst = None  # a store writes no register
        last_dst = dst

    lines = ["LDI r9, 256", "LDI r2, 1", f"LDI r3, {outer_trips}"]
    outer_top = len(lines)
    lines.append(f"LDI r1, {inner_trips}")
    inner_top = len(lines)
    lines.extend(body)
    lines.append("SUB r1, r1, r2")
    lines.append("BEQ r1, r0, 2")
    lines.append(f"BEQ r0, r0, {inner_top - len(lines)}")
    lines.append("SUB r3, r3, r2")
    lines.append("BEQ r3, r0, 2")
    lines.append(f"JMP {outer_top}")
    lines.append("HALT")
    return "\n".join(lines) + "\n"


# Campaign strata: every unit crossed with every fault kind it supports.
# Delay faults are not defined on the controller rails.
_STAGES = ("predecode", "decode", "execute")
CAMPAIGN_KINDS = ("stuckat-perm", "stuckat-transient", "flip", "delay")
CAMPAIGN_STRATA = tuple((unit, kind) for unit in _STAGES for kind in CAMPAIGN_KINDS) \
    + tuple(("controller", kind) for kind in CAMPAIGN_KINDS[:3])


def campaign_sites(rng: random.Random, per_stratum: int, window: int) -> list[tuple[str, str]]:
    """Stratified sample of single-fault sites: `per_stratum` sites for each
    (unit, kind) stratum, with start cycle in [0, window), copy, bit, value
    and duration drawn at random. Returns (kind, scenario line) pairs."""
    sites = []
    for unit, kind in CAMPAIGN_STRATA:
        for _ in range(per_stratum):
            start = rng.randrange(window)
            if unit == "controller":
                copy, bit = rng.choice(("a", "b")), rng.randrange(16)
            else:
                copy = "main" if rng.random() < 0.75 else "spare"
                bit = rng.randrange(36)
            transient = f"T:{rng.randrange(1, 25)}"
            if kind == "stuckat-perm":
                line = f"@{start} PERM {unit}.{copy} stuckat {bit} {rng.randrange(2)}"
            elif kind == "stuckat-transient":
                line = f"@{start} {transient} {unit}.{copy} stuckat {bit} {rng.randrange(2)}"
            elif kind == "flip":
                line = f"@{start} {transient} {unit}.{copy} flip {bit}"
            else:
                duration = "PERM" if rng.random() < 0.5 else transient
                line = f"@{start} {duration} {unit}.{copy} delay {rng.randrange(1, 4)}"
            sites.append((kind, line))
    return sites


def repair_chain(lam: float, mu: float) -> str:
    """3-state repairable pair: either unit fails at `lam`, a failed unit is
    repaired at `mu`, and a second failure during repair is fatal."""
    return (f"CONST lambda = {lam!r};\nCONST mu = {mu!r};\n"
            "STATE up;\nSTATE degraded;\nSTATE dead DEATH;\nINIT up;\n"
            "up -> degraded : 2 * lambda;\n"
            "degraded -> up : mu;\n"
            "degraded -> dead : lambda;\n")
