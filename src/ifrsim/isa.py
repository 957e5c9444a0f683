"""Toy 32-bit ISA: assembler, instruction encoding, and a single-step
reference interpreter.

The reference interpreter is the golden oracle for the pipelined core: any
pipeline run that completes must leave the architecture in exactly the state
computed here. Arithmetic is two's-complement with wrap-around and register 0
is hardwired to zero, so the interpreter is total over well-formed programs.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

WORD_MASK = 0xFFFFFFFF
NUM_REGS = 16
IMM_MIN = -(1 << 15)
IMM_MAX = (1 << 15) - 1


class AssemblyError(ValueError):
    """Raised for malformed assembly source; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ExecutionError(RuntimeError):
    """Raised when execution falls outside the program (no HALT reached)."""


class Opcode(enum.IntEnum):
    NOP = 0
    HALT = 1
    LDI = 2
    MOV = 3
    ADD = 4
    SUB = 5
    AND = 6
    OR = 7
    XOR = 8
    LD = 9
    ST = 10
    BEQ = 11
    JMP = 12


# The members bound once as module globals. On Python 3.10 and 3.11 the enum
# metaclass routes every `Opcode.X` load through a Python-level hook, so the
# per-cycle code compares against these names instead.
NOP, HALT, LDI, MOV, ADD, SUB, AND, OR, XOR, LD, ST, BEQ, JMP = Opcode

# Operand layout per opcode. Register operands occupy the rd/rs1/rs2 fields
# in listing order; no opcode uses both rs2 and an immediate.
#   NOP/HALT                 -- no operands
#   LDI  rd, imm             -- rd <- sign_extend(imm)
#   MOV  rd, ra              -- ra in rs1
#   ADD/SUB/AND/OR/XOR rd, ra, rb   -- ra in rs1, rb in rs2
#   LD   rd, ra, imm         -- rd <- mem[ra + imm]
#   ST   rv, ra, imm         -- mem[ra + imm] <- rv (rv carried in rd field)
#   BEQ  ra, rb, imm         -- ra in rd, rb in rs1; taken: pc <- pc + imm
#   JMP  imm                 -- absolute word address
_FORMATS = {
    Opcode.NOP: "",
    Opcode.HALT: "",
    Opcode.LDI: "ri",
    Opcode.MOV: "rr",
    Opcode.ADD: "rrr",
    Opcode.SUB: "rrr",
    Opcode.AND: "rrr",
    Opcode.OR: "rrr",
    Opcode.XOR: "rrr",
    Opcode.LD: "rri",
    Opcode.ST: "rri",
    Opcode.BEQ: "rri",
    Opcode.JMP: "i",
}

_ALU_OPS = (ADD, SUB, AND, OR, XOR)


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self):
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if not 0 <= value < NUM_REGS:
                raise ValueError(f"{name}={value} out of range")
        if not IMM_MIN <= self.imm <= IMM_MAX:
            raise ValueError(f"imm={self.imm} out of signed 16-bit range")


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...]
    # What `pipeline.run_core` derives from the program once and shares
    # between its runs; `pipeline._program_memo` owns its layout. It lives
    # as long as the program and is not part of its value, so a fresh
    # `Program` of the same instructions starts with none.
    core_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.instructions:
            raise ValueError("program is empty")

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class ArchState:
    regs: tuple[int, ...] = (0,) * NUM_REGS
    pc: int = 0
    mem: dict = field(default_factory=dict)
    halted: bool = False


def encode_instruction(instr: Instruction) -> int:
    """Pack an instruction into the 32-bit word transported between stages."""
    return ((int(instr.opcode) & 0xF) << 28 | (instr.rd & 0xF) << 24
            | (instr.rs1 & 0xF) << 20 | (instr.rs2 & 0xF) << 16
            | (instr.imm & 0xFFFF))


def decode_word(word: int) -> Instruction:
    """Unpack a 32-bit instruction word. Total: unused opcode values decode
    as NOP so a corrupted word can never crash the decoder."""
    op = (word >> 28) & 0xF
    if op > int(Opcode.JMP):
        return Instruction(Opcode.NOP)
    imm = word & 0xFFFF
    if imm & 0x8000:
        imm -= 0x10000
    return Instruction(Opcode(op), rd=(word >> 24) & 0xF,
                       rs1=(word >> 20) & 0xF, rs2=(word >> 16) & 0xF, imm=imm)


def src_regs(instr: Instruction) -> tuple[int, ...]:
    """Register indices read by an instruction (for hazard interlocks)."""
    op = instr.opcode
    if op in _ALU_OPS:
        return (instr.rs1, instr.rs2)
    if op in (Opcode.MOV, Opcode.LD):
        return (instr.rs1,)
    if op in (Opcode.ST, Opcode.BEQ):
        return (instr.rd, instr.rs1)
    return ()


def dst_reg(instr: Instruction) -> int:
    """Register written by an instruction, 0 if none (r0 writes are dropped)."""
    if instr.opcode in _ALU_OPS or instr.opcode in (Opcode.LDI, Opcode.MOV, Opcode.LD):
        return instr.rd
    return 0


def _parse_reg(token: str, line: int) -> int:
    token = token.lower()
    if not token.startswith("r") or not token[1:].isdigit():
        raise AssemblyError(line, f"expected register, got {token!r}")
    index = int(token[1:])
    if index >= NUM_REGS:
        raise AssemblyError(line, f"register index {index} out of range (max {NUM_REGS - 1})")
    return index


def _parse_imm(token: str, line: int) -> int:
    try:
        value = int(token, 0)
    except ValueError:
        raise AssemblyError(line, f"expected immediate, got {token!r}") from None
    if not IMM_MIN <= value <= IMM_MAX:
        raise AssemblyError(line, f"immediate {value} out of signed 16-bit range")
    return value


def assemble(source: str) -> Program:
    """Assemble text into a Program.

    One instruction per line, `;` starts a comment, registers are written
    `r<n>`, operands are comma separated. Branch and jump targets are
    validated against the program bounds.
    """
    instructions: list[Instruction] = []
    lines: list[int] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        mnemonic = parts[0].upper()
        try:
            opcode = Opcode[mnemonic]
        except KeyError:
            raise AssemblyError(lineno, f"unknown mnemonic {parts[0]!r}") from None
        fmt = _FORMATS[opcode]
        operands = parts[1:]
        if len(operands) != len(fmt):
            raise AssemblyError(lineno, f"{mnemonic} expects {len(fmt)} operand(s), got {len(operands)}")
        regs = [_parse_reg(tok, lineno) for tok, kind in zip(operands, fmt) if kind == "r"]
        imm = 0
        for tok, kind in zip(operands, fmt):
            if kind == "i":
                imm = _parse_imm(tok, lineno)
        rd, rs1, rs2 = (regs + [0, 0, 0])[:3]
        instructions.append(Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm))
        lines.append(lineno)

    if not instructions:
        raise AssemblyError(0, "no instructions in source")

    n = len(instructions)
    for index, instr in enumerate(instructions):
        if instr.opcode is Opcode.BEQ and not 0 <= index + instr.imm < n:
            raise AssemblyError(lines[index], f"branch target {index + instr.imm} outside program")
        if instr.opcode is Opcode.JMP and not 0 <= instr.imm < n:
            raise AssemblyError(lines[index], f"jump target {instr.imm} outside program")
    return Program(tuple(instructions))


def execute_result(instr: Instruction, op_a: int, op_b: int, mem: dict) -> int:
    """Execute-stage value for an instruction given its decoded operands.

    This is the single word the execute stage drives onto its output bus:
    the register write-back value, the stored value for ST, the branch
    decision (0/1) for BEQ, or the target address for JMP.
    """
    op = instr.opcode
    if op in (NOP, HALT):
        return 0
    if op in (LDI, MOV, ST):
        return op_a & WORD_MASK
    if op is ADD:
        return (op_a + op_b) & WORD_MASK
    if op is SUB:
        return (op_a - op_b) & WORD_MASK
    if op is AND:
        return op_a & op_b
    if op is OR:
        return op_a | op_b
    if op is XOR:
        return op_a ^ op_b
    if op is LD:
        return mem.get((op_a + instr.imm) & WORD_MASK, 0)
    if op is BEQ:
        return 1 if op_a == op_b else 0
    if op is JMP:
        return op_a & WORD_MASK
    raise AssertionError(op)


def _step(regs: list, mem: dict, pc: int, instr: Instruction) -> int | None:
    """Apply one instruction's architectural effect to `regs` and `mem` in
    place and return the next pc, or None for HALT (the pc stays)."""
    op = instr.opcode
    if op in _ALU_OPS:
        value = execute_result(instr, regs[instr.rs1], regs[instr.rs2], mem)
    elif op is LDI:
        value = instr.imm
    elif op is LD:
        value = mem.get((regs[instr.rs1] + instr.imm) & WORD_MASK, 0)
    elif op is MOV:
        value = regs[instr.rs1]
    elif op is ST:
        mem[(regs[instr.rs1] + instr.imm) & WORD_MASK] = regs[instr.rd]
        return pc + 1
    elif op is BEQ:
        return pc + instr.imm if regs[instr.rd] == regs[instr.rs1] else pc + 1
    elif op is JMP:
        return instr.imm
    elif op is NOP:
        return pc + 1
    elif op is HALT:
        return None
    else:
        raise AssertionError(op)
    if instr.rd:
        regs[instr.rd] = value & WORD_MASK
    return pc + 1


def run_reference(program: Program, max_steps: int) -> tuple[ArchState, int]:
    """Run the reference interpreter until HALT or max_steps, HALT counted
    as a step.

    Non-termination shows up as max_steps exhaustion, not as a failure.
    Running past the end of the program without HALT raises ExecutionError.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    instructions = program.instructions
    regs = [0] * NUM_REGS
    mem: dict = {}
    pc = 0
    for executed in range(1, max_steps + 1):
        if not 0 <= pc < len(instructions):
            raise ExecutionError(f"pc {pc} outside program [0, {len(instructions)})")
        next_pc = _step(regs, mem, pc, instructions[pc])
        if next_pc is None:
            return ArchState(tuple(regs), pc, mem, halted=True), executed
        pc = next_pc
    return ArchState(tuple(regs), pc, mem, halted=False), max_steps
