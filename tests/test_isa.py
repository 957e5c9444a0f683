import random

import pytest
from hypothesis import given, strategies as st

from corpus import gen_loop_program, gen_program
from ifrsim.isa import (NUM_REGS, ArchState, AssemblyError, ExecutionError,
                        Instruction, Opcode, _step, assemble, decode_word,
                        encode_instruction, execute_result, run_reference)


def test_assemble_nop():
    program = assemble("NOP")
    assert program.instructions[0] == Instruction(Opcode.NOP)


def test_assemble_ldi():
    program = assemble("LDI r1, 5")
    assert program.instructions[0] == Instruction(Opcode.LDI, rd=1, imm=5)


def test_assemble_add():
    program = assemble("ADD r3, r1, r2")
    assert program.instructions[0] == Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)


def test_assemble_comments_and_case():
    program = assemble("  ldi R2, -7   ; set up\n\nhalt ; done\n")
    assert program.instructions[0].imm == -7
    assert program.instructions[1].opcode is Opcode.HALT


@pytest.mark.parametrize("source,fragment", [
    ("FROB r1", "unknown mnemonic"),
    ("LDI r16, 1", "register index 16"),
    ("LDI r1, 40000", "out of signed 16-bit range"),
    ("ADD r1, r2", "expects 3 operand"),
    ("LDI r1, xyz", "expected immediate"),
    ("BEQ r1, r2, 9\nHALT", "branch target"),
    ("JMP 5\nHALT", "jump target"),
    ("", "no instructions"),
])
def test_assemble_errors(source, fragment):
    with pytest.raises(AssemblyError, match=fragment):
        assemble(source)


def test_assembly_error_carries_line_number():
    with pytest.raises(AssemblyError) as excinfo:
        assemble("; c\n\nBEQ r0, r0, 5\nHALT")
    assert excinfo.value.line == 3


def _regs(*values):
    """A register file holding `values` in r0, r1, ... and zeros above."""
    return list(values) + [0] * (NUM_REGS - len(values))


def test_step_add():
    regs = _regs(0, 2, 3)
    assert _step(regs, {}, 0, Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)) == 1
    assert regs == _regs(0, 2, 3, 5)


def test_step_beq_taken():
    assert _step(_regs(0, 9, 9), {}, 10, Instruction(Opcode.BEQ, rd=1, rs1=2, imm=4)) == 14


def test_step_beq_not_taken():
    assert _step(_regs(0, 9, 8), {}, 10, Instruction(Opcode.BEQ, rd=1, rs1=2, imm=4)) == 11


def test_step_halt_preserves_registers():
    regs, mem = _regs(0, 5), {}
    assert _step(regs, mem, 3, Instruction(Opcode.HALT)) is None
    assert regs == _regs(0, 5) and mem == {}


def test_step_wraparound():
    regs = _regs(0, 0xFFFFFFFF, 1)
    _step(regs, {}, 0, Instruction(Opcode.ADD, rd=4, rs1=1, rs2=2))
    assert regs[4] == 0


def test_reg0_write_is_dropped():
    regs = _regs()
    _step(regs, {}, 0, Instruction(Opcode.LDI, rd=0, imm=7))
    assert regs == _regs()


def test_memory_reads_default_zero():
    regs = _regs()
    _step(regs, {}, 0, Instruction(Opcode.LD, rd=2, rs1=0, imm=100))
    assert regs[2] == 0


@pytest.mark.parametrize("opcode, imm, op_a, op_b, mem, expected", [
    (Opcode.NOP, 0, 5, 7, {}, 0),
    (Opcode.HALT, 0, 5, 7, {}, 0),
    (Opcode.LDI, -3, -3, 0, {}, 0xFFFFFFFD),
    (Opcode.MOV, 0, 0x1_2345_6789, 0, {}, 0x2345_6789),
    (Opcode.ADD, 0, 0xFFFFFFFF, 2, {}, 1),
    (Opcode.SUB, 0, 1, 2, {}, 0xFFFFFFFF),
    (Opcode.AND, 0, 0b1100, 0b1010, {}, 0b1000),
    (Opcode.OR, 0, 0b1100, 0b1010, {}, 0b1110),
    (Opcode.XOR, 0, 0b1100, 0b1010, {}, 0b0110),
    (Opcode.LD, 4, 8, 0, {}, 0),
    (Opcode.LD, 1, 0xFFFFFFFF, 0, {0: 42}, 42),
    (Opcode.ST, 4, 42, 8, {}, 42),
    (Opcode.BEQ, 3, 9, 9, {}, 1),
    (Opcode.BEQ, 3, 9, 8, {}, 0),
    (Opcode.JMP, -1, -1, 0, {}, 0xFFFFFFFF),
    (Opcode.JMP, 7, 7, 0, {}, 7),
], ids=lambda v: v.name if isinstance(v, Opcode) else None)
def test_execute_result_of_every_opcode(opcode, imm, op_a, op_b, mem, expected):
    assert execute_result(Instruction(opcode, imm=imm), op_a, op_b, mem) == expected


def test_store_then_load():
    program = assemble("LDI r1, 42\nLDI r2, 8\nST r1, r2, 4\nLD r3, r2, 4\nHALT")
    state, executed = run_reference(program, 100)
    assert state.regs[3] == 42
    assert state.mem[12] == 42
    assert executed == 5


def test_run_two_instruction_program():
    state, executed = run_reference(assemble("LDI r1, 7\nHALT"), 100)
    assert state.regs[1] == 7 and state.halted and executed == 2


def test_run_halt_only():
    state, executed = run_reference(assemble("HALT"), 100)
    assert executed == 1 and state.halted


def test_run_jmp_loop_exhausts():
    state, executed = run_reference(assemble("JMP 0"), 10)
    assert executed == 10 and not state.halted


def test_run_requires_positive_budget():
    with pytest.raises(ValueError):
        run_reference(assemble("HALT"), 0)


def test_running_past_end_raises():
    with pytest.raises(ExecutionError):
        run_reference(assemble("NOP"), 10)


def test_determinism_over_repeated_runs():
    program = assemble("LDI r1, 3\nLDI r2, 4\nADD r3, r1, r2\nST r3, r0, 9\nHALT")
    first = run_reference(program, 100)
    second = run_reference(program, 100)
    assert first == second


_instructions = st.builds(
    Instruction,
    opcode=st.sampled_from(list(Opcode)),
    rd=st.integers(0, 15), rs1=st.integers(0, 15), rs2=st.integers(0, 15),
    imm=st.integers(-(1 << 15), (1 << 15) - 1))


@given(_instructions)
def test_encode_decode_roundtrip(instr):
    assert decode_word(encode_instruction(instr)) == instr


@given(st.integers(0, 0xFFFFFFFF))
def test_decode_is_total(word):
    decode_word(word)  # never raises, unknown opcodes fall back to NOP


def _fold_steps(program, max_steps):
    """The reference run as a fold of `_step`, HALT counted."""
    regs, mem, pc = _regs(), {}, 0
    for steps in range(1, max_steps + 1):
        next_pc = _step(regs, mem, pc, program.instructions[pc])
        if next_pc is None:
            return ArchState(tuple(regs), pc, mem, halted=True), steps
        pc = next_pc
    return ArchState(tuple(regs), pc, mem), max_steps


_STORE_HEAVY = assemble("""
LDI r1, 40
LDI r2, 1
LDI r3, 7
ST r3, r1, 0
ST r1, r1, 1
ADD r3, r3, r3
ST r3, r1, -1
LD r4, r1, 0
ST r4, r4, 2
SUB r1, r1, r2
BEQ r1, r0, 2
JMP 3
ST r1, r0, 0
HALT
""")


def test_run_reference_equals_the_step_fold():
    rng = random.Random(0x5EF)
    programs = [gen_program(rng) for _ in range(40)]
    programs += [gen_loop_program(rng, rng.randrange(3, 8)) for _ in range(20)]
    programs.append(_STORE_HEAVY)
    for program in programs:
        _, full = _fold_steps(program, 100_000)
        # Budgets that stop short of the HALT, land on it, and run past it.
        for budget in (1, full // 2 or 1, full - 1 or 1, full, full + 5):
            assert run_reference(program, budget) == _fold_steps(program, budget), budget
    state, steps = run_reference(_STORE_HEAVY, 100_000)
    assert state.halted and len(state.mem) > 40
