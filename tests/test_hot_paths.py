"""The simulator's per-cycle code compares against enum members bound once as
module globals. On Python 3.10 and 3.11 a class attribute load such as
`Opcode.ADD` runs the enum metaclass's Python-level `__getattr__`, over ten
times the cost of a global load, so these tests keep such loads out of the
hot functions and check that every alias is the member it is named for. A
run also makes no call to `Enum.__hash__`, which is Python code too. And only
`controller_step` writes the controller's mode, which `run_core` keeps in a
local, and only it and `controller_skip` write the controller's registers."""
import dis
import enum
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest

from ifrsim import faults, hw, isa, pipeline
from ifrsim.hw import PowerState
from ifrsim.isa import Opcode
from ifrsim.pipeline import ControllerMode, Outcome

_WORKLOAD = Path(__file__).resolve().parent.parent / "samples" / "workload.asm"
HOT_PATHS = (isa.execute_result, isa._step, pipeline.controller_step,
             pipeline.controller_skip, pipeline.run_core, faults.BlockStress.add)


def _nested_codes(code):
    """`code` and every code object nested in it (functions, closures,
    classes, comprehensions)."""
    codes = [code]
    while codes:
        code = codes.pop()
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        yield code


def _enum_attribute_loads(fn) -> list:
    """Each `<global enum class>.<attribute>` load in `fn`'s bytecode, nested
    code objects (closures, comprehensions) included."""
    found = []
    for code in _nested_codes(fn.__code__):
        instructions = list(dis.get_instructions(code))
        for load, attr in zip(instructions, instructions[1:]):
            if (load.opname == "LOAD_GLOBAL"
                    and attr.opname in ("LOAD_ATTR", "LOAD_METHOD")
                    and isinstance(fn.__globals__.get(load.argval), enum.EnumMeta)):
                found.append(f"{code.co_name}: {load.argval}.{attr.argval}")
    return found


@pytest.mark.parametrize("fn", HOT_PATHS, ids=lambda fn: f"{fn.__module__}.{fn.__qualname__}")
def test_hot_path_loads_no_enum_member_through_its_class(fn):
    assert _enum_attribute_loads(fn) == []


def test_the_guard_sees_an_enum_attribute_load_in_a_closure():
    def outer():
        def inner(op):
            return op is Opcode.ADD
        return inner

    assert _enum_attribute_loads(outer) == ["inner: Opcode.ADD"]


_REGISTERS = tuple(register.name for register in fields(pipeline.ControllerState))


def _register_stores(code) -> list:
    """(name of the code object, attribute) for each store to an attribute
    named like a `ControllerState` register in `code`, nested code objects
    included."""
    return [(nested.co_name, instruction.argval) for nested in _nested_codes(code)
            for instruction in dis.get_instructions(nested)
            if instruction.opname == "STORE_ATTR" and instruction.argval in _REGISTERS]


def test_only_controller_step_stores_the_controller_mode():
    # `run_core` keeps the controller's mode in a local that it reads afresh
    # after each `controller_step` call, which is sound only while no other
    # code in the module writes `ControllerState.mode`. The other registers
    # are written by the controller's two functions alone, so each rule of
    # the controller is said once.
    path = Path(pipeline.__file__)
    stores = _register_stores(compile(path.read_text(), str(path), "exec"))
    assert {name for name, attribute in stores if attribute == "mode"} == {"controller_step"}
    assert {name for name, _ in stores} == {"controller_step", "controller_skip"}


def test_the_mode_guard_sees_a_store_in_a_closure():
    def outer(state):
        def inner():
            state.mode = None
            state.remaining -= 1
        return inner

    assert _register_stores(outer.__code__) == [("inner", "mode"), ("inner", "remaining")]


# (module, enum, prefix): the module binds each member of the enum as a
# global named the member's name after the prefix. Modules that import these
# names (`faults`, `pipeline`) get the same objects.
_ALIASES = [(isa, Opcode, ""), (hw, PowerState, ""),
            (pipeline, ControllerMode, ""), (pipeline, Outcome, "RUN_")]


@pytest.mark.parametrize("module, cls, prefix", _ALIASES,
                         ids=[f"{m.__name__}.{c.__name__}" for m, c, _ in _ALIASES])
def test_each_alias_is_the_member_of_its_own_name(module, cls, prefix):
    for member in cls:
        assert getattr(module, prefix + member.name) is member, f"{prefix}{member.name}"


def test_a_warm_faulted_run_makes_no_python_level_enum_hash_call():
    # The members that a run keys dicts by hash by identity.
    program = isa.assemble(_WORKLOAD.read_text())
    scenario = faults.parse_scenario("@125 PERM decode.main stuckat 0 1")
    config = pipeline.CoreConfig()
    pipeline.run_core(program, config, scenario)
    called = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.append((code.co_filename, code.co_name))

    sys.setprofile(profile)
    try:
        pipeline.run_core(program, config, scenario)
    finally:
        sys.setprofile(None)
    assert (pipeline.__file__, "run_core") in called
    assert (enum.__file__, "__hash__") not in called
