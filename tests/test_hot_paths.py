"""The simulator's per-cycle code compares against enum members bound once as
module globals. On Python 3.10 and 3.11 a class attribute load such as
`Opcode.ADD` runs the enum metaclass's Python-level `__getattr__`, over ten
times the cost of a global load, so these tests keep such loads out of the
hot functions and check that every alias is the member it is named for."""
import dis
import enum
import types

import pytest

from ifrsim import faults, hw, isa, pipeline
from ifrsim.hw import PowerState
from ifrsim.isa import Opcode
from ifrsim.pipeline import ControllerMode, Outcome

HOT_PATHS = (isa.execute_result, isa._step, pipeline.controller_step,
             pipeline.run_core, faults.BlockStress.add)


def _enum_attribute_loads(fn) -> list:
    """Each `<global enum class>.<attribute>` load in `fn`'s bytecode, nested
    code objects (closures, comprehensions) included."""
    found = []
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
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
