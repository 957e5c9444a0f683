"""Fault-observable hardware fabric: inter-stage buses with per-byte parity,
2-way switch boxes, and the totally self-checking two-rail comparator."""
from __future__ import annotations

import enum

BUS_DATA_BITS = 32
BUS_PARITY_BITS = 4
BUS_BITS = BUS_DATA_BITS + BUS_PARITY_BITS
_DATA_MASK = (1 << BUS_DATA_BITS) - 1
SWITCH_TRANSISTORS_PER_BIT = 20  # two 2x1 mux cells per routed bit

_PARITY_TABLE = bytes(bin(i).count("1") & 1 for i in range(256))


class StageKind(enum.Enum):
    PREDECODE = "predecode"
    DECODE = "decode"
    EXECUTE = "execute"


PIPELINE_ORDER = (StageKind.PREDECODE, StageKind.DECODE, StageKind.EXECUTE)


class Copy(enum.Enum):
    MAIN = "main"
    SPARE = "spare"


class PowerState(enum.Enum):
    ON = "on"
    OFF = "off"
    POWERING = "powering"


# The members bound once as module globals for the per-cycle code: on
# Python 3.10 and 3.11 the enum metaclass routes every `PowerState.X` load
# through a Python-level hook.
ON, OFF, POWERING = PowerState


def parity_encode(word: int) -> int:
    """Even parity per byte: bit i of the result covers byte i of the word."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValueError("word must fit in 32 bits")
    return (_PARITY_TABLE[word & 0xFF]
            | _PARITY_TABLE[(word >> 8) & 0xFF] << 1
            | _PARITY_TABLE[(word >> 16) & 0xFF] << 2
            | _PARITY_TABLE[(word >> 24) & 0xFF] << 3)


def encode_bus(word: int) -> int:
    """The 36 bus lines as one int: data in bits 0-31, and the parity of
    byte i in bit 32+i."""
    return word | parity_encode(word) << BUS_DATA_BITS


def parity_check(bus: int) -> int:
    """4-bit error mask; bit i set iff byte i disagrees with its parity bit.

    An even number of flipped bits within one byte cancels out and goes
    undetected; that is the documented limitation of single-parity coding.
    """
    if not 0 <= bus < 1 << BUS_BITS:
        raise ValueError(f"bus must fit in {BUS_BITS} bits")
    return parity_encode(bus & _DATA_MASK) ^ bus >> BUS_DATA_BITS


def switch_route(setting: Copy, main_bus: int, spare_bus: int) -> int:
    """Per-boundary 2-way switch: forwards the selected copy's bus."""
    return main_bus if setting is Copy.MAIN else spare_bus


def trc_compare(out_a: int, out_b_complemented: int, width: int) -> bool:
    """Two-rail check: ok iff the second rail is the exact bitwise complement
    of the first over `width` bits. Width disagreement is a configuration
    error, not a rail error."""
    if width <= 0:
        raise ValueError("width must be positive")
    mask = (1 << width) - 1
    if out_a > mask or out_b_complemented > mask or out_a < 0 or out_b_complemented < 0:
        raise ValueError("rail value wider than the configured checker width")
    return out_a == (~out_b_complemented & mask)


def estimate_switch_transistors(bus_bits: int) -> int:
    """Transistor cost of switching a bus: 20 transistors per routed bit."""
    if bus_bits < 1:
        raise ValueError("bus_bits must be >= 1")
    return SWITCH_TRANSISTORS_PER_BIT * bus_bits
