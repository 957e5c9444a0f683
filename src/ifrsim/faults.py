"""Declarative fault scenarios and per-block stress accounting.

Faults are injected on a block's output bus after parity encoding, so any
change to a transported line shows up as a data/parity inconsistency at the
consumer. Stuck-at faults force a line, transient flips XOR it for a bounded
window, and delay faults make the data lines lag behind the fresh parity.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

from .hw import BUS_BITS, BUS_DATA_BITS, Copy, InterStageBus, PowerState, StageKind

CONTROLLER_VEC_BITS = 16


class ScenarioError(ValueError):
    """Raised for malformed scenario text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FaultUnit(enum.Enum):
    PREDECODE = "predecode"
    DECODE = "decode"
    EXECUTE = "execute"
    CONTROLLER = "controller"

    def to_stage(self) -> StageKind | None:
        if self is FaultUnit.CONTROLLER:
            return None
        return StageKind(self.value)


@dataclass(frozen=True)
class StuckAt:
    bit: int
    value: int


@dataclass(frozen=True)
class Delay:
    extra: int  # cycles of staleness picked up when the fault activates


@dataclass(frozen=True)
class TransientFlip:
    bit: int


FaultKind = StuckAt | Delay | TransientFlip


@dataclass(frozen=True)
class FaultSite:
    unit: FaultUnit
    copy: Copy

    @property
    def stage(self) -> StageKind | None:
        return self.unit.to_stage()


PERMANENT = None  # duration sentinel


@dataclass(frozen=True)
class TimedFault:
    kind: FaultKind
    site: FaultSite
    start: int
    duration: int | None  # cycles, PERMANENT for unbounded

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("fault start must be >= 0")
        if self.duration is not None and self.duration < 1:
            raise ValueError("fault duration must be >= 1 or PERMANENT")
        width = CONTROLLER_VEC_BITS if self.site.unit is FaultUnit.CONTROLLER else BUS_BITS
        if isinstance(self.kind, (StuckAt, TransientFlip)) and not 0 <= self.kind.bit < width:
            raise ValueError(f"bit {self.kind.bit} outside the {width}-bit target")
        if isinstance(self.kind, StuckAt) and self.kind.value not in (0, 1):
            raise ValueError("stuck value must be 0 or 1")
        if isinstance(self.kind, Delay):
            if self.kind.extra < 1:
                raise ValueError("delay extra must be >= 1")
            if self.site.unit is FaultUnit.CONTROLLER:
                raise ValueError("delay faults are not supported on controller rails")

    def active_at(self, cycle: int) -> bool:
        if cycle < self.start:
            return False
        return self.duration is None or cycle < self.start + self.duration

    def is_permanent(self, permanent_threshold: int) -> bool:
        """Ground-truth label: permanent iff unbounded or at least as long as
        the classification threshold."""
        return self.duration is None or self.duration >= permanent_threshold


@dataclass(frozen=True)
class FaultScenario:
    faults: tuple[TimedFault, ...] = ()

    def labels(self, permanent_threshold: int) -> tuple[str, ...]:
        return tuple("permanent" if f.is_permanent(permanent_threshold) else "transient"
                     for f in self.faults)

    def validate(self, permanent_threshold: int) -> None:
        for index, fault in enumerate(self.faults):
            if (isinstance(fault.kind, TransientFlip)
                    and fault.is_permanent(permanent_threshold)):
                warnings.warn(
                    f"fault {index}: transient flip lasting {fault.duration} cycles "
                    f"meets the permanent threshold ({permanent_threshold}) and will "
                    "be classified permanent", stacklevel=2)


def _force_bit(data: int, parity: int, bit: int, value: int) -> tuple[int, int]:
    if bit < BUS_DATA_BITS:
        data = data | (1 << bit) if value else data & ~(1 << bit)
    else:
        pbit = bit - BUS_DATA_BITS
        parity = parity | (1 << pbit) if value else parity & ~(1 << pbit)
    return data, parity


def apply_faults(bus: InterStageBus, faults: set[TimedFault] | list[TimedFault],
                 previous_bus: InterStageBus) -> InterStageBus:
    """Corrupt one bus with every fault in the set.

    Delay faults replace the data lines with the previous bus's data (parity
    stays fresh), transient flips XOR their line, and stuck-at faults are
    applied last so they dominate.
    """
    data, parity = bus.data, bus.parity

    def order(fault: TimedFault) -> tuple:
        rank = {Delay: 0, TransientFlip: 1, StuckAt: 2}[type(fault.kind)]
        bit = getattr(fault.kind, "bit", -1)
        return (rank, bit, getattr(fault.kind, "value", 0))

    for fault in sorted(faults, key=order):
        kind = fault.kind
        if isinstance(kind, Delay):
            data = previous_bus.data
        elif isinstance(kind, TransientFlip):
            if kind.bit < BUS_DATA_BITS:
                data ^= 1 << kind.bit
            else:
                parity ^= 1 << (kind.bit - BUS_DATA_BITS)
        else:
            data, parity = _force_bit(data, parity, kind.bit, kind.value)
    return InterStageBus(data, parity)


def apply_vector_faults(vector: int, faults: list[TimedFault], width: int = CONTROLLER_VEC_BITS) -> int:
    """Stuck-at / flip application on a flat bit vector (controller rails)."""
    mask = (1 << width) - 1
    for fault in sorted(faults, key=lambda f: (isinstance(f.kind, StuckAt), getattr(f.kind, "bit", 0))):
        kind = fault.kind
        if isinstance(kind, TransientFlip):
            vector ^= 1 << kind.bit
        elif isinstance(kind, StuckAt):
            vector = vector | (1 << kind.bit) if kind.value else vector & ~(1 << kind.bit)
    return vector & mask


_STAGE_TOKENS = {u.value: u for u in FaultUnit}
_COPY_TOKENS = {"main": Copy.MAIN, "spare": Copy.SPARE, "a": Copy.MAIN, "b": Copy.SPARE}


def parse_scenario(text: str) -> FaultScenario:
    """Parse the fault scenario text format, one fault per line:

        @<start> <PERM|T:<cycles>> <unit>.<copy> stuckat <bit> <0|1>
        @<start> <PERM|T:<cycles>> <unit>.<copy> delay <extra>
        @<start> <PERM|T:<cycles>> <unit>.<copy> flip <bit>

    Units are predecode/decode/execute with copies main/spare, plus
    controller with rails a/b. Blank lines and `#` comments are skipped.
    """
    faults: list[TimedFault] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 4 or not parts[0].startswith("@"):
            raise ScenarioError(lineno, "expected '@<start> <PERM|T:<n>> <unit>.<copy> <kind...>'")
        try:
            start = int(parts[0][1:])
        except ValueError:
            raise ScenarioError(lineno, f"bad start cycle {parts[0]!r}") from None

        dur_token = parts[1].upper()
        if dur_token == "PERM":
            duration = PERMANENT
        elif dur_token.startswith("T:"):
            try:
                duration = int(dur_token[2:])
            except ValueError:
                raise ScenarioError(lineno, f"bad duration {parts[1]!r}") from None
        else:
            raise ScenarioError(lineno, f"expected PERM or T:<n>, got {parts[1]!r}")

        site_token = parts[2].lower()
        if "." not in site_token:
            raise ScenarioError(lineno, f"expected <unit>.<copy>, got {parts[2]!r}")
        unit_name, copy_name = site_token.split(".", 1)
        if unit_name not in _STAGE_TOKENS:
            raise ScenarioError(lineno, f"unknown unit {unit_name!r}")
        if copy_name not in _COPY_TOKENS:
            raise ScenarioError(lineno, f"unknown copy {copy_name!r}")
        site = FaultSite(_STAGE_TOKENS[unit_name], _COPY_TOKENS[copy_name])

        kind_name = parts[3].lower()
        args = parts[4:]
        try:
            if kind_name == "stuckat":
                if len(args) != 2:
                    raise ScenarioError(lineno, "stuckat takes <bit> <0|1>")
                kind: FaultKind = StuckAt(int(args[0]), int(args[1]))
            elif kind_name == "delay":
                if len(args) != 1:
                    raise ScenarioError(lineno, "delay takes <extra>")
                kind = Delay(int(args[0]))
            elif kind_name == "flip":
                if len(args) != 1:
                    raise ScenarioError(lineno, "flip takes <bit>")
                kind = TransientFlip(int(args[0]))
            else:
                raise ScenarioError(lineno, f"unknown fault kind {kind_name!r}")
            faults.append(TimedFault(kind, site, start, duration))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(lineno, str(exc)) from None
    return FaultScenario(tuple(faults))


@dataclass
class BlockStress:
    on_cycles: int = 0
    off_cycles: int = 0
    powering_cycles: int = 0

    @property
    def total(self) -> int:
        return self.on_cycles + self.off_cycles + self.powering_cycles

    def add(self, state: PowerState, cycles: int) -> None:
        """Count `cycles` spent in power state `state`."""
        if state is PowerState.ON:
            self.on_cycles += cycles
        elif state is PowerState.OFF:
            self.off_cycles += cycles
        else:
            self.powering_cycles += cycles


@dataclass
class StressLedger:
    """Per-block powered/unpowered cycle accounting. Degradation accrues only
    while a block is electrically stressed, so cold spares age only after
    they are switched in."""
    blocks: dict = field(default_factory=lambda: {
        (kind, copy): BlockStress() for kind in StageKind for copy in Copy})

    def assert_conserved(self, elapsed: int) -> None:
        for key, stress in self.blocks.items():
            if stress.total != elapsed:
                raise AssertionError(
                    f"stress ledger for {key[0].value}.{key[1].value} sums to "
                    f"{stress.total}, expected {elapsed}")


def update_stress(ledger: StressLedger, power_states) -> StressLedger:
    """Advance the ledger by one cycle. `power_states` maps (stage, copy) to
    a PowerState; exactly one counter per block is incremented."""
    for key, state in power_states.items():
        ledger.blocks[key].add(state, 1)
    return ledger
