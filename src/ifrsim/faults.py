"""Declarative fault scenarios and per-block stress accounting.

Faults are injected on a block's output bus after parity encoding, so any
change to a transported line shows up as a data/parity inconsistency at the
consumer. Stuck-at faults force a line, transient flips XOR it for a bounded
window, and delay faults make the data lines lag behind the fresh parity.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

from .hw import BUS_BITS, BUS_DATA_BITS, Copy, OFF, ON, PowerState, StageKind

CONTROLLER_VEC_BITS = 16
_DATA_LINES = (1 << BUS_DATA_BITS) - 1


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

    __hash__ = object.__hash__  # as in `hw.StageKind`


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

    @property
    def end(self) -> float:
        """The first cycle after the fault's window; infinite if permanent."""
        return math.inf if self.duration is None else self.start + self.duration

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

    def validate(self, permanent_threshold: int) -> None:
        for index, fault in enumerate(self.faults):
            if (isinstance(fault.kind, TransientFlip)
                    and fault.is_permanent(permanent_threshold)):
                warnings.warn(
                    f"fault {index}: transient flip lasting {fault.duration} cycles "
                    f"meets the permanent threshold ({permanent_threshold}) and will "
                    "be classified permanent", stacklevel=2)


_KIND_RANK = {Delay: 0, TransientFlip: 1, StuckAt: 2}


def _fault_order(fault: TimedFault) -> tuple:
    """The one order faults apply in: by kind (delay, flip, stuck-at), then
    bit, then stuck value, so stuck-ats dominate and a line stuck at both
    values reads 1."""
    kind = fault.kind
    return _KIND_RANK[type(kind)], getattr(kind, "bit", -1), getattr(kind, "value", 0)


def apply_faults(bus: int, faults: list[TimedFault], stale: int) -> int:
    """Corrupt one bus (`hw.encode_bus`'s 36 lines) with the active faults of
    its site. If any of them is a delay, the data lines first carry `stale`,
    the data word the caller latched `extra` cycles back when the delay
    activated, while the parity stays fresh; flips and stuck-ats then apply
    on top.
    """
    if any(isinstance(fault.kind, Delay) for fault in faults):
        bus = bus & ~_DATA_LINES | stale & _DATA_LINES
    return apply_vector_faults(bus, faults, BUS_BITS)


def apply_vector_faults(vector: int, faults: list[TimedFault], width: int = CONTROLLER_VEC_BITS) -> int:
    """Flip and stuck-at application on a flat bit vector: a controller rail
    or a packed bus. Delays are `apply_faults`' to apply."""
    for fault in sorted(faults, key=_fault_order):
        kind = fault.kind
        if isinstance(kind, TransientFlip):
            vector ^= 1 << kind.bit
        elif isinstance(kind, StuckAt):
            vector = vector | (1 << kind.bit) if kind.value else vector & ~(1 << kind.bit)
    return vector & ((1 << width) - 1)


def fold_faults(faults: list[TimedFault], stale: int | None = None) -> tuple[int, int, int]:
    """Fold the active faults of one site into masks (flips, keep, ones), so
    that `(vector ^ flips) & keep | ones` equals `apply_faults(vector,
    faults, stale)` for a bus, and `apply_vector_faults(vector, faults)` for
    a rail, in the same order: flips XOR, then stuck lines clear and the
    lines stuck at 1 (at both values too) set. With `stale` given, for the
    latched word of a delay among them, the data lines carry `stale`."""
    flips = stuck = ones = 0
    for fault in faults:
        kind = fault.kind
        if isinstance(kind, TransientFlip):
            flips ^= 1 << kind.bit
        elif isinstance(kind, StuckAt):
            stuck |= 1 << kind.bit
            ones |= kind.value << kind.bit
    keep = ~stuck
    if stale is not None:
        # The data lines no longer depend on the bus.
        ones |= (stale ^ flips) & keep & _DATA_LINES
        keep &= ~_DATA_LINES
    return flips, keep, ones


_STAGE_TOKENS = {u.value: u for u in FaultUnit}
_COPY_TOKENS = {"main": Copy.MAIN, "spare": Copy.SPARE, "a": Copy.MAIN, "b": Copy.SPARE}
# Scenario keyword -> (fault kind, usage naming one integer per field).
_KIND_TOKENS = {"stuckat": (StuckAt, "<bit> <0|1>"), "delay": (Delay, "<extra>"),
                "flip": (TransientFlip, "<bit>")}


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
        if kind_name not in _KIND_TOKENS:
            raise ScenarioError(lineno, f"unknown fault kind {kind_name!r}")
        cls, usage = _KIND_TOKENS[kind_name]
        args = parts[4:]
        if len(args) != len(usage.split()):
            raise ScenarioError(lineno, f"{kind_name} takes {usage}")
        try:
            faults.append(TimedFault(cls(*map(int, args)), site, start, duration))
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
        if state is ON:
            self.on_cycles += cycles
        elif state is OFF:
            self.off_cycles += cycles
        else:
            self.powering_cycles += cycles


# The ledger's blocks in the order it keeps them, stage kind then copy; `sim`
# writes its stress metadata rows in this order.
_BLOCK_KEYS = tuple((kind, copy) for kind in StageKind for copy in Copy)


@dataclass
class StressLedger:
    """Per-block powered/unpowered cycle accounting. Degradation accrues only
    while a block is electrically stressed, so cold spares age only after
    they are switched in."""
    blocks: dict = field(default_factory=lambda: {
        key: BlockStress() for key in _BLOCK_KEYS})

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
