"""Declarative fault scenarios and per-block stress accounting.

Faults are injected on a block's output bus after parity encoding, so any
change to a transported line shows up as a data/parity inconsistency at the
consumer. Stuck-at faults force a line, transient flips XOR it for a bounded
window, and delay faults make the data lines lag behind the fresh parity.
`fold_faults` alone defines how a site's active faults corrupt its lines,
and in which order.
"""
from __future__ import annotations

import enum
import math
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
        return self.start <= cycle < self.end


@dataclass(frozen=True)
class FaultScenario:
    faults: tuple[TimedFault, ...] = ()


def apply_faults(bus: int, faults: list[TimedFault], stale: int) -> int:
    """Corrupt one bus (`hw.encode_bus`'s 36 lines) with the active faults of
    its site, `stale` being a delay's latched data word, by `fold_faults`'
    masks. It stays only because perfbench's layer lists (`layertrace.LAYERS`
    and `run.py`'s `_TIMED`) look it up by name, and `--trace 1` breaks
    without it; once they drop it, it goes."""
    delayed = any(isinstance(fault.kind, Delay) for fault in faults)
    flips, keep, ones = fold_faults(faults, stale if delayed else None)
    return ((bus ^ flips) & keep | ones) & ((1 << BUS_BITS) - 1)


def apply_vector_faults(vector: int, faults: list[TimedFault], width: int = CONTROLLER_VEC_BITS) -> int:
    """Corrupt a flat bit vector, a controller rail or a packed bus, by
    `fold_faults`' masks, delays aside. It stays only for perfbench's layer
    lists, as `apply_faults` does."""
    flips, keep, ones = fold_faults(faults)
    return ((vector ^ flips) & keep | ones) & ((1 << width) - 1)


def fold_faults(faults: list[TimedFault], stale: int | None = None) -> tuple[int, int, int]:
    """Fold the active faults of one site into masks (flips, keep, ones);
    `(vector ^ flips) & keep | ones` is the site's corrupted vector. This is
    the one definition of the order faults apply in: with `stale` given, the
    latched data word of a delay among them, the data lines first carry
    `stale` while the parity lines stay fresh; then flips XOR, then stuck
    lines clear, then the lines stuck at 1 set, so a line stuck at both
    values reads 1."""
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
# A stage's copies are main and spare; the controller's are rails a and b.
_COPY_TOKENS = {unit: {"a": Copy.MAIN, "b": Copy.SPARE} if unit is FaultUnit.CONTROLLER
                else {"main": Copy.MAIN, "spare": Copy.SPARE} for unit in FaultUnit}
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
        unit = _STAGE_TOKENS[unit_name]
        if copy_name not in _COPY_TOKENS[unit]:
            raise ScenarioError(lineno, f"unknown copy {copy_name!r} of {unit_name}")
        site = FaultSite(unit, _COPY_TOKENS[unit][copy_name])

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
