import random

import pytest

from ifrsim.faults import (Delay, FaultScenario, FaultSite, FaultUnit, PERMANENT,
                           ScenarioError, StressLedger, StuckAt, TimedFault,
                           TransientFlip, apply_faults, apply_vector_faults,
                           fold_faults, parse_scenario, update_stress)
from ifrsim.hw import Copy, PowerState, StageKind, encode_bus
from refcore import sorted_order

_SITE = FaultSite(FaultUnit.DECODE, Copy.MAIN)
_DATA = 0xFFFFFFFF  # the data lines of a bus


def _fault(kind, start=10, duration=1):
    return TimedFault(kind, _SITE, start, duration)


def test_active_window_start():
    assert _fault(TransientFlip(0), start=10, duration=1).active_at(10)


def test_active_window_end_exclusive():
    fault = _fault(TransientFlip(0), start=10, duration=1)
    assert not fault.active_at(11)
    assert not fault.active_at(9)


def test_permanent_fault_never_expires():
    fault = _fault(StuckAt(0, 1), start=10, duration=PERMANENT)
    assert fault.active_at(10 ** 6)


def test_stuckat_forces_bit():
    bus = encode_bus(0x10)
    out = apply_faults(bus, [_fault(StuckAt(0, 1))], bus)
    assert out == bus | 0x1  # data 0x11, parity unchanged


def test_stuckat_silent_when_value_matches():
    bus = encode_bus(0x11)
    out = apply_faults(bus, [_fault(StuckAt(0, 1))], bus)
    assert out == bus


def test_stuckat_idempotent():
    bus = encode_bus(0xABCD)
    fault = _fault(StuckAt(3, 1))
    once = apply_faults(bus, [fault], bus)
    twice = apply_faults(once, [fault], once)
    assert once == twice


def test_stuckat_on_parity_line():
    bus = encode_bus(0x0)
    out = apply_faults(bus, [_fault(StuckAt(35, 1))], bus)
    assert out == 0b1000 << 32  # data 0, parity of byte 3 set


def test_flip_toggles_bit():
    bus = encode_bus(0x0)
    out = apply_faults(bus, [_fault(TransientFlip(5))], bus)
    assert out == 0x20


def test_delay_replaces_data_keeps_parity():
    current = encode_bus(0xAA)
    previous = encode_bus(0x55)
    out = apply_faults(current, [_fault(Delay(1))], previous)
    assert out == current & ~_DATA | 0x55  # stale data, fresh parity


def test_delay_unchanged_when_previous_equals_current():
    bus = encode_bus(0x77)
    out = apply_faults(bus, [_fault(Delay(1))], bus)
    assert out == bus


def test_stuckat_dominates_other_kinds():
    bus = encode_bus(0x0)
    flips = _fault(TransientFlip(0))
    stuck = _fault(StuckAt(0, 0))
    out = apply_faults(bus, [flips, stuck], bus)
    assert out & 1 == 0  # stuck-at applied after the flip wins


def _expected_line(value: int, bit: int, faults) -> int:
    """One line by hand: flips toggle it, then a stuck-at holds it, 1 winning a tie."""
    for fault in faults:
        if isinstance(fault.kind, TransientFlip) and fault.kind.bit == bit:
            value ^= 1
    stuck = {f.kind.value for f in faults if isinstance(f.kind, StuckAt) and f.kind.bit == bit}
    return max(stuck) if stuck else value


def test_bus_and_rail_faults_share_one_order():
    rng = random.Random(7)
    kinds = [lambda: StuckAt(rng.randrange(36), rng.randrange(2)),
             lambda: TransientFlip(rng.randrange(36)), lambda: Delay(1)]
    for _ in range(300):
        faults = [_fault(rng.choice(kinds)()) for _ in range(rng.randrange(6))]
        bus, previous = encode_bus(rng.getrandbits(32)), encode_bus(rng.getrandbits(32))
        stale = any(isinstance(f.kind, Delay) for f in faults)
        lines = (previous if stale else bus) & _DATA | bus & ~_DATA
        expected = sum(_expected_line(lines >> bit & 1, bit, faults) << bit for bit in range(36))
        assert apply_faults(bus, faults, previous) == expected
    # A line stuck at both values reads 1, whichever fault is listed first.
    rail = FaultSite(FaultUnit.CONTROLLER, Copy.MAIN)
    low, high = (TimedFault(StuckAt(3, value), rail, 0, PERMANENT) for value in (0, 1))
    assert apply_vector_faults(0, [low, high]) == apply_vector_faults(0, [high, low]) == 0b1000
    bus = encode_bus(0)
    assert apply_faults(bus, [_fault(StuckAt(3, 1)), _fault(StuckAt(3, 0))], bus) == 0b1000


def _draw_active_set(rng: random.Random, site: FaultSite, width: int) -> tuple[list, set]:
    """A random active fault set on one site, built from the cases the
    order decides: a line stuck at both values, two flips on one line, a
    flip under a stuck-at, and single faults. Returns it with the names of
    the cases drawn."""
    cases = {
        "stuck at both": lambda bit: [StuckAt(bit, 0), StuckAt(bit, 1)],
        "two flips": lambda bit: [TransientFlip(bit), TransientFlip(bit)],
        "flip under a stuck-at": lambda bit: [TransientFlip(bit), StuckAt(bit, rng.randrange(2))],
        "stuck-at": lambda bit: [StuckAt(bit, rng.randrange(2))],
        "flip": lambda bit: [TransientFlip(bit)],
    }
    names = rng.sample(sorted(cases), rng.randrange(1, 4))
    kinds = [kind for name in names for kind in cases[name](rng.randrange(width))]
    rng.shuffle(kinds)
    return [TimedFault(kind, site, 0, PERMANENT) for kind in kinds], set(names)


def test_folded_masks_equal_the_fault_order_bit_for_bit():
    # The simulator folds a site's active faults into (flips, keep, ones)
    # once per fault window; `sorted_order`, one fault at a time, is the
    # oracle for the order they apply in.
    rng = random.Random(31)
    seen = set()
    rail = FaultSite(FaultUnit.CONTROLLER, Copy.SPARE)
    for _ in range(400):
        faults, names = _draw_active_set(rng, _SITE, 36)
        # One or two delays, each with its own latched stale word: the last
        # in scenario order drives the data lines.
        delays = rng.randrange(3)
        for _ in range(delays):
            faults.insert(rng.randrange(len(faults) + 1),
                          TimedFault(Delay(rng.randrange(1, 4)), _SITE, 0, PERMANENT))
        stales = [rng.getrandbits(32) for _ in range(delays)]
        stale = stales[-1] if delays else None
        seen |= names | {f"{delays} delays"}
        flips, keep, ones = fold_faults(faults, stale)
        for _ in range(4):
            bus = encode_bus(rng.getrandbits(32))
            assert (bus ^ flips) & keep | ones == sorted_order(bus, faults, stale), faults

        faults, names = _draw_active_set(rng, rail, 16)
        seen |= {f"rail {name}" for name in names}
        flips, keep, ones = fold_faults(faults)
        for _ in range(4):
            vector = rng.getrandbits(16)
            assert (vector ^ flips) & keep | ones == sorted_order(vector, faults, width=16), faults
    assert seen >= {"stuck at both", "two flips", "flip under a stuck-at", "1 delays",
                    "2 delays", "rail stuck at both", "rail two flips",
                    "rail flip under a stuck-at"}


def test_fault_validation():
    with pytest.raises(ValueError):
        _fault(StuckAt(36, 1))
    with pytest.raises(ValueError):
        _fault(StuckAt(0, 2))
    with pytest.raises(ValueError):
        _fault(Delay(0))
    with pytest.raises(ValueError):
        TimedFault(TransientFlip(0), _SITE, -1, 1)
    with pytest.raises(ValueError):
        TimedFault(Delay(1), FaultSite(FaultUnit.CONTROLLER, Copy.MAIN), 0, 1)


def test_parse_scenario_roundtrip():
    text = """
    # canonical decode fault
    @10 PERM decode.main stuckat 3 1
    @20 T:4 execute.spare flip 35
    @30 T:2 predecode.main delay 2
    @40 PERM controller.b stuckat 0 0
    """
    scenario = parse_scenario(text)
    assert len(scenario.faults) == 4
    first = scenario.faults[0]
    assert first.kind == StuckAt(3, 1)
    assert first.site == FaultSite(FaultUnit.DECODE, Copy.MAIN)
    assert first.start == 10 and first.duration is PERMANENT
    assert scenario.faults[1].duration == 4
    assert scenario.faults[2].kind == Delay(2)
    assert scenario.faults[3].site.unit is FaultUnit.CONTROLLER


def test_parse_scenario_empty_is_fault_free():
    assert parse_scenario("# nothing\n\n").faults == ()


@pytest.mark.parametrize("line,fragment", [
    ("10 PERM decode.main stuckat 3 1", "expected '@"),
    ("@x PERM decode.main stuckat 3 1", "bad start"),
    ("@1 FOREVER decode.main stuckat 3 1", "expected PERM or T:"),
    ("@1 PERM decode stuckat 3 1", "expected <unit>.<copy>"),
    ("@1 PERM writeback.main stuckat 3 1", "unknown unit"),
    ("@1 PERM decode.tertiary stuckat 3 1", "unknown copy"),
    ("@1 PERM decode.a stuckat 3 1", "unknown copy 'a' of decode"),
    ("@1 PERM controller.main stuckat 3 1", "unknown copy 'main' of controller"),
    ("@1 PERM decode.main melt 3", "unknown fault kind"),
    ("@1 PERM decode.main stuckat 3", "stuckat takes"),
    ("@1 PERM decode.main stuckat 40 1", "outside the 36-bit"),
    ("@1 T:x decode.main stuckat 3 1", "line 1: bad duration 'T:x'"),
    ("@1 T:0 decode.main stuckat 3 1", "line 1: fault duration must be >= 1 or PERMANENT"),
    ("@1 PERM decode.main delay", "line 1: delay takes <extra>"),
    ("@1 PERM decode.main delay 1 2", "line 1: delay takes <extra>"),
    ("@1 PERM decode.main flip", "line 1: flip takes <bit>"),
    ("@1 PERM decode.main flip 3 4", "line 1: flip takes <bit>"),
    ("@1 PERM decode.main flip x", "line 1: invalid literal for int"),
])
def test_parse_scenario_errors(line, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(line)


def test_scenario_error_line_numbers():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario("@1 PERM decode.main stuckat 0 1\nbogus line\n")
    assert excinfo.value.line == 2


def test_update_stress_all_on_off():
    ledger = StressLedger()
    states = {}
    for kind in StageKind:
        states[(kind, Copy.MAIN)] = PowerState.ON
        states[(kind, Copy.SPARE)] = PowerState.OFF
    for _ in range(100):
        update_stress(ledger, states)
    for kind in StageKind:
        assert ledger.blocks[(kind, Copy.MAIN)].on_cycles == 100
        assert ledger.blocks[(kind, Copy.SPARE)].off_cycles == 100
    ledger.assert_conserved(100)


def test_update_stress_zero_cycles():
    ledger = StressLedger()
    for stress in ledger.blocks.values():
        assert stress.total == 0
    ledger.assert_conserved(0)


def test_conservation_violation_detected():
    ledger = StressLedger()
    with pytest.raises(AssertionError):
        ledger.assert_conserved(1)
