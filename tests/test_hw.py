import itertools

import pytest
from hypothesis import given, strategies as st

from ifrsim.hw import (Copy, encode_bus, estimate_switch_transistors, parity_check,
                       parity_encode, switch_route, trc_compare)


def test_parity_zero_word():
    assert parity_encode(0x00000000) == 0b0000


def test_parity_single_bit():
    assert parity_encode(0x00000001) == 0b0001


def test_parity_full_byte_cancels():
    assert parity_encode(0xFF000001) == 0b0001


def test_parity_check_consistent_bus():
    assert parity_check(encode_bus(0xDEADBEEF)) == 0


def test_parity_check_flags_flipped_data_bit():
    bus = encode_bus(0x00000000)
    assert parity_check(bus ^ 1) == 0b0001


def test_parity_check_misses_double_flip_same_byte():
    bus = encode_bus(0x12345678)
    assert parity_check(bus ^ 0b11) == 0


def test_parity_detects_all_single_bus_bits():
    for word in (0x00000000, 0xA5A5A5A5, 0xFFFFFFFF):
        bus = encode_bus(word)
        for bit in range(36):
            assert parity_check(bus ^ 1 << bit) != 0, f"bit {bit} of {word:#x} undetected"


def test_parity_blind_to_even_flips_within_byte():
    bus = encode_bus(0xC3C3C3C3)
    for byte in range(4):
        for b1, b2 in itertools.combinations(range(8), 2):
            mask = (1 << (8 * byte + b1)) | (1 << (8 * byte + b2))
            assert parity_check(bus ^ mask) == 0


def test_parity_check_refuses_a_bus_wider_than_36_bits():
    with pytest.raises(ValueError):
        parity_check(1 << 36)


def test_switch_routes_selected_copy():
    main, spare = encode_bus(1), encode_bus(2)
    assert switch_route(Copy.MAIN, main, spare) is main
    assert switch_route(Copy.SPARE, main, spare) is spare


def test_switch_equal_buses():
    bus = encode_bus(7)
    assert switch_route(Copy.MAIN, bus, bus) == switch_route(Copy.SPARE, bus, bus)


def test_trc_exact_complement_ok():
    assert trc_compare(0b1010, 0b0101, 4)


def test_trc_disagreement_flagged():
    assert not trc_compare(0b1010, 0b0111, 4)


def test_trc_all_zero_rail():
    assert trc_compare(0b0000, 0b1111, 4)


def test_trc_width_mismatch_is_config_error():
    with pytest.raises(ValueError):
        trc_compare(0b10000, 0b01111, 4)
    with pytest.raises(ValueError):
        trc_compare(1, 0, 0)


def test_switch_transistor_estimate():
    assert estimate_switch_transistors(1) == 20
    assert estimate_switch_transistors(36) == 720


def test_switch_transistor_preconditions():
    with pytest.raises(ValueError):
        estimate_switch_transistors(0)


@given(st.integers(0, 0xFFFFFFFF))
def test_parity_roundtrip_property(word):
    assert parity_check(encode_bus(word)) == 0


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 35))
def test_single_data_flip_always_detected(word, bit):
    assert parity_check(encode_bus(word) ^ 1 << bit) != 0
