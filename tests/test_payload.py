"""Versioned payload encoding: round trips, corruption, torn mixtures."""

import random
import struct

import pytest

from arcreg import ConfigurationError, decode_versioned, encode_versioned


def test_encode_zero_is_all_zero_bytes():
    assert encode_versioned(0, 16) == b"\x00" * 16


def test_encode_repeats_the_sequence_word():
    body = encode_versioned(5, 16)
    assert body == struct.pack("<QQ", 5, 5)


def test_encode_partial_trailing_word_holds_low_order_bytes():
    body = encode_versioned(7, 12)
    word = struct.pack("<Q", 7)
    assert body == word + word[:4]


def test_decode_round_trip():
    assert decode_versioned(encode_versioned(5, 16), 16) == (5, True)


def test_decode_flags_flipped_byte():
    body = bytearray(encode_versioned(5, 16))
    body[8] ^= 0xFF
    assert decode_versioned(body, 16) == (5, False)


def test_decode_flags_torn_concatenation():
    half_a = encode_versioned(3, 16)[:8]
    half_b = encode_versioned(4, 16)[8:]
    seq, intact = decode_versioned(half_a + half_b, 16)
    assert not intact


def test_round_trip_brute_force():
    # Independent oracle: enumerate the whole small domain.
    for seq in range(256):
        for size in range(8, 65):
            assert decode_versioned(encode_versioned(seq, size), size) == (seq, True)


def test_decode_ignores_trailing_buffer_capacity():
    # A max-size slot buffer can be passed directly with the value's size.
    buf = bytearray(64)
    buf[:12] = encode_versioned(9, 12)
    assert decode_versioned(buf, 12) == (9, True)


def test_word_aligned_mixtures_never_pass():
    # Any word-granularity mixture of two different writes must fail the
    # scan; word-aligned splits are the states a chunked copy can expose.
    rng = random.Random(20240811)
    for _ in range(300):
        size = 8 * rng.randint(2, 32)
        a, b = rng.getrandbits(60), rng.getrandbits(60)
        if a == b:
            continue
        body = bytearray(encode_versioned(a, size))
        other = encode_versioned(b, size)
        cut = 8 * rng.randint(1, size // 8 - 1)
        if rng.random() < 0.5:
            body[:cut] = other[:cut]
        else:
            body[cut:] = other[cut:]
        _, intact = decode_versioned(body, size)
        assert not intact


def _decode_by_expected_buffer(body, size):
    # The previous decoder, kept as an oracle: build the expected body from
    # the first word and compare it against the first ``size`` bytes.
    first = bytes(body[:8])
    full, rest = divmod(size, 8)
    expected = first * full + first[:rest]
    return int.from_bytes(first, "little"), bytes(body[:size]) == expected


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_decode_agrees_with_expected_buffer_oracle(kind):
    rng = random.Random(20261018)
    for _ in range(400):
        size = rng.randint(8, 300)
        body = bytearray(encode_versioned(rng.getrandbits(64), size))
        body += rng.randbytes(rng.randint(0, 16))  # slack past the value
        shape = rng.randrange(3 if size > 8 else 2)
        damaged = shape == 2
        if shape == 1:
            at = rng.randrange(size)  # any offset, not only word-aligned
            body[at] ^= 1 << rng.randrange(8)
            # A byte of the first word with no copy within ``size`` only
            # changes the value; every other flip tears it.
            damaged = at >= 8 or at + 8 < size
        elif shape == 2:
            del body[rng.randint(8, size - 1):]  # shorter than size
        seq, intact = _decode_by_expected_buffer(body, size)
        assert decode_versioned(kind(body), size) == (seq, intact)
        assert intact != damaged


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_body_shorter_than_one_word_is_not_intact(kind):
    # The expected-buffer formula compares a short body with an equally
    # short expectation and passes it; the decoder must not.
    for length in range(8):
        body = kind(bytes(length))
        assert decode_versioned(body, 8) == (0, False)


@pytest.mark.parametrize("size", [0, 1, 7])
def test_sizes_below_one_word_are_rejected(size):
    with pytest.raises(ConfigurationError):
        encode_versioned(1, size)
    with pytest.raises(ConfigurationError):
        decode_versioned(b"\x00" * 8, size)
