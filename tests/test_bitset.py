import numpy as np
import pytest

from bloomprim import BitArray


def test_new_array_is_empty():
    bits = BitArray(20)
    assert len(bits) == 20
    assert bits.popcount() == 0
    assert bits.tobytes() == bytes(3)


def test_set_and_test():
    bits = BitArray(100)
    for i in (0, 7, 8, 63, 64, 99):
        bits.set(i)
    assert bits.indices().tolist() == [0, 7, 8, 63, 64, 99]
    assert bits.popcount() == 6


def test_set_is_idempotent():
    bits = BitArray(16)
    bits.set(5)
    bits.set(5)
    assert bits.popcount() == 1


def test_indices_ascending():
    bits = BitArray(70)
    for i in (69, 3, 17, 8):
        bits.set(i)
    ids = bits.indices()
    assert ids.dtype == np.int64
    assert ids.tolist() == [3, 8, 17, 69]


def test_indices_of_empty_array():
    ids = BitArray(0).indices()
    assert ids.dtype == np.int64
    assert ids.tolist() == []


def test_indices_ignore_pad_bits():
    bits = BitArray(13)
    bits._buf[:] = b"\x01\xff"  # bits 13..15 of the last byte are padding
    assert bits.indices().tolist() == [0, 8, 9, 10, 11, 12]


def test_payload_bytes_rounds_up():
    assert BitArray(8).payload_bytes == 1
    assert BitArray(9).payload_bytes == 2
    assert BitArray(0).payload_bytes == 0
    assert BitArray(9586).payload_bytes == 1199


def test_equality():
    a, b = BitArray(10), BitArray(10)
    a.set(4)
    assert a != b
    b.set(4)
    assert a == b
    assert BitArray(10) != BitArray(11)


def test_bounds_checked():
    bits = BitArray(8)
    with pytest.raises(IndexError):
        bits.set(8)
    with pytest.raises(IndexError):
        bits.set(-1)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        BitArray(-1)


def test_tobytes_layout():
    bits = BitArray(12)
    bits.set(0)
    bits.set(9)
    assert bits.tobytes() == bytes([0b00000001, 0b00000010])
