"""Bit-packing round-trips, wire layout and size accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensorlib import (
    pack_bits,
    pack_signs,
    packed_nbytes,
    quantize_uniform,
    unpack_bits,
    unpack_signs,
)


def reference_pack_bits(codes, bits):
    """Slow bit-by-bit oracle of the wire layout (the original packer).

    Widens every code to uint64, expands it into an ``(n, bits)`` matrix
    of its bits (LSB first), zero-pads the flat bit stream to whole
    bytes and packs each byte little-endian.
    """
    codes = np.ascontiguousarray(codes).astype(np.uint64).ravel()
    bit_matrix = (
        (codes[:, None] >> np.arange(bits, dtype=np.uint64)) & 1
    ).astype(np.uint8)
    flat_bits = bit_matrix.ravel()
    pad = (-flat_bits.size) % 8
    if pad:
        flat_bits = np.concatenate([flat_bits, np.zeros(pad, dtype=np.uint8)])
    return np.packbits(
        flat_bits.reshape(-1, 8), axis=1, bitorder="little"
    ).ravel()


def reference_unpack_bits(buffer, bits, count):
    """Oracle inverse: an int64 matmul of the bit matrix by place values."""
    flat_bits = np.unpackbits(buffer.astype(np.uint8), bitorder="little")
    bit_matrix = flat_bits[:count * bits].reshape(count, bits).astype(np.int64)
    return bit_matrix @ (1 << np.arange(bits, dtype=np.int64))


def reference_pack_signs(values):
    """Oracle sign packer: a 1-bit :func:`reference_pack_bits` of ``x >= 0``."""
    return reference_pack_bits((np.ravel(values) >= 0).astype(np.uint8), 1)


def reference_unpack_signs(buffer, count):
    """Oracle sign unpacker: 1-bit codes mapped to float32 ±1."""
    bits = reference_unpack_bits(buffer, 1, count)
    return np.where(bits > 0, 1.0, -1.0).astype(np.float32)


@st.composite
def codes_and_width(draw, max_size=70):
    """A width in 1..16 and codes that fit it, of any length mod 8."""
    bits = draw(st.integers(1, 16))
    values = draw(
        st.lists(st.integers(0, (1 << bits) - 1), max_size=max_size)
    )
    return np.array(values, dtype=np.int64), bits


class TestPackBits:
    def test_roundtrip_one_bit(self):
        codes = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1])
        assert np.array_equal(unpack_bits(pack_bits(codes, 1), 1, 9), codes)

    def test_roundtrip_two_bits(self):
        codes = np.array([0, 1, 2, 3, 3, 2, 1, 0, 2])
        assert np.array_equal(unpack_bits(pack_bits(codes, 2), 2, 9), codes)

    def test_roundtrip_seven_bits(self):
        codes = np.arange(128)
        assert np.array_equal(unpack_bits(pack_bits(codes, 7), 7, 128), codes)

    def test_empty_input(self):
        packed = pack_bits(np.array([], dtype=np.int64), 3)
        assert packed.size == 0
        assert unpack_bits(packed, 3, 0).size == 0

    def test_packed_size_matches_accounting(self):
        codes = np.arange(100) % 8
        assert pack_bits(codes, 3).nbytes == packed_nbytes(100, 3)

    def test_rejects_overflow_codes(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([4]), bits=2)

    def test_rejects_bad_bit_width(self):
        with pytest.raises(ValueError, match="bits"):
            pack_bits(np.array([0]), bits=0)
        with pytest.raises(ValueError, match="bits"):
            pack_bits(np.array([0]), bits=17)

    def test_unpack_rejects_short_buffer(self):
        packed = pack_bits(np.array([1, 0, 1]), 1)
        with pytest.raises(ValueError, match="bits"):
            unpack_bits(packed, 1, 100)

    def test_unpack_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            unpack_bits(np.zeros(1, dtype=np.uint8), 1, -1)

    @given(codes_and_width(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, case):
        codes, bits = case
        packed = pack_bits(codes, bits)
        unpacked = unpack_bits(packed, bits, codes.size)
        assert unpacked.dtype == np.int64
        assert np.array_equal(unpacked, codes)
        assert packed.nbytes == packed_nbytes(codes.size, bits)


class TestWireLayout:
    """The packed bytes are pinned to the bit-by-bit reference layout."""

    @given(codes_and_width())
    @settings(max_examples=300, deadline=None)
    def test_pack_matches_reference_bytes(self, case):
        codes, bits = case
        packed = pack_bits(codes, bits)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == reference_pack_bits(codes, bits).tobytes()
        assert np.array_equal(
            unpack_bits(packed, bits, codes.size),
            reference_unpack_bits(packed, bits, codes.size),
        )

    @pytest.mark.parametrize("bits", range(1, 17))
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 15, 17, 64, 1001])
    def test_every_width_and_ragged_length(self, bits, count):
        rng = np.random.default_rng(bits * 1000 + count)
        codes = rng.integers(0, 1 << bits, count)
        codes[: count // 3] = (1 << bits) - 1  # all-ones code-words
        packed = pack_bits(codes, bits)
        assert packed.tobytes() == reference_pack_bits(codes, bits).tobytes()
        assert np.array_equal(unpack_bits(packed, bits, count), codes)

    @given(st.lists(st.floats(allow_nan=True), max_size=70))
    @settings(max_examples=100, deadline=None)
    def test_signs_match_reference_bytes(self, values):
        array = np.array(values, dtype=np.float64)
        packed = pack_signs(array)
        assert packed.tobytes() == reference_pack_signs(array).tobytes()
        assert np.array_equal(
            unpack_signs(packed, array.size),
            reference_unpack_signs(packed, array.size),
        )

    @pytest.mark.parametrize(
        "codes,bits,expected",
        [
            ([1, 0, 1, 1], 1, b"\x0d"),  # the docstring example, [13]
            ([1, 0, 0, 0, 0, 0, 0, 0, 1], 1, b"\x01\x01"),
            ([0, 1, 2, 3], 2, b"\xe4"),
            ([5, 3, 7], 3, b"\xdd\x01"),
            ([127, 0, 1], 7, b"\x7f\x40\x00"),
            ([0xAB, 0xCD], 8, b"\xab\xcd"),
            ([0x1FF, 0x001], 9, b"\xff\x03\x00"),
            ([0xBEEF, 0x1234], 16, b"\xef\xbe\x34\x12"),
        ],
    )
    def test_literal_bytes(self, codes, bits, expected):
        assert pack_bits(np.array(codes), bits).tobytes() == expected
        assert unpack_bits(
            np.frombuffer(expected, dtype=np.uint8), bits, len(codes)
        ).tolist() == codes

    def test_signs_literal_bytes(self):
        values = np.array([1.0, -1.0, 0.0, -0.0, -3.0, 2.0, -1.0, 5.0, -1.0])
        # bits 1,0,1,1,0,1,0,1 | 0  (-0.0 >= 0, so it packs as 1)
        assert pack_signs(values).tobytes() == b"\xad\x00"


class TestInputChecks:
    """Invalid code-words raise instead of wrapping into the narrow dtype."""

    @pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 16])
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_rejects_negative_codes(self, bits, dtype):
        codes = np.array([0, 1, -1], dtype=dtype)
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(codes, bits)

    def test_rejects_negative_code_that_wraps_into_range(self):
        # -256 is 0x00 in a uint8 and -65536 is 0x0000 in a uint16.
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([-256]), 8)
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([-65536]), 16)

    def test_rejects_nan_quantized_to_int64_min(self):
        with np.errstate(invalid="ignore"):
            codes = quantize_uniform(
                np.array([0.5, np.nan]), 64, rng=np.random.default_rng(0)
            )
        assert codes[1] == np.iinfo(np.int64).min
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(codes, 7)

    def test_rejects_nan_gradient_through_qsgd(self):
        from repro.core import create

        qsgd = create("qsgd")
        gradient = np.array([1.0, np.nan, -2.0], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="does not fit"):
                qsgd.compress(gradient, "w")

    @pytest.mark.parametrize("bits", [1, 8, 9, 16])
    def test_rejects_code_one_past_the_width(self, bits):
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([0, 1 << bits], dtype=np.int64), bits)

    def test_bool_uint8_and_int64_pack_identically(self):
        flags = np.array([True, False, True, True, False, True, False, False, True])
        expected = pack_bits(flags.astype(np.int64), 1).tobytes()
        assert pack_bits(flags, 1).tobytes() == expected
        assert pack_bits(flags.astype(np.uint8), 1).tobytes() == expected
        assert expected == reference_pack_bits(flags, 1).tobytes()

    @pytest.mark.parametrize("bits", [3, 8, 12])
    def test_integer_dtypes_pack_identically(self, bits):
        codes = np.arange(40) % (1 << min(bits, 7))
        expected = pack_bits(codes.astype(np.int64), bits).tobytes()
        for dtype in (np.uint8, np.uint16, np.int16, np.int32, np.uint64):
            assert pack_bits(codes.astype(dtype), bits).tobytes() == expected

    @pytest.mark.parametrize("dtype", [">i4", ">i8", ">u2", "<u2", "<i8"])
    def test_any_byte_order_packs_identically(self, dtype):
        codes = np.array([0, 1, 300, 511, 7])
        expected = reference_pack_bits(codes, 9).tobytes()
        assert pack_bits(codes.astype(dtype), 9).tobytes() == expected
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([512], dtype=dtype), 9)

    def test_accepts_shaped_and_strided_input(self):
        codes = np.arange(24).reshape(4, 6) % 5
        expected = pack_bits(codes.ravel(), 3).tobytes()
        assert pack_bits(codes, 3).tobytes() == expected
        assert pack_bits(codes.T, 3).tobytes() == pack_bits(
            codes.T.ravel(), 3
        ).tobytes()

    def test_unpack_signs_rejects_short_buffer(self):
        packed = pack_signs(np.ones(3))
        with pytest.raises(ValueError, match="bits"):
            unpack_signs(packed, 9)
        assert unpack_signs(packed, 8).size == 8

    def test_unpack_signs_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            unpack_signs(np.zeros(1, dtype=np.uint8), -1)


class TestPackSigns:
    def test_roundtrip(self):
        values = np.array([1.0, -2.0, 0.0, -0.5, 3.0], dtype=np.float32)
        signs = unpack_signs(pack_signs(values), 5)
        assert np.array_equal(signs, [1.0, -1.0, 1.0, -1.0, 1.0])

    def test_zero_is_positive(self):
        assert unpack_signs(pack_signs(np.zeros(3)), 3).tolist() == [1, 1, 1]

    def test_output_dtype(self):
        assert unpack_signs(pack_signs(np.ones(4)), 4).dtype == np.float32

    def test_one_bit_per_element(self):
        assert pack_signs(np.ones(800)).nbytes == 100

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_sign_preserved_property(self, values):
        array = np.array(values, dtype=np.float32)
        signs = unpack_signs(pack_signs(array), array.size)
        expected = np.where(array >= 0, 1.0, -1.0)
        assert np.array_equal(signs, expected)


class TestPackedNbytes:
    def test_exact_multiples(self):
        assert packed_nbytes(8, 1) == 1
        assert packed_nbytes(4, 2) == 1
        assert packed_nbytes(16, 4) == 8

    def test_rounds_up(self):
        assert packed_nbytes(9, 1) == 2
        assert packed_nbytes(3, 3) == 2

    def test_zero_count(self):
        assert packed_nbytes(0, 5) == 0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            packed_nbytes(-1, 2)
