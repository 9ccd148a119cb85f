"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    ConvolutionalCode,
    conv_encode,
    deinterleave,
    depuncture,
    descramble,
    interleave,
    scramble,
    viterbi_decode_soft,
)
from repro.coding.convolutional import CONSTRAINT
from repro.link.frames import build_frame_bits, parse_frame_bits
from repro.utils.bits import (
    bits_from_bytes,
    bits_from_int,
    bytes_from_bits,
    gray_decode,
    gray_encode,
    int_from_bits,
)
from repro.utils.crc import append_crc16, check_crc16
from repro.wifi.mapper import (
    BITS_PER_SYMBOL,
    psk_demap_hard,
    psk_map,
    qam_demap_hard,
    qam_map,
)

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=400).map(
    lambda v: np.array(v, dtype=np.uint8)
)


@given(st.binary(min_size=0, max_size=100))
def test_bytes_bits_roundtrip(data):
    assert bytes_from_bits(bits_from_bytes(data)) == data


@given(st.integers(0, 2**31 - 1))
def test_int_bits_roundtrip(v):
    assert int_from_bits(bits_from_int(v, 31)) == v


@given(st.integers(0, 2**20))
def test_gray_roundtrip(v):
    assert gray_decode(gray_encode(v)) == v


@given(bit_arrays)
def test_crc16_roundtrip_and_tamper(bits):
    framed = append_crc16(bits)
    assert check_crc16(framed)
    tampered = framed.copy()
    tampered[0] ^= 1
    assert not check_crc16(tampered)


@given(bit_arrays)
def test_scrambler_involution(bits):
    assert np.array_equal(descramble(scramble(bits)), bits)


@given(bit_arrays)
def test_conv_encoder_linearity(bits):
    zero = np.zeros_like(bits)
    assert np.array_equal(conv_encode(zero),
                          np.zeros(2 * bits.size, dtype=np.uint8))
    assert conv_encode(bits).size == 2 * bits.size


@settings(deadline=None, max_examples=25)
@given(bit_arrays, st.sampled_from(["1/2", "2/3", "3/4"]))
def test_viterbi_noiseless_roundtrip(bits, rate):
    code = ConvolutionalCode(rate)
    llrs = 1.0 - 2.0 * code.encode_with_tail(bits).astype(np.float64)
    n_mother = 2 * (bits.size + CONSTRAINT - 1)
    decoded = viterbi_decode_soft(depuncture(llrs, rate, n_mother))
    assert np.array_equal(decoded, bits)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6).filter(lambda n: n in (1, 2, 4, 6)),
       st.data())
def test_interleaver_bijective(n_bpsc, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=48 * n_bpsc,
                              max_size=48 * n_bpsc))
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(deinterleave(interleave(arr, n_bpsc), n_bpsc),
                          arr)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["bpsk", "qpsk", "16qam", "64qam"]), st.data())
def test_qam_roundtrip(mod, data):
    nb = BITS_PER_SYMBOL[mod]
    bits = data.draw(st.lists(st.integers(0, 1), min_size=nb,
                              max_size=nb * 50).filter(
        lambda v: len(v) % nb == 0))
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(qam_demap_hard(qam_map(arr, mod), mod), arr)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["bpsk", "qpsk", "16psk"]), st.data())
def test_psk_roundtrip(mod, data):
    nb = BITS_PER_SYMBOL[mod]
    bits = data.draw(st.lists(st.integers(0, 1), min_size=nb,
                              max_size=nb * 50).filter(
        lambda v: len(v) % nb == 0))
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(psk_demap_hard(psk_map(arr, mod), mod), arr)


@settings(deadline=None, max_examples=40)
@given(bit_arrays)
def test_tag_frame_roundtrip(payload):
    frame = parse_frame_bits(build_frame_bits(payload))
    assert frame is not None and frame.ok
    assert np.array_equal(frame.payload_bits, payload)


@settings(deadline=None, max_examples=25)
@given(bit_arrays, st.integers(0, 399))
def test_tag_frame_detects_single_bit_corruption(payload, pos):
    bits = build_frame_bits(payload)
    pos = pos % bits.size
    bits[pos] ^= 1
    frame = parse_frame_bits(bits)
    # Any single-bit corruption must be detected (header or payload CRC),
    # or make the frame unparseable.
    assert frame is None or not frame.ok
