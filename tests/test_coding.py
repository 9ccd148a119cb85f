"""Unit tests for the convolutional code, Viterbi, interleaver, scrambler."""

import numpy as np
import pytest

from repro.coding import (
    CODE_RATES,
    ConvolutionalCode,
    conv_encode,
    deinterleave,
    depuncture,
    descramble,
    interleave,
    puncture,
    scramble,
    scrambler_sequence,
    viterbi_decode_soft,
)
from repro.coding.convolutional import CONSTRAINT
from repro.utils import random_bits


def decode_hard(coded_bits, rate, n_info_bits):
    """Hard bits through the pipeline's own path: +-1 LLRs, depuncture,
    soft Viterbi over the terminated mother stream."""
    llrs = 1.0 - 2.0 * np.asarray(coded_bits, dtype=np.float64)
    n_mother = 2 * (n_info_bits + CONSTRAINT - 1)
    return viterbi_decode_soft(depuncture(llrs, rate, n_mother))


class TestConvEncoder:
    def test_zero_input_zero_output(self):
        assert not conv_encode(np.zeros(20, dtype=np.uint8)).any()

    def test_impulse_response_matches_80211_generators(self):
        imp = conv_encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        g0 = imp[0::2]
        g1 = imp[1::2]
        # g0 = 133 octal = 1011011, g1 = 171 octal = 1111001.
        assert g0.tolist() == [1, 0, 1, 1, 0, 1, 1]
        assert g1.tolist() == [1, 1, 1, 1, 0, 0, 1]

    def test_output_length(self):
        assert conv_encode(random_bits(100)).size == 200

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = random_bits(50, rng)
        b = random_bits(50, rng)
        assert np.array_equal(
            conv_encode(a) ^ conv_encode(b), conv_encode(a ^ b)
        )

    def test_empty_input(self):
        assert conv_encode(np.empty(0, dtype=np.uint8)).size == 0


class TestPuncturing:
    def test_rate_half_is_identity(self):
        bits = random_bits(40)
        assert np.array_equal(puncture(bits, "1/2"), bits)

    def test_rate_two_thirds_length(self):
        assert puncture(np.ones(8, dtype=np.uint8), "2/3").size == 6

    def test_rate_three_quarters_length(self):
        assert puncture(np.ones(12, dtype=np.uint8), "3/4").size == 8

    def test_depuncture_restores_positions(self):
        mother = np.arange(1, 9, dtype=np.float64)
        p = puncture(mother, "2/3")
        d = depuncture(p, "2/3", 8)
        kept = d != 0
        assert np.array_equal(d[kept], mother[(mother - 1) % 4 != 3])

    def test_depuncture_length_mismatch(self):
        with pytest.raises(ValueError):
            depuncture(np.ones(5), "2/3", 8)

    def test_coded_length_helper(self):
        for rate, expect in (("1/2", 200), ("2/3", 150), ("3/4", 134)):
            code = ConvolutionalCode(rate)
            assert code.coded_length(100) == expect
            assert code.encode(random_bits(100)).size == expect

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ConvolutionalCode("5/6")

    def test_rate_fraction(self):
        assert ConvolutionalCode("2/3").rate_fraction == pytest.approx(2 / 3)


class TestViterbi:
    @pytest.mark.parametrize("rate", CODE_RATES)
    def test_noiseless_roundtrip(self, rate):
        rng = np.random.default_rng(5)
        code = ConvolutionalCode(rate)
        bits = random_bits(300, rng)
        dec = decode_hard(code.encode_with_tail(bits), rate, 300)
        assert np.array_equal(dec, bits)

    @pytest.mark.parametrize("rate", CODE_RATES)
    def test_corrects_scattered_errors(self, rate):
        rng = np.random.default_rng(6)
        code = ConvolutionalCode(rate)
        bits = random_bits(400, rng)
        coded = code.encode_with_tail(bits)
        # Flip well-separated bits (within free-distance correction).
        for pos in range(10, coded.size - 10, coded.size // 6):
            coded[pos] ^= 1
        dec = decode_hard(coded, rate, 400)
        assert np.array_equal(dec, bits)

    def test_unterminated_mode(self):
        rng = np.random.default_rng(8)
        bits = random_bits(200, rng)
        coded = conv_encode(bits).astype(np.float64)
        dec = viterbi_decode_soft(1.0 - 2.0 * coded, terminated=False)
        # The tail of an unterminated decode is unreliable; the body must
        # match exactly.
        assert np.array_equal(dec[:180], bits[:180])

    def test_odd_llr_length_rejected(self):
        with pytest.raises(ValueError):
            viterbi_decode_soft(np.ones(7))

    def test_empty_stream(self):
        assert viterbi_decode_soft(np.empty(0)).size == 0


class TestInterleaver:
    @pytest.mark.parametrize("n_bpsc", [1, 2, 4, 6])
    def test_roundtrip(self, n_bpsc):
        bits = random_bits(48 * n_bpsc)
        assert np.array_equal(
            deinterleave(interleave(bits, n_bpsc), n_bpsc), bits
        )

    def test_permutation_is_bijective(self):
        from repro.coding import interleave_indices

        idx = interleave_indices(192, 4)
        assert sorted(idx.tolist()) == list(range(192))

    def test_adjacent_bits_separated(self):
        # Adjacent coded bits must land on non-adjacent subcarriers.
        from repro.coding import interleave_indices

        idx = interleave_indices(48, 1)
        gaps = np.abs(np.diff(idx))
        assert np.min(gaps) >= 2

    def test_invalid_sizes(self):
        from repro.coding import interleave_indices

        with pytest.raises(ValueError):
            interleave_indices(50, 1)
        with pytest.raises(ValueError):
            interleave_indices(96, 1)


class TestScrambler:
    def test_involution(self):
        bits = random_bits(500)
        assert np.array_equal(descramble(scramble(bits)), bits)

    def test_sequence_is_127_periodic(self):
        seq = scrambler_sequence(254)
        assert np.array_equal(seq[:127], seq[127:])

    def test_sequence_balanced(self):
        seq = scrambler_sequence(127)
        assert np.count_nonzero(seq) == 64  # maximal-length property

    def test_invalid_seed(self):
        with pytest.raises(ValueError):
            scrambler_sequence(10, seed=0)
        with pytest.raises(ValueError):
            scrambler_sequence(10, seed=200)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            scrambler_sequence(64, seed=0x7F), scrambler_sequence(64, seed=1)
        )
