import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    AccumulationMode,
    Bitstream,
    Encoding,
    StreamKey,
    StreamMismatchError,
    and_mult,
    apc_sum,
    counting,
    decode,
    dot_product_sc,
    mux_add,
    popcount,
    sng_encode,
    xnor_mult,
)
from scbnn.bitstream import _DRAW_BLOCK
from scbnn.scgates import accumulator_width

KEY = StreamKey(0xBEEF)

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


def bipolar(bits):
    return Bitstream.from_bits(bits, Encoding.BIPOLAR)


def unipolar(bits):
    return Bitstream.from_bits(bits, Encoding.UNIPOLAR)


class TestAndMult:
    def test_identity_with_all_ones(self):
        b = sng_encode(0.37, 333, Encoding.UNIPOLAR, KEY)
        assert and_mult(Bitstream.constant(1, 333, Encoding.UNIPOLAR), b) == b

    def test_small_case(self):
        out = and_mult(unipolar("1100"), unipolar("1010"))
        assert out == unipolar("1000")
        assert decode(out) == 0.25

    def test_monte_carlo_product(self):
        M = 100_000
        a = sng_encode(0.5, M, Encoding.UNIPOLAR, KEY.substream("a"))
        b = sng_encode(0.5, M, Encoding.UNIPOLAR, KEY.substream("b"))
        assert abs(decode(and_mult(a, b)) - 0.25) < 0.02

    def test_mean_product_identity(self):
        # |mean over >=100 keys of decode(AND) - xy| <= 5/(2 sqrt(M))
        M, x, y = 4096, 0.7, 0.3
        vals = [
            decode(
                and_mult(
                    sng_encode(x, M, Encoding.UNIPOLAR, KEY.substream("ax", t)),
                    sng_encode(y, M, Encoding.UNIPOLAR, KEY.substream("ay", t)),
                )
            )
            for t in range(100)
        ]
        assert abs(np.mean(vals) - x * y) <= 5 / (2 * math.sqrt(M))

    def test_rejects_bipolar(self):
        s = sng_encode(0.2, 16, Encoding.BIPOLAR, KEY)
        with pytest.raises(StreamMismatchError):
            and_mult(s, s)
        with pytest.raises(StreamMismatchError, match="expected length 2 / unipolar, got 2 / bipolar"):
            and_mult(unipolar("10"), bipolar("10"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(StreamMismatchError):
            and_mult(unipolar("101"), unipolar("10"))


class TestXnorMult:
    def test_times_plus_one(self):
        b = sng_encode(-0.4, 257, Encoding.BIPOLAR, KEY)
        assert xnor_mult(Bitstream.constant(1, 257, Encoding.BIPOLAR), b) == b

    def test_times_minus_one_is_negation(self):
        b = sng_encode(0.6, 257, Encoding.BIPOLAR, KEY)
        out = xnor_mult(Bitstream.constant(0, 257, Encoding.BIPOLAR), b)
        assert np.array_equal(out.bit_array(), 1 - b.bit_array())
        assert decode(out) == -decode(b)

    def test_monte_carlo_product(self):
        M = 100_000
        a = sng_encode(0.4, M, Encoding.BIPOLAR, KEY.substream("xa"))
        b = sng_encode(-0.5, M, Encoding.BIPOLAR, KEY.substream("xb"))
        assert abs(decode(xnor_mult(a, b)) - (-0.2)) < 0.02

    def test_pad_bits_stay_zero(self):
        out = xnor_mult(bipolar("000"), bipolar("000"))  # XNOR flips to ones
        assert popcount(out) == 3
        assert out.bits[-1] & 0x1F == 0  # 5 pad bits cleared

    def test_rejects_unipolar(self):
        s = sng_encode(0.2, 16, Encoding.UNIPOLAR, KEY)
        with pytest.raises(StreamMismatchError):
            xnor_mult(s, s)
        with pytest.raises(StreamMismatchError, match="expected length 2 / bipolar, got 2 / unipolar"):
            xnor_mult(bipolar("10"), unipolar("10"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(StreamMismatchError, match="expected length 3 / bipolar, got 2 / bipolar"):
            xnor_mult(bipolar("101"), bipolar("10"))


class TestMuxAdd:
    def test_identical_copies(self):
        s = sng_encode(0.3, 2048, Encoding.BIPOLAR, KEY)
        out = mux_add([s, s, s, s], KEY.substream("sel"))
        assert decode(out) == decode(s)

    def test_average_of_plus_and_minus_one(self):
        M = 100_000
        out = mux_add(
            [Bitstream.constant(1, M, Encoding.BIPOLAR), Bitstream.constant(0, M, Encoding.BIPOLAR)],
            KEY.substream("sel2"),
        )
        assert abs(decode(out) - 0.0) < 0.02

    def test_single_input_passthrough(self):
        s = sng_encode(0.9, 100, Encoding.UNIPOLAR, KEY)
        assert mux_add([s], KEY) == s

    def test_empty_rejected(self):
        with pytest.raises(StreamMismatchError):
            mux_add([], KEY)

    def test_mismatch_rejected(self):
        with pytest.raises(StreamMismatchError):
            mux_add([unipolar("10"), unipolar("101")], KEY)
        with pytest.raises(StreamMismatchError):
            mux_add([unipolar("10"), bipolar("10")], KEY)

    @given(st.integers(2, 5), st.integers(1, 64), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_lottery_property(self, k, M, seed):
        gen = np.random.default_rng(seed)
        streams = [
            Bitstream.from_bits(gen.integers(0, 2, M), Encoding.BIPOLAR) for _ in range(k)
        ]
        out = mux_add(streams, StreamKey(seed))
        matrix = np.stack([s.bit_array() for s in streams])
        out_bits = out.bit_array()
        # every output bit equals the corresponding bit of some input stream
        assert all((matrix[:, t] == out_bits[t]).any() for t in range(M))


def one_shot_select(rows, M, key):
    """The MUX selection as one M-long draw: the oracle for the chunked kernel."""
    selection = key.generator().integers(0, len(rows), size=M)
    out = np.zeros_like(rows[0])
    for c, row in enumerate(rows):
        out |= np.packbits(selection == c) & row
    return out


class TestMuxSelect:
    @pytest.mark.parametrize("M", [1, 7, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 3, 3 * _DRAW_BLOCK + 5])
    # Only k = 2 draws raw 32-bit halves; every other k draws through `integers`.
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 9, 32, 33])
    def test_chunked_draws_equal_one_shot_draw(self, k, M):
        gen = np.random.default_rng(k * M)
        rows = [np.packbits(gen.random(M) < 0.5) for _ in range(k)]
        key = KEY.substream("select", k, M)
        out = mux_add([Bitstream(row, M, Encoding.BIPOLAR) for row in rows], key)
        assert np.array_equal(out.bits, one_shot_select(rows, M, key))


class TestApcSum:
    def test_all_ones_decodes_to_k(self):
        k, M = 5, 37
        count = apc_sum([Bitstream.constant(1, M, Encoding.BIPOLAR)] * k)
        assert count == k * M
        assert (2 * count - k * M) / M == k

    def test_worked_sum(self):
        # streams decoding to 0.4, -0.2, 0.6 sum to 0.8 exactly
        s1 = bipolar("1111111000")  # 7 ones
        s2 = bipolar("1100110000")  # 4 ones
        s3 = bipolar("1111111100")  # 8 ones
        assert (decode(s1), decode(s2), decode(s3)) == (0.4, -0.2, 0.6)
        count = apc_sum([s1, s2, s3])
        assert count == 19
        assert (2 * count - 3 * 10) / 10 == 0.8

    def test_single_stream(self):
        s = sng_encode(0.21, 1000, Encoding.BIPOLAR, KEY)
        assert (2 * apc_sum([s]) - 1000) / 1000 == decode(s)

    @given(st.integers(1, 6), st.integers(1, 80), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_exactness_in_rationals(self, k, M, seed):
        gen = np.random.default_rng(seed)
        streams = [
            Bitstream.from_bits(gen.integers(0, 2, M), Encoding.BIPOLAR) for _ in range(k)
        ]
        lhs = Fraction(2 * apc_sum(streams) - k * M, M)
        rhs = sum(Fraction(2 * popcount(s) - M, M) for s in streams)
        assert lhs == rhs


class TestDotProductSc:
    def test_identity_case_exact(self):
        # w = +1 stream, x = s, b = -1 stream: result is decode(s) - 1
        M = 64
        s = Bitstream.constant(1, M, Encoding.BIPOLAR)  # decode 1.0
        ones = Bitstream.constant(1, M, Encoding.BIPOLAR)
        zeros = Bitstream.constant(0, M, Encoding.BIPOLAR)
        out = dot_product_sc([ones], [s], zeros, AccumulationMode.APC, KEY)
        assert out == decode(s) - 1.0 == 0.0

    def test_constructed_zero(self):
        # w decodes (1, -1), x decodes (1, 1), b decodes 0 -> w.x + b = 0
        M = 10
        w = [Bitstream.constant(1, M, Encoding.BIPOLAR), Bitstream.constant(0, M, Encoding.BIPOLAR)]
        x = [Bitstream.constant(1, M, Encoding.BIPOLAR), Bitstream.constant(1, M, Encoding.BIPOLAR)]
        b = bipolar("1111100000")  # decode 0
        assert dot_product_sc(w, x, b, AccumulationMode.APC, KEY) == 0.0

    def test_random_instance_accuracy(self):
        n, M = 8, 2**16
        gen = np.random.default_rng(7)
        wv = gen.uniform(-1, 1, n)
        xv = gen.uniform(-1, 1, n)
        bv = float(gen.uniform(-1, 1))
        w = [sng_encode(wv[j], M, Encoding.BIPOLAR, KEY.substream("w", 0, j)) for j in range(n)]
        x = [sng_encode(xv[j], M, Encoding.BIPOLAR, KEY.substream("x", 0, j)) for j in range(n)]
        b = sng_encode(bv, M, Encoding.BIPOLAR, KEY.substream("b", 0))
        out = dot_product_sc(w, x, b, AccumulationMode.APC, KEY.substream("sel", 0))
        assert abs(out - (wv @ xv + bv)) < 0.05

    def test_mux_mode_scales_by_term_count(self):
        M = 50_000
        ones = Bitstream.constant(1, M, Encoding.BIPOLAR)
        out = dot_product_sc(
            [ones, ones], [ones, ones], ones, AccumulationMode.MUX, KEY.substream("m")
        )
        assert abs(out - 3.0) < 0.05  # 1 + 1 + 1

    def test_scale_factor_applied(self):
        M = 16
        ones = Bitstream.constant(1, M, Encoding.BIPOLAR)
        out = dot_product_sc([ones], [ones], ones, AccumulationMode.APC, KEY, scale=4.0)
        assert out == 8.0

    def test_dimension_mismatch(self):
        s = Bitstream.constant(1, 8, Encoding.BIPOLAR)
        with pytest.raises(StreamMismatchError):
            dot_product_sc([s, s], [s], s, AccumulationMode.APC, KEY)
        with pytest.raises(StreamMismatchError):
            dot_product_sc([], [], s, AccumulationMode.APC, KEY)

    def test_rejects_unipolar(self):
        u = Bitstream.constant(1, 8, Encoding.UNIPOLAR)
        b = Bitstream.constant(1, 8, Encoding.BIPOLAR)
        with pytest.raises(StreamMismatchError):
            dot_product_sc([u], [u], b, AccumulationMode.APC, KEY)
        # A unipolar bias is refused by the same rule, with all-unipolar terms too.
        for w in (b, u):
            with pytest.raises(StreamMismatchError, match="dot_product_sc inputs disagree: .* / bipolar, got 8 / unipolar"):
                dot_product_sc([w], [w], u, AccumulationMode.APC, KEY)

    def test_rms_error_halves_per_quadrupled_M(self):
        # log-log slope of RMS preactivation error vs M is -0.5 +/- 0.15
        n = 4
        gen = np.random.default_rng(3)
        wv = gen.uniform(-1, 1, n)
        xv = gen.uniform(-1, 1, n)
        bv = float(gen.uniform(-1, 1))
        truth = wv @ xv + bv
        Ms = [2**8, 2**10, 2**12, 2**14, 2**16]
        rms = []
        for mi, M in enumerate(Ms):
            errs = []
            for t in range(64):
                key = KEY.derive(mi, t)
                w = [sng_encode(wv[j], M, Encoding.BIPOLAR, key.substream("w", 0, j)) for j in range(n)]
                x = [sng_encode(xv[j], M, Encoding.BIPOLAR, key.substream("x", 0, j)) for j in range(n)]
                b = sng_encode(bv, M, Encoding.BIPOLAR, key.substream("b", 0))
                errs.append(dot_product_sc(w, x, b, AccumulationMode.APC, key) - truth)
            rms.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(Ms), np.log(rms), 1)[0]
        assert -0.65 <= slope <= -0.35
        assert all(a > b for a, b in zip(rms, rms[1:]))


class TestCounting:
    def test_tallies_and_isolation(self):
        a = unipolar("1100")
        with counting() as counts:
            and_mult(a, a)
        assert counts.and_ops == 4
        assert counts.total == 4
        # outside the context nothing is tallied
        and_mult(a, a)
        assert counts.and_ops == 4

    def test_dot_product_counts(self):
        n, M = 3, 16
        ones = Bitstream.constant(1, M, Encoding.BIPOLAR)
        with counting() as c_apc:
            dot_product_sc([ones] * n, [ones] * n, ones, AccumulationMode.APC, KEY)
        assert c_apc.xnor_ops == n * M
        assert c_apc.apc_bit_adds == n * M * math.ceil(math.log2(n * M + 2))
        assert c_apc.mux_select_ops == 0
        with counting() as c_mux:
            dot_product_sc([ones] * n, [ones] * n, ones, AccumulationMode.MUX, KEY)
        assert c_mux.xnor_ops == n * M
        assert c_mux.mux_select_ops == n * M
        assert c_mux.apc_bit_adds == 0

    @pytest.mark.parametrize(
        "m, width",
        [(0, 1), (1, 2), (2, 2), (2**53 - 2, 53), (2**53 - 1, 54), (2**64, 65)],
    )
    def test_accumulator_width_exact(self, m, width):
        # smallest w with 2^w >= m + 2, including where float log2 rounds
        assert accumulator_width(m) == width
        assert 2**width >= m + 2 > 2 ** (width - 1)
