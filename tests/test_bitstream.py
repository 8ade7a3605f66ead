import math
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    AccumulationMode,
    Activation,
    Bitstream,
    Encoding,
    EncodingRangeError,
    ReferenceNetwork,
    ScnnConfig,
    StreamFormatError,
    StreamKey,
    binarize_network,
    decode,
    from_hex_line,
    from_hex_lines,
    popcount,
    sng_encode,
    to_hex_line,
    to_hex_lines,
)
from scbnn import bitstream
from scbnn.bitstream import _DRAW_BLOCK, encode_many
from test_cli import CORRUPTIONS

KEY = StreamKey(0xC0FFEE)


class TestDecode:
    def test_worked_example_unipolar(self):
        s = Bitstream.from_bits("0100110100", Encoding.UNIPOLAR)
        assert decode(s) == 0.4

    def test_worked_example_bipolar(self):
        s = Bitstream.from_bits("1011011101", Encoding.BIPOLAR)
        assert decode(s) == 0.4

    def test_all_zeros_bipolar_is_minus_one(self):
        for M in (1, 7, 64, 129):
            assert decode(Bitstream.constant(0, M, Encoding.BIPOLAR)) == -1.0

    @given(st.integers(1, 300), st.data())
    @settings(max_examples=60)
    def test_range_closure(self, M, data):
        ones = data.draw(st.integers(0, M))
        bits = [1] * ones + [0] * (M - ones)
        for enc in Encoding:
            v = decode(Bitstream.from_bits(bits, enc))
            lo, hi = enc.value_range
            assert lo <= v <= hi


class TestSngEncode:
    def test_boundary_bipolar_one_is_all_ones(self):
        for M in (1, 10, 100):
            for seed in (0, 1, 99):
                s = sng_encode(1.0, M, Encoding.BIPOLAR, StreamKey(seed))
                assert popcount(s) == M

    def test_boundary_unipolar_zero_is_all_zeros(self):
        s = sng_encode(0.0, 50, Encoding.UNIPOLAR, KEY)
        assert popcount(s) == 0

    def test_expected_ones_count(self):
        # x=0.4 unipolar: ones-count is Binomial(M, 0.4); mean over many keys
        # concentrates on 4 for M=10
        counts = [
            popcount(sng_encode(0.4, 10, Encoding.UNIPOLAR, KEY.substream("t", t)))
            for t in range(2000)
        ]
        se = math.sqrt(10 * 0.4 * 0.6 / 2000)
        assert abs(np.mean(counts) - 4.0) < 4 * se

    def test_binomial_concentration_large_M(self):
        # Binomial(10000, 0.5): ones within 3*sqrt(M/4) of 5000
        s = sng_encode(0.5, 10000, Encoding.UNIPOLAR, StreamKey(31337))
        assert abs(popcount(s) - 5000) <= 3 * math.sqrt(10000 * 0.25)

    def test_range_error_names_value_and_encoding(self):
        with pytest.raises(EncodingRangeError, match="1.5.*unipolar"):
            sng_encode(1.5, 10, Encoding.UNIPOLAR, KEY)
        with pytest.raises(EncodingRangeError, match="-0.1"):
            sng_encode(-0.1, 10, Encoding.UNIPOLAR, KEY)
        with pytest.raises(EncodingRangeError):
            sng_encode(-1.2, 10, Encoding.BIPOLAR, KEY)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            sng_encode(0.5, 0, Encoding.UNIPOLAR, KEY)

    def test_determinism(self):
        a = sng_encode(0.3, 777, Encoding.BIPOLAR, KEY.substream("weights", 3, 4))
        b = sng_encode(0.3, 777, Encoding.BIPOLAR, KEY.substream("weights", 3, 4))
        assert a == b

    def test_determinism_across_threads(self):
        def job(_):
            return sng_encode(0.3, 999, Encoding.BIPOLAR, KEY.substream("w", 1, 2))

        with ThreadPoolExecutor(max_workers=4) as pool:
            streams = list(pool.map(job, range(16)))
        assert all(s == streams[0] for s in streams)

    def test_distinct_substreams_differ(self):
        a = sng_encode(0.5, 512, Encoding.UNIPOLAR, KEY.substream("weights", 0, 0))
        b = sng_encode(0.5, 512, Encoding.UNIPOLAR, KEY.substream("weights", 0, 1))
        c = sng_encode(0.5, 512, Encoding.UNIPOLAR, KEY.substream("inputs", 0, 0))
        assert a != b and a != c and b != c

    def test_substreams_uncorrelated(self):
        a = sng_encode(0.5, 4096, Encoding.UNIPOLAR, KEY.substream("a")).bit_array()
        b = sng_encode(0.5, 4096, Encoding.UNIPOLAR, KEY.substream("b")).bit_array()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.06  # ~4/sqrt(4096)

    def test_unbiasedness(self):
        x = 0.37
        vals = [
            decode(sng_encode(x, 256, Encoding.BIPOLAR, KEY.substream("u", t)))
            for t in range(3000)
        ]
        se = 1.0 / (2 * math.sqrt(256)) / math.sqrt(3000)
        assert abs(np.mean(vals) - x) < 4 * se

    def test_variance_bound(self):
        vals = np.array(
            [
                decode(sng_encode(0.5, 400, Encoding.UNIPOLAR, KEY.substream("v", t)))
                for t in range(4000)
            ]
        )
        assert vals.var() <= 1.1 / (4 * 400)


def generator_rows(probs, keys, M):
    """Per-stream oracle: the packed bits of ``Generator(Philox(key=k)).random(M) < p``."""
    return np.array([
        np.packbits(np.random.Generator(np.random.Philox(key=k)).random(M) < p)
        for p, k in zip(probs, keys)
    ])


# Key words anywhere in [0, 2^64), often close enough to 2^64 that the Weyl
# steps between rounds wrap.
key_words = st.integers(0, 2**64 - 1) | st.integers(2**64 - 2**62, 2**64 - 1)
edge_probs = st.sampled_from([0.0, 1.0, 2**-53, 1 - 2**-53, 0.5 + 2**-53]) | st.floats(0.0, 1.0)


class TestArrayPhilox:
    """The numpy Philox4x64-10 path of `encode_many` against numpy's own
    generator, and against the re-keyed path."""

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.tuples(key_words, key_words), min_size=1, max_size=40),
        M=st.integers(1, 2 * bitstream._ARRAY_MAX_M),
        data=st.data(),
    )
    def test_rows_are_generator_draws(self, keys, M, data):
        keys = np.array(keys, dtype=np.uint64)
        probs = np.array(data.draw(st.lists(edge_probs, min_size=len(keys), max_size=len(keys))))
        blocks = (M + 3) // 4
        out = np.empty((len(keys), (M + 7) // 8), dtype=np.uint8)
        # Chunks of 16 blocks, so a few dozen streams cross chunk boundaries.
        with warnings.catch_warnings(), mock.patch.object(bitstream, "_ARRAY_BLOCKS", 16):
            warnings.simplefilter("error")
            raw = bitstream._philox_raw(keys, blocks)
            bitstream._encode_array(probs, keys, M, out)
        for row, k in zip(raw, keys):
            assert np.array_equal(row, np.random.Philox(key=k).random_raw(4 * blocks))
        assert np.array_equal(out, generator_rows(probs, keys, M))

    def test_probabilities_on_the_draws(self):
        # p equal to draw t gives bit t = 0, the next double above it bit 1:
        # the comparison is strict, and the threshold rounds p * 2^53 up.
        S, M = 600, 5
        keys = KEY.substream_keys([("edge", np.arange(S), 0)])
        draws = np.array([np.random.Generator(np.random.Philox(key=k)).random(M) for k in keys])
        on_draw = draws[np.arange(S), np.arange(S) % M]
        for probs in (on_draw, np.nextafter(on_draw, 1.0)):
            out = np.empty((S, 1), dtype=np.uint8)
            bitstream._encode_array(probs, keys, M, out)
            assert np.array_equal(out, generator_rows(probs, keys, M))

    @pytest.mark.parametrize("M", sorted({1, 3, 4, 13, 16, bitstream._ARRAY_MAX_M, 32}))
    def test_paths_agree_across_chunks(self, M):
        S = 2 * (bitstream._ARRAY_BLOCKS // ((M + 3) // 4)) + 5
        gen = np.random.default_rng(M)
        keys = gen.integers(0, 2**64, (S, 2), dtype=np.uint64, endpoint=False)
        keys[:4] = [[2**64 - 1, 2**64 - 1], [0, 0], [2**64 - 1, 0], [0, 2**64 - 1]]
        probs = gen.random(S)
        probs[:5] = [0.0, 1.0, 2**-53, 1 - 2**-53, 0.5 + 2**-53]
        array, rekeyed = (np.empty((S, (M + 7) // 8), dtype=np.uint8) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bitstream._encode_array(probs, keys, M, array)
        bitstream._encode_rekeyed(probs, keys, 0, M, rekeyed)
        assert np.array_equal(array, rekeyed)

    def test_dispatch(self):
        # Short, wide calls take the array path; narrow or long ones the
        # re-keyed C Philox.
        wide, narrow = bitstream._ARRAY_MIN_S, bitstream._ARRAY_MIN_S - 1
        cases = [(wide, 1, True), (wide, bitstream._ARRAY_MAX_M, True),
                 (narrow, 1, False), (wide, bitstream._ARRAY_MAX_M + 1, False)]
        for S, M, array in cases:
            with mock.patch.object(bitstream, "_encode_array") as a, \
                    mock.patch.object(bitstream, "_encode_rekeyed") as r:
                encode_many(np.full(S, 0.5), np.zeros((S, 2), dtype=np.uint64), M)
            assert (a.called, r.called) == (array, not array)

    def test_memory_is_flat(self):
        # One binarize draw of a 4096 x 16 layer: the array path holds one
        # chunk of blocks at a time, about 1.4 MB above the output.
        S = 65_552
        probs = np.full(S, 0.5)
        keys = KEY.substream_keys([("w", np.arange(S), 0)])
        tracemalloc.start()
        try:
            out = encode_many(probs, keys, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (S, 1)
        assert peak - out.nbytes < 2 * 2**20


class TestEncodeBlocks:
    """`encode_blocks` yields the one-shot draws of `encode_many` one
    _DRAW_BLOCK of clocks at a time: a stream resumes at clock lo from a
    Philox re-keyed with the counter at lo/4."""

    @pytest.mark.parametrize("M", [1, 7, 24, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 3, 3 * _DRAW_BLOCK + 5])
    @pytest.mark.parametrize("S", [1, 3, 600])
    @pytest.mark.parametrize("enc", list(Encoding))
    def test_blocks_equal_one_shot_draw(self, enc, S, M):
        gen = np.random.default_rng(S * M)
        values = gen.uniform(*enc.value_range, S)
        probs = values if enc is Encoding.UNIPOLAR else (values + 1.0) / 2.0
        keys = KEY.substream_keys([(enc.value, np.arange(S), M)])
        blocks = list(bitstream.encode_blocks(probs, keys, M))
        widths = [min(_DRAW_BLOCK, M - lo) for lo in range(0, M, _DRAW_BLOCK)]
        assert [b.shape for b in blocks] == [(S, (w + 7) // 8) for w in widths]
        rows = np.concatenate(blocks, axis=1)
        # Against the one-shot draw of the first, a middle and the last stream.
        picked = [0, S // 2, S - 1]
        assert np.array_equal(rows[picked], generator_rows(probs[picked], keys[picked], M))
        assert np.array_equal(rows[picked], encode_many(probs[picked], keys[picked], M))

    def test_arguments_are_checked_when_called(self):
        keys = KEY.substream_keys([("w", np.arange(2), 0)])
        with pytest.raises(EncodingRangeError):
            bitstream.encode_blocks([0.5, 1.5], keys, 8)
        with pytest.raises(ValueError, match="key"):
            bitstream.encode_blocks([0.5], keys, 8)
        with pytest.raises(ValueError):
            bitstream.encode_blocks([0.5, 0.5], keys, 0)


    @pytest.mark.parametrize("M", [64, 2 * _DRAW_BLOCK + 9])
    def test_threads_with_distinct_keys(self, M):
        # One key per job: a re-keyed Philox shared between threads would
        # let one job's key or counter leak into another's draws.
        jobs = 12
        keys = KEY.substream_keys([("job", np.arange(jobs)[:, None], np.arange(4))]).reshape(jobs, 4, 2)
        probs = np.random.default_rng(M).random((jobs, 4))
        serial = [encode_many(p, k, M) for p, k in zip(probs, keys)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(encode_many, probs, keys, [M] * jobs))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_interleaved_iterators(self):
        # Two draws advanced in turn share one thread's re-keyed Philox
        # across their yields; each must still draw its own streams.
        M = 2 * _DRAW_BLOCK + 9
        calls = [([0.25, 0.5, 0.9], KEY.substream_keys([("a", np.arange(3), 0)])),
                 ([0.7, 0.1], KEY.substream_keys([("b", np.arange(2), 5)]))]
        alone = [list(bitstream.encode_blocks(p, k, M)) for p, k in calls]
        together = list(zip(*(bitstream.encode_blocks(p, k, M) for p, k in calls)))
        assert len(together) == len(alone[0]) == 3
        for c in range(2):
            for blocks, block in zip(alone[c], (pair[c] for pair in together)):
                assert np.array_equal(blocks, block)


class TestRawWords:
    """A stream that fills its block alone (width > _DRAW_BLOCK / 2) is
    drawn as raw Philox words against ceil(p * 2^53) << 11; shorter ones
    share a block through `Generator.random`. Both give the same bits."""

    EDGES = [0.0, 5e-324, 0.25, 0.5, 1 - 2**-53, 1.0, 12345 * 2**-53 + 0.375]

    @pytest.mark.parametrize("M", [_DRAW_BLOCK // 2, _DRAW_BLOCK // 2 + 1, 2 * _DRAW_BLOCK + 9])
    def test_edge_probabilities(self, M):
        keys = KEY.substream_keys([("raw", np.arange(len(self.EDGES)), M)])
        probs = np.array(self.EDGES)
        assert (probs * 2.0**53)[-1] == int((probs * 2.0**53)[-1])
        expected = generator_rows(probs, keys, M)
        assert np.array_equal(encode_many(probs, keys, M), expected)
        width = min(M, _DRAW_BLOCK)
        first = np.empty((len(probs), (width + 7) // 8), dtype=np.uint8)
        bitstream._encode_rekeyed(probs, keys, 0, width, first)
        assert np.array_equal(first, expected[:, : first.shape[1]])

    @pytest.mark.parametrize("M", [_DRAW_BLOCK // 2 + 1, 2 * _DRAW_BLOCK + 9])
    def test_probabilities_on_the_draws(self, M):
        # p equal to draw t gives bit t = 0, the next double above it bit 1.
        S = 6
        keys = KEY.substream_keys([("on-draw", np.arange(S), M)])
        clocks = [0, 1, M // 2, M - 2, M - 1, min(_DRAW_BLOCK, M - 3)]
        draws = np.array([np.random.Generator(np.random.Philox(key=k)).random(M)[t] for k, t in zip(keys, clocks)])
        for probs, bit in ((draws, 0), (np.nextafter(draws, 1.0), 1)):
            rows = encode_many(probs, keys, M)
            assert np.array_equal(rows, generator_rows(probs, keys, M))
            assert [np.unpackbits(row, count=M)[t] for row, t in zip(rows, clocks)] == [bit] * S

    @pytest.mark.parametrize("M, raw", [(_DRAW_BLOCK // 2, False), (_DRAW_BLOCK // 2 + 1, True)])
    def test_switch(self, M, raw):
        # Spies on the one Generator the call builds: no draw state is kept between calls.
        keys, spies, real = KEY.substream_keys([("switch", np.arange(3), 0)]), [], np.random.Generator

        def spy(bit_gen):
            spies.append(mock.Mock(wraps=real(bit_gen)))
            return spies[-1]

        with mock.patch("numpy.random.Generator", spy):
            rows = encode_many([0.3, 0.6, 0.9], keys, M)
        assert len(spies) == 1 and spies[0].random.called is not raw
        assert np.array_equal(rows, generator_rows([0.3, 0.6, 0.9], keys, M))


class PhiloxWords:
    """Raw 64-bit Philox words under one key, split into 32-bit halves as
    numpy's `next_uint32` splits them: low half first, the high half kept
    for the next 32-bit draw, which whole-word draws do not take."""

    def __init__(self, key: StreamKey):
        self.bit_gen, self.half = np.random.Philox(key=key._philox_key()), None

    def word(self) -> int:
        return int(self.bit_gen.random_raw())

    def double(self) -> float:
        return (self.word() >> 11) * 2.0**-53

    def uint32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self.word()
        self.half = word >> 32
        return word & 0xFFFF_FFFF


class TestGeneratorCanaries:
    """numpy keeps bit-generator streams stable across releases, but not the
    output of `Generator` methods, and the pinned bytes depend on four of
    them. Each test checks one against its raw-word form, so a numpy that
    changed a method fails the test that names it."""

    KEY = StreamKey(0xCA4A27, "canary", 3)

    def test_random(self):
        # bnn.binarize draws random(); _encode_rekeyed fills stacked short
        # streams with random(out=).
        gen, raw = self.KEY.generator(), PhiloxWords(self.KEY)
        drawn = [gen.random() for _ in range(5)]
        rows = np.empty((2, 7))
        for row in rows:
            gen.random(out=row)
        expected = [raw.double() for _ in range(19)]
        assert drawn + rows.reshape(-1).tolist() == expected, "Generator.random is no longer (raw >> 11) * 2^-53"

    def _hidden_draws(self, n=3, units=4, a=-2.5, b=4.0):
        """choice then uniform of n values per unit, as netcore._draw_hidden
        interleaves them: from the Generator and from raw words."""
        gen, raw = self.KEY.generator(), PhiloxWords(self.KEY)
        drawn, expected = [], []
        for _ in range(units):
            drawn.append((gen.choice([-1.0, 1.0], size=n).tolist(), gen.uniform(a, b, size=n).tolist()))
            expected.append((
                [1.0 if raw.uint32() >> 31 else -1.0 for _ in range(n)],
                [a + (b - a) * raw.double() for _ in range(n)],
            ))
        return drawn, expected

    def test_choice(self):
        # An odd n leaves a half buffered, and the next unit's choice takes it.
        drawn, expected = self._hidden_draws()
        assert [c for c, _ in drawn] == [c for c, _ in expected], \
            "Generator.choice([-1.0, 1.0]) no longer takes the top bit of successive 32-bit halves"

    def test_uniform(self):
        drawn, expected = self._hidden_draws()
        assert [u for _, u in drawn] == [u for _, u in expected], \
            "Generator.uniform(a, b) is no longer a + (b - a) * (raw >> 11) * 2^-53 on whole words"

    def test_integers(self):
        # scgates._mux_select draws integers(0, k) for k not a power of two.
        k, raw = 3, PhiloxWords(self.KEY)
        threshold = (2**32 - k) % k
        expected = []
        for _ in range(1000):
            product = raw.uint32() * k
            while product & 0xFFFF_FFFF < threshold:
                product = raw.uint32() * k
            expected.append(product >> 32)
        assert self.KEY.generator().integers(0, k, size=1000).tolist() == expected, \
            "Generator.integers(0, 3) is no longer Lemire's multiply-and-reject on 32-bit halves"


class TestKeyLayout:
    """`substream_keys` is the seed-free `key_layout` folded under the seed
    with uint64 arrays; that fold must equal the scalar Python-int one."""

    def test_array_splitmix_equals_scalar(self):
        values = np.random.default_rng(15).integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
        values = np.concatenate([values, np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bitstream._splitmix64_array(values.copy())
        assert got.tolist() == [bitstream._splitmix64(v) for v in values.tolist()]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x5EED])
    def test_fold_seeds_equals_philox_key(self, seed):
        gen = np.random.default_rng(seed % 997)
        i, j = gen.integers(0, 2**64, (2, 1003), dtype=np.uint64, endpoint=False)
        i[:3], j[:3] = [0, 2**63, 2**64 - 1], [2**63, 0, 2**63]
        key = StreamKey(seed)
        layout = bitstream.key_layout([("weights", i, j), ("bias", 2**63, 0)])
        layout.flags.writeable = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = bitstream.fold_seeds(layout, seed)
        expected = [key.substream("weights", a, b)._philox_key() for a, b in zip(i.tolist(), j.tolist())]
        expected.append(key.substream("bias", 2**63)._philox_key())
        assert np.array_equal(keys, np.stack(expected))
        assert np.array_equal(keys, key.substream_keys([("weights", i, j), ("bias", 2**63, 0)]))

    def test_fold_seeds_is_substream_keys_per_seed(self):
        groups = [("weights", np.arange(4)[:, None], np.arange(3)), ("bias", 2**63, 0)]
        seeds = np.array([[0, 2**64 - 1, 7], [2**63, 1, 0x5EED]], dtype=np.uint64)
        keys = bitstream.fold_seeds(bitstream.key_layout(groups), seeds)
        assert keys.shape == (2, 3, 13, 2)
        for index in np.ndindex(seeds.shape):
            assert np.array_equal(keys[index], StreamKey(int(seeds[index])).substream_keys(groups))

    @pytest.mark.parametrize("indices", [(), (3,), (2**64 - 1, 0, 7)])
    def test_derive_seeds_are_derived_keys(self, indices):
        key = StreamKey(0x5EED, "trial", 4, 2**63)
        seeds = key.derive_seeds(*indices, rows=300)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [key.derive(*indices, p).seed for p in range(300)]


class TestPopcount:
    def test_worked_example_count(self):
        assert popcount(Bitstream.from_bits("0100110100", Encoding.UNIPOLAR)) == 4

    def test_word_boundary(self):
        assert popcount(Bitstream.constant(1, 65, Encoding.UNIPOLAR)) == 65


class TestSigns:
    """A +/-1 vector is a bipolar stream: bit 1 is +1."""

    def test_from_bits_and_signs_agree(self):
        v = Bitstream.from_bits("10110", Encoding.BIPOLAR)
        assert np.array_equal(v.signs(), [1, -1, 1, 1, -1])
        assert Bitstream.from_signs([1, -1, 1, 1, -1]) == v

    def test_rejects_non_signs(self):
        with pytest.raises(ValueError):
            Bitstream.from_signs([1, 0, -1])

    @pytest.mark.parametrize("make, message", [
        (lambda: Bitstream(np.zeros(0, dtype=np.uint8), 0, Encoding.UNIPOLAR), "stream length must be >= 1, got 0"),
        (lambda: Bitstream(np.zeros(2, dtype=np.uint8), 8, Encoding.UNIPOLAR),
         "packed storage has 2 bytes, expected 1 for length 8"),
        (lambda: Bitstream.from_bits([[0, 1]], Encoding.BIPOLAR), "bits must be a flat sequence of 0s and 1s"),
        (lambda: Bitstream.constant(2, 8, Encoding.BIPOLAR), "constant bit must be 0 or 1, got 2"),
        # A set pad bit made popcount 8 and decode 3.0 for a 4-bit stream.
        (lambda: Bitstream(np.array([0xFF], dtype=np.uint8), 4, Encoding.BIPOLAR),
         "packed storage has nonzero pad bits after length 4"),
        (lambda: Bitstream(np.zeros(1, dtype=np.int64), 8, Encoding.BIPOLAR),
         "packed storage is int64 of shape (1,), expected a uint8 array of ndim 1"),
        # A list was read for its dtype: AttributeError.
        (lambda: Bitstream([255], 8, Encoding.BIPOLAR), "packed storage is a list, expected a uint8 array of ndim 1"),
    ], ids=["zero-length", "byte-count", "not-flat", "constant-bit", "pad-bits", "not-uint8", "list"])
    def test_malformed_stream_is_refused(self, make, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            make()

    def test_popcount(self):
        assert popcount(Bitstream.from_bits("1" * 65, Encoding.BIPOLAR)) == 65


@st.composite
def hex_lines(draw, lengths=st.integers(1, 20)):
    """A canonical hex line with at most one change: a respelt length
    field, another tag, upper-case hex, a character inserted between the
    payload bytes, a payload digit turned into whitespace or a pad bit set;
    and whitespace around the line."""
    length = draw(lengths)
    payload = bytearray(draw(st.binary(min_size=(length + 7) // 8, max_size=(length + 7) // 8)))
    pad_mask = (1 << (-length % 8)) - 1
    payload[-1] &= 0xFF ^ pad_mask
    field, tag, digits = str(length), draw(st.sampled_from("ub")), payload.hex()
    change = draw(st.sampled_from(["none", "field", "tag", "upper", "insert", "space", "pad"]))
    if change == "field":
        # int() reads the first five as `length`.
        arabic = str(length).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        underscored = "_".join(str(length)) if length > 9 else f"0_{length}"
        field = draw(st.sampled_from(["+{}", "0{}", " {}", arabic, underscored, "{}.0", "-{}"])).format(length)
    elif change == "tag":
        tag = draw(st.sampled_from(["U", "", "x", "bb"]))
    elif change == "upper":
        digits = digits.upper()
    elif change == "insert":
        cut = 2 * draw(st.integers(0, len(digits) // 2))  # fromhex skips whitespace between bytes
        digits = digits[:cut] + draw(st.sampled_from([" ", "\t", "g", "00"])) + digits[cut:]
    elif change == "space":
        cut = draw(st.integers(0, len(digits) - 1))
        digits = digits[:cut] + draw(st.sampled_from([" ", "\t"])) + digits[cut + 1 :]
    elif change == "pad" and pad_mask:
        payload[-1] |= pad_mask
        digits = payload.hex()
    return draw(st.sampled_from(["{}", " {}", "{}\n", "\t{} "])).format(f"M:{field};enc:{tag};{digits}")


@st.composite
def hex_batches(draw):
    """(lines, M, enc): canonical hex lines of M-bit `enc` streams, one of
    them perhaps replaced by a `hex_lines()` draw or changed by a
    `test_cli.CORRUPTIONS` entry; with enc None, their bare payloads.
    Whitespace around each."""
    M, enc = draw(st.integers(1, 20)), draw(st.sampled_from([*Encoding, None]))
    streams = draw(st.lists(st.lists(st.integers(0, 1), min_size=M, max_size=M), min_size=1, max_size=5))
    lines = [to_hex_line(Bitstream.from_bits(bits, enc or Encoding.BIPOLAR)) for bits in streams]
    change, j = draw(st.sampled_from(["none", "hex_lines", *sorted(CORRUPTIONS)])), draw(st.integers(0, len(lines) - 1))
    if change == "hex_lines":
        lines[j] = draw(hex_lines(st.just(M) | st.integers(1, 20)))
    elif change != "none":
        lines[j] = CORRUPTIONS[change](lines[j])
    if enc is None:
        lines = [line.rsplit(";", 1)[-1] if isinstance(line, str) else line for line in lines]
    space = st.sampled_from(["{}", " {}", "{}\n", "\t{} "])
    return [draw(space).format(line) if isinstance(line, str) else line for line in lines], M, enc


class TestHexLine:
    def test_format(self):
        s = Bitstream.from_bits("0100110100", Encoding.UNIPOLAR)
        assert to_hex_line(s) == "M:10;enc:u;4d00"

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=130), st.sampled_from(list(Encoding)))
    @settings(max_examples=80)
    def test_round_trip(self, bits, enc):
        s = Bitstream.from_bits(bits, enc)
        assert from_hex_line(to_hex_line(s)) == s

    @pytest.mark.parametrize(
        "line",
        [
            "M:10;enc:u",
            "length:10;enc:u;4d00",
            "M:ten;enc:u;4d00",
            "M:10;enc:x;4d00",
            "M:10;enc:u;4d0",
            "M:10;enc:u;4d0000",
            "M:10;enc:u;4d01",  # nonzero pad bits
        ],
    )
    def test_malformed(self, line):
        with pytest.raises(StreamFormatError):
            from_hex_line(line)

    @given(hex_lines() | st.text("M:;encub0123456789abcdef +_٤", max_size=20))
    @settings(max_examples=500)
    def test_parses_only_canonical_lines(self, line):
        """A line either fails with StreamFormatError or is the canonical
        hex line of what it parses to, up to surrounding whitespace and the
        case of its hex digits."""
        try:
            s = from_hex_line(line)
        except StreamFormatError:
            return
        assert to_hex_line(s).lower() == line.strip().lower()

    @given(hex_batches())
    @settings(max_examples=400)
    def test_batch_agrees_with_each_line(self, batch):
        """`from_hex_lines` returns the rows `from_hex_line` gives, or names
        the first line `from_hex_line` rejects or reads with another M or
        encoding. A bare row is read as the payload of a line of M bits."""
        lines, M, enc = batch

        def fault(line):
            if enc is None and isinstance(line, str):
                line = f"M:{M};enc:b;{line.strip()}"
            try:
                s = from_hex_line(line)
            except StreamFormatError:
                return True
            return s.length != M or (enc is not None and s.encoding is not enc)

        bad = [j for j, line in enumerate(lines) if fault(line)]
        if bad:
            with pytest.raises(StreamFormatError) as exc:
                from_hex_lines(lines, M, enc)
            assert exc.value.index == bad[0]
        else:
            rows = from_hex_lines(lines, M, enc)
            oracle = [line if enc else f"M:{M};enc:b;{line.strip()}" for line in lines]
            assert np.array_equal(rows, np.stack([from_hex_line(line).bits for line in oracle]))

    @given(st.lists(st.binary(min_size=2, max_size=2), max_size=4), st.sampled_from([Encoding.BIPOLAR, None]))
    def test_batch_round_trip(self, payloads, enc):
        rows = bitstream.zero_pad_bits(np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(-1, 2), 13)
        lines = to_hex_lines(rows, 13, enc)
        assert lines == [("" if enc is None else "M:13;enc:b;") + row.tobytes().hex() for row in rows]
        assert np.array_equal(from_hex_lines(lines, 13, enc), rows)


class TestStreamKey:
    def test_derive_changes_master(self):
        k = StreamKey(1)
        assert k.derive(0) != k.derive(1)
        assert k.derive(2, 3) != k.derive(3, 2)

    def test_derive_deterministic(self):
        assert StreamKey(5).derive(1, 2, 3) == StreamKey(5).derive(1, 2, 3)

    @pytest.mark.parametrize("seed", [2**64, -1, -(2**64)])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit range"):
            StreamKey(seed)

    def test_64_bit_seeds_accepted(self):
        assert StreamKey(0).derive(1) != StreamKey(2**64 - 1).derive(1)

    @pytest.mark.parametrize("word, make", [
        ("i", lambda v: StreamKey(1, "w", v)._philox_key().tolist()),
        ("j", lambda v: StreamKey(1, "w", 0, v)._philox_key().tolist()),
        ("indices", lambda v: StreamKey(7).derive(3, v)._philox_key().tolist()),
        pytest.param("i", lambda v: StreamKey(1).substream_keys([("w", v, 0)]).tolist(), id="i-substream_keys"),
        pytest.param("j", lambda v: StreamKey(1).substream_keys([("w", 0, v)]).tolist(), id="j-substream_keys"),
        ("seed", lambda v: StreamKey(v).substream("w", 1)._philox_key().tolist()),
    ])
    def test_every_folded_word_is_a_64_bit_word(self, word, make):
        # Folds mask each word to 64 bits, so -1 would be read as 2^64 - 1
        # and 2^64 + 5 as 5; a float or a bool would be truncated to an int.
        assert make(2**64 - 1) != make(0)
        for value in (np.uint64(3), np.int64(3), np.uint8(3)):
            assert make(value) == make(3), f"{value!r} folds unlike the Python int 3"
        for value in (-1, 2**64, 2**64 + 5, 1.5, True, np.array([-1])):
            with pytest.raises(ValueError, match=rf"^{word} .*64-bit range \[0, 2\^64\)$"):
                make(value)

    @pytest.mark.parametrize("named", [StreamKey(5, "trialA", 1, 2), StreamKey(5).substream("trialB", 3, 4),
                                       StreamKey(5).substream("p")])
    def test_a_key_that_names_a_stream_is_no_master_key(self, named):
        # Only the seed of a master key is read where one is needed, so the
        # role, i and j of a named key would be dropped without a word.
        net = ReferenceNetwork(np.array([[0.5], [-0.75]]), np.array([0.25, -0.5]), np.array([1.0, -0.5]),
                               Activation.TANH, 1.0)
        message = rf"^{re.escape(repr(named))} names a stream, not a master key$"
        for refused in (
            lambda: ScnnConfig(64, named, AccumulationMode.APC),
            lambda: ScnnConfig(64, named, AccumulationMode.MUX),
            lambda: binarize_network(net, named),
            lambda: named.substream("q"),
            lambda: named.substream_keys([("w", 0, 0)]),
        ):
            with pytest.raises(ValueError, match=message):
                refused()
        assert named.derive(1) != StreamKey(5).derive(1)  # derive folds role, i and j

    def test_exact_rational_decode_semantics(self):
        # decode is a single integer quotient: matches Fraction exactly
        for bits in ("10110", "0011001", "1" * 13):
            s = Bitstream.from_bits(bits, Encoding.BIPOLAR)
            ones = popcount(s)
            assert decode(s) == float(Fraction(2 * ones - s.length, s.length))
