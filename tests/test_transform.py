import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    Activation,
    BinaryNetwork,
    ChunkError,
    Encoding,
    ScnnStreamBundle,
    bnn_to_scnn,
    chunk_bits,
    decode,
    join_bits,
    preactivation_equivalence_check,
    scnn_to_bnn,
    to_hex_line,
)
from scbnn.bitstream import Bitstream
from scbnn.scgates import apc_sum, counting, xnor_mult
from scbnn.transform import bundle_from_dict, bundle_to_dict


def random_bnet(gen, m, N):
    return BinaryNetwork(
        np.packbits(np.array([gen.choice([-1, 1], m) for _ in range(N)]) == 1, axis=1),
        m,
        gen.choice([-1, 1], N),
        gen.normal(size=N),
        Activation.SIGMOID,
    )


def weight_rows(bnet):
    """A binary network's weight rows as m-bit bipolar streams."""
    return [Bitstream(row, bnet.m, Encoding.BIPOLAR) for row in bnet.binary_weights]


def all_plus_one(N, m):
    """The packed weight array of N rows of m +1 values."""
    return np.packbits(np.ones((N, m), dtype=np.uint8), axis=1)


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def sliced(v, M):
    """The M-bit bipolar chunks of `v`, cut from its unpacked bits."""
    bits = v.bit_array()
    return [Bitstream.from_bits(bits[j : j + M], Encoding.BIPOLAR) for j in range(0, v.length, M)]


def chunked(v, M):
    """`chunk_bits` of one vector, its rows as M-bit bipolar streams."""
    return [Bitstream(row, M, Encoding.BIPOLAR) for row in chunk_bits(v.bits, v.length, M)]


def one_unit_bundle(streams):
    """A one-unit bundle with `streams` as its weight streams and a +1 bias."""
    M = streams[0].length
    return ScnnStreamBundle(
        M,
        np.stack([s.bits for s in streams])[None],
        Bitstream.constant(1, M, Encoding.BIPOLAR).bits[None],
        np.ones(1),
        Activation.SIGMOID,
    )


def joined(streams):
    """`scnn_to_bnn` of `streams` as one unit's weight streams."""
    return weight_rows(scnn_to_bnn(one_unit_bundle(streams)))[0]


def n_chunks(m, M):
    """The number of chunks `chunk_bits` cuts an m-bit vector of ones into."""
    return chunk_bits(np.packbits(np.ones(m, dtype=np.uint8)), m, M).shape[0]


class TestChunkBits:
    def test_valid(self):
        assert n_chunks(12, 3) == 4

    def test_non_divisor_rejected(self):
        with pytest.raises(ChunkError, match="does not divide"):
            n_chunks(10, 3)

    def test_degenerate(self):
        assert n_chunks(5, 5) == 1
        assert n_chunks(5, 1) == 5

    # A float or bool length that passed the divisibility test ended in a TypeError.
    @pytest.mark.parametrize("m, M", [(0, 1), (4, 0), (4, -2), (8, 2.0), (8, True), (8.5, 8.5)])
    def test_non_positive_rejected(self, m, M):
        with pytest.raises(ChunkError, match=rf"^need integers m >= 1 and M >= 1, got m={m}, M={M}$"):
            chunk_bits(np.zeros(1, dtype=np.uint8), m, M)

    @pytest.mark.parametrize("cut, message", [
        # Each was read as if well formed: a chunk of zeros invented, 12 bits read from 8-bit chunks.
        (lambda ff: chunk_bits(ff, 16, 8), "vector array has 1 bytes, expected 2 for length 16"),
        (lambda ff: join_bits(np.vstack([ff, ff]), 12), "chunk array has 1 bytes, expected 2 for length 12"),
        (lambda ff: chunk_bits(ff, 4, 2), "vector array has nonzero pad bits after length 4"),
        (lambda ff: join_bits(ff, 4), "chunk array has nonzero pad bits after length 4"),
        # A list was read for its dtype: AttributeError.
        (lambda ff: chunk_bits(ff.tolist(), 8, 4), "vector array is a list, expected a uint8 array of ndim >= 1"),
        (lambda ff: join_bits(ff.tolist(), 8), "chunk array is a list, expected a uint8 array of ndim >= 1"),
    ], ids=["chunk-width", "join-width", "chunk-pad-bits", "join-pad-bits", "chunk-list", "join-list"])
    def test_malformed_packed_rows_rejected(self, cut, message):
        with pytest.raises(ChunkError, match=rf"^{re.escape(message)}$"):
            cut(np.array([[0xFF]], dtype=np.uint8))


class TestSplitJoin:
    """Chunking is `chunk_bits`, joining is `scnn_to_bnn`, and the chunks'
    bits end to end are the oracle for the join."""

    def test_worked_example(self):
        x = Bitstream.from_signs([1, -1, 1, 1, 1, -1])
        streams = chunked(x, 3)
        assert len(streams) == 2
        assert decode(streams[0]) == pytest.approx(1 / 3)
        assert decode(streams[1]) == pytest.approx(1 / 3)

    def test_single_chunk_is_mean(self):
        signs = [1, -1, -1, 1, 1, 1, -1, 1]
        x = Bitstream.from_signs(signs)
        (s,) = chunked(x, 8)
        assert decode(s) == sum(signs) / 8

    def test_one_bit_chunks(self):
        x = Bitstream.from_signs([1, -1, 1])
        streams = chunked(x, 1)
        assert [decode(s) for s in streams] == [1.0, -1.0, 1.0]

    def test_join_concatenates_in_order(self):
        s1 = Bitstream.from_bits("101", Encoding.BIPOLAR)
        s2 = Bitstream.from_bits("110", Encoding.BIPOLAR)
        w = joined([s1, s2])
        assert np.array_equal(w.bit_array(), [1, 0, 1, 1, 1, 0])
        assert w == Bitstream.from_bits("101110", Encoding.BIPOLAR)

    def test_single_one_bit_stream(self):
        w = joined([Bitstream.from_bits("1", Encoding.BIPOLAR)])
        assert np.array_equal(w.signs(), [1])

    def test_join_rejects_mixed_lengths(self):
        # A 3-bit stream packs into one byte, a 9-bit stream into two.
        s3 = Bitstream.from_bits("101", Encoding.BIPOLAR)
        s9 = Bitstream.from_bits("101101101", Encoding.BIPOLAR)
        bundle = one_unit_bundle([s3])
        with pytest.raises(ChunkError, match="weights"):
            ScnnStreamBundle(3, s9.bits[None, None], bundle.biases, bundle.output_weights, bundle.activation)
        with pytest.raises(ChunkError, match="biases"):
            ScnnStreamBundle(9, s9.bits[None, None], bundle.biases, bundle.output_weights, bundle.activation)
        # Set pad bits in a 4-bit stream: scnn_to_bnn dropped them silently.
        full = np.full((1, 1, 1), 0xFF, dtype=np.uint8)
        with pytest.raises(ChunkError, match="^weights array has nonzero pad bits after length 4$"):
            ScnnStreamBundle(4, full, full[0] & 0xF0, bundle.output_weights, bundle.activation)
        with pytest.raises(ChunkError, match="^biases array has nonzero pad bits after length 4$"):
            ScnnStreamBundle(4, full & 0xF0, full[0], bundle.output_weights, bundle.activation)

    @given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
    @settings(max_examples=60)
    def test_split_join_round_trip(self, seed, M):
        gen = np.random.default_rng(seed)
        x = Bitstream.from_signs(gen.choice([-1, 1], 24))
        streams = chunked(x, M)
        assert streams == sliced(x, M)
        assert np.array_equal(np.concatenate([s.bit_array() for s in streams]), x.bit_array())
        assert joined(streams) == x

    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_join_bits_inverts_chunk_bits(self, seed, m, rows):
        # A stack of `rows` vectors; rows = 0 is one unstacked vector.
        gen = np.random.default_rng(seed)
        shape = (rows, m) if rows else (m,)
        v = np.packbits(gen.integers(0, 2, shape, dtype=np.uint8), axis=-1)
        for M in divisors(m):
            chunks = chunk_bits(v, m, M)
            assert chunks.shape == (*shape[:-1], m // M, (M + 7) // 8)
            joined_back = join_bits(chunks, M)
            assert joined_back.dtype == np.uint8 and np.array_equal(joined_back, v)


def assert_same_network(back, bnet, name):
    assert (back.m, back.name, back.activation) == (bnet.m, name, bnet.activation)
    assert np.array_equal(back.binary_weights, bnet.binary_weights)
    assert np.array_equal(back.binary_biases, bnet.binary_biases)
    assert np.array_equal(back.output_weights, bnet.output_weights)


class TestNetworkTransform:
    def test_round_trip_bit_exact(self):
        gen = np.random.default_rng(17)
        bnet = random_bnet(gen, 24, 3)
        for M in divisors(24):
            bundle = bnn_to_scnn(bnet, M)
            assert bundle.n == 24 // M and bundle.m == 24  # shared bit budget preserved
            assert bundle.name == f"{bnet.name}-M{M}"
            assert_same_network(scnn_to_bnn(bundle), bnet, bundle.name)

    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_the_bundle_file(self, seed, m, N):
        gen = np.random.default_rng(seed)
        bnet = random_bnet(gen, m, N)
        for M in divisors(m):
            back = scnn_to_bnn(bundle_from_dict(bundle_to_dict(bnn_to_scnn(bnet, M))))
            assert_same_network(back, bnet, f"{bnet.name}-M{M}")

    def test_sign_extension_stream(self):
        for M in (1, 4, 12):
            bnet = BinaryNetwork(all_plus_one(2, M), M, np.array([1, -1]), np.ones(2), Activation.SIGMOID)
            biases = bnn_to_scnn(bnet, M).biases
            assert [decode(Bitstream(row, M, Encoding.BIPOLAR)) for row in biases] == [1.0, -1.0]
        with pytest.raises(ValueError):  # a bias of 0 has no sign extension
            BinaryNetwork(all_plus_one(1, 6), 6, np.array([0]), np.ones(1), Activation.SIGMOID)

    def test_non_constant_bias_rejected_on_join(self):
        gen = np.random.default_rng(3)
        bundle = bnn_to_scnn(random_bnet(gen, 8, 2), 4)
        bundle.biases[0] = Bitstream.from_bits("1010", Encoding.BIPOLAR).bits
        with pytest.raises(ChunkError, match="sign extension"):
            scnn_to_bnn(bundle)

    def test_input_length_checked(self):
        # The equivalence check refuses an input whose length is not the network's m.
        gen = np.random.default_rng(3)
        bnet = random_bnet(gen, 8, 2)
        with pytest.raises(ChunkError, match=r"^input has 9 bits, network has m=8$"):
            preactivation_equivalence_check(bnet, Bitstream.from_signs(gen.choice([-1, 1], 9)), 4)


def per_stream_check(bnet, x, M):
    """The equivalence check stream by stream, sharing no code with the
    packed path: chunks cut from the unpacked bits, `Bitstream.constant` bias
    streams, one xnor_mult per weight/input chunk pair and one apc_sum over
    each unit's n + 1 term streams, with the +/-1 dot product as the BNN side.
    Returns the per-unit lists of BNN preactivations, APC totals and passes."""
    n, xs = bnet.m // M, sliced(x, M)
    preactivations, totals, passed = [], [], []
    for i, w in enumerate(weight_rows(bnet)):
        b = int(bnet.binary_biases[i])
        products = [xnor_mult(wj, xj) for wj, xj in zip(sliced(w, M), xs)]
        total = apc_sum(products + [Bitstream.constant(int(b == 1), M, Encoding.BIPOLAR)])
        wx = int(np.dot(w.signs(), x.signs()))
        preactivations.append(wx + b)
        totals.append(total)
        passed.append(2 * total - (n + 1) * M == wx + M * b)
    return preactivations, totals, passed


def report_lists(report):
    return report.bnn_preactivations.tolist(), report.sc_totals.tolist(), report.passed.tolist()


class TestPackedAgainstPerStream:
    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_every_field_and_gate_tally(self, seed, m, N):
        gen = np.random.default_rng(seed)
        bnet = random_bnet(gen, m, N)
        x = Bitstream.from_signs(gen.choice([-1, 1], m))
        for M in divisors(m):
            with counting() as packed_counts:
                report = preactivation_equivalence_check(bnet, x, M)
            with counting() as stream_counts:
                units = per_stream_check(bnet, x, M)
            assert report_lists(report) == units
            assert (report.bundle.m, report.bundle.M, report.bundle.n) == (m, M, m // M)
            bundle = bnn_to_scnn(bnet, M)
            assert (report.bundle.name, report.bundle.activation) == (bundle.name, bundle.activation)
            for field in ("weights", "biases", "output_weights"):
                assert np.array_equal(getattr(report.bundle, field), getattr(bundle, field)), field
            assert packed_counts == stream_counts

    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_chunk_bits_of_a_stack_is_split_vector_of_each_row(self, seed, m, rows):
        gen = np.random.default_rng(seed)
        vectors = [Bitstream.from_signs(gen.choice([-1, 1], m)) for _ in range(rows)]
        for M in divisors(m):
            chunks = chunk_bits(np.stack([v.bits for v in vectors]), m, M)
            for v, unit in zip(vectors, chunks):
                assert [Bitstream(row, M, Encoding.BIPOLAR) for row in unit] == sliced(v, M)

    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_bundle_lines_are_per_stream_hex_lines(self, seed, m, N):
        gen = np.random.default_rng(seed)
        bnet = random_bnet(gen, m, N)
        for M in divisors(m):
            bundle = bnn_to_scnn(bnet, M)
            doc = bundle_to_dict(bundle)
            assert doc["weight_streams"] == [[to_hex_line(s) for s in sliced(w, M)] for w in weight_rows(bnet)]
            assert doc["bias_streams"] == [
                to_hex_line(Bitstream.constant(int(b == 1), M, Encoding.BIPOLAR)) for b in bnet.binary_biases
            ]
            back = bundle_from_dict(doc)
            assert np.array_equal(back.weights, bundle.weights) and np.array_equal(back.biases, bundle.biases)


class TestEquivalence:
    def test_one_bit_chunks_trivial(self):
        gen = np.random.default_rng(0)
        bnet = random_bnet(gen, 10, 4)
        x = Bitstream.from_signs(gen.choice([-1, 1], 10))
        report = preactivation_equivalence_check(bnet, x, 1)
        assert report.all_passed
        # at M=1 the identity literally reads 2*total - (m+1) = w.x + b
        assert np.array_equal(2 * report.sc_totals - (10 + 1), report.bnn_preactivations)

    def test_small_random_instance(self):
        gen = np.random.default_rng(8)
        bnet = random_bnet(gen, 8, 3)
        x = Bitstream.from_signs(gen.choice([-1, 1], 8))
        report = preactivation_equivalence_check(bnet, x, 4)
        assert report.all_passed
        for i, total in enumerate(report.sc_totals.tolist()):
            wx = int(np.dot(weight_rows(bnet)[i].signs(), x.signs()))
            assert 2 * total - (2 + 1) * 4 == wx + 4 * int(bnet.binary_biases[i])

    def test_maximal_agreement(self):
        m, M = 12, 4
        bnet = BinaryNetwork(
            all_plus_one(1, m),
            m,
            np.array([1]),
            np.array([1.0]),
            Activation.SIGMOID,
        )
        x = Bitstream.from_signs([1] * m)
        report = preactivation_equivalence_check(bnet, x, M)
        assert report.all_passed
        # all n+1 term streams are all-ones: both sides equal m + M
        assert 2 * report.sc_totals[0] - (m // M + 1) * M == m + M
        assert report.bnn_preactivations.tolist() == [m + 1]

    @given(st.integers(0, 2**32), st.sampled_from([(8, 1), (8, 2), (8, 4), (8, 8),
                                                   (12, 3), (12, 6), (16, 4)]))
    @settings(max_examples=60, deadline=None)
    def test_exact_for_random_instances(self, seed, shape):
        m, M = shape
        gen = np.random.default_rng(seed)
        bnet = random_bnet(gen, m, 2)
        x = Bitstream.from_signs(gen.choice([-1, 1], m))
        report = preactivation_equivalence_check(bnet, x, M)
        assert report.all_passed

    @pytest.mark.parametrize("M", [128, 512])
    def test_bias_scaled_by_a_long_chunk(self, M):
        # M * b is 128 or more, past the int8 range: binary biases are stored as int64.
        gen = np.random.default_rng(5)
        bnet = random_bnet(gen, 512, 3)
        x = Bitstream.from_signs(gen.choice([-1, 1], 512))
        report = preactivation_equivalence_check(bnet, x, M)
        assert report.all_passed and report_lists(report) == per_stream_check(bnet, x, M)

    def test_scaled_identity(self):
        # decoded APC sum equals w.x/M + b exactly (integer identity)
        gen = np.random.default_rng(4)
        m, M = 12, 3
        bnet = random_bnet(gen, m, 2)
        x = Bitstream.from_signs(gen.choice([-1, 1], m))
        report = preactivation_equivalence_check(bnet, x, M)
        for i, total in enumerate(report.sc_totals.tolist()):
            wx = int(np.dot(weight_rows(bnet)[i].signs(), x.signs()))
            n = m // M
            decoded = (2 * total - (n + 1) * M) / M
            assert decoded == (wx + M * int(bnet.binary_biases[i])) / M
