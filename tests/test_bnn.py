import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    Activation,
    BinaryNetwork,
    Bitstream,
    SchemaError,
    StreamKey,
    StreamMismatchError,
    activate,
    binarize,
    binarize_network,
    binary_dot,
    fit_reference,
    forward_bnn,
    hard_sigmoid,
    make_target,
    unit_grid,
)
from scbnn.bnn import binary_network_from_dict, binary_network_to_dict
from scbnn.netcore import load_json_object, pow2_scale, save_json
from scbnn import ReferenceNetwork

KEY = StreamKey(0x5151)

sign_lists = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=80)


def packed_signs(rows):
    """The packed (N, ceil(m/8)) weight array of N rows of m +1/-1 values."""
    return np.packbits(np.asarray(rows) == 1, axis=1)


def weight_signs(bnet):
    """A binary network's weights as an (N, m) array of +1/-1."""
    return np.unpackbits(bnet.binary_weights, axis=1, count=bnet.m).astype(int) * 2 - 1


class TestHardSigmoid:
    def test_midpoint(self):
        assert hard_sigmoid(0.0) == 0.5

    def test_upper_clip(self):
        assert hard_sigmoid(3.0) == 1.0
        assert hard_sigmoid(1.0) == 1.0

    def test_lower_boundary(self):
        assert hard_sigmoid(-1.0) == 0.0
        assert hard_sigmoid(-5.0) == 0.0

    def test_linear_interior(self):
        assert hard_sigmoid(0.5) == 0.75
        assert hard_sigmoid(-0.5) == 0.25


class TestBinarize:
    def test_saturated_positive(self):
        for seed in range(50):
            assert binarize(1.0, StreamKey(seed)) == 1
            assert binarize(2.7, StreamKey(seed)) == 1

    def test_saturated_negative(self):
        for seed in range(50):
            assert binarize(-1.0, StreamKey(seed)) == -1
            assert binarize(-9.9, StreamKey(seed)) == -1

    def test_zero_is_unbiased(self):
        draws = [binarize(0.0, KEY.substream("z", t)) for t in range(10_000)]
        assert abs(np.mean(draws)) < 0.04  # 4 standard errors of 2p-1 at p=0.5

    def test_deterministic_in_key(self):
        k = KEY.substream("d", 3)
        assert binarize(0.2, k) == binarize(0.2, k)

    @pytest.mark.parametrize("w", [-0.8, -0.3, 0.3, 0.7])
    def test_mean_matches_two_p_minus_one(self, w):
        trials = 20_000
        draws = [binarize(w, KEY.substream("m", t)) for t in range(trials)]
        expect = 2 * hard_sigmoid(w) - 1
        p = hard_sigmoid(w)
        se = 2 * math.sqrt(p * (1 - p) / trials)
        assert abs(np.mean(draws) - expect) < 4 * se


class TestBinarizeNetwork:
    def _net(self, weights, biases):
        W = np.atleast_2d(np.asarray(weights, dtype=float))
        b = np.asarray(biases, dtype=float)
        return ReferenceNetwork(
            W, b, np.ones(W.shape[0]), Activation.SIGMOID, pow2_scale(max(np.abs(W).max(), np.abs(b).max()))
        )

    def test_saturated_weights_all_plus_one(self):
        net = self._net([[1.0, 2.0], [3.5, 1.0]], [1.0, 4.0])
        bnet = binarize_network(net, KEY)
        for w in weight_signs(bnet):
            assert np.all(w == 1)
        assert np.all(bnet.binary_biases == 1)

    def test_idempotent_on_signs(self):
        net = self._net([[1.0, -1.0], [-1.0, 1.0]], [-1.0, 1.0])
        bnet = binarize_network(net, KEY)
        assert np.array_equal(weight_signs(bnet)[0], [1, -1])
        assert np.array_equal(weight_signs(bnet)[1], [-1, 1])
        assert np.array_equal(bnet.binary_biases, [-1, 1])

    def test_output_weights_copied(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 6, unit_grid(1, 64), StreamKey(3))
        bnet = binarize_network(net, KEY)
        assert np.array_equal(bnet.output_weights, net.output_weights)
        assert bnet.m == net.n and bnet.N == net.N

    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 12)),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_element_binarize(self, shape, seed, data):
        N, n = shape
        values = st.sampled_from([-1.0, 0.0, 1.0, -2.5, 3.0]) | st.floats(-3.0, 3.0)
        W = np.reshape(data.draw(st.lists(values, min_size=N * n, max_size=N * n)), (N, n))
        b = data.draw(st.lists(values, min_size=N, max_size=N))
        key = StreamKey(seed)
        bnet = binarize_network(self._net(W, b), key)
        for i in range(N):
            signs = [binarize(W[i, j], key.substream("binweights", i, j)) for j in range(n)]
            assert np.array_equal(weight_signs(bnet)[i], signs)
            assert bnet.binary_biases[i] == binarize(b[i], key.substream("binbias", i))

    def test_elementwise_unbiasedness(self):
        w = 0.3
        net = self._net([[w]], [0.0])
        trials = 4000
        draws = [
            int(weight_signs(binarize_network(net, KEY.derive(t)))[0, 0])
            for t in range(trials)
        ]
        p = hard_sigmoid(w)
        se = 2 * math.sqrt(p * (1 - p) / trials)
        assert abs(np.mean(draws) - (2 * p - 1)) < 4 * se


class TestForwardBnn:
    def _bnet(self, rows, biases, outputs):
        return BinaryNetwork(
            packed_signs(rows),
            len(rows[0]),
            np.asarray(biases),
            np.asarray(outputs, dtype=float),
            Activation.SIGMOID,
        )

    def test_self_inner_product(self):
        w = [1, -1, 1, 1, -1]
        bnet = self._bnet([w], [1], [1.0])
        x = Bitstream.from_signs(w)
        assert binary_dot(bnet.binary_weights[0], x.bits, 5) == 5

    def test_negated_inner_product(self):
        w = [1, -1, 1, 1, -1]
        x = Bitstream.from_signs([-v for v in w])
        bnet = self._bnet([w], [1], [1.0])
        assert binary_dot(bnet.binary_weights[0], x.bits, 5) == -5

    def test_direct_small_case(self):
        w = Bitstream.from_signs([1, -1, 1, 1])
        x = Bitstream.from_signs([1, 1, -1, 1])
        assert binary_dot(w.bits, x.bits, 4) == 0

    def test_forward_value(self):
        bnet = self._bnet([[1, -1], [1, 1]], [1, -1], [2.0, -1.0])
        x = Bitstream.from_signs([1, 1])
        # units: (0 + 1) and (2 - 1)
        from scbnn import activate

        expect = 2.0 * activate(Activation.SIGMOID, 1.0) - 1.0 * activate(Activation.SIGMOID, 1.0)
        assert forward_bnn(bnet, x) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize(
        "weights, m",
        [
            (np.zeros((2, 1), dtype=np.uint8), 9),  # a 9-bit row needs two bytes
            (np.zeros((2, 2), dtype=np.uint8), 8),
            (np.zeros((0, 1), dtype=np.uint8), 8),
            (np.zeros((2, 1), dtype=np.uint8), 0),
            (np.zeros((2, 1), dtype=np.uint8), -3),
            (np.zeros((2, 1), dtype=np.int64), 8),
            (np.zeros(2, dtype=np.uint8), 8),
            (np.full((2, 1), 0xFF, dtype=np.uint8), 4),  # set pad bits: w.x + b = 5 on ++++ was read as -3
            ([[0], [0]], 8),  # a list was read for its dtype: AttributeError
        ],
        ids=["row-too-short", "row-too-long", "zero-units", "m-zero", "m-negative", "not-uint8", "one-dim", "pad-bits",
             "list"],
    )
    def test_malformed_weight_array_rejected(self, weights, m):
        with pytest.raises(ValueError, match="^binary_weights [^\n]+$"):
            BinaryNetwork(weights, m, np.ones(2), np.ones(2), Activation.SIGMOID)

    @pytest.mark.parametrize(
        "biases, outputs, message",
        [
            ([1, -1, 1], [1.0, 1.0], "inconsistent unit count: 2 weight vectors, 3 biases, 2 outputs"),
            ([1, -1], [1.0, float("nan")], "output_weights contains non-finite values"),
            (np.array([257, -1]), [1.0, 1.0], "binary biases must be +1 or -1"),  # stored as int8, 257 was +1
        ],
        ids=["unit-count", "non-finite-output", "wide-bias"],
    )
    def test_malformed_units_rejected(self, biases, outputs, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            BinaryNetwork(np.zeros((2, 1), dtype=np.uint8), 8, biases, outputs, Activation.SIGMOID)

    def test_length_mismatch(self):
        bnet = self._bnet([[1, -1]], [1], [1.0])
        with pytest.raises(Exception):
            forward_bnn(bnet, Bitstream.from_signs([1, 1, 1]))

    @given(sign_lists, st.data())
    @settings(max_examples=80)
    def test_xnor_popcount_identity(self, signs, data):
        other = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(signs), max_size=len(signs)))
        a = Bitstream.from_signs(signs)
        b = Bitstream.from_signs(other)
        scalar = sum(u * v for u, v in zip(signs, other))
        assert binary_dot(a.bits, b.bits, len(signs)) == scalar

    @given(st.integers(1, 40), st.integers(1, 5), st.sampled_from(list(Activation)), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_one_call_equals_per_unit_sums(self, m, N, activation, seed):
        gen = np.random.default_rng(seed)
        rows = gen.choice([-1, 1], (N, m))
        biases, outputs = gen.choice([-1, 1], N), gen.normal(size=N) * 3
        x = gen.choice([-1, 1], m)
        bnet = BinaryNetwork(packed_signs(rows), m, biases, outputs, activation)
        x_B = Bitstream.from_signs(x)
        assert np.array_equal(binary_dot(bnet.binary_weights, x_B.bits, m), rows @ x)
        # The unit-by-unit reference: exact integer preactivation, scalar
        # activation, output sum in unit order.
        expect = 0.0
        for i in range(N):
            expect += float(outputs[i]) * activate(activation, float(int(rows[i] @ x) + int(biases[i])))
        assert forward_bnn(bnet, x_B) == expect

    def test_byte_width_mismatch(self):
        w = packed_signs([[1] * 9])
        with pytest.raises(StreamMismatchError):
            binary_dot(w, Bitstream.from_signs([1] * 8).bits, 9)
        with pytest.raises(StreamMismatchError, match="^binary vector has nonzero pad bits after length 4$"):
            binary_dot(np.array([0xFF], dtype=np.uint8), np.array([0xF0], dtype=np.uint8), 4)
        with pytest.raises(StreamMismatchError, match="^binary vector is a list, expected a uint8 array of ndim >= 1$"):
            binary_dot(np.array([0xF0], dtype=np.uint8), [0xF0], 4)


class TestBinarySerialization:
    def _bnet(self):
        gen = np.random.default_rng(5)
        return BinaryNetwork(
            packed_signs([gen.choice([-1, 1], 19) for _ in range(3)]),
            19,
            gen.choice([-1, 1], 3),
            gen.normal(size=3),
            Activation.TANH,
            name="roundtrip",
        )

    def test_round_trip(self, tmp_path):
        bnet = self._bnet()
        path = tmp_path / "bnet.json"
        save_json(path, binary_network_to_dict(bnet))
        loaded = binary_network_from_dict(load_json_object(path, "weight file"), where=str(path))
        assert loaded.m == bnet.m and loaded.N == bnet.N
        assert np.array_equal(loaded.binary_weights, bnet.binary_weights)
        assert np.array_equal(loaded.binary_biases, bnet.binary_biases)
        assert np.array_equal(loaded.output_weights, bnet.output_weights)
        assert loaded.activation is bnet.activation

    def test_missing_binary_flag(self):
        doc = binary_network_to_dict(self._bnet())
        del doc["binary"]
        with pytest.raises(SchemaError, match="binary"):
            binary_network_from_dict(doc)

    def test_bad_hex_payload(self):
        doc = binary_network_to_dict(self._bnet())
        doc["binary_weights"][1] = "zz"
        with pytest.raises(SchemaError, match=r"binary_weights\[1\]"):
            binary_network_from_dict(doc)

    def test_bad_bias_value(self):
        doc = binary_network_to_dict(self._bnet())
        doc["binary_biases"][0] = 0
        with pytest.raises(SchemaError):
            binary_network_from_dict(doc)
